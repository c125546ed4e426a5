"""Matrix realizations of the hyperbolic su(1,1) and spin ladder algebras.

Each constructor returns an :class:`AlgebraTriple` holding the three
generators together with the parameters that produced them. Hyperbolic
triples target

    [K0, K+-] = +-K+-,    [K+, K-] = -2 K0,

spin triples the analogous relations with [S+, S-] = +2 Sz.

Two of the realizations are typeset in circulation with sign slips, one in
the raising-root of the Holstein-Primakoff form and one inside the
square-root of the Villain form. Those constructors take a ``fidelity``
switch: ``corrected`` closes the algebra, ``as_printed`` reproduces the
slipped form verbatim so the checkers can measure the damage instead of
silently repairing it. The misprint is recorded in the triple's params.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import (
    HERMITICITY_TOL,
    MIN_BASIS_DIM,
    BasisMismatchError,
    BasisSpec,
    CircleBasis,
    FockBasis,
    OperatorMatrix,
    banded,
    diagonal,
    identity,
    maxabs_norm,
    tensor,
    unitary_exp,
)

FIDELITIES = ("corrected", "as_printed")

HYPERBOLIC = "hyperbolic"
SPIN = "spin"

# Largest generator norm accepted. Each realization below bounds the operator
# norm of its three generators by a number it computes from its parameters and
# dim; the entries of a product of two generators are then at most its square,
# 1e300, and the checks add at most four such products, which stays inside the
# float range (1.8e308). Past it a product overflows into a non-finite entry.
_NORM_BOUND = 1e150


def _require_norm_bound(largest: float, given: str) -> None:
    if not largest <= _NORM_BOUND:
        raise ValueError(
            f"{given} gives generators of norm up to {largest:.3g}, beyond "
            f"{_NORM_BOUND:g}, where a product of two of them overflows"
        )


@dataclass(frozen=True)
class RepParams:
    """Parameters that generated a realization, used to pick expected values.

    ``clamp_excluded`` lists basis states that touch a clamped square-root
    amplitude (Villain outside the spin range); verification projects those
    states out along with the truncation boundary.
    """

    variant: str
    k: float | None = None
    spin: float | None = None
    p0: complex | None = None
    lam: float | None = None
    fidelity: str | None = None
    clamp_excluded: tuple[int, ...] = ()


@dataclass(frozen=True)
class AlgebraTriple:
    """A (K0, K+, K-) or (Sz, S+, S-) matrix triple on a shared basis.

    Construction validates that the three generators share one basis, that
    the diagonal generator is Hermitian, and that the ladder pair are mutual
    adjoints. The as-printed Holstein-Primakoff variant deliberately violates
    adjointness, so that single case is exempted (and flagged in params).
    """

    kind: str
    k0: OperatorMatrix
    kplus: OperatorMatrix
    kminus: OperatorMatrix
    params: RepParams

    def __post_init__(self) -> None:
        if self.kind not in (HYPERBOLIC, SPIN):
            raise ValueError(f"kind must be 'hyperbolic' or 'spin', got {self.kind!r}")
        basis = self.k0.basis
        if self.kplus.basis != basis or self.kminus.basis != basis:
            raise BasisMismatchError("the three generators must share one basis")
        defect = self.k0.hermiticity_defect()
        if defect > HERMITICITY_TOL:
            raise ValueError(
                f"diagonal generator is not Hermitian: defect {defect:.3e}"
            )
        adjoint_breaks = (
            self.params.variant == "hp" and self.params.fidelity == "as_printed"
        )
        if not adjoint_breaks:
            gap = maxabs_norm(self.kplus - self.kminus.dag())
            if gap > HERMITICITY_TOL:
                raise ValueError(
                    f"raising operator is not the adjoint of the lowering one: "
                    f"max|K+ - (K-)^dag| = {gap:.3e}"
                )

    @property
    def basis(self) -> BasisSpec:
        return self.k0.basis

    # Spin-flavoured aliases; the storage is shared.
    @property
    def sz(self) -> OperatorMatrix:
        return self.k0

    @property
    def splus(self) -> OperatorMatrix:
        return self.kplus

    @property
    def sminus(self) -> OperatorMatrix:
        return self.kminus


def bose_ladder(dim: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation/creation pair on a truncated Fock space.

    ``a[n-1, n] = sqrt(n)`` and ``adag = a^dag``, so ``[a, adag]`` equals the
    identity except for the entry ``-(dim-1)`` in the bottom-right corner,
    the unavoidable fingerprint of the cutoff.
    """
    dim = int(dim)
    if dim < MIN_BASIS_DIM:
        raise ValueError(f"dim must be >= {MIN_BASIS_DIM}, got {dim}")
    a = banded(FockBasis((dim,)), {1: np.sqrt(np.arange(1, dim + 1, dtype=np.float64))})
    return a, a.dag()


def _number_values(dim: int) -> np.ndarray:
    return np.arange(dim, dtype=np.float64)


def mp_realization(k: float, dim: int = 64) -> AlgebraTriple:
    """Single-boson discrete-series realization with Bargmann index k.

    K- = (2k + n)^{1/2} a,   K+ = a^dag (2k + n)^{1/2},   K0 = k + n,

    giving K-|n> = sqrt(n (2k + n - 1)) |n-1>. The Casimir is the constant
    k(k-1) on truncation-clean states.
    """
    k = float(k)
    if not k > 0:
        raise ValueError(f"Bargmann index k must be > 0, got {k}")
    # |K+-| <= max sqrt((2k + n)(n + 1)) <= k + dim, and K0 = k + n.
    _require_norm_bound(k + dim, f"Bargmann index k = {k:g} at dim {dim}")
    a, adag = bose_ladder(dim)
    basis = a.basis
    n = _number_values(basis.dim)
    root = diagonal(basis, np.sqrt(2.0 * k + n))
    kminus = root @ a
    kplus = adag @ root
    k0 = diagonal(basis, k + n)
    return AlgebraTriple(
        HYPERBOLIC, k0, kplus, kminus, RepParams(variant="mp", k=k)
    )


def _validate_spin(spin: float) -> float:
    spin = float(spin)
    if not (np.isfinite(spin) and spin > 0) or abs(2 * spin - round(2 * spin)) > 1e-9:
        raise ValueError(f"spin must be a positive half-integer, got {spin}")
    return spin


def hp_spin(spin: float, fidelity: str = "corrected") -> AlgebraTriple:
    """Holstein-Primakoff realization on the (2S+1)-dimensional Fock space.

    corrected:
        S- = (2S - n)^{1/2} a,   S+ = a^dag (2S - n)^{1/2},   Sz = n - S.
        The root vanishes at n = 2S, so the ladder terminates by itself and
        the algebra closes exactly on the full truncated space.
    as_printed:
        the raising root carries the slipped + sign, (2S + n)^{1/2} with n
        read on the raised state, so S+ is no longer the adjoint of S-. At
        S = 1/2 the lone raising element becomes sqrt(2) against 1.
    """
    spin = _validate_spin(spin)
    if fidelity not in FIDELITIES:
        raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
    dim = int(round(2 * spin)) + 1
    a, adag = bose_ladder(dim)
    basis = a.basis
    n = _number_values(dim)
    root_minus = diagonal(basis, np.sqrt(2.0 * spin - n))
    sminus = root_minus @ a
    if fidelity == "corrected":
        splus = adag @ root_minus
    else:
        splus = diagonal(basis, np.sqrt(2.0 * spin + n)) @ adag
    sz = diagonal(basis, n - spin)
    return AlgebraTriple(
        SPIN, sz, splus, sminus,
        RepParams(variant="hp", spin=spin, fidelity=fidelity),
    )


def circle_momentum(
    basis: CircleBasis,
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Momentum operator and the shift pair realizing exp(+-iX).

    P is diagonal in its own eigenbasis; Eplus|p> = |p+1> (annihilating the
    top state, where the lattice ends) and Eminus = Eplus^dag.
    """
    if not isinstance(basis, CircleBasis):
        raise ValueError(f"circle_momentum requires a CircleBasis, got {type(basis).__name__}")
    p = diagonal(basis, basis.momenta())
    eplus = banded(basis, {-1: np.ones(basis.count)})
    return p, eplus, eplus.dag()


def villain_spin(
    spin: float, basis: CircleBasis, fidelity: str = "corrected"
) -> AlgebraTriple:
    """Villain-style spin realization on a circle-momentum lattice.

    Sz = P and the ladder amplitudes come from a square-root profile,

        corrected:   f(P)^2 = (S + 1/2)^2 - (P + 1/2)^2,
        as_printed:  f(P)^2 = (S + 1/2)^2 - (P - 1/2)^2,

    with S- = f(P) Eminus and S+ = Eplus f(P). Negative values under the
    root (states beyond the spin range on a wide lattice) are clamped to
    zero and the touching states are recorded in ``params.clamp_excluded``.

    On the exact-range lattice p = -S..S the corrected variant reproduces
    the textbook spin-S matrices entry for entry. The as-printed profile
    shifts [S+, S-] - 2 Sz by the constant -2 on unclamped states.
    """
    spin = _validate_spin(spin)
    if fidelity not in FIDELITIES:
        raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
    if not isinstance(basis, CircleBasis):
        raise ValueError("villain_spin requires a CircleBasis")
    p = basis.momenta()
    offgrid = abs((p[0] + spin) - round(p[0] + spin))
    if offgrid > 1e-9:
        raise ValueError(
            f"momentum grid starting at {basis.p_min} is not congruent with "
            f"spin {spin} (need p_min + S integer)"
        )
    if p[0] > -spin + 1e-9 or p[-1] < spin - 1e-9:
        raise ValueError(
            f"momentum range [{p[0]}, {p[-1]}] does not cover the spin range "
            f"[{-spin}, {spin}]"
        )
    offset = 0.5 if fidelity == "corrected" else -0.5
    f_squared = (spin + 0.5) ** 2 - (p + offset) ** 2
    clamped = np.flatnonzero(f_squared < 0)
    amplitude = diagonal(basis, np.sqrt(np.clip(f_squared, 0.0, None)))
    pmat, eplus, eminus = circle_momentum(basis)
    sminus = amplitude @ eminus
    splus = eplus @ amplitude
    excluded = sorted(
        {int(j) for c in clamped for j in (c, c + 1) if j < basis.count}
    )
    return AlgebraTriple(
        SPIN, pmat, splus, sminus,
        RepParams(
            variant="villain",
            spin=spin,
            fidelity=fidelity,
            clamp_excluded=tuple(excluded),
        ),
    )


def _validate_p0(p0: complex) -> complex:
    p0 = complex(p0)
    if not np.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    return p0


def _require_circle_norm_bound(basis: CircleBasis, offset: float, given: str) -> None:
    """Bound generators that are a momentum diagonal plus ``offset`` times a
    unit shift: their norm is at most max|p| + offset."""
    p_max = max(abs(basis.p_min), abs(basis.p_min + basis.count - 1))
    _require_norm_bound(p_max + offset, f"{given} with p_min = {basis.p_min:g}")


def saf_realization(p0: complex, basis: CircleBasis) -> AlgebraTriple:
    """Shift-affine single-mode realization on a circle-momentum lattice.

    The lowering operator is an affine function of the momentum times a unit
    shift ("saf"):

        K- = (P + P0) Eminus,   K+ = Eplus (P + P0*),
        K0 = P + Re(P0) - 1/2,

    for an arbitrary complex offset P0. The ladder relations hold exactly on
    interior states, and the Casimir is -1/4 + (P0 - P0*)^2 / 4, a constant
    that only feels the imaginary part of P0.
    """
    if not isinstance(basis, CircleBasis):
        raise ValueError("saf_realization requires a CircleBasis")
    p0 = _validate_p0(p0)
    _require_circle_norm_bound(basis, abs(p0) + 0.5, f"p0 = {p0}")
    p = basis.momenta()
    _, eplus, eminus = circle_momentum(basis)
    kminus = diagonal(basis, p + p0) @ eminus
    kplus = eplus @ diagonal(basis, p + np.conj(p0))
    k0 = diagonal(basis, p + p0.real - 0.5)
    return AlgebraTriple(
        HYPERBOLIC, k0, kplus, kminus, RepParams(variant="saf", p0=p0)
    )


def perelomov_realization(lam: float, basis: CircleBasis) -> AlgebraTriple:
    """Perelomov's single-mode form, transcribed onto the momentum lattice.

    With theta the periodic coordinate and P = -i d/dtheta,

        K0 = P,
        K+- = -i exp(+-i theta) d/dtheta -+ (-1/2 + i lam) exp(+-i theta),

    which in shift form reads K- = Eminus (P - 1/2 + i lam) and
    K+ = Eplus (P + 1/2 - i lam). Entry for entry this equals
    :func:`saf_realization` at P0 = 1/2 + i lam, including at the lattice
    edges, which is what :func:`su11kit.algebra.compare_triples` certifies.
    """
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    if not isinstance(basis, CircleBasis):
        raise ValueError("perelomov_realization requires a CircleBasis")
    _require_circle_norm_bound(basis, lam + 0.5, f"lambda = {lam:g}")
    p = basis.momenta()
    _, eplus, eminus = circle_momentum(basis)
    kminus = eminus @ diagonal(basis, p - 0.5 + 1j * lam)
    kplus = eplus @ diagonal(basis, p + 0.5 - 1j * lam)
    k0 = diagonal(basis, p)
    return AlgebraTriple(
        HYPERBOLIC, k0, kplus, kminus, RepParams(variant="perelomov", lam=lam)
    )


def quadratures(dim: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Canonical pair Q = (a + adag)/sqrt(2), P = (a - adag)/(i sqrt(2))."""
    dim = int(dim)
    if dim < 4:
        raise ValueError(f"dim must be >= 4 for the quadrature pair, got {dim}")
    a, adag = bose_ladder(dim)
    q = (a + adag) * (1.0 / np.sqrt(2.0))
    p = (a - adag) * (1.0 / (1j * np.sqrt(2.0)))
    return q, p


def saf_bose_form(p0: complex, dim: int = 64, form: str = "form1") -> AlgebraTriple:
    """Shift-affine realization rewritten through one bosonic mode.

    form1 substitutes the quadratures directly:

        K- = (P + P0) exp(-iQ),   K+ = exp(iQ) (P + P0*),
        K0 = P + Re(P0) - 1/2,

    form2 exchanges the roles of coordinate and momentum (X -> -P, P -> X):

        K- = (Q + P0) exp(iP),    K+ = exp(-iP) (Q + P0*),
        K0 = Q + Re(P0) - 1/2.

    The exponentials go through :func:`su11kit.linops.unitary_exp`, so they
    are exactly unitary on the truncated space; the ladder relations are then
    truncation-limited rather than exact, converging as dim grows. Each form
    takes one exponential and its adjoint, ``exp(-iH) = exp(iH)^dag`` for
    Hermitian H, so it costs one eigensolve of Q or P, done as the SVD of a
    real bidiagonal matrix of half the size.
    """
    dim = int(dim)
    if dim < 16:
        raise ValueError(f"dim must be >= 16 for the exponential forms, got {dim}")
    if form not in ("form1", "form2"):
        raise ValueError(f"form must be 'form1' or 'form2', got {form!r}")
    p0 = _validate_p0(p0)
    # |Q|, |P| <= sqrt(2 dim), and the shift is unitary.
    _require_norm_bound(abs(p0) + dim, f"p0 = {p0} at dim {dim}")
    q, p = quadratures(dim)
    basis = q.basis
    one = identity(basis)
    # The factor beside the exponential, and exp(sign * i * generator) of K-.
    factor, generator, sign = (p, q, -1) if form == "form1" else (q, p, +1)
    shift = unitary_exp(generator, sign)
    kminus = (factor + p0 * one) @ shift
    kplus = shift.dag() @ (factor + np.conj(p0) * one)
    k0 = factor + (p0.real - 0.5) * one
    return AlgebraTriple(
        HYPERBOLIC, k0, kplus, kminus,
        RepParams(variant=f"bose_{form}", p0=p0),
    )


def two_mode(dim_a: int = 24, dim_b: int = 24) -> AlgebraTriple:
    """Pair-boson realization K- = ab, K+ = a^dag b^dag, K0 = (n_a + n_b + 1)/2.

    The Casimir is diagonal with value -1/4 + (n_a - n_b)^2 / 4, so the
    equal-occupation (pair) sector sits at exactly -1/4.
    """
    dim_a, dim_b = int(dim_a), int(dim_b)
    if dim_a < 4 or dim_b < 4:
        raise ValueError(f"per-mode dims must be >= 4, got ({dim_a}, {dim_b})")
    a, adag = bose_ladder(dim_a)
    b, bdag = bose_ladder(dim_b)
    ia, ib = identity(a.basis), identity(b.basis)
    kminus = tensor(a, b)
    kplus = tensor(adag, bdag)
    k0 = (tensor(adag @ a, ib) + tensor(ia, bdag @ b) + tensor(ia, ib)) * 0.5
    return AlgebraTriple(
        HYPERBOLIC, k0, kplus, kminus, RepParams(variant="two_mode")
    )
