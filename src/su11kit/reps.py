"""Matrix realizations of the hyperbolic su(1,1) and spin ladder algebras.

Each constructor returns an :class:`AlgebraTriple` holding the three
generators, K0, K+ and K-, together with the parameters that produced them.
Both kinds of triple target

    [K0, K+-] = +-K+-,    [K+, K-] = -2 sign K0,

with :attr:`AlgebraTriple.sign` +1 for the hyperbolic su(1,1) and -1 for
spin, where K0, K+ and K- are the usual Sz, S+ and S-.

Two of the realizations are typeset in circulation with sign slips, one in
the raising-root of the Holstein-Primakoff form and one inside the
square-root of the Villain form. Those constructors take a ``fidelity``
switch: ``corrected`` closes the algebra, ``as_printed`` reproduces the
slipped form verbatim so the checkers can measure the damage instead of
silently repairing it. The misprint is recorded in the triple's params.

Each constructor also records its Casimir's closed forms in
``params.casimir``; the checkers compare the matrices against them.

mp, hp, villain, saf and perelomov are one-step ladders built by ``_ladder``:
K0 diagonal, ``K-[i, i+1] = lower[i]`` and K+ = K-^dag. hp as printed and
perelomov pass their own K+; perelomov's p + 1/2 at the state it raises and
K-^dag's p - 1/2 at the state above can round apart off a half-integer lattice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .linops import (
    DENSE_ARRAYS,
    HERMITICITY_TOL,
    BasisMismatchError,
    BasisSpec,
    CircleBasis,
    FockBasis,
    OperatorMatrix,
    banded,
    diagonal,
    identity,
    tensor,
    _adjoint_gap,
    _integer,
    _require_budget,
    _times_exp,
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

    ``casimir`` holds the Casimir's closed forms as (formula text, expected
    value) pairs, the value a float or, for a Casimir that is not constant,
    a read-only diagonal; they take no part in equality or hashing.
    ``clamp_excluded`` is a read-only ascending ``np.intp`` array of the
    basis states that touch a clamped square-root amplitude (Villain outside
    the spin range), empty by default; like ``casimir``, it takes no part in
    equality or hashing. Verification projects those states out along with
    the truncation boundary.
    """

    variant: str
    casimir: tuple[tuple[str, float | np.ndarray], ...] = field(default=(), compare=False)
    fidelity: str | None = None
    clamp_excluded: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp),
                                       compare=False)


@dataclass(frozen=True)
class AlgebraTriple:
    """A (K0, K+, K-) matrix triple on a shared basis; for a spin triple
    these are (Sz, S+, S-).

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
            gap = _adjoint_gap(self.kplus, self.kminus)
            if gap > HERMITICITY_TOL:
                raise ValueError(
                    f"raising operator is not the adjoint of the lowering one: "
                    f"max|K+ - (K-)^dag| = {gap:.3e}"
                )

    @property
    def basis(self) -> BasisSpec:
        return self.k0.basis

    @property
    def sign(self) -> float:
        """+1.0 for a hyperbolic triple, -1.0 for a spin one: [K+, K-] = -2 sign K0."""
        return 1.0 if self.kind == HYPERBOLIC else -1.0


def bose_ladder(dim: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation/creation pair on a truncated Fock space.

    ``a[n-1, n] = sqrt(n)`` and ``adag = a^dag``, so ``[a, adag]`` equals the
    identity except for the entry ``-(dim-1)`` in the bottom-right corner,
    the unavoidable fingerprint of the cutoff. :class:`su11kit.linops.FockBasis`
    reads ``dim``, so a dim below 2, 2.5, inf and nan raise ValueError.
    """
    basis = FockBasis((dim,))
    a = banded(basis, {1: np.sqrt(np.arange(1, basis.dim + 1, dtype=np.float64))})
    return a, a.dag()


def _ladder(kind: str, basis: BasisSpec, k0: np.ndarray, lower: np.ndarray,
            params: RepParams, upper: np.ndarray | None = None) -> AlgebraTriple:
    """K0 = diag(k0), ``K-[i, i+1] = lower[i]``, and K+ = K-^dag or
    ``K+[i, i-1] = upper[i]``; ``lower[-1]`` and ``upper[0]`` are dropped."""
    kminus = banded(basis, {1: lower})
    kplus = kminus.dag() if upper is None else banded(basis, {-1: upper})
    return AlgebraTriple(kind, diagonal(basis, k0), kplus, kminus, params)


def mp_realization(k: float, dim: int = 64) -> AlgebraTriple:
    """Single-boson discrete-series realization with Bargmann index k.

    K- = (2k + n)^{1/2} a,   K+ = a^dag (2k + n)^{1/2},   K0 = k + n,

    giving K-|n> = sqrt(n (2k + n - 1)) |n-1>. The Casimir is the constant
    k(k-1) on truncation-clean states.
    """
    dim = _integer(dim, "dim")
    k = float(k)
    if not k > 0:
        raise ValueError(f"Bargmann index k must be > 0, got {k}")
    # |K+-| <= max sqrt((2k + n)(n + 1)) <= k + dim, and K0 = k + n.
    _require_norm_bound(k + dim, f"Bargmann index k = {k:g} at dim {dim}")
    basis = FockBasis((dim,))
    n = np.arange(dim, dtype=np.float64)
    return _ladder(
        HYPERBOLIC, basis, k + n, np.sqrt(2.0 * k + n) * np.sqrt(n + 1),
        RepParams(variant="mp", casimir=(("k*(k-1)", k * (k - 1.0)),)),
    )


def _validate_spin(spin: float) -> float:
    spin = float(spin)
    if np.isfinite(spin) and spin > sys.float_info.max / 2:  # 2S would overflow
        raise ValueError(f"spin must be at most {sys.float_info.max / 2:.3g}, got {spin}")
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
    basis = FockBasis((int(round(2 * spin)) + 1,))
    n = np.arange(basis.dim, dtype=np.float64)
    return _ladder(
        SPIN, basis, n - spin, np.sqrt(2.0 * spin - n) * np.sqrt(n + 1),
        RepParams(variant="hp", casimir=(("S*(S+1)", spin * (spin + 1.0)),),
                  fidelity=fidelity),
        None if fidelity == "corrected" else np.sqrt(2.0 * spin + n) * np.sqrt(n),
    )


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
    # A clamped state and the one above it, when there is one.
    touching = np.zeros(basis.count + 1, dtype=bool)
    touching[clamped] = touching[clamped + 1] = True
    excluded = np.flatnonzero(touching[:basis.count])
    excluded.setflags(write=False)
    return _ladder(
        SPIN, basis, p, np.sqrt(np.clip(f_squared, 0.0, None)),
        RepParams(
            variant="villain",
            casimir=(("S*(S+1)", spin * (spin + 1.0)),),
            fidelity=fidelity,
            clamp_excluded=excluded,
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
    return _ladder(
        HYPERBOLIC, basis, p + p0.real - 0.5, p + p0,
        RepParams(variant="saf", casimir=(("-1/4 + (P0 - conj(P0))^2/4", -0.25 - p0.imag ** 2),)),
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
    Its Casimir is quoted in print as -1/4 - lam^2/4, while the mapping to
    ``saf`` implies -1/4 - lam^2; both are recorded, the implied one first.
    """
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    if not isinstance(basis, CircleBasis):
        raise ValueError("perelomov_realization requires a CircleBasis")
    _require_circle_norm_bound(basis, lam + 0.5, f"lambda = {lam:g}")
    p = basis.momenta()
    return _ladder(
        HYPERBOLIC, basis, p, np.roll(p - 0.5 + 1j * lam, -1),
        RepParams(variant="perelomov", casimir=(("-1/4 - lam^2", -0.25 - lam ** 2),
                                                ("-1/4 - lam^2/4", -0.25 - lam ** 2 / 4.0))),
        np.roll(p + 0.5 - 1j * lam, 1),
    )


def quadratures(dim: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Canonical pair Q = (a + adag)/sqrt(2), P = (a - adag)/(i sqrt(2))."""
    dim = _integer(dim, "dim")
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

    The exponentials go through :func:`su11kit.linops._times_exp`, so they
    are exactly unitary on the truncated space; the ladder relations are then
    truncation-limited rather than exact, converging as dim grows. K+ is
    the adjoint of K-, which it is by definition, since
    ``exp(iH) = exp(-iH)^dag`` for Hermitian H: a view of K-'s array, with
    nothing copied. So a form costs one exponential and one band x dense
    product, which is written over the exponential's own array. The
    exponential takes the SVD of a real bidiagonal matrix of half the size,
    for the eigensystem of Q or P, and three real products of half the size,
    one per parity block of the result. The build, and a check or casimir of
    the result, hold at most :data:`su11kit.linops.DENSE_ARRAYS` dense
    dim x dim arrays at their peak, so a dim for which they would pass the
    memory budget (from 8 193) raises ValueError before any is built.
    """
    dim = _integer(dim, "dim")
    if dim < 16:
        raise ValueError(f"dim must be >= 16 for the exponential forms, got {dim}")
    if form not in ("form1", "form2"):
        raise ValueError(f"form must be 'form1' or 'form2', got {form!r}")
    p0 = _validate_p0(p0)
    # |Q|, |P| <= sqrt(2 dim), and the shift is unitary.
    _require_norm_bound(abs(p0) + dim, f"p0 = {p0} at dim {dim}")
    _require_budget(16 * DENSE_ARRAYS * dim * dim,
                    f"{DENSE_ARRAYS} dense {{0}}x{{0}} complex matrices", dim)
    q, p = quadratures(dim)
    basis = q.basis
    one = identity(basis)
    # The factor beside the exponential, and exp(sign * i * generator) of K-.
    factor, generator, sign = (p, q, -1) if form == "form1" else (q, p, +1)
    kminus = _times_exp(factor + p0 * one, generator, sign)
    kplus = kminus.dag()
    k0 = factor + (p0.real - 0.5) * one
    return AlgebraTriple(
        HYPERBOLIC, k0, kplus, kminus,
        RepParams(variant=f"bose_{form}",
                  casimir=(("-1/4 + (P0 - conj(P0))^2/4", -0.25 - p0.imag ** 2),)),
    )


def two_mode(dim: int = 24) -> AlgebraTriple:
    """Pair-boson realization K- = ab, K+ = a^dag b^dag, K0 = (n_a + n_b + 1)/2,
    with ``dim`` states in each mode.

    The Casimir is diagonal with value -1/4 + (n_a - n_b)^2 / 4, so the
    equal-occupation (pair) sector sits at exactly -1/4.
    """
    dim = _integer(dim, "dim")
    if dim < 4:
        raise ValueError(f"per-mode dim must be >= 4, got {dim}")
    a, adag = bose_ladder(dim)
    one = identity(a.basis)
    kminus = tensor(a, a)
    kplus = tensor(adag, adag)
    k0 = (tensor(adag @ a, one) + tensor(one, adag @ a) + tensor(one, one)) * 0.5
    occ = k0.basis.occupations()
    expected = -0.25 + (occ[:, 0] - occ[:, 1]).astype(np.float64) ** 2 / 4.0
    expected.flags.writeable = False
    return AlgebraTriple(
        HYPERBOLIC, k0, kplus, kminus,
        RepParams(variant="two_mode", casimir=(("-1/4 + (n_a - n_b)^2/4", expected),)),
    )
