"""Two coupled nonlinear oscillators and their pair-sector reduction.

The model Hamiltonian

    H = eps (n_a + n_b) + Phi2 a+ b+ b a + Phi1 (a+ a+ a a + b+ b+ b b)

conserves each mode's occupation, so the equal-occupation (pair) subspace is
exactly invariant. Written through the pair-boson triple, H becomes a
polynomial in K0 and K+K-, and substituting the shift-affine realization with
the right constant momentum offset completes the square: on the pair ladder
the spectrum is that of a free particle, H0 + P^2/(2m). :func:`verify_reduction`
measures the agreement level by level between two routes: the pair-state
eigenvalues of the two-oscillator matrix, which is diagonal in the occupation
basis so they are read off its diagonal, and the free-particle formula.
:func:`build_direct_hamiltonian` assembles that diagonal from the per-mode
diagonals of the band products a+ a and a+ a+ a a by outer sums and products,
without Kronecker products, written into the band's own complex vector; its
real parts are bit for bit those of the Kronecker-product sum.
:func:`pair_energy_closed_form` gives the pair diagonal without matrices; the
tests use it as an oracle, but verify_reduction does not run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import _BLOCK_BYTES, FockBasis, OperatorMatrix, _Fresh, _integer, identity
from .reps import HYPERBOLIC, AlgebraTriple, bose_ladder

#: |2 Phi1 + Phi2| below this is treated as singular rather than computed
#: with blowup; mass and the momentum offset both divide by it.
SINGULAR_COUPLING_TOL = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Oscillator energy and the two interaction strengths, one energy unit.

    The combination 2*phi1 + phi2 sets the inverse mass of the reduced
    problem and must stay away from zero.
    """

    epsilon: float
    phi1: float
    phi2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "phi1", float(self.phi1))
        object.__setattr__(self, "phi2", float(self.phi2))
        if abs(self.pair_coupling) < SINGULAR_COUPLING_TOL:
            raise ValueError(
                f"2*phi1 + phi2 = {self.pair_coupling!r} is singular "
                f"(|value| < {SINGULAR_COUPLING_TOL:g}); mass and momentum "
                f"offset are undefined"
            )
        try:
            finite = all(np.isfinite((p0_of(self), *free_params(self))))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"epsilon={self.epsilon!r}, phi1={self.phi1!r}, phi2={self.phi2!r} "
                f"give a non-finite momentum offset, condensate energy or mass"
            )

    @property
    def pair_coupling(self) -> float:
        return 2.0 * self.phi1 + self.phi2

    @property
    def condensate(self) -> bool:
        """True when the pair band has a finite bottom (ground condensate)."""
        return self.pair_coupling > 0


@dataclass(frozen=True)
class ReductionResult:
    """Spectra from both routes plus the derived free-particle constants."""

    p0: float
    h0: float
    mass: float
    direct_spectrum: tuple[float, ...]
    predicted_spectrum: tuple[float, ...]
    max_deviation: float
    condensate: bool


def build_direct_hamiltonian(params: ModelParams, dim: int = 24) -> OperatorMatrix:
    """The two-oscillator Hamiltonian, with ``dim`` states in each mode, as its
    occupation diagonal.

    Annihilators act first in every quartic term, so each diagonal entry is
    exact all the way to the cutoff: the matrix equals
    eps(n_a+n_b) + Phi2 n_a n_b + Phi1 (n_a(n_a-1) + n_b(n_b-1)) on the
    occupation diagonal.

    Every term conserves both occupations, and for diagonal per-mode factors
    <n_a,n_b|A (x) B|n_a,n_b> = A[n_a,n_a] B[n_b,n_b]. So the per-mode
    diagonals n = diag(a+ a) and pair = diag(a+ a+ a a), taken from the band
    products, are combined by float64 outer sums and products over the
    row-major two-mode index, in the operation order
    (eps (n_a + n_b) + Phi2 n_a n_b) + Phi1 (pair_a + pair_b). The real part
    of every entry is then bit for bit that of the Kronecker-product
    assembly, eps (n (x) 1 + 1 (x) n) + Phi2 n (x) n + Phi1 (pair (x) 1 +
    1 (x) pair), without its complex d^2 bands. The levels are formed one
    row block of about :data:`su11kit.linops._BLOCK_BYTES` at a time, in two
    float64 scratch blocks, and each block is written into its rows of the
    band's own vector, with +0.0 imaginary parts, so the build costs
    O(dim^2) time and one complex d^2 vector. ``dim`` is read by
    :func:`su11kit.linops._integer` with least value 4, so 2.5, inf, nan and
    3 raise ValueError. A dim whose bands would pass the memory budget is
    refused before anything of the two-mode size is allocated. Levels that
    overflow raise ValueError naming the couplings and the dim.
    """
    dim = _integer(dim, "dim", 4)
    # The ladder's basis refuses a dim past the budget for one mode, and the
    # two-mode basis one whose square is, both before anything of size dim^2.
    a, adag = bose_ladder(dim)
    basis = FockBasis((dim, dim))
    n = (adag @ a).diagonal().real
    pair = (adag @ adag @ a @ a).diagonal().real
    band = np.empty((dim, dim), dtype=np.complex128)
    step = max(1, _BLOCK_BYTES // (8 * dim))
    scratch = np.empty((2, min(step, dim), dim))
    try:
        with np.errstate(over="raise"):
            for r0 in range(0, dim, step):
                r1 = min(r0 + step, dim)
                levels, term = scratch[:, :r1 - r0]
                np.add.outer(n[r0:r1], n, out=levels)
                levels *= params.epsilon
                np.multiply.outer(n[r0:r1], n, out=term)
                term *= params.phi2
                levels += term
                np.add.outer(pair[r0:r1], pair, out=term)
                term *= params.phi1
                levels += term
                band[r0:r1] = levels  # real parts, with +0.0 imaginary parts
    except FloatingPointError:
        raise ValueError(f"epsilon={params.epsilon!r}, phi1={params.phi1!r}, "
                         f"phi2={params.phi2!r} give non-finite levels at dim {dim}") from None
    # Freed before the constructor's finiteness mask of d^2 bools is made.
    del scratch, levels, term
    return OperatorMatrix(basis, _Fresh({0: band.reshape(-1)}))


def build_k_form(params: ModelParams, triple: AlgebraTriple) -> OperatorMatrix:
    """The same Hamiltonian written through a hyperbolic triple.

    H = (2 Phi1 - eps) + (2 eps - 6 Phi1) K0 + 4 Phi1 K0^2
        + (Phi2 - 2 Phi1) K+ K-.

    With the pair-boson triple this reproduces
    :func:`build_direct_hamiltonian` entrywise; with the shift-affine triple
    at the canonical momentum offset the linear term cancels and the operator
    collapses to H0 + P^2/(2m) on interior states.
    """
    if triple.kind != HYPERBOLIC:
        raise ValueError(f"build_k_form requires a hyperbolic triple, got {triple.kind}")
    one = identity(triple.basis)
    k0, kp, km = triple.k0, triple.kplus, triple.kminus
    return (
        (2.0 * params.phi1 - params.epsilon) * one
        + (2.0 * params.epsilon - 6.0 * params.phi1) * k0
        + 4.0 * params.phi1 * (k0 @ k0)
        + (params.phi2 - 2.0 * params.phi1) * (kp @ km)
    )


def p0_of(params: ModelParams) -> float:
    """Momentum offset that cancels the linear term of the reduced problem:
    (3 Phi1 + Phi2 - eps) / (2 Phi1 + Phi2)."""
    return (3.0 * params.phi1 + params.phi2 - params.epsilon) / params.pair_coupling


def free_params(params: ModelParams) -> tuple[float, float]:
    """Condensate energy and effective mass of the reduced free particle:

        H0 = -(Phi1 - eps)^2 / (2 Phi1 + Phi2),
        m  = 1 / (4 Phi1 + 2 Phi2).

    For 2 Phi1 + Phi2 > 0 the band has a ground state (condensate) at H0.
    """
    h0 = -((params.phi1 - params.epsilon) ** 2) / params.pair_coupling
    mass = 1.0 / (4.0 * params.phi1 + 2.0 * params.phi2)
    return h0, mass


def pair_energy_closed_form(params: ModelParams, n: int) -> float:
    """Diagonal energy of the pair state |n, n>:
    (2 Phi1 + Phi2) n^2 + 2 (eps - Phi1) n, computed without matrices."""
    n = float(n)
    return params.pair_coupling * n ** 2 + 2.0 * (params.epsilon - params.phi1) * n


def verify_reduction(params: ModelParams, n_pairs: int = 16) -> ReductionResult:
    """Compare pair-sector eigenvalues against the free-particle prediction.

    The direct route builds the two-oscillator Hamiltonian, which conserves
    both occupations and so is stored as its diagonal alone, and reads the
    eigenvalues of the first ``n_pairs`` pair states |n, n> off that
    diagonal; the predicted route evaluates
    H0 + p_n^2/(2m) at the momenta p_n = n + 1 - P0, the values singled out
    by matching the diagonal generator between the pair-boson form
    (eigenvalue n + 1/2) and the shift-affine form (p + P0 - 1/2). Both lists
    are sorted ascending before comparison; the caller gates ``max_deviation``.
    A ``n_pairs`` of 2.5, inf, nan or 1 raises ValueError, and so do couplings
    whose predicted levels, or their deviations from the direct ones,
    overflow; the message names the couplings and ``n_pairs``.
    """
    n_pairs = _integer(n_pairs, "n_pairs", 2)
    # Two spare levels per mode beyond the last pair state.
    dim = n_pairs + 2
    hamiltonian = build_direct_hamiltonian(params, dim)
    pairs = np.arange(n_pairs) * (dim + 1)  # |n, n> is state n dim + n
    # + 0.0 turns -0.0 entries into 0.0, so an exactly zero level prints as 0.0.
    direct = np.sort(hamiltonian.diagonal()[pairs].real + 0.0)

    p0 = p0_of(params)
    h0, mass = free_params(params)
    momenta = np.arange(n_pairs, dtype=np.float64) + 1.0 - p0
    try:
        with np.errstate(over="raise"):
            predicted = np.sort(h0 + momenta ** 2 / (2.0 * mass))
            max_deviation = float(np.max(np.abs(direct - predicted)))
    except FloatingPointError:
        raise ValueError(f"epsilon={params.epsilon!r}, phi1={params.phi1!r}, "
                         f"phi2={params.phi2!r} give non-finite predicted levels "
                         f"or deviations at n_pairs {n_pairs}") from None
    return ReductionResult(
        p0=p0,
        h0=h0,
        mass=mass,
        direct_spectrum=tuple(float(x) for x in direct),
        predicted_spectrum=tuple(float(x) for x in predicted),
        max_deviation=max_deviation,
        condensate=params.condensate,
    )
