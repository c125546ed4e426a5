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
:func:`pair_energy_closed_form` gives the pair diagonal without matrices; the
tests use it as an oracle, but verify_reduction does not run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CheckSpec
from .linops import OperatorMatrix, _integer, identity, tensor
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
    tolerance: float


def build_direct_hamiltonian(params: ModelParams, dim: int = 24) -> OperatorMatrix:
    """The two-oscillator Hamiltonian as explicit operator products, with
    ``dim`` states in each mode.

    Annihilators act first in every quartic term, so each diagonal entry is
    exact all the way to the cutoff: the matrix equals
    eps(n_a+n_b) + Phi2 n_a n_b + Phi1 (n_a(n_a-1) + n_b(n_b-1)) on the
    occupation diagonal.

    Every product is taken per mode before the Kronecker product. The cross
    term uses the mixed-product rule (A (x) B)(C (x) D) = AC (x) BD, so
    a+ b+ b a is built as (a+ a) (x) (b+ b) instead of a product of two
    d^2 x d^2 matrices. Every factor is band-stored, so the result is a
    single band, the diagonal, and the build costs O(dim^2) time and memory.
    """
    if dim < 4:
        raise ValueError(f"per-mode dim must be >= 4, got {dim}")
    a, adag = bose_ladder(dim)
    one = identity(a.basis)
    n, pair = adag @ a, adag @ adag @ a @ a
    number = tensor(n, one) + tensor(one, n)
    cross = tensor(n, n)
    quartic = tensor(pair, one) + tensor(one, pair)
    return params.epsilon * number + params.phi2 * cross + params.phi1 * quartic


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


def verify_reduction(
    params: ModelParams, n_pairs: int = 16, tol: float = 1e-9
) -> ReductionResult:
    """Compare pair-sector eigenvalues against the free-particle prediction.

    The direct route builds the two-oscillator Hamiltonian, which conserves
    both occupations and so is stored as its diagonal alone, and reads the
    eigenvalues of the first ``n_pairs`` pair states |n, n> off that
    diagonal; the predicted route evaluates
    H0 + p_n^2/(2m) at the momenta p_n = n + 1 - P0, the values singled out
    by matching the diagonal generator between the pair-boson form
    (eigenvalue n + 1/2) and the shift-affine form (p + P0 - 1/2). Both lists
    are sorted ascending before comparison. A ``n_pairs`` of 2.5, inf or nan
    and a ``tol`` that :class:`su11kit.algebra.CheckSpec` refuses raise ValueError.
    """
    n_pairs = _integer(n_pairs, "n_pairs")
    if n_pairs < 2:
        raise ValueError(f"n_pairs must be >= 2, got {n_pairs}")
    CheckSpec(tolerance=tol)
    # Two spare levels per mode beyond the last pair state.
    dim = n_pairs + 2
    hamiltonian = build_direct_hamiltonian(params, dim)
    pairs = np.arange(n_pairs) * (dim + 1)  # |n, n> is state n dim + n
    # + 0.0 turns -0.0 entries into 0.0, so an exactly zero level prints as 0.0.
    direct = np.sort(hamiltonian.diagonal()[pairs].real + 0.0)

    p0 = p0_of(params)
    h0, mass = free_params(params)
    momenta = np.arange(n_pairs, dtype=np.float64) + 1.0 - p0
    predicted = np.sort(h0 + momenta ** 2 / (2.0 * mass))

    max_deviation = float(np.max(np.abs(direct - predicted)))
    return ReductionResult(
        p0=p0,
        h0=h0,
        mass=mass,
        direct_spectrum=tuple(float(x) for x in direct),
        predicted_spectrum=tuple(float(x) for x in predicted),
        max_deviation=max_deviation,
        condensate=params.condensate,
        tolerance=float(tol),
    )
