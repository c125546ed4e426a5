"""Dense complex operator matrices on truncated state spaces.

The working currency of the package is :class:`OperatorMatrix`: a square
complex matrix tagged with the basis it acts on. Bases come in two flavours,
truncated occupation-number (Fock) bases with one or two modes, and
circle-momentum bases whose states carry unit-spaced momentum eigenvalues.
Binary operations refuse to mix operators from different bases; that single
rule catches most wiring mistakes in the layers above.

Everything is dense, double precision and eager. The benchmark in
``perfbench/`` runs operands of up to 1024 rows for the checks and 2500 rows
for the two-mode Hamiltonian of the reduction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

#: Largest max-abs Hermiticity defect accepted by the spectral routines.
HERMITICITY_TOL = 1e-10

#: Smallest basis dimension the package works with. Degenerate 1-state spaces
#: support none of the shift/ladder structure, while dimension 2 is required
#: by the spin-1/2 realizations.
MIN_BASIS_DIM = 2


class BasisMismatchError(ValueError):
    """Two operands live on different bases, or a matrix does not fit its basis."""


@dataclass(frozen=True)
class FockBasis:
    """Truncated occupation-number basis for one or two bosonic modes.

    Two-mode states are enumerated row-major, ``index = n_a * dim_b + n_b``.
    The :func:`tensor` convention and every golden value rely on that
    ordering, so it is fixed here and nowhere else.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (1, 2):
            raise ValueError(f"FockBasis supports 1 or 2 modes, got {len(dims)}")
        if any(d < MIN_BASIS_DIM for d in dims):
            raise ValueError(
                f"per-mode dimension must be >= {MIN_BASIS_DIM}, got {dims}"
            )

    @property
    def modes(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def occupations(self) -> np.ndarray:
        """Occupation numbers of every basis state, shape ``(dim, modes)``."""
        if self.modes == 1:
            return np.arange(self.dims[0], dtype=np.int64)[:, None]
        na, nb = np.divmod(np.arange(self.dim, dtype=np.int64), self.dims[1])
        return np.stack([na, nb], axis=1)


@dataclass(frozen=True)
class CircleBasis:
    """Momentum eigenbasis of P = -i d/dX on a periodic coordinate.

    State ``j`` carries the dimensionless momentum ``p_min + j`` (unit
    spacing), on which ``exp(+-iX)`` act as pure shifts.
    """

    p_min: float
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_min", float(self.p_min))
        object.__setattr__(self, "count", int(self.count))
        if not np.isfinite(self.p_min):
            raise ValueError(f"p_min must be finite, got {self.p_min}")
        if self.count < MIN_BASIS_DIM:
            raise ValueError(f"count must be >= {MIN_BASIS_DIM}, got {self.count}")

    @property
    def dim(self) -> int:
        return self.count

    def momenta(self) -> np.ndarray:
        return self.p_min + np.arange(self.count, dtype=np.float64)


BasisSpec = FockBasis | CircleBasis


class _Fresh:
    """A complex128 array that arithmetic has just allocated.

    Nothing else references it, so :class:`OperatorMatrix` adopts it instead
    of copying it.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Square complex matrix tagged with the basis it acts on.

    Entries are stored as an immutable complex128 array; all arithmetic
    returns new values, so instances can be shared freely between threads.
    The constructor copies the caller's array once. The results of
    arithmetic and :func:`tensor` are arrays nothing else holds, so they are
    adopted without a copy; the shape, basis and finiteness checks run on
    every construction either way.
    """

    basis: BasisSpec
    entries: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.entries, _Fresh):
            arr = self.entries.array
        else:
            arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {arr.shape}")
        if arr.shape[0] != self.basis.dim:
            raise BasisMismatchError(
                f"entries are {arr.shape[0]}x{arr.shape[1]} but the basis has "
                f"dimension {self.basis.dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dag(self) -> "OperatorMatrix":
        """Hermitian conjugate on the same basis."""
        return OperatorMatrix(self.basis, self.entries.conj().T)

    def hermiticity_defect(self) -> float:
        """max|A - A^dag|, zero for an exactly Hermitian matrix."""
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        if not isinstance(other, OperatorMatrix):
            raise TypeError(f"expected OperatorMatrix, got {type(other).__name__}")
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"operands live on different bases: {self.basis} vs {other.basis}"
            )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        return OperatorMatrix(self.basis, _Fresh(self.entries @ other.entries))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        return OperatorMatrix(self.basis, _Fresh(self.entries + other.entries))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        return OperatorMatrix(self.basis, _Fresh(self.entries - other.entries))

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, _Fresh(-self.entries))

    def __mul__(self, scalar) -> "OperatorMatrix":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return OperatorMatrix(self.basis, _Fresh(self.entries * complex(scalar)))

    __rmul__ = __mul__


def identity(basis: BasisSpec) -> OperatorMatrix:
    return OperatorMatrix(basis, np.eye(basis.dim, dtype=np.complex128))


def diagonal(basis: BasisSpec, values) -> OperatorMatrix:
    """Diagonal operator from a length-``dim`` sequence of values."""
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (basis.dim,):
        raise ValueError(
            f"need {basis.dim} diagonal values, got shape {vals.shape}"
        )
    return OperatorMatrix(basis, np.diag(vals))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA on the shared basis of the operands."""
    a._require_same_basis(b)
    return a @ b - b @ a


def maxabs_norm(a: OperatorMatrix) -> float:
    """Maximum absolute entry; the residual norm used by every check."""
    return float(np.max(np.abs(a.entries)))


def _require_hermitian(a: OperatorMatrix, caller: str) -> None:
    defect = a.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"{caller} requires a Hermitian matrix: max|A - A^dag| = "
            f"{defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )


def hermitian_eigensystem(a: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Raises ValueError, naming the offending residual, when the input fails the
    Hermiticity tolerance.
    """
    _require_hermitian(a, "hermitian_eigensystem")
    eigenvalues, eigenvectors = np.linalg.eigh(a.entries)
    return eigenvalues, eigenvectors


def unitary_exp(h: OperatorMatrix, sign: int = 1) -> OperatorMatrix:
    """exp(sign * i * H) for Hermitian H, via the spectral decomposition.

    The result is exactly unitary on the truncated space by construction
    (phases of modulus one on an orthonormal frame), which is why this route
    is used instead of a series expansion.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    eigenvalues, v = hermitian_eigensystem(h)
    phases = np.exp(1j * sign * eigenvalues)
    return OperatorMatrix(h.basis, (v * phases) @ v.conj().T)


def tensor(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two single-mode Fock operators.

    The result lives on the two-mode basis with the row-major index
    convention of :class:`FockBasis` (first factor is the major index).
    """
    for op in (a, b):
        if not (isinstance(op.basis, FockBasis) and op.basis.modes == 1):
            raise ValueError("tensor requires single-mode Fock operators")
    out_basis = FockBasis((a.basis.dims[0], b.basis.dims[0]))
    return OperatorMatrix(out_basis, _Fresh(np.kron(a.entries, b.entries)))


def interior_projector(
    basis: BasisSpec, margin: int, excluded: tuple[int, ...] = ()
) -> OperatorMatrix:
    """Diagonal 0/1 projector onto states away from the truncation boundary.

    Keeps the states whose labels all lie in ``[margin, size - 1 - margin]``:
    the occupation of each mode of a Fock basis, the lattice index of a
    circle basis. The states listed in ``excluded`` are dropped as well.
    Shift-built operators are only faithful on this interior, so residual
    checks evaluate there; an empty interior raises ValueError.
    """
    margin = int(margin)
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    if isinstance(basis, FockBasis):
        labels, sizes = basis.occupations(), np.array(basis.dims)
    else:
        labels, sizes = np.arange(basis.dim)[:, None], np.array([basis.dim])
    keep = np.all((labels >= margin) & (sizes - 1 - labels >= margin), axis=1)
    keep[list(excluded)] = False
    if not keep.any():
        raise ValueError(
            f"no interior states left on {basis} with margin {margin} and "
            f"{len(excluded)} excluded states"
        )
    return diagonal(basis, keep.astype(np.float64))


@dataclass(frozen=True)
class Check:
    """One named residual compared against its tolerance."""

    name: str
    residual: float
    tolerance: float
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.residual) and self.residual >= 0):
            raise ValueError(f"residual must be finite and >= 0, got {self.residual}")
        if not (np.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class CheckReport:
    """Ordered collection of checks from one verification run."""

    checks: tuple[Check, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def overall_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)
