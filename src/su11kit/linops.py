"""Complex operator matrices on truncated state spaces, stored as bands or dense.

The working currency of the package is :class:`OperatorMatrix`: a square
complex matrix tagged with the basis it acts on. Bases come in two flavours,
truncated occupation-number (Fock) bases with one or two modes, and
circle-momentum bases whose states carry unit-spaced momentum eigenvalues.
Binary operations refuse to mix operators from different bases; that single
rule catches most wiring mistakes in the layers above.

Every ladder operator here is a sum of a few diagonals (a function of a
number or momentum operator times a unit shift), stored as bands
``{offset k: vector v}`` with ``A[i, i + k] = v[i]``. Sums, products,
adjoints and Kronecker products of bands are bands, at O(bands * dim) cost.
Arrays handed to the constructor and the results of :func:`unitary_exp` are
dense; a product with one dense operand is dense, at O(bands * dim^2) by row
or column scaling, and a sum with one dense operand costs O(dim^2) with the
band operand left unmaterialized. ``.entries`` materializes the dense array
on request. A Hermitian tridiagonal band with a zero diagonal, such as a
quadrature, is diagonalized through the SVD of a real bidiagonal block of
half its size; every other Hermitian input goes to the dense eigensolver.
Everything is double precision and eager. A dense matrix or a basis too
large for :data:`BYTE_BUDGET` raises ValueError before any allocation.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

#: Largest max-abs Hermiticity defect accepted by the spectral routines.
HERMITICITY_TOL = 1e-10

#: Smallest basis dimension the package works with. Degenerate 1-state spaces
#: support none of the shift/ladder structure, while dimension 2 is required
#: by the spin-1/2 realizations.
MIN_BASIS_DIM = 2

#: Largest dense matrix in bytes (16 dim^2, so dim stops near 11 500), and the
#: budget for :data:`BAND_VECTORS` band vectors of one basis's length.
BYTE_BUDGET = 2 * 2 ** 30

#: Band vectors one check may hold at once; a saf check at 2^20 states peaks
#: at about a dozen.
BAND_VECTORS = 16


def _require_budget(nbytes: int, what: str) -> None:
    if nbytes > BYTE_BUDGET:
        raise ValueError(
            f"{what} would take {nbytes / 2 ** 30:.1f} GiB, more than the "
            f"{BYTE_BUDGET / 2 ** 30:g} GiB memory budget"
        )


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
        _require_budget(16 * BAND_VECTORS * self.dim, f"bands of {self.dim} states")

    @property
    def modes(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

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
        _require_budget(16 * BAND_VECTORS * self.count, f"bands of {self.count} states")

    @property
    def dim(self) -> int:
        return self.count

    def momenta(self) -> np.ndarray:
        return self.p_min + np.arange(self.count, dtype=np.float64)


BasisSpec = FockBasis | CircleBasis


class _Fresh:
    """A complex128 array or a dict of band vectors that arithmetic has just
    built; nothing else writes to it, so :class:`OperatorMatrix` adopts it."""

    __slots__ = ("storage",)

    def __init__(self, storage: np.ndarray | dict[int, np.ndarray]) -> None:
        self.storage = storage


def _rows(k: int, n: int) -> tuple[int, int]:
    """Range [lo, hi) of the rows i whose column i + k lies in [0, n)."""
    return max(0, -k), min(n, n - k)


def _shift(v: np.ndarray, k: int) -> np.ndarray:
    """w[i] = v[i + k], zero where i + k leaves the range."""
    lo, hi = _rows(k, v.shape[0])
    out = np.zeros_like(v)
    out[lo:hi] = v[lo + k:hi + k]
    return out


def _dense_zeros(n: int) -> np.ndarray:
    """A writable n x n complex zero array, refused above :data:`BYTE_BUDGET`."""
    _require_budget(16 * n * n, f"a dense {n}x{n} complex matrix")
    return np.zeros((n, n), dtype=np.complex128)


def _to_dense(bands: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Materialize band storage as a read-only dense n x n array."""
    out = _dense_zeros(n)
    flat = out.reshape(-1)
    for k, v in bands.items():
        lo, hi = _rows(k, n)
        # Entry (i, i + k) sits at flat index i (n + 1) + k.
        flat[lo * (n + 1) + k:hi * (n + 1) + k:n + 1] = v[lo:hi]
    out.setflags(write=False)
    return out


class OperatorMatrix:
    """Square complex matrix tagged with the basis it acts on.

    Storage is dense or bands (see the module docstring), picked by the
    arithmetic. Every array held is read-only and all arithmetic returns new
    values, so instances can be shared freely between threads. The
    constructor copies the caller's dense array once; the results of
    arithmetic, :func:`banded` and :func:`tensor` are adopted without a copy.
    The shape, basis and finiteness checks run on every construction.
    """

    __slots__ = ("basis", "_dense", "_bands", "__weakref__")

    def __init__(self, basis: BasisSpec, entries) -> None:
        if isinstance(entries, _Fresh):
            storage = entries.storage
        else:
            storage = np.array(entries, dtype=np.complex128, copy=True)
        n = basis.dim
        if isinstance(storage, dict):
            dense, bands, arrays, fits = None, storage, storage.values(), (n,)
        else:
            if storage.ndim != 2 or storage.shape[0] != storage.shape[1]:
                raise ValueError(
                    f"entries must be a square matrix, got shape {storage.shape}"
                )
            dense, bands, arrays, fits = storage, None, (storage,), (n, n)
        for arr in arrays:
            if arr.shape != fits:
                raise BasisMismatchError(
                    f"entries of shape {arr.shape} do not fit a basis of dimension {n}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError("entries contain non-finite values")
            arr.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_bands", bands)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"OperatorMatrix is immutable; cannot set {name!r}")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, read-only; bands are materialized on each call."""
        if self._bands is None:
            return self._dense
        return _to_dense(self._bands, self.dim)

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a vector, without materializing."""
        if self._bands is None:
            return np.diagonal(self._dense)
        return self._bands[0] if 0 in self._bands else np.zeros(self.dim, dtype=complex)

    def block(self, index) -> np.ndarray:
        """Dense sub-matrix ``A[index][:, index]`` for ascending state indices."""
        index = np.asarray(index, dtype=np.int64)
        if self._bands is None:
            return self._dense[np.ix_(index, index)]
        out = _dense_zeros(index.size)
        for k, v in self._bands.items():
            cols = np.searchsorted(index, index + k)
            hit = cols < index.size
            hit[hit] = index[cols[hit]] == index[hit] + k
            out[np.flatnonzero(hit), cols[hit]] = v[index[hit]]
        return out

    def dag(self) -> "OperatorMatrix":
        """Hermitian conjugate on the same basis."""
        if self._bands is None:
            return OperatorMatrix(self.basis, self._dense.conj().T)
        return OperatorMatrix(self.basis, _Fresh(
            {-k: np.conj(_shift(v, -k)) for k, v in self._bands.items()}
        ))

    def hermiticity_defect(self) -> float:
        """max|A - A^dag|, zero for an exactly Hermitian matrix."""
        return maxabs_norm(self - self.dag())

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        if not isinstance(other, OperatorMatrix):
            raise TypeError(f"expected OperatorMatrix, got {type(other).__name__}")
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"operands live on different bases: {self.basis} vs {other.basis}"
            )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        a, b, n = self._bands, other._bands, self.dim
        if a is None and b is None:
            product = self._dense @ other._dense
        elif b is None:
            # Row i of the product is the sum over k of a_k[i] times row i + k.
            product = _dense_zeros(n)
            for k, v in a.items():
                lo, hi = _rows(k, n)
                product[lo:hi] += v[lo:hi, None] * other._dense[lo + k:hi + k]
        elif a is None:
            # Column m + k of the product gathers column m times b_k[m].
            product = _dense_zeros(n)
            for k, v in b.items():
                lo, hi = _rows(k, n)
                product[:, lo + k:hi + k] += self._dense[:, lo:hi] * v[lo:hi]
        else:
            product = {}
            for ka, va in a.items():
                for kb, vb in b.items():
                    k = ka + kb
                    if abs(k) < n:
                        product[k] = product.get(k, 0.0) + va * _shift(vb, ka)
        return OperatorMatrix(self.basis, _Fresh(product))

    def _combine(self, other: "OperatorMatrix", ufunc) -> "OperatorMatrix":
        self._require_same_basis(other)
        a, b = self._bands, other._bands
        if a is None and b is None:
            return OperatorMatrix(self.basis, _Fresh(ufunc(self._dense, other._dense)))
        if a is None or b is None:
            # Off its bands the band operand reads 0.0; on them, its vectors.
            n = self.dim
            left = self._dense if a is None else 0.0
            right = other._dense if b is None else 0.0
            out = ufunc(left, right)
            for k, v in (b if a is None else a).items():
                rows = np.arange(*_rows(k, n))
                cols = rows + k
                out[rows, cols] = (ufunc(left[rows, cols], v[rows]) if a is None
                                   else ufunc(v[rows], right[rows, cols]))
            return OperatorMatrix(self.basis, _Fresh(out))
        out = {}
        for k in sorted(a.keys() | b.keys()):  # an absent band reads as zeros
            out[k] = a[k] if k not in b else ufunc(a.get(k, 0.0), b[k])
        return OperatorMatrix(self.basis, _Fresh(out))

    def _map(self, fn) -> "OperatorMatrix":
        if self._bands is None:
            return OperatorMatrix(self.basis, _Fresh(fn(self._dense)))
        return OperatorMatrix(self.basis, _Fresh({k: fn(v) for k, v in self._bands.items()}))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "OperatorMatrix":
        return self._map(np.negative)

    def __mul__(self, scalar) -> "OperatorMatrix":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self._map(lambda values: values * complex(scalar))

    __rmul__ = __mul__


def banded(basis: BasisSpec, bands) -> OperatorMatrix:
    """Band-stored operator with ``A[i, i + k] = bands[k][i]`` for each offset k.

    Each vector has length ``dim``. Its entries whose column ``i + k`` leaves
    the range are ignored, and so is an offset with no column in range.
    """
    out = {}
    for k, values in bands.items():
        k = operator.index(k)
        lo, hi = _rows(k, basis.dim)
        if lo < hi:
            out[k] = np.array(values, dtype=np.complex128, ndmin=1)
            out[k][:lo] = out[k][hi:] = 0.0
    return OperatorMatrix(basis, _Fresh(out))


def identity(basis: BasisSpec) -> OperatorMatrix:
    return banded(basis, {0: np.ones(basis.dim)})


def diagonal(basis: BasisSpec, values) -> OperatorMatrix:
    """Diagonal operator from a length-``dim`` sequence of values."""
    return banded(basis, {0: values})


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA on the shared basis of the operands."""
    a._require_same_basis(b)
    return a @ b - b @ a


def maxabs_norm(a: OperatorMatrix) -> float:
    """Maximum absolute entry; the residual norm used by every check."""
    if a._bands is None:
        return float(np.max(np.abs(a._dense)))
    return max((float(np.max(np.abs(v))) for v in a._bands.values()), default=0.0)


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
    Hermiticity tolerance. A band-stored tridiagonal input whose diagonal has
    a zero real part, as Q and P do, is written as ``H = D T D^dag``, with
    ``D`` the diagonal of unit phases that makes ``T`` real symmetric; ``T``
    is diagonalized through the SVD of a bidiagonal matrix of half its order
    (Golub and Kahan, 1965), and the eigenvectors are ``D V`` for the
    eigenvectors ``V`` of ``T``. Like LAPACK, it reads the diagonal's real
    part and the lower band. Any other input is diagonalized densely, bands
    materialized first.
    """
    _require_hermitian(a, "hermitian_eigensystem")
    bands, n = a._bands, a.dim
    if bands is None or not bands.keys() <= {-1, 0, 1} or a.diagonal().real.any():
        return np.linalg.eigh(a.entries)
    # h[i] = A[i + 1, i]; its phase u[i] links state i + 1 to state i, and
    # d[i] = u[0] ... u[i - 1] turns it into the real entry |h[i]|.
    h = bands.get(-1, np.zeros(n, dtype=np.complex128))[1:]
    size = np.abs(h)
    u = np.divide(h, size, out=np.ones_like(h), where=size > 0)
    d = np.concatenate(([1.0], np.cumprod(u)))
    # The eigenvectors D V come back complex, so they are what the budget sees.
    _require_budget(16 * n * n, f"a dense {n}x{n} complex matrix")
    eigenvalues, v = _zero_diagonal_eigh(size)
    return eigenvalues, d[:, None] * v


def _zero_diagonal_eigh(size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of the real symmetric tridiagonal T with a zero diagonal
    and lower band ``size``, from the SVD of a bidiagonal of half its order.

    T couples even states only to odd ones, ``T = [[0, B], [B^T, 0]]`` with
    ``B[j, j] = T[2j, 2j + 1]`` and ``B[j + 1, j] = T[2j + 2, 2j + 1]``. From
    ``B = U S W^T``, ``T [u; +-w] = +-s [u; +-w]``; for odd order, the last
    column of U, which B^T sends to zero, gives the eigenvalue 0.
    """
    n = size.size + 1
    half = n // 2
    b = np.zeros((n - half, half))
    b.reshape(-1)[::half + 1] = size[0::2]
    b.reshape(-1)[half::half + 1] = size[1::2]
    left, s, right = np.linalg.svd(b)
    # -s ascends as s descends; the pairs (+s, [u; w]) follow in reverse.
    eigenvalues = np.concatenate((-s, np.zeros(n - 2 * half), s[::-1]))
    even, odd = left[:, :half] * math.sqrt(0.5), right.T * math.sqrt(0.5)
    v = np.zeros((n, n))
    v[0::2, :half], v[1::2, :half] = even, -odd
    v[0::2, n - half:], v[1::2, n - half:] = even[:, ::-1], odd[:, ::-1]
    if n % 2:
        v[0::2, half] = left[:, half]
    return eigenvalues, v


def unitary_exp(h: OperatorMatrix, sign: int = 1) -> OperatorMatrix:
    """exp(sign * i * H) for Hermitian H, via the spectral decomposition.

    The result is exactly unitary on the truncated space by construction
    (phases of modulus one on an orthonormal frame), which is why this route
    is used instead of a series expansion. It is dense. The two signs share
    one eigensystem: ``exp(-iH)`` is the adjoint of ``exp(iH)``, so a caller
    that needs both takes one and its :meth:`OperatorMatrix.dag`.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    eigenvalues, v = hermitian_eigensystem(h)
    phases = np.exp(1j * sign * eigenvalues)
    return OperatorMatrix(h.basis, _Fresh((v * phases) @ v.conj().T))


def tensor(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two single-mode Fock operators.

    The result lives on the two-mode basis with the row-major index
    convention of :class:`FockBasis` (first factor is the major index). Bands
    ``k_a`` and ``k_b`` give band ``k_a * dim_b + k_b``, ``kron(a_k, b_k)``.
    """
    for op in (a, b):
        if not (isinstance(op.basis, FockBasis) and op.basis.modes == 1):
            raise ValueError("tensor requires single-mode Fock operators")
    out_basis = FockBasis((a.basis.dims[0], b.basis.dims[0]))
    if a._bands is None or b._bands is None:
        return OperatorMatrix(out_basis, _Fresh(np.kron(a.entries, b.entries)))
    out: dict[int, np.ndarray] = {}
    for ka, va in a._bands.items():
        for kb, vb in b._bands.items():
            k = ka * b.dim + kb
            out[k] = out.get(k, 0.0) + np.kron(va, vb)
    return OperatorMatrix(out_basis, _Fresh(out))


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
