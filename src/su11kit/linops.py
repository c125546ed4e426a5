"""Complex operator matrices on truncated state spaces, stored as bands or dense.

The working currency of the package is :class:`OperatorMatrix`: a square
complex matrix tagged with the basis it acts on. Bases come in two flavours,
truncated occupation-number (Fock) bases with one or two modes, and
circle-momentum bases whose states carry unit-spaced momentum eigenvalues.
Binary operations refuse to mix operators from different bases; that single
rule catches most wiring mistakes in the layers above.

Every ladder operator here is a sum of a few diagonals (a function of a
number or momentum operator times a unit shift), stored as bands
``{offset k: vector v}`` with ``A[i, i + k] = v[i]``, zero where column
``i + k`` leaves [0, dim); :func:`_rows` alone works out those rows. Sums, products,
adjoints and Kronecker products of bands are bands, at O(bands * dim) cost.
Dense storage holds the arrays handed to the constructor and K-, which
:func:`_times_exp` writes over the exponential of :func:`_exponential`.
Arithmetic takes bands only; a dense operand raises ValueError naming the
operation. A dense operator is read in one place,
:func:`_kept_block`, which forms a block of it or of a product with it with
the same floating-point operations for each entry as the whole product: a
residual a row tile at a time (of one Hermitian by construction, only its
upper triangle of tiles), the gap to the adjoint of another by row tiles of
all states, and ``.entries`` as the block of all states. It may hold its
array conjugate-transposed, as BLAS's ``op(A) = A^H`` does, so its adjoint
shares the array and rows of it are read as one conjugated copy of columns
of the array; the gap between an operator and such a view of its own
adjoint is 0, and neither is read. The spectral routines take one kind of
input, a Hermitian tridiagonal band H = D T D^dag with a zero real diagonal,
such as a quadrature: :func:`hermitian_eigensystem` checks it and returns
T's real eigensystem, from the SVD of a bidiagonal block of half its size,
and D's phases, from which :func:`_exponential` forms exp(+-iH) in real
blocks of half its size. Any other input raises ValueError naming
:func:`hermitian_eigensystem`.
Everything is double precision and eager. A dense matrix or a basis too
large for :data:`BYTE_BUDGET` raises ValueError before any allocation, and so
does a bose realization whose :data:`DENSE_ARRAYS` arrays would not fit it.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass, field
from decimal import Decimal

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

#: Dense n x n arrays a bose realization holds at its peak. Its build holds
#: under one and a half: the exponential, with three real blocks of half order
#: while they are scattered into it, and then K- written over it. A check or
#: casimir holds K-, of which K+ is a view, and a few row tiles of a kept
#: block, each :data:`_TILE` rows by at most n columns.
DENSE_ARRAYS = 2

#: Bytes of the row block in which a band x dense product is filled: small
#: enough for the block and its scratch to stay in cache.
_BLOCK_BYTES = 2 ** 18

#: Rows of the tiles in which dense arrays are walked: a dense adjointness gap
#: is reduced in row blocks of this height, and a dense residual in tiles of
#: this many kept rows, over every kept column or, for a residual Hermitian by
#: construction, over the kept columns from the tile's first row on. Each
#: tile of a product is one BLAS call, which repacks its right operand, so
#: much smaller tiles cost time.
_TILE = 64


def _figure(x: int | float, places: int = 1) -> str:
    """A number for a message: in full, a float to ``places`` decimals, or in
    .3g form past 15 digits."""
    text = f"{x:.{places}f}" if isinstance(x, float) else str(x)
    return text if sum(c.isdigit() for c in text) <= 15 else format(Decimal(text), ".3g")


def _integer(value, name: str = "value", least: int | None = None) -> int:
    """The one integer rule of every size, count, margin and power: 64, 64.0, "64" and
    numpy integers read as 64; 2.5, "2.5", inf, nan or a value < ``least`` raise ValueError."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        number = int(value)
        if (isinstance(value, str) or number == value) and (least is None or number >= least):
            return number
    kind = {None: "an integer", 0: "a nonnegative integer",
            1: "a positive integer"}.get(least, f"an integer >= {least}")
    raise ValueError(f"{name} must be {kind}, got {value}")


def _require_tolerance(value) -> None:
    """The one tolerance rule of :class:`Check` and
    :class:`su11kit.algebra.CheckSpec`: 0, a negative, inf or nan raise
    ValueError."""
    if not 0 < value < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {value}")


def _require_budget(nbytes: int, what: str, *sizes: int) -> None:
    """Refuse ``nbytes`` above :data:`BYTE_BUDGET`; ``what`` names the
    allocation, with a ``{}`` field for each of ``sizes``."""
    if nbytes > BYTE_BUDGET:
        # From 2^1024 bytes on, the float quotient overflows; whole GiB do not.
        gib = nbytes / 2 ** 30 if nbytes < 2 ** 1024 else nbytes // 2 ** 30
        # One decimal, or as many more as it takes to print a size past the budget.
        places = 1
        while round(gib, places) <= BYTE_BUDGET / 2 ** 30:
            places += 1
        raise ValueError(
            f"{what.format(*map(_figure, sizes))} would take {_figure(gib, places)} "
            f"GiB, more than the {BYTE_BUDGET / 2 ** 30:g} GiB memory budget"
        )


class BasisMismatchError(ValueError):
    """Two operands live on different bases, or a matrix does not fit its basis."""


@dataclass(frozen=True)
class FockBasis:
    """Truncated occupation-number basis for one or two bosonic modes.

    Two-mode states are enumerated row-major, ``index = n_a * dim_b + n_b``.
    :meth:`occupations` tabulates that ordering, and every golden value relies
    on it. So do four constructions that do not read the table:
    :func:`tensor`'s band offsets ``k_a * dim_b + k_b``, the outer sum and
    difference of :func:`su11kit.reps.two_mode`, the d x d row blocks of
    :func:`su11kit.reduction.build_direct_hamiltonian`, and the pair index
    ``n * dim + n`` of :func:`su11kit.reduction.verify_reduction`. A change of
    ordering changes each of them. :func:`_integer` reads each of ``dims``,
    so 1, 24.5, inf and nan raise ValueError.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(_integer(d, "per-mode dimension", MIN_BASIS_DIM) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (1, 2):
            raise ValueError(f"FockBasis supports 1 or 2 modes, got {len(dims)}")
        _require_budget(16 * BAND_VECTORS * self.dim, "bands of {} states", self.dim)

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
    spacing), on which ``exp(+-iX)`` act as pure shifts. A lattice that
    reaches past ``|p_min| + count = 2^52`` is refused: up to there floats
    lie at most 1/2 apart, so integer and half-integer momenta are exact,
    while from 2^53 on neighbouring momenta round to one float. ``count`` is
    read by :func:`_integer`, so 1, 24.5, inf and nan raise ValueError.
    """

    p_min: float
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_min", float(self.p_min))
        object.__setattr__(self, "count", _integer(self.count, "count", MIN_BASIS_DIM))
        if not np.isfinite(self.p_min):
            raise ValueError(f"p_min must be finite, got {self.p_min}")
        _require_budget(16 * BAND_VECTORS * self.count, "bands of {} states", self.count)
        if abs(self.p_min) + self.count > 2 ** 52:
            raise ValueError(f"p_min = {self.p_min:g} with {self.count} states puts "
                             f"momenta past 2^52, where p_min + j is no longer exact")

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


def _finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite, tested one row block of about
    :data:`_BLOCK_BYTES` at a time, so that no mask as long as ``arr`` is made."""
    if arr.nbytes <= _BLOCK_BYTES:
        return bool(np.isfinite(arr).all())
    step = max(1, _BLOCK_BYTES // arr[0].nbytes)
    return all(np.isfinite(arr[r:r + step]).all() for r in range(0, len(arr), step))


def _rows(k: int, rp: int, rq: int, p: int, q: int) -> tuple[int, int]:
    """Range [lo, hi) of the rows i in [rp, rq) whose column i + k lies in
    [p, q); lo == hi when there is none, so every slice by it is empty."""
    lo = max(rp, p - k)
    return lo, max(lo, min(rq, q - k))


def _new_dense(rows: int, cols: int, alloc=np.zeros) -> np.ndarray:
    """A writable rows x cols complex array from ``alloc``, refused above
    :data:`BYTE_BUDGET`."""
    _require_budget(16 * rows * cols, "a dense {}x{} complex matrix", rows, cols)
    return alloc((rows, cols), dtype=np.complex128)


def _scaled_rows(out: np.ndarray, terms: list[tuple], carry: int | None = None) -> None:
    """Fill ``out`` with the sum of ``terms``: each ``(lo, hi, c0, c1, x, y)``
    adds ``x[j] * y[j]`` to row ``lo + j`` of ``out``, columns [c0, c1), for
    the rows j of ``x`` and ``y``, which span [lo, hi).

    ``out`` is filled one row block of about :data:`_BLOCK_BYTES` at a time.
    In each block the first term is written straight into the block, whose
    entries it does not reach are zeroed; each later one is formed in one
    block-sized scratch array, reused, and added, in order. Each entry gets
    the same products in the same order whatever the block size.

    With ``carry`` given, ``out`` may also be the array that the terms read,
    as long as the terms of row i read no row above ``i - carry``. Each
    block is then formed in a block-sized array of its own and copied into
    ``out``, all but its last ``carry`` rows, which the next block still
    reads: they are carried and written once the next block is formed.
    """
    if not terms:
        out[...] = 0.0
        return
    m, n = out.shape
    step = max(1, carry or 0, _BLOCK_BYTES // (out.itemsize * n))
    scratch = np.empty((step, n), dtype=out.dtype) if len(terms) > 1 else None
    if carry is not None:
        own, held = np.empty((step, n), dtype=out.dtype), np.empty((carry, n), dtype=out.dtype)
    for r0 in range(0, m, step):
        r1 = min(r0 + step, m)
        block = out[r0:r1] if carry is None else own[:r1 - r0]
        for t, (lo, hi, c0, c1, x, y) in enumerate(terms):
            # The term's rows in this block, [a, b) of out and [i, j) of the
            # block, empty when a == b.
            a = min(max(lo, r0), r1)
            b = max(min(hi, r1), a)
            i, j = a - r0, b - r0
            if t == 0:
                block[:i] = block[j:] = 0.0
                block[i:j, :c0] = block[i:j, c1:] = 0.0
            if a == b:
                continue
            x_rows, y_rows = x[a - lo:b - lo], y[a - lo:b - lo]
            if t == 0:
                np.multiply(x_rows, y_rows, out=block[i:j, c0:c1])
            else:
                block[i:j, c0:c1] += np.multiply(
                    x_rows, y_rows, out=scratch[:b - a, :c1 - c0])
        if carry is not None:
            if r0:
                out[r0 - carry:r0] = held
            if r1 < m:
                out[r0:r1 - carry] = block[:r1 - r0 - carry]
                held[...] = block[r1 - r0 - carry:]
            else:
                out[r0:r1] = block


def _band_block(bands: dict[int, np.ndarray], n: int, rp: int, rq: int,
                p: int, q: int) -> np.ndarray:
    """Rows [rp, rq) and columns [p, q) of band storage on n states, as a
    dense array; each vector holds its band's entries in rows [rp, rq)."""
    w = q - p
    out = _new_dense(rq - rp, w)
    flat = out.reshape(-1)
    for k, v in bands.items():
        lo, hi = _rows(k, rp, rq, p, q)
        # Entry (i, i + k) sits at flat index (i - rp) w + i + k - p.
        flat[(lo - rp) * w + lo + k - p:(hi - rp) * w + hi + k - p:w + 1] = v[lo - rp:hi - rp]
    return out


def _product_rows(a: "OperatorMatrix", b: "OperatorMatrix", rp: int, rq: int
                  ) -> dict[int, np.ndarray]:
    """Rows [rp, rq) of the band vectors of ``a @ b`` for two band operands,
    the only rows formed: band ka + kb adds ``a_ka[i] * b_kb[i + ka]`` in
    place over the band pairs in the operands' order; a band's first product
    is written in, plus 0.0 (the bytes of adding it to zeros), and only the
    rows it does not reach are zeroed."""
    n, out = a.dim, {}
    for ka, va in a._bands.items():
        lo, hi = _rows(ka, rp, rq, 0, n)
        for kb, vb in b._bands.items():
            k = ka + kb
            if abs(k) < n and k in out:
                out[k][lo - rp:hi - rp] += va[lo:hi] * vb[lo + ka:hi + ka]
            elif abs(k) < n:
                v = out[k] = np.empty(rq - rp, dtype=np.complex128)
                v[:lo - rp] = v[hi - rp:] = 0.0
                np.multiply(va[lo:hi], vb[lo + ka:hi + ka], out=v[lo - rp:hi - rp])
                v[lo - rp:hi - rp] += 0.0
    return out


def _row_terms(bands: dict[int, np.ndarray], n: int, rp: int, rq: int, w: int,
               rows) -> list[tuple]:
    """The terms (see :func:`_scaled_rows`) of rows [rp, rq) of ``B @ D``,
    for band storage B on n states and a dense D of which ``rows(lo, hi)``
    gives rows [lo, hi), w columns wide: row i of the product is the sum
    over k of ``b_k[i]`` times row i + k of D."""
    terms = []
    for k, v in bands.items():
        lo, hi = _rows(k, rp, rq, 0, n)
        if lo < hi:
            terms.append((lo - rp, hi - rp, 0, w, v[lo:hi, None], rows(lo + k, hi + k)))
    return terms


def _mixed_block(a: "OperatorMatrix", b: "OperatorMatrix", rp: int, rq: int,
                 p: int, q: int) -> np.ndarray:
    """Rows [rp, rq) and columns [p, q) of ``a @ b`` with one operand
    band-stored and the other dense, by row or column scaling (see
    :func:`_scaled_rows`). The dense operand is read once, as the window of
    its rows (or columns) from the first to the last that a band reaches,
    which is one conjugated copy for an operand held conjugate-transposed;
    every band slices it."""
    n, h, w = a.dim, rq - rp, q - p
    if b._bands is None:
        ks = [k for k in a._bands if operator.lt(*_rows(k, rp, rq, 0, n))]
        s = max(0, rp + min(ks, default=0))
        window = b._dense_rows(s, min(n, rq + max(ks, default=0)), p, q)
        terms = _row_terms(a._bands, n, rp, rq, w, lambda lo, hi: window[lo - s:hi - s])
    else:
        # Column m + k of the product gathers column m times b_k[m], in every
        # row; the row vector is broadcast so that rows can be sliced.
        ks = [k for k in b._bands if operator.lt(*_rows(k, 0, n, p, q))]
        s = max(0, p - max(ks, default=0))
        window = a._dense_rows(rp, rq, s, min(n, q - min(ks, default=0)))
        terms = []
        for k in ks:
            v, (lo, hi) = b._bands[k], _rows(k, 0, n, p, q)
            terms.append((0, h, lo + k - p, hi + k - p, window[:, lo - s:hi - s],
                          np.broadcast_to(v[lo:hi], (h, hi - lo))))
    out = _new_dense(h, w, np.empty)
    _scaled_rows(out, terms)
    return out


#: Column count that the column tile of every BLAS product kernel divides.
#: A column past the last whole tile goes through an edge kernel, which
#: rounds differently.
_GEMM_COLUMNS = 64


def _dense_block(a: "OperatorMatrix", b: "OperatorMatrix", rp: int, rq: int,
                 p: int, q: int) -> np.ndarray:
    """Rows [rp, rq) and columns [p, q) of ``a @ b`` for two dense operands,
    at least two of each, as one BLAS product.

    So that each column goes through the BLAS kernel it goes through in the
    full product, the columns multiplied are a whole number of
    :data:`_GEMM_COLUMNS` before the full product's edge, and all of the edge
    columns when the block reaches them; the columns outside [p, q) are
    discarded. There are at least two rows and two columns, since numpy
    hands a product with one of either to another routine, which sums in
    another order. The columns of a right operand held conjugate-transposed
    are rows of its array, so that product is formed as
    ``conj(conj(A[R]) @ H[S]^T)`` from the held H, copying only A's rows.
    """
    n = a.dim
    edge = n - n % _GEMM_COLUMNS
    if q <= edge:
        width = -(-(q - p) // _GEMM_COLUMNS) * _GEMM_COLUMNS
        s = min(p, edge - width)
        e = s + width
    else:
        s, e = p - p % _GEMM_COLUMNS, n
    if b._adjointed:
        block = np.conjugate(a._dense_rows(rp, rq)) @ b.dag()._dense_rows(s, e).T
        np.conjugate(block, out=block)
    else:
        block = a._dense_rows(rp, rq) @ b._dense_rows(0, n, s, e)
    return block[:, p - s:q - s]


def _span(index: np.ndarray, n: int) -> tuple[int, int]:
    """[first, last + 1) of ascending state indices out of n, widened by a
    neighbour when it holds one: numpy multiplies a lone row or column in
    another order than it multiplies an array of them."""
    p, q = int(index[0]), int(index[-1]) + 1
    if q - p == 1:
        p, q = (p, q + 1) if q < n else (p - 1, q)
    return p, q


def _kept_block(keep: np.ndarray, a: "OperatorMatrix", b: "OperatorMatrix | None" = None,
                rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """The block of ``a @ b``, or of ``a`` alone, at rows ``keep[rows]`` and
    columns ``keep[cols]``.

    ``keep`` holds ascending state indices. The product is formed on the
    rows and the columns from the first to the last of those states, from
    views of the operands; for a dense operand, r rows cost a fraction
    r span / n^2 of the full product. Each entry is the sum of the same
    products, added in the same order, as in the block of all n states, and
    for two dense operands as in numpy's product of their arrays (with one
    BLAS thread), so the block equals those entries of the whole product bit
    for bit; a band row or column outside [0, n) contributes nothing. Of a
    band x band product only the rows [first, last + 1) of ``keep[rows]``
    are formed, at O(bands * r).
    """
    n, kept, kept_cols = a.dim, keep[rows], keep[cols]
    p, q = _span(kept_cols, n)
    rp, rq = _span(kept, n)
    if b is None:
        block = (a._dense_rows(rp, rq, p, q) if a._bands is None
                 else _band_block({k: v[rp:rq] for k, v in a._bands.items()}, n, rp, rq, p, q))
    else:
        a._require_same_basis(b)
        if a._bands is not None and b._bands is not None:
            block = _band_block(_product_rows(a, b, rp, rq), n, rp, rq, p, q)
        elif a._bands is None and b._bands is None:
            block = _dense_block(a, b, rp, rq, p, q)
        else:
            block = _mixed_block(a, b, rp, rq, p, q)
    if rq - rp == kept.size and q - p == kept_cols.size:
        return block
    return block[np.ix_(kept - rp, kept_cols - p)]


def _is_adjoint_view(a: "OperatorMatrix", b: "OperatorMatrix") -> bool:
    """Whether dense ``a`` and ``b`` hold one array, one of them
    conjugate-transposed: each is then exactly the other's adjoint."""
    return a._dense is not None and a._dense is b._dense and a._adjointed != b._adjointed


def _adjoint_gap(a: "OperatorMatrix", b: "OperatorMatrix") -> float:
    """max|A - B^dag|, zero when A is exactly the adjoint of B.

    An operator and the adjoint view of it that :meth:`OperatorMatrix.dag`
    returns share one array, so their gap is 0 and nothing is read. Two band
    operands are compared as ``a - b.dag()``. Any other two dense operands
    are compared :data:`_TILE` rows at a time: each tile of A and of B^dag
    is their :func:`_kept_block` over every column, and their difference is
    reduced to its largest entry before the next tile is formed. A band and
    a dense operand raise ValueError.
    """
    a._require_same_basis(b)
    if _is_adjoint_view(a, b):
        return 0.0
    if a._bands is not None or b._bands is not None:
        return maxabs_norm(a - b.dag())
    keep, b = np.arange(a.dim), b.dag()
    tiles = (slice(r, r + _TILE) for r in range(0, a.dim, _TILE))
    return max(float(np.max(np.abs(_kept_block(keep, a, rows=t) - _kept_block(keep, b, rows=t))))
               for t in tiles)


def _require_bands(what: str, a: "OperatorMatrix", b: "OperatorMatrix | None" = None) -> None:
    """Refuse a dense ``a`` or ``b``: ``what`` takes band-stored operators only."""
    if a._bands is None or (b is not None and b._bands is None):
        raise ValueError(f"{what} requires band-stored operators, got a dense one")


class OperatorMatrix:
    """Square complex matrix tagged with the basis it acts on.

    Storage is bands or dense (see the module docstring). Dense storage holds
    the constructor's arrays and K-, which :func:`_times_exp` writes over the
    exponential; arithmetic takes bands only, and a dense operator is read
    only through :func:`_kept_block`. Every array held is read-only and all
    arithmetic returns new values, so instances can be shared freely between
    threads. The constructor copies the caller's dense array once; the
    results of arithmetic, :func:`banded` and :func:`tensor` are adopted
    without a copy. No CLI path hands the constructor an array of its own:
    every operator it checks comes from arithmetic, :func:`banded` or
    :func:`_times_exp`. The shape, basis and finiteness checks run on every
    construction.

    Dense storage has one bit more, as in BLAS's ``op(A) = A^H``: the
    operator is its array or the conjugate transpose of it. :meth:`dag` flips
    the bit and shares the array, which :func:`_kept_block` and the kernels
    it calls read through :meth:`_dense_rows`.
    """

    __slots__ = ("basis", "_dense", "_bands", "_adjointed", "__weakref__")

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
            if not _finite(arr):
                raise ValueError("entries contain non-finite values")
            arr.setflags(write=False)
        self._adopt(basis, dense, bands, False)

    def _adopt(self, basis: BasisSpec, dense, bands, adjointed: bool) -> None:
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_bands", bands)
        object.__setattr__(self, "_adjointed", adjointed)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"OperatorMatrix is immutable; cannot set {name!r}")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, read-only and C-contiguous: the kept block of
        every state, a view of a dense array held as is in C order, and
        materialized on each call otherwise."""
        out = np.ascontiguousarray(_kept_block(np.arange(self.dim), self))
        out.setflags(write=False)
        return out

    def _dense_rows(self, r0: int, r1: int, c0: int = 0, c1: int | None = None) -> np.ndarray:
        """Rows [r0, r1) and columns [c0, c1) (default: all) of a dense
        operator: a read-only view of its array or, for an array held
        conjugate-transposed, a conjugated copy of its columns, laid out as
        the held array's columns are, which copies fastest. Only
        :func:`_kept_block` and its kernels call it."""
        if self._adjointed:
            return np.conjugate(self._dense[c0:c1, r0:r1].T)
        return self._dense[r0:r1, c0:c1]

    def diagonal(self) -> np.ndarray:
        """The main diagonal of a band operator as a vector."""
        _require_bands("diagonal()", self)
        return self._bands[0] if 0 in self._bands else np.zeros(self.dim, dtype=complex)

    def dag(self) -> "OperatorMatrix":
        """Hermitian conjugate on the same basis. A dense one shares this
        operator's read-only array, with the conjugate-transpose bit flipped,
        so nothing is copied or checked again; a band one is conjugated into
        zeroed vectors."""
        if self._bands is None:
            out = object.__new__(OperatorMatrix)
            out._adopt(self.basis, self._dense, None, not self._adjointed)
            return out
        bands = {-k: np.zeros(self.dim, dtype=np.complex128) for k in self._bands}
        for k, v in self._bands.items():
            lo, hi = _rows(-k, 0, self.dim, 0, self.dim)
            np.conjugate(v[lo - k:hi - k], out=bands[-k][lo:hi])
        return OperatorMatrix(self.basis, _Fresh(bands))

    def hermiticity_defect(self) -> float:
        """max|A - A^dag|, zero for an exactly Hermitian matrix."""
        return _adjoint_gap(self, self)

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        if not isinstance(other, OperatorMatrix):
            raise TypeError(f"expected OperatorMatrix, got {type(other).__name__}")
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"operands live on different bases: {self.basis} vs {other.basis}"
            )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        _require_bands("a @ b", self, other)
        return OperatorMatrix(self.basis, _Fresh(_product_rows(self, other, 0, self.dim)))

    def _combine(self, other: "OperatorMatrix", ufunc, what: str) -> "OperatorMatrix":
        self._require_same_basis(other)
        _require_bands(what, self, other)
        a, b, out = self._bands, other._bands, {}
        for k in sorted(a.keys() | b.keys()):  # an absent band reads as zeros
            out[k] = a[k] if k not in b else ufunc(a.get(k, 0.0), b[k])
        return OperatorMatrix(self.basis, _Fresh(out))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.add, "a + b")

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.subtract, "a - b")

    def __mul__(self, scalar) -> "OperatorMatrix":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        _require_bands("z * a", self)
        z = complex(scalar)
        return OperatorMatrix(self.basis, _Fresh({k: v * z for k, v in self._bands.items()}))

    __rmul__ = __mul__


def banded(basis: BasisSpec, bands) -> OperatorMatrix:
    """Band-stored operator with ``A[i, i + k] = bands[k][i]`` for each offset k.

    Each vector has length ``dim`` and is copied. Its entries whose column
    ``i + k`` leaves [0, dim) are zeroed, and an offset with no row in range is dropped.
    """
    out = {}
    for k, values in bands.items():
        k = operator.index(k)
        lo, hi = _rows(k, 0, basis.dim, 0, basis.dim)
        if lo < hi:
            out[k] = np.array(values, dtype=np.complex128, ndmin=1)
            out[k][:lo] = out[k][hi:] = 0.0
    return OperatorMatrix(basis, _Fresh(out))


def identity(basis: BasisSpec) -> OperatorMatrix:
    return banded(basis, {0: np.ones(basis.dim)})


def diagonal(basis: BasisSpec, values) -> OperatorMatrix:
    """Diagonal operator from a length-``dim`` sequence of values."""
    return banded(basis, {0: values})


def maxabs_norm(a: OperatorMatrix) -> float:
    """Maximum absolute entry of a band operator; the residual norm used by
    every band check."""
    _require_bands("maxabs_norm", a)
    return max((float(np.max(np.abs(v))) for v in a._bands.values()), default=0.0)


def _unit(z: np.ndarray, size: np.ndarray) -> np.ndarray:
    """z / size part by part, 1 where size is 0: numpy divides by a real as
    by a complex, and (x + 0j) / x need not be exactly 1."""
    out = np.ones_like(z)
    np.divide(z.real, size, out=out.real, where=size > 0)
    np.divide(z.imag, size, out=out.imag, where=size > 0)
    return out


def _zero_diagonal_band(a: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(d, |h|)`` for a Hermitian band tridiagonal A whose diagonal has a
    zero real part, with ``A = D T D^dag`` for T real and lower band ``|h|``.
    Any other input (dense, a band off offsets -1 to 1, a nonzero real
    diagonal, or a Hermiticity defect past :data:`HERMITICITY_TOL`) raises
    ValueError naming :func:`hermitian_eigensystem`. Like LAPACK, the split
    reads the diagonal's real part and the lower band ``h[i] = A[i + 1, i]``.
    ``d[i]`` is the product of the phases of ``h[:i]``, renormalized: exactly
    +-1 or +-i for a real or imaginary band.
    """
    bands, n = a._bands, a.dim
    if bands is None or not bands.keys() <= {-1, 0, 1} or a.diagonal().real.any():
        raise ValueError(
            "hermitian_eigensystem requires a tridiagonal band with a zero real diagonal")
    defect = a.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise ValueError(
            "hermitian_eigensystem requires a Hermitian matrix: max|A - A^dag| = "
            f"{defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    h = bands.get(-1, np.zeros(n, dtype=np.complex128))[1:]
    size = np.abs(h)
    d = np.concatenate(([1.0 + 0j], np.cumprod(_unit(h, size))))
    return _unit(d, np.abs(d)), size


def hermitian_eigensystem(a: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(eigenvalues, v, d)`` of a Hermitian band tridiagonal H = D T D^dag
    with a zero real diagonal, such as Q or P (see :func:`_zero_diagonal_band`);
    any other input raises ValueError naming this function. The eigenvalues
    ascend; ``v`` holds T's real orthonormal eigenvectors as
    :func:`_zero_diagonal_eigh` lays them out, through the SVD of a bidiagonal
    matrix of half its order (Golub and Kahan, 1965), and ``d`` D's unit
    phases, so H's eigenvectors are ``d[:, None] * v``.
    """
    d, size = _zero_diagonal_band(a)
    # The complex n x n exponential formed from it is the most this route holds.
    _require_budget(16 * a.dim ** 2, "a dense {0}x{0} complex matrix", a.dim)
    eigenvalues, v = _zero_diagonal_eigh(size)
    return eigenvalues, v, d


def _zero_diagonal_eigh(size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of the real symmetric tridiagonal T with a zero diagonal
    and lower band ``size``, from the SVD of a bidiagonal of half its order.

    T couples even states only to odd ones, ``T = [[0, B], [B^T, 0]]`` with
    ``B[j, j] = T[2j, 2j + 1]`` and ``B[j + 1, j] = T[2j + 2, 2j + 1]``. From
    ``B = U S W^T``, ``T [u; +-w] = +-s [u; +-w]``; for odd order, the last
    column z of U, which B^T sends to zero, gives the eigenvalue 0. With s
    descending and even states in rows ``0::2``, column ``j < n // 2`` holds
    ``-s[j]`` and ``[u_j; -w_j] / sqrt(2)``, column ``n - 1 - j`` holds
    ``s[j]`` and ``[u_j; w_j] / sqrt(2)``, and column ``n // 2`` of odd order
    holds ``[z; 0]``; :func:`_exponential` relies on this.
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


def _exponential(h: OperatorMatrix, sign: int) -> np.ndarray:
    """exp(sign * i * H), sign +-1, for a Hermitian band tridiagonal H with a
    zero real diagonal, such as Q or P, from its eigensystem, so unitary up
    to rounding, as a truncated series would not be; any other H raises
    ValueError naming :func:`hermitian_eigensystem`. The dense array is
    writable and held by nothing else.

    For H = D T D^dag as in :func:`_zero_diagonal_band`, cos T is even in T
    and sin T odd. So with T's eigensystem as :func:`_zero_diagonal_eigh`
    lays it out, and the even states first, exp(i sign T) is
    ``[[U cos S U^T + z z^T, i U sin(sign S) W^T], [transpose, W cos S W^T]]``
    (z for odd order only): three real products of half order, 0.75 n^3
    flops, against 8 n^3 for one complex product of full order, with entries
    exactly real between states of equal parity and exactly imaginary
    otherwise; its rows times d and columns times conj(d) give exp(i sign H).
    T's eigenvectors are dropped before the n x n result is allocated.
    """
    eigenvalues, v, d = hermitian_eigensystem(h)
    n, half = h.dim, h.dim // 2
    # even = U / sqrt(2) and odd = -W / sqrt(2), each pair summed once.
    s, even, odd = -eigenvalues[:half], v[0::2, :half], v[1::2, :half]
    cos2, sin2 = 2.0 * np.cos(s), -2.0 * np.sin(sign * s)
    upper = (even * cos2) @ even.T
    if n % 2:
        upper += np.outer(v[0::2, half], v[0::2, half])
    lower = (odd * cos2) @ odd.T
    cross = (even * sin2) @ odd.T
    del v, even, odd
    out = _new_dense(n, n)
    out.real[0::2, 0::2] = upper
    out.real[1::2, 1::2] = lower
    out.imag[0::2, 1::2] = cross
    out.imag[1::2, 0::2] = cross.T
    # A band of positive entries, such as Q's, has every phase 1, and
    # multiplying by 1 could only change the sign of a zero.
    if (d != 1).any():
        out *= d[:, None]
        out *= d.conj()
    return out


def _times_exp(a: OperatorMatrix, h: OperatorMatrix, sign: int) -> OperatorMatrix:
    """``a @ _exponential(h, sign)`` for a band-stored ``a``, written over the
    exponential's own array one row block at a time (see
    :func:`_scaled_rows`), so that the product holds no second n x n array.
    Each entry is the same products, added in the same order, as in the
    product of the two operators."""
    a._require_same_basis(h)
    u, n = _exponential(h, sign), a.dim
    _scaled_rows(u, _row_terms(a._bands, n, 0, n, n, lambda lo, hi: u[lo:hi]),
                 carry=max(0, -min(a._bands, default=0)))
    return OperatorMatrix(a.basis, _Fresh(u))


def tensor(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two band-stored single-mode Fock operators.

    The result lives on the two-mode basis with the row-major index
    convention of :class:`FockBasis` (first factor is the major index). Bands
    ``k_a`` and ``k_b`` give band ``k_a * dim_b + k_b``, ``kron(a_k, b_k)``,
    formed as the flattened outer product of the two vectors.
    A dense operand raises ValueError. Its one caller in the package is
    :func:`su11kit.reps.two_mode`, for K- = a (x) a; the benchmark tracer fits
    its ``linops.tensor`` layer to this function by name.
    """
    for op in (a, b):
        if not (isinstance(op.basis, FockBasis) and op.basis.modes == 1):
            raise ValueError("tensor requires single-mode Fock operators")
    _require_bands("tensor", a, b)
    out_basis = FockBasis((a.basis.dims[0], b.basis.dims[0]))
    out: dict[int, np.ndarray] = {}
    for ka, va in a._bands.items():
        for kb, vb in b._bands.items():
            k = ka * b.dim + kb
            out[k] = out.get(k, 0.0) + np.multiply.outer(va, vb).reshape(-1)
    return OperatorMatrix(out_basis, _Fresh(out))


def interior_projector(
    basis: BasisSpec, margin: int, excluded: np.ndarray | tuple[int, ...] = ()
) -> OperatorMatrix:
    """Diagonal 0/1 projector onto states away from the truncation boundary.

    Keeps the states whose labels all lie in ``[margin, size - 1 - margin]``:
    the occupation of each mode of a Fock basis, the lattice index of a
    circle basis. The states indexed by ``excluded`` are dropped as well;
    an ``np.intp`` array indexes the mask as it is, without a copy.
    Shift-built operators are only faithful on this interior, so residual
    checks evaluate there. A margin that :func:`_integer` refuses, an ``excluded``
    of non-integer dtype or index outside [0, dim), or no state kept raise ValueError.
    """
    margin = _integer(margin, "margin", least=0)
    drop = np.asarray(excluded)
    if drop.size and (drop.dtype.kind not in "iu" or drop.min() < 0 or drop.max() >= basis.dim):
        raise ValueError(f"excluded must be integer indices in [0, {basis.dim}), got {drop}")
    if isinstance(basis, FockBasis):
        labels, sizes = basis.occupations(), np.array(basis.dims)
    else:
        labels, sizes = np.arange(basis.dim)[:, None], np.array([basis.dim])
    keep = np.all((labels >= margin) & (sizes - 1 - labels >= margin), axis=1)
    keep[drop.astype(np.intp, copy=False)] = False
    if not keep.any():
        raise ValueError(f"no interior states left on {basis} with margin {margin} and "
                         f"{drop.size} excluded states")
    return diagonal(basis, keep.astype(np.float64))


@dataclass(frozen=True)
class Check:
    """One named residual compared against its tolerance, which
    :func:`_require_tolerance` refuses as for :class:`su11kit.algebra.CheckSpec`."""

    name: str
    residual: float
    tolerance: float
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.residual) and self.residual >= 0):
            raise ValueError(f"residual must be finite and >= 0, got {self.residual}")
        _require_tolerance(self.tolerance)

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
