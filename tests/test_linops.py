import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su11kit.linops as linops
from conftest import dense
from oracle import kept_states, occupations
from su11kit.linops import (
    BasisMismatchError,
    Check,
    CheckReport,
    CircleBasis,
    FockBasis,
    OperatorMatrix,
    banded,
    diagonal,
    hermitian_eigensystem,
    identity,
    interior_projector,
    maxabs_norm,
    tensor,
    _exponential,
)
from su11kit.algebra import CheckSpec
from su11kit.reps import bose_ladder, quadratures, two_mode

SRC = Path(__file__).resolve().parents[1] / "src"


def random_operator(basis, seed):
    rng = np.random.default_rng(seed)
    d = basis.dim
    return OperatorMatrix(basis, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def random_bands(basis, seed):
    """A random operator stored as all 2 dim - 1 of its bands."""
    rng = np.random.default_rng(seed)
    d = basis.dim
    return banded(basis, {k: rng.normal(size=d) + 1j * rng.normal(size=d)
                          for k in range(1 - d, d)})


class TestBases:
    def test_two_mode_indexing_is_row_major(self):
        # Against the reference labels, index = n_a * dim_b + n_b, which
        # tensor, two_mode and interior_projector each produce without them.
        dims = (3, 4)
        occ = occupations(dims)
        assert FockBasis(dims).dim == 12 and tuple(occ[1 * 4 + 2]) == (1, 2)
        # tensor's band 1 * dim_b + 1 joins |n_a - 1, n_b - 1> to |n_a, n_b>.
        rows, cols = np.nonzero(dense(tensor(bose_ladder(3)[0], bose_ladder(4)[0])))
        assert rows.size == 2 * 3 and (occ[cols] - occ[rows] == 1).all()
        square = occupations((5, 5))
        np.testing.assert_allclose(two_mode(5).k0.diagonal().real,
                                   (square[:, 0] + square[:, 1] + 1) / 2.0, atol=1e-14)
        # Unequal modes, so a column-major mask would keep other states.
        dims = (5, 7)
        occ = occupations(dims)
        kept = np.all((occ >= 1) & (occ <= np.array(dims) - 2), axis=1)
        assert np.array_equal(interior_projector(FockBasis(dims), 1).diagonal(), kept)

    def test_too_many_modes_rejected(self):
        with pytest.raises(ValueError):
            FockBasis((3, 3, 3))

    def test_tiny_dims_rejected(self):
        with pytest.raises(ValueError):
            FockBasis((1,))
        with pytest.raises(ValueError):
            CircleBasis(0.0, 1)

    def test_circle_momenta_unit_spacing(self):
        basis = CircleBasis(-2.0, 5)
        np.testing.assert_array_equal(basis.momenta(), [-2, -1, 0, 1, 2])

    @pytest.mark.parametrize("p_min", [2.0 ** 52 - 64, -(2.0 ** 52 - 64)])
    def test_circle_momenta_exact_up_to_2_to_the_52(self, p_min):
        basis = CircleBasis(p_min, 64)
        assert np.all(np.diff(basis.momenta()) == 1.0)
        with pytest.raises(ValueError, match="p_min"):
            CircleBasis(p_min + np.sign(p_min), 64)


class TestOperatorMatrix:
    def test_shape_must_match_basis(self):
        with pytest.raises(BasisMismatchError):
            OperatorMatrix(FockBasis((4,)), np.eye(5))

    @pytest.mark.parametrize("make,error,message", [
        (lambda op: OperatorMatrix(op.basis, np.ones((4, 3))), ValueError,
         r"^entries must be a square matrix, got shape \(4, 3\)$"),
        (lambda op: setattr(op, "basis", None), AttributeError,
         "^OperatorMatrix is immutable; cannot set 'basis'$"),
        (lambda op: op @ 3, TypeError, "^expected OperatorMatrix, got int$"),
        (lambda op: op * "x", TypeError, "OperatorMatrix"),
    ], ids=["non-square", "set-attribute", "matmul-scalar", "times-string"])
    def test_refusals(self, make, error, message):
        with pytest.raises(error, match=message):
            make(identity(FockBasis((4,))))

    def test_nonfinite_entries_rejected(self):
        # nan, +inf or -inf in the real or the imaginary part of a band vector
        # and a dense array of one block each, and of a band vector and a
        # dense array of several row blocks, in their last block.
        long, square = 3 * (linops._BLOCK_BYTES // 16) + 5, 200
        assert 16 * square * square > linops._BLOCK_BYTES
        for bad in [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)] + [
                complex(0.0, x) for x in (np.nan, np.inf, -np.inf)]:
            short, vector = np.ones(4, dtype=np.complex128), np.ones(long, dtype=np.complex128)
            small, matrix = np.eye(4, dtype=np.complex128), np.eye(square, dtype=np.complex128)
            short[2] = small[1, 2] = vector[-1] = matrix[-1, -2] = bad
            for make in (lambda: diagonal(FockBasis((4,)), short),
                         lambda: OperatorMatrix(FockBasis((4,)), small),
                         lambda: diagonal(CircleBasis(0.0, long), vector),
                         lambda: OperatorMatrix(FockBasis((square,)), matrix)):
                with pytest.raises(ValueError, match="^entries contain non-finite values$"):
                    make()

    def test_finiteness_check_makes_no_mask_as_long_as_the_entries(self):
        n = 2 ** 20
        values = np.ones(n, dtype=np.complex128)
        tracemalloc.start()
        try:
            OperatorMatrix(CircleBasis(0.0, n), linops._Fresh({0: values}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-vector bool mask would take n bytes.
        assert peak < n // 4

    def test_mixed_basis_arithmetic_rejected(self):
        a = identity(FockBasis((4,)))
        b = identity(CircleBasis(0.0, 4))
        with pytest.raises(BasisMismatchError):
            a @ b

    def test_entries_are_immutable(self):
        op = identity(FockBasis((4,)))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 2.0

    def test_constructor_copies_the_callers_array(self):
        arr = np.eye(4, dtype=np.complex128)
        op = OperatorMatrix(FockBasis((4,)), arr)
        arr[0, 0] = 7.0
        assert dense(op)[0, 0] == 1.0

    def test_arithmetic_results_are_read_only(self):
        basis = FockBasis((3,))
        a, b = random_bands(basis, 1), random_bands(basis, 2)
        results = [a @ b, a + b, a - b, 2.5 * a, a * 1j, tensor(a, b), a.dag(),
                   random_operator(basis, 1).dag()]
        for op in results:
            for arr in (op._dense,) if op._bands is None else op._bands.values():
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arithmetic_overflow_rejected(self):
        big = 10 * identity(FockBasis((4,)))
        with pytest.raises(ValueError, match="non-finite"):
            big * 1e308
        with pytest.raises(ValueError, match="non-finite"):
            (big * 1e300) @ (big * 1e300)

    def test_dag_conjugates(self):
        basis = FockBasis((2,))
        op = OperatorMatrix(basis, [[0, 1j], [0, 0]])
        np.testing.assert_array_equal(dense(op.dag()), [[0, 0], [-1j, 0]])


# Each operation that takes band-stored operators only, with a dense operand
# d on either side of a band one b, and the name its refusal gives.
DENSE_REFUSALS = {
    "d @ b": ("a @ b", lambda d, b: d @ b),
    "b @ d": ("a @ b", lambda d, b: b @ d),
    "d + b": ("a + b", lambda d, b: d + b),
    "b + d": ("a + b", lambda d, b: b + d),
    "d - b": ("a - b", lambda d, b: d - b),
    "b - d": ("a - b", lambda d, b: b - d),
    "z * d": ("z * a", lambda d, b: 2.5 * d),
    "d * z": ("z * a", lambda d, b: d * 1j),
    "d.diagonal()": ("diagonal()", lambda d, b: d.diagonal()),
    "maxabs_norm(d)": ("maxabs_norm", lambda d, b: maxabs_norm(d)),
    "tensor(d, b)": ("tensor", lambda d, b: tensor(d, b)),
    "tensor(b, d)": ("tensor", lambda d, b: tensor(b, d)),
}


@pytest.mark.parametrize("adjointed", [False, True])
@pytest.mark.parametrize("what,use", DENSE_REFUSALS.values(), ids=DENSE_REFUSALS.keys())
def test_dense_operand_refused_naming_the_operation(what, use, adjointed):
    basis = FockBasis((4,))
    d = random_operator(basis, 0)
    band = random_bands(basis, 1)
    with pytest.raises(ValueError, match=f"^{re.escape(what)} requires band-stored operators"):
        use(d.dag() if adjointed else d, band)
    use(band, band)


def dense_from_bands(n, bands):
    """The matrix with A[i, i + k] = bands[k][i], entry by entry."""
    out = np.zeros((n, n), dtype=np.complex128)
    for k, v in bands.items():
        for i in range(n):
            if 0 <= i + k < n:
                out[i, i + k] += v[i]
    return out


@st.composite
def band_cases(draw):
    """A basis of 2 to 12 states (one or two modes), two random band operators
    on it with offsets within +-dim, their dense oracles and a dense operator."""
    shape = draw(st.sampled_from(
        [(n,) for n in range(2, 13)] + [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3),
                                         (4, 2), (2, 5), (3, 4), (4, 3), (2, 6)]))
    basis = FockBasis(shape)
    n = basis.dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    ops = []
    for _ in range(2):
        offsets = draw(st.sets(st.integers(-n, n), min_size=1, max_size=4))
        bands = {k: rng.normal(size=n) + 1j * rng.normal(size=n) for k in offsets}
        ops.append((banded(basis, bands), dense_from_bands(n, bands)))
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return basis, ops, OperatorMatrix(basis, dense), dense


def held(basis, order):
    """A random dense operator whose array is held in ``order`` ("C" or "F")."""
    return OperatorMatrix(basis, np.asarray(dense(random_operator(basis, 5)), order=order))


# Operators of each storage whose .entries is checked: bands, a dense array
# held as is, and one held conjugate-transposed, each array in either order.
ENTRIES_KINDS = {
    "band": lambda basis: random_bands(basis, 4),
    "dense-C": lambda basis: held(basis, "C"),
    "dense-F": lambda basis: held(basis, "F"),
    "adjoint-C": lambda basis: held(basis, "C").dag(),
    "adjoint-F": lambda basis: held(basis, "F").dag(),
}


def band_dense_pair(n, offsets, sparse, order, seed):
    """A band operator with the given offsets on n states, whose vector at
    offset k is mostly zeros when ``sparse[k]``, and a random dense operand
    held in ``order`` ("C" or "F")."""
    basis = FockBasis((n,))
    rng = np.random.default_rng(seed)
    bands = {}
    for k in offsets:
        bands[k] = rng.normal(size=n) + 1j * rng.normal(size=n)
        if sparse[k]:
            bands[k][rng.random(n) < 0.7] = 0.0
    dense = np.asarray(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), order=order)
    d = OperatorMatrix(basis, dense)
    assert d._dense.flags.f_contiguous == (order == "F")
    return banded(basis, bands), d


@st.composite
def band_dense_product_cases(draw):
    """A band operator with 0, 1, 2 or 4 offsets within +-(dim + 1), whose
    vectors are sometimes mostly zeros, and a dense operand held in C or
    Fortran order, sometimes conjugate-transposed, on 2 to 16 states."""
    n = draw(st.integers(2, 16))
    size = draw(st.sampled_from([0, 1, 2, 4]))
    offsets = draw(st.sets(st.integers(-n - 1, n + 1), min_size=size, max_size=size))
    sparse = {k: draw(st.booleans()) for k in sorted(offsets)}
    a, d = band_dense_pair(n, offsets, sparse, draw(st.sampled_from("CF")),
                           draw(st.integers(0, 2 ** 31 - 1)))
    return a, d.dag() if draw(st.booleans()) else d


# Band offsets on n states, for products whose rows span several row blocks:
# none, the diagonal alone, the edges of the range and past it, and a mix.
BLOCK_EDGE_OFFSETS = {
    "empty": lambda n: [],
    "diagonal": lambda n: [0],
    "edges": lambda n: [n - 1, -(n - 1), n, -n, n + 1, -(n + 1)],
    "mixed": lambda n: [3, 0, -1, n // 2, -(n - 2)],
}


def zero_fill_products(a, d):
    """a @ d and d @ a for a band ``a`` and a dense ``d`` by zero-fill and add:
    each band's scaled rows (columns) added to a zeroed output, in band order."""
    n, dd = a.dim, dense(d)
    left = np.zeros((n, n), dtype=np.complex128)
    right = np.zeros((n, n), dtype=np.complex128)
    for k, v in a._bands.items():
        lo, hi = max(0, -k), min(n, n - k)
        left[lo:hi] += v[lo:hi, None] * dd[lo + k:hi + k]
        right[:, lo + k:hi + k] += dd[:, lo:hi] * v[lo:hi]
    return left, right


def assert_matches(got, expected):
    expected = np.asarray(expected)
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


class TestBandStorage:
    @settings(max_examples=200, deadline=None)
    @given(band_cases(), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                            allow_infinity=False))
    def test_band_arithmetic_equals_dense_arithmetic(self, case, z):
        basis, ((a, ad), (b, bd)), d, dd = case
        np.testing.assert_array_equal(dense(a), ad)
        results = [
            (a @ b, ad @ bd), (a + b, ad + bd), (a - b, ad - bd), (a * z, ad * z),
            (z * a, z * ad), (a.dag(), ad.conj().T),
        ]
        for op, expected in results:
            assert_matches(dense(op), expected)
            assert not any(v.flags.writeable for v in op._bands.values())
        assert_matches(dense(a, d), ad @ dd)
        assert_matches(dense(d, a), dd @ ad)
        assert maxabs_norm(a) == np.max(np.abs(ad))
        assert maxabs_norm(a - a) == 0.0
        assert a.hermiticity_defect() == pytest.approx(
            np.max(np.abs(ad - ad.conj().T)), rel=1e-12, abs=1e-300)
        np.testing.assert_array_equal(a.diagonal(), np.diagonal(ad))

    @settings(max_examples=100, deadline=None)
    @given(band_cases(), band_cases())
    def test_band_tensor_equals_kron(self, left, right):
        ops = []
        for basis, ((a, ad), _), d, dd in (left, right):
            if basis.modes == 2:  # tensor takes single-mode factors
                return
            ops.append((a, ad, d, dd))
        (a, ad, _, _), (b, bd, _, _) = ops
        assert_matches(dense(tensor(a, b)), np.kron(ad, bd))

    @settings(max_examples=300, deadline=None)
    @given(band_dense_product_cases())
    def test_band_dense_products_equal_zero_fill_and_add(self, case):
        # Same products, added in the same band order: equal entry for entry.
        a, d = case
        left, right = zero_fill_products(a, d)
        assert np.array_equal(dense(a, d), left)
        assert np.array_equal(dense(d, a), right)

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("offsets", BLOCK_EDGE_OFFSETS.values(),
                             ids=BLOCK_EDGE_OFFSETS.keys())
    @pytest.mark.parametrize("n", [129, 300, 1000])
    def test_products_spanning_row_blocks_equal_zero_fill_and_add(self, n, offsets, order):
        # From 129 states a product's output spans two or more row blocks of
        # linops._BLOCK_BYTES, so every block edge is crossed by some band.
        assert 16 * n * n > linops._BLOCK_BYTES
        ks = offsets(n)
        a, d = band_dense_pair(n, ks, {k: i % 2 == 1 for i, k in enumerate(ks)},
                               order, seed=n)
        left, right = zero_fill_products(a, d)
        assert np.array_equal(dense(a, d), left)
        assert np.array_equal(dense(d, a), right)

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("n", [7, 64, 65, 200])
    def test_dense_adjoint_is_row_major(self, n, order):
        # The adjoint is written in tiles of linops._TILE; 7, 65 and 200
        # states leave a partial tile on each axis.
        held = np.asarray(dense(random_operator(FockBasis((n,)), 5)), order=order)
        adjoint = OperatorMatrix(FockBasis((n,)), held).dag().entries
        assert adjoint.flags.c_contiguous and not adjoint.flags.writeable
        assert adjoint.tobytes() == np.ascontiguousarray(held.conj().T).tobytes()

    @pytest.mark.parametrize("kind", ENTRIES_KINDS.values(), ids=ENTRIES_KINDS.keys())
    @pytest.mark.parametrize("n", [7, 64, 65, 200])
    def test_entries_are_the_block_of_every_state(self, n, kind):
        # .entries reads an operator as every other reader does, through
        # linops._kept_block; 7, 65 and 200 states leave a partial tile.
        op = kind(FockBasis((n,)))
        entries = op.entries
        assert entries.flags.c_contiguous and not entries.flags.writeable
        assert entries.tobytes() == dense(op).tobytes()

    def test_mixed_products_scale_rows_and_columns(self, monkeypatch):
        # band x dense and dense x band blocks must not materialize the band operand.
        a, adag = bose_ladder(6)
        d = random_operator(a.basis, 3)
        expected = [dense(a) @ dense(d), dense(d) @ dense(adag)]
        monkeypatch.setattr(linops, "_band_block", None)
        assert_matches(dense(a, d), expected[0])
        assert_matches(dense(d, adag), expected[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_band_overflow_rejected(self):
        basis = FockBasis((4,))
        big = banded(basis, {1: np.full(4, 1e200)})
        for make in (lambda: big @ big.dag(), lambda: big * 1e200,
                     lambda: big * 1e108 + big * 1e108, lambda: tensor(big, big)):
            with pytest.raises(ValueError, match="non-finite"):
                make()

    def test_out_of_range_entries_are_ignored(self):
        basis = CircleBasis(0.0, 3)
        op = banded(basis, {1: [1.0, 2.0, np.inf], 3: [np.nan] * 3, -5: [1.0] * 3})
        np.testing.assert_array_equal(dense(op), [[0, 1, 0], [0, 0, 2], [0, 0, 0]])

    def test_band_vector_must_fit_the_basis(self):
        with pytest.raises(BasisMismatchError):
            banded(FockBasis((4,)), {0: np.ones(3)})


def shifted_copy(v, k, rp=0, rq=None):
    """Reference: w[i - rp] = v[i + k] for the rows i in [rp, rq), as a
    zero-padded copy, from which the reference product and adjoint are formed."""
    n = v.shape[0]
    rq = n if rq is None else rq
    lo, hi = max(rp, -k), min(rq, n - k)
    out = np.zeros(rq - rp, dtype=v.dtype)
    if lo < hi:
        out[lo - rp:hi - rp] = v[lo + k:hi + k]
    return out


def reference_product_rows(a, b, rp, rq):
    n, out = a.dim, {}
    for ka, va in a._bands.items():
        for kb, vb in b._bands.items():
            k = ka + kb
            if abs(k) < n:
                out[k] = out.get(k, 0.0) + va[rp:rq] * shifted_copy(vb, ka, rp, rq)
    return out


def zero_fill_product_rows(a, b, rp, rq):
    """Reference: each output band zeroed whole, then every band pair's
    product added into its rows, the first one included."""
    n, out = a.dim, {}
    for ka, va in a._bands.items():
        lo = max(rp, -ka)
        hi = max(lo, min(rq, n - ka))
        for kb, vb in b._bands.items():
            k = ka + kb
            if abs(k) < n:
                if k not in out:
                    out[k] = np.zeros(rq - rp, dtype=np.complex128)
                out[k][lo - rp:hi - rp] += va[lo:hi] * vb[lo + ka:hi + ka]
    return out


def reference_dag(a):
    return {-k: np.conj(shifted_copy(v, -k)) for k, v in a._bands.items()}


def assert_same_band_rows(got, expected, n, rp, rq):
    """The same offsets in the same order; the entries of rows [rp, rq) whose
    column is in [0, n) equal by bytes, sign bits included, and the others 0
    by value (the reference leaves -0.0 there, which no output reads)."""
    assert list(got) == list(expected)
    rows = np.arange(rp, rq)
    for k, v in expected.items():
        assert got[k].dtype == v.dtype and got[k].shape == v.shape == (rq - rp,)
        inside = (rows + k >= 0) & (rows + k < n)
        assert got[k][inside].tobytes() == v[inside].tobytes()
        assert not got[k][~inside].any() and not v[~inside].any()


def signed_zero_bands(basis, rng):
    """A band operator with 0 to 4 offsets within +-(dim + 1), random
    entries of which about a third of the parts are +0.0 or -0.0, scaled by
    1, -1 or 1j so that out-of-range entries carry either sign of zero."""
    n = basis.dim
    bands = {}
    for k in rng.choice(np.arange(-n - 1, n + 2), size=rng.integers(0, 5), replace=False):
        parts = rng.normal(size=(2, n))
        parts[rng.random((2, n)) < 0.33] = 0.0
        parts *= rng.choice([1.0, -1.0], size=(2, n))
        bands[int(k)] = parts[0] + 1j * parts[1]
    return banded(basis, bands) * complex(rng.choice([1.0, -1.0, 1j]))


class TestBandRows:
    """Band products and adjoints, written into their vectors in place,
    against the same sums formed from zero-padded shifted copies."""

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    @pytest.mark.parametrize("kind", ["fock", "circle"])
    def test_product_rows_and_adjoints_equal_the_shifted_copies(self, n, kind):
        basis = FockBasis((n,)) if kind == "fock" else CircleBasis(-0.5, n)
        rng = np.random.default_rng(n)
        ends = sorted({0, 1, n - 1, n})
        windows = [(rp, rq) for rp in ends for rq in ends if rp <= rq]
        empty = banded(basis, {})
        for _ in range(12):
            a, b = signed_zero_bands(basis, rng), signed_zero_bands(basis, rng)
            for x, y in ((a, b), (b, a), (a, empty), (empty, b), (a, a)):
                for rp, rq in windows:
                    assert_same_band_rows(linops._product_rows(x, y, rp, rq),
                                          reference_product_rows(x, y, rp, rq), n, rp, rq)
                assert_same_band_rows((x @ y)._bands, reference_product_rows(x, y, 0, n),
                                      n, 0, n)
            for x in (a, b, empty):
                assert_same_band_rows(x.dag()._bands, reference_dag(x), n, 0, n)

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    @pytest.mark.parametrize("kind", ["fock", "circle"])
    def test_product_rows_are_the_bytes_of_a_zero_filled_sum(self, n, kind):
        # Every entry, out-of-range ones and the signs of zeros included.
        basis = FockBasis((n,)) if kind == "fock" else CircleBasis(-0.5, n)
        rng = np.random.default_rng(100 + n)
        ends = sorted({0, 1, n - 1, n})
        for _ in range(25):
            a, b = signed_zero_bands(basis, rng), signed_zero_bands(basis, rng)
            for x, y in ((a, b), (b, a), (a, a)):
                for rp, rq in [(rp, rq) for rp in ends for rq in ends if rp <= rq]:
                    got = linops._product_rows(x, y, rp, rq)
                    expected = zero_fill_product_rows(x, y, rp, rq)
                    assert list(got) == list(expected)
                    assert all(got[k].tobytes() == v.tobytes() for k, v in expected.items())


# Kept state sets on n >= 16 states: every state (margin 0), one state inside
# and one at the edge, a contiguous interior, and an interior with holes where
# states are excluded as clamp-touching ones are.
KEPT_SETS = {
    "all": lambda n: interior_projector(FockBasis((n,)), 0),
    "one": lambda n: interior_projector(FockBasis((n,)), 0,
                                        tuple(j for j in range(n) if j != n // 3)),
    "last": lambda n: interior_projector(FockBasis((n,)), 0, tuple(range(n - 1))),
    "interior": lambda n: interior_projector(FockBasis((n,)), n // 4),
    "holes": lambda n: interior_projector(FockBasis((n,)), 2, (3, 4, n // 2, n - 4)),
}


def projected_block(proj, whole):
    """The kept entries of the array ``whole``, as a residual check reads them
    behind the projector ``proj``."""
    keep = np.flatnonzero(proj.diagonal())
    return keep, whole[np.ix_(keep, keep)]


def row_tiles(m):
    """Slices of m kept rows: all of them and, from three on, the inner ones,
    a single row when m is three."""
    return (slice(None), slice(1, m - 1)) if m >= 3 else (slice(None),)


def dense_block_mismatches():
    """The (n, orders, kept set) cases whose dense x dense kept block is not
    kept entries of numpy's product of the two arrays."""
    bad = []
    for n in (16, 17, 64, 65, 130, 200):
        basis = FockBasis((n,))
        for left, right in ("CC", "CF", "FC", "FF"):
            x = OperatorMatrix(basis, np.asarray(dense(random_operator(basis, n)), order=left))
            y = OperatorMatrix(basis, np.asarray(dense(random_operator(basis, n + 1)),
                                                 order=right))
            for name, kept in KEPT_SETS.items():
                keep, expected = projected_block(kept(n), dense(x) @ dense(y))
                for rows in row_tiles(keep.size):
                    if not np.array_equal(linops._kept_block(keep, x, y, rows), expected[rows]):
                        bad.append((n, left + right, name, rows))
    return bad


class TestKeptBlock:
    """linops._kept_block forms each kept entry of a product with the same
    floating-point operations as the full product, so it equals the kept
    entries of the block over all states exactly (of numpy's product, for two
    dense operands), on every kept row or on a tile of them."""

    @pytest.mark.parametrize("kept", KEPT_SETS.values(), ids=KEPT_SETS.keys())
    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("offsets", BLOCK_EDGE_OFFSETS.values(),
                             ids=BLOCK_EDGE_OFFSETS.keys())
    @pytest.mark.parametrize("n", [17, 130])
    def test_band_blocks_equal_the_projected_product(self, n, offsets, order, kept):
        ks = offsets(n)
        a, d = band_dense_pair(n, ks, {k: i % 2 == 1 for i, k in enumerate(ks)},
                               order, seed=n)
        proj = kept(n)
        for x, y in ((a, d), (d, a), (a, d.dag()), (d.dag(), a), (a, a.dag())):
            keep, expected = projected_block(proj, dense(x, y))
            for rows in row_tiles(keep.size):
                assert np.array_equal(linops._kept_block(keep, x, y, rows), expected[rows])
        for x in (a, d, d.dag()):
            keep, expected = projected_block(proj, dense(x))
            for rows in row_tiles(keep.size):
                assert np.array_equal(linops._kept_block(keep, x, rows=rows), expected[rows])

    def test_dense_blocks_equal_the_projected_product(self):
        # The sums run inside BLAS, whose split of a product among threads
        # can change its rounding; the comparison runs on one thread.
        script = "import test_linops; print(test_linops.dense_block_mismatches())"
        env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), str(SRC)])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        assert done.stdout.strip() == "[]"


class TestCommutator:
    def test_identity_commutes(self):
        b = random_bands(FockBasis((5,)), seed=0)
        one = identity(b.basis)
        assert maxabs_norm(one @ b - b @ one) == 0.0

    def test_self_commutator_vanishes(self):
        a = random_bands(FockBasis((5,)), seed=1)
        assert maxabs_norm(a @ a - a @ a) == 0.0

    def test_ladder_commutator_dim4(self):
        # Hand expansion of [a, adag] with a[n-1, n] = sqrt(n) at dim 4:
        # aa^dag = diag(1, 2, 3, 0), a^dag a = diag(0, 1, 2, 3).
        a, adag = bose_ladder(4)
        expected = np.diag([1.0, 1.0, 1.0, -3.0])
        np.testing.assert_allclose(dense(a @ adag - adag @ a), expected, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_antisymmetry_is_exact(self, seed):
        basis = FockBasis((6,))
        a = random_bands(basis, seed)
        b = random_bands(basis, seed + 1)
        ab = dense(a @ b - b @ a)
        ba = dense(b @ a - a @ b)
        assert np.array_equal(ab, -ba)


@st.composite
def tridiagonal_cases(draw):
    """A Hermitian band operator with offsets -1, 0, 1 on a one-mode, two-mode
    or circle basis of 2 to 12 states: real diagonal, sub-diagonal entries of
    random phase, and some of them exactly zero, which splits the chain."""
    basis = draw(st.sampled_from(
        [FockBasis((n,)) for n in range(2, 13)]
        + [FockBasis(dims) for dims in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 5),
                                        (3, 4), (4, 3), (6, 2))]
        + [CircleBasis(-2.5, n) for n in range(2, 13)]))
    n = basis.dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    sub = rng.normal(size=n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    sub[list(draw(st.sets(st.integers(0, n - 2), max_size=n - 1)))] = 0.0
    # A[i, i - 1] = sub[i - 1] and A[i, i + 1] = conj(sub[i]).
    return banded(basis, {-1: np.concatenate(([0.0], sub)), 0: rng.normal(size=n),
                          1: np.concatenate((sub.conj(), [0.0]))})


@st.composite
def zero_diagonal_cases(draw):
    """A Hermitian band operator with offsets -1 and 1 (and sometimes an
    all-zero diagonal band) on 2 to 40 states: sub-diagonal entries of random
    phase, some of them exactly zero, which splits the chain."""
    n = draw(st.integers(2, 40))
    basis = draw(st.sampled_from([FockBasis((n,)), CircleBasis(-2.5, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    sub = rng.normal(size=n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    sub[list(draw(st.sets(st.integers(0, n - 2), max_size=n - 1)))] = 0.0
    bands = {-1: np.concatenate(([0.0], sub)), 1: np.concatenate((sub.conj(), [0.0]))}
    if draw(st.booleans()):
        bands[0] = np.full(n, draw(st.sampled_from([0.0, -0.0])))
    return banded(basis, bands)


def assert_eigensystem(h):
    """Eigenvalues against dense eigh, ascending order, real orthonormal
    vectors V of T, unit phases d, and H (d V) = (d V) diag(w) and the
    reconstruction of h, each within 1e-12 of the entries' scale."""
    hd = dense(h)
    scale = 1.0 + maxabs_norm(h)
    w, v, d = hermitian_eigensystem(h)
    assert np.max(np.abs(w - np.linalg.eigh(hd)[0])) <= 1e-12 * scale
    assert np.all(np.diff(w) >= 0)
    assert v.dtype == np.float64
    assert np.max(np.abs(v.T @ v - np.eye(h.dim))) <= 1e-12
    assert np.max(np.abs(np.abs(d) - 1)) <= 4 * 2.0 ** -52
    x = d[:, None] * v
    assert np.max(np.abs(hd @ x - x * w)) <= 1e-12 * scale
    assert np.max(np.abs((x * w) @ x.conj().T - hd)) <= 1e-12 * scale
    return w, v, d


def random_zero_diagonal_band(basis, seed):
    """A Hermitian band with offsets -1 and 1 and complex Gaussian
    sub-diagonal entries: the one input the spectral routines accept."""
    rng = np.random.default_rng(seed)
    sub = rng.normal(size=basis.dim - 1) + 1j * rng.normal(size=basis.dim - 1)
    return banded(basis, {-1: np.concatenate(([0.0], sub)),
                          1: np.concatenate((sub.conj(), [0.0]))})


def other_inputs():
    """Hermitian inputs the spectral routines refuse: a tridiagonal band
    with a nonzero real diagonal, a nonzero diagonal alone, bands at offsets
    +-2, and a dense matrix."""
    r = dense(random_operator(FockBasis((6,)), seed=7))
    fixed = [diagonal(FockBasis((3,)), [3.0, 1.0, 2.0]),
             banded(FockBasis((6,)), {2: np.ones(6), -2: np.ones(6)}),
             OperatorMatrix(FockBasis((6,)), r + r.conj().T)]
    return st.one_of(tridiagonal_cases(), st.sampled_from(fixed))


class TestEigensystem:
    @settings(max_examples=200, deadline=None)
    @given(zero_diagonal_cases())
    def test_zero_diagonal_band_matches_dense_eigh(self, h):
        assert_eigensystem(h)

    @pytest.mark.parametrize("dim", [17, 64, 65])
    def test_quadratures_match_dense_eigh(self, dim):
        # Q's phases are all 1 and P's are powers of i, so |d| = 1 exactly.
        for h in quadratures(dim):
            _, _, d = assert_eigensystem(h)
            assert np.all(np.abs(d) == 1)

    @pytest.mark.parametrize("n", [2, 17, 64])
    def test_uniform_chain_spectrum_sorted(self, n):
        # Closed form: the chain with unit off-diagonals has the eigenvalues
        # 2 cos(k pi / (n + 1)), k = 1..n, which the parity blocks interleave.
        h = banded(FockBasis((n,)), {-1: np.ones(n), 1: np.ones(n)})
        w = hermitian_eigensystem(h)[0]
        expected = np.sort(2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-13)

    def test_reconstruction_residual(self):
        basis = FockBasis((8,))
        h = random_zero_diagonal_band(basis, seed=7)
        w, v, d = hermitian_eigensystem(h)
        x = d[:, None] * v
        recon = (x * w) @ x.conj().T
        scale = 1.0 + maxabs_norm(h)
        assert np.max(np.abs(dense(h) - recon)) <= 1e-9 * scale

    def test_position_spectrum_matches_hermite_nodes(self):
        # Independent oracle: the Gauss-Hermite nodes from numpy's own
        # Hermite-polynomial machinery. The truncated position quadrature has
        # exactly the Jacobi matrix of that weight, so the interior
        # eigenvalues must agree.
        q, _ = quadratures(64)
        w = hermitian_eigensystem(q)[0]
        nodes, _ = np.polynomial.hermite.hermgauss(64)
        np.testing.assert_allclose(w[16:48], nodes[16:48], atol=1e-6)

    def test_non_hermitian_rejected_naming_residual(self):
        a, _ = bose_ladder(4)
        with pytest.raises(ValueError, match="max|"):
            hermitian_eigensystem(a)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_spectrum_invariant_under_permutation(self, seed):
        # Reversing the states keeps a zero-diagonal tridiagonal band one, and
        # at even n it swaps the even and odd parity blocks.
        basis = FockBasis((6,))
        h = random_zero_diagonal_band(basis, seed)
        pmat = np.eye(6)[::-1]
        m = pmat @ dense(h) @ pmat.T
        reversed_h = banded(basis, {-1: np.concatenate(([0.0], np.diag(m, -1))),
                                    1: np.concatenate((np.diag(m, 1), [0.0]))})
        np.testing.assert_array_equal(dense(reversed_h), m)
        w1 = hermitian_eigensystem(h)[0]
        w2 = hermitian_eigensystem(reversed_h)[0]
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    @pytest.mark.parametrize("routine", [hermitian_eigensystem,
                                         lambda h: _exponential(h, 1)],
                             ids=["eigensystem", "exponential"])
    @settings(max_examples=50, deadline=None)
    @given(other_inputs())
    def test_other_inputs_rejected_naming_the_routine(self, routine, h):
        # The exponential validates its generator through the eigensystem.
        assert h.hermiticity_defect() <= linops.HERMITICITY_TOL
        with pytest.raises(ValueError, match="^hermitian_eigensystem requires a tridiagonal"):
            routine(h)



class TestExponential:
    def test_zero_gives_identity(self):
        basis = FockBasis((4,))
        np.testing.assert_allclose(_exponential(0 * identity(basis), +1), np.eye(4), atol=1e-15)

    def test_scalar_phases(self):
        # exp(i theta sigma_x) = cos(theta) + i sin(theta) sigma_x.
        basis = FockBasis((2,))
        for theta, expected in ((np.pi, -np.eye(2)), (np.pi / 2, 1j * np.eye(2)[::-1])):
            u = _exponential(banded(basis, {-1: [0.0, theta], 1: [theta, 0.0]}), +1)
            np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_forward_backward_is_identity(self):
        q, _ = quadratures(32)
        u = _exponential(q, +1) @ _exponential(q, -1)
        assert np.max(np.abs(u - np.eye(32))) <= 1e-12

    def test_opposite_sign_is_the_adjoint(self):
        q, _ = quadratures(48)
        gap = _exponential(q, -1) - _exponential(q, +1).conj().T
        assert np.max(np.abs(gap)) <= 1e-12

    def test_unitarity(self):
        q, _ = quadratures(48)
        u = _exponential(q, +1)
        assert np.max(np.abs(u @ u.conj().T - np.eye(48))) <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_forward_backward_random_hermitian(self, seed):
        basis = FockBasis((8,))
        h = random_zero_diagonal_band(basis, seed)
        u = _exponential(h, +1) @ _exponential(h, -1)
        assert np.max(np.abs(u - np.eye(8))) <= 1e-9

    def test_non_hermitian_rejected(self):
        a, _ = bose_ladder(4)
        with pytest.raises(ValueError, match="^hermitian_eigensystem requires a Hermitian"):
            _exponential(a, +1)


def dense_exp(h, sign):
    """exp(sign * i * H) through numpy's dense eigh of the materialized H."""
    w, v = np.linalg.eigh(dense(h))
    return (v * np.exp(1j * sign * w)) @ v.conj().T


class TestZeroDiagonalExp:
    """The bose route of the exponential: exp(i sign T) of the real
    parity-split band T from three real half-order products, phased by d."""

    @pytest.mark.parametrize("n", [16, 17, 64, 65, 512])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_quadratures_match_the_dense_exponential(self, n, sign):
        for h in quadratures(n):
            u = _exponential(h, sign)
            assert u.dtype == np.complex128 and u.flags.writeable
            assert np.max(np.abs(u - dense_exp(h, sign))) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(zero_diagonal_cases(), st.sampled_from([1, -1]))
    def test_arbitrary_phases_match_the_dense_exponential(self, h, sign):
        assert np.max(np.abs(_exponential(h, sign) - dense_exp(h, sign))) <= 1e-13

    @pytest.mark.parametrize("n", [512, 2048])
    def test_quadratures_give_unitaries_to_rounding(self, n):
        for h in quadratures(n):
            u = _exponential(h, -1)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-14

    @pytest.mark.parametrize("n", [64, 65])
    def test_parity_blocks_are_exactly_real_or_imaginary(self, n):
        same = np.add.outer(np.arange(n), np.arange(n)) % 2 == 0
        for h in quadratures(n):
            d = hermitian_eigensystem(h)[2]
            e = d.conj()[:, None] * _exponential(h, 1) * d
            assert np.all(e.imag[same] == 0) and np.all(e.real[~same] == 0)

    @pytest.mark.parametrize("offsets", [[-1, 0, 1], [2, -3, 0], [0], [1]],
                             ids=["tridiagonal", "carry-3", "diagonal", "upper"])
    @pytest.mark.parametrize("n", [16, 17, 129, 512])
    def test_product_written_over_the_exponential_is_the_product(self, n, offsets):
        # From 129 states the product spans several row blocks, each of which
        # reads rows of the array it overwrites, up to three above its own;
        # at 129 the last block is two rows.
        rng = np.random.default_rng(n)
        basis = FockBasis((n,))
        a = banded(basis, {k: rng.normal(size=n) + 1j * rng.normal(size=n) for k in offsets})
        for h, sign in zip(quadratures(n), (-1, 1)):
            expected = dense(a, OperatorMatrix(basis, _exponential(h, sign)))
            assert dense(linops._times_exp(a, h, sign)).tobytes() == expected.tobytes()

    def test_mismatched_upper_band_rejected(self):
        # The split reads only the lower band, so the Hermiticity check must
        # still see the upper one.
        sub = np.arange(1.0, 6.0)
        h = banded(FockBasis((6,)), {-1: np.concatenate(([0.0], sub)),
                                     1: np.concatenate((2 * sub, [0.0]))})
        with pytest.raises(ValueError, match="^hermitian_eigensystem requires a Hermitian"):
            _exponential(h, 1)


class TestPhases:
    def test_quadrature_phases_are_exact_units(self):
        for h in quadratures(2048):
            d, _ = linops._zero_diagonal_band(h)
            assert np.all(np.isin(d, [1, -1, 1j, -1j]))

    @settings(max_examples=200, deadline=None)
    @given(zero_diagonal_cases())
    def test_phases_keep_unit_modulus(self, h):
        d, size = linops._zero_diagonal_band(h)
        assert np.max(np.abs(np.abs(d) - 1)) <= 4 * 2.0 ** -52
        # D^dag H D has the real lower band |h|.
        lower = d[1:].conj() * dense(h).diagonal(-1) * d[:-1]
        np.testing.assert_allclose(lower, size, rtol=0, atol=1e-14 * (1 + size.max()))


class TestTensor:
    def test_identity_times_identity(self):
        i2 = identity(FockBasis((2,)))
        i3 = identity(FockBasis((3,)))
        np.testing.assert_array_equal(dense(tensor(i2, i3)), np.eye(6))

    def test_index_convention(self):
        a, adag = bose_ladder(3)
        number = adag @ a
        t = tensor(number, identity(FockBasis((2,))))
        np.testing.assert_allclose(np.diag(dense(t)), [0, 0, 1, 1, 2, 2], atol=1e-15)

    def test_pair_annihilation_amplitude(self):
        # tensor(a, b) |1,1> = |0,0> with coefficient sqrt(1)*sqrt(1) = 1.
        a, _ = bose_ladder(3)
        b, _ = bose_ladder(3)
        t = tensor(a, b)
        assert dense(t)[0, 1 * 3 + 1] == 1.0

    def test_non_fock_rejected(self):
        with pytest.raises(ValueError):
            tensor(identity(CircleBasis(0.0, 3)), identity(FockBasis((3,))))

    def test_bands_are_the_kron_of_band_vectors_bit_for_bit(self):
        # Against np.kron of each band pair, summed per offset in the same
        # order; with two states in b, offsets 2 k_a + k_b coincide. Signed
        # zeros are kept by the products, and a sum turns -0.0 into 0.0.
        rng = np.random.default_rng(3)
        ops = []
        for basis in (FockBasis((4,)), FockBasis((2,))):
            vectors = {}
            for k in (-1, 0, 1):
                v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
                v[::2] = complex(-0.0, -0.0)
                vectors[k] = v
            ops.append(banded(basis, vectors))
        a, b = ops
        expected = {}
        for ka, va in a._bands.items():
            for kb, vb in b._bands.items():
                k = ka * b.dim + kb
                expected[k] = expected.get(k, 0.0) + np.kron(va, vb)
        got = tensor(a, b)._bands
        assert got.keys() == expected.keys()
        assert all(got[k].tobytes() == expected[k].tobytes() for k in got)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_mixed_product_rule(self, seed):
        ba, bb = FockBasis((4,)), FockBasis((5,))
        a, c = random_bands(ba, seed), random_bands(ba, seed + 1)
        b, d = random_bands(bb, seed + 2), random_bands(bb, seed + 3)
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert maxabs_norm(lhs - rhs) <= 1e-12 * (1 + maxabs_norm(rhs))


class TestInteriorProjector:
    def test_margin_zero_is_identity(self):
        basis = CircleBasis(0.0, 5)
        np.testing.assert_array_equal(
            dense(interior_projector(basis, 0)), np.eye(5)
        )

    def test_circle_margin_two(self):
        proj = interior_projector(CircleBasis(0.0, 6), 2)
        np.testing.assert_array_equal(np.diag(dense(proj)), [0, 0, 1, 1, 0, 0])

    def test_two_mode_margin_applies_per_mode(self):
        proj = interior_projector(FockBasis((4, 4)), 1)
        kept = np.flatnonzero(np.real(np.diag(dense(proj))))
        # both occupations in {1, 2}
        assert kept.tolist() == [5, 6, 9, 10]

    def test_idempotent_and_hermitian(self):
        proj = interior_projector(FockBasis((8,)), 3)
        assert np.array_equal(dense(proj @ proj), dense(proj))
        assert proj.hermiticity_defect() == 0.0

    def test_margin_too_large(self):
        with pytest.raises(ValueError):
            interior_projector(CircleBasis(0.0, 6), 3)
        with pytest.raises(ValueError):
            interior_projector(FockBasis((4, 4)), 2)

    @pytest.mark.parametrize("dim,margin", [(2, 0), (5, 1), (6, 2), (9, 4)])
    def test_fock_and_circle_keep_the_same_states(self, dim, margin):
        fock = interior_projector(FockBasis((dim,)), margin)
        circle = interior_projector(CircleBasis(-3.5, dim), margin)
        np.testing.assert_array_equal(np.diag(dense(fock)), np.diag(dense(circle)))

    def test_excluded_states_are_dropped(self):
        proj = interior_projector(CircleBasis(0.0, 6), 1, excluded=(1, 4))
        np.testing.assert_array_equal(np.diag(dense(proj)), [0, 0, 1, 1, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keeps_what_the_label_table_keeps(self, data):
        # Against the keep rule as a table of every state's labels, as it was
        # written before the per-mode masks: margins from 0 to past half of
        # the largest mode, and random exclusions; with no state left, the
        # message is the one it was.
        basis = data.draw(st.one_of(
            st.builds(lambda d: FockBasis((d,)), st.integers(2, 12)),
            st.builds(lambda a, b: FockBasis((a, b)), st.integers(2, 9), st.integers(2, 9)),
            st.builds(CircleBasis, st.floats(-50, 50), st.integers(2, 12))))
        sizes = basis.dims if isinstance(basis, FockBasis) else (basis.dim,)
        margin = data.draw(st.integers(0, max(sizes) // 2 + 2))
        excluded = tuple(data.draw(st.lists(st.integers(0, basis.dim - 1), max_size=4,
                                            unique=True)))
        expected = np.zeros(basis.dim)
        expected[kept_states(sizes, margin, excluded)] = 1.0
        if expected.any():
            assert np.array_equal(interior_projector(basis, margin, excluded).diagonal(),
                                  expected)
        else:
            message = (f"no interior states left on {basis} with margin {margin} and "
                       f"{len(excluded)} excluded states")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                interior_projector(basis, margin, excluded)

    @pytest.mark.parametrize("margin,drop", [(2 ** 63, False), (10 ** 400, False), (2, True)],
                             ids=["past-int64", "past-float", "interior-excluded"])
    @pytest.mark.parametrize("basis,interior", [
        (FockBasis((6,)), (2, 3)), (FockBasis((6, 6)), (14, 15, 20, 21)),
        (CircleBasis(0.0, 6), (2, 3))], ids=["fock1", "fock2", "circle"])
    def test_no_state_kept_names_the_margin_and_exclusions(self, basis, interior, margin, drop):
        # ``interior`` holds the states that margin 2 keeps.
        excluded = interior if drop else ()
        message = (f"no interior states left on {basis} with margin {margin} and "
                   f"{len(excluded)} excluded states")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interior_projector(basis, margin, excluded)


class TestMaxAbsNorm:
    def test_zero_matrix(self):
        assert maxabs_norm(0 * identity(FockBasis((3,)))) == 0.0

    def test_diagonal(self):
        assert maxabs_norm(diagonal(FockBasis((2,)), [1.0, -3.0])) == 3.0

    def test_ladder_top_element(self):
        a, _ = bose_ladder(10)
        assert maxabs_norm(a) == 3.0


class TestCheckReport:
    def test_passed_follows_tolerance(self):
        assert Check("x", 1e-12, 1e-10).passed
        assert not Check("x", 1e-8, 1e-10).passed

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            Check("x", -1.0, 1e-10)

    def test_zero_tolerance_refused_as_checkspec_refuses_it(self):
        # One rule for both: a tolerance of 0 would pass only an exact zero.
        message = "tolerance must be finite and > 0, got 0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Check("x", 0.0, 0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CheckSpec(tolerance=0.0)

    def test_overall_passed(self):
        good = Check("a", 0.0, 1e-10)
        bad = Check("b", 1.0, 1e-10)
        assert CheckReport((good,)).overall_passed
        report = CheckReport((good, bad))
        assert not report.overall_passed
