import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su11kit.linops as linops

from su11kit.linops import (
    BasisMismatchError,
    Check,
    CheckReport,
    CircleBasis,
    FockBasis,
    OperatorMatrix,
    banded,
    commutator,
    diagonal,
    hermitian_eigensystem,
    identity,
    interior_projector,
    maxabs_norm,
    tensor,
    unitary_exp,
)
from su11kit.reps import bose_ladder, quadratures


def random_operator(basis, seed):
    rng = np.random.default_rng(seed)
    d = basis.dim
    return OperatorMatrix(basis, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


class TestBases:
    def test_two_mode_indexing_is_row_major(self):
        basis = FockBasis((3, 4))
        assert basis.dim == 12
        occ = basis.occupations()
        # index = n_a * dim_b + n_b
        assert tuple(occ[1 * 4 + 2]) == (1, 2)

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


class TestOperatorMatrix:
    def test_shape_must_match_basis(self):
        with pytest.raises(BasisMismatchError):
            OperatorMatrix(FockBasis((4,)), np.eye(5))

    def test_nonfinite_entries_rejected(self):
        bad = np.eye(4)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            OperatorMatrix(FockBasis((4,)), bad)

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
        assert op.entries[0, 0] == 1.0

    def test_arithmetic_results_are_read_only(self):
        basis = FockBasis((3,))
        a, b = random_operator(basis, 1), random_operator(basis, 2)
        results = [a @ b, a + b, a - b, -a, 2.5 * a, a * 1j,
                   tensor(a, b), a.dag()]
        for op in results:
            assert not op.entries.flags.writeable
            with pytest.raises(ValueError):
                op.entries[0, 0] = 0.0

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
        np.testing.assert_array_equal(op.dag().entries, [[0, 0], [-1j, 0]])


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


@st.composite
def signed_zero_cases(draw):
    """A band operator and a dense operator, the latter possibly transposed
    in memory, whose entries include +0.0 and -0.0 in both parts."""
    n = draw(st.integers(2, 9))
    basis = FockBasis((n,))
    values = st.sampled_from([0.0, -0.0, 1.5, -2.25])
    entries = st.builds(complex, values, values)
    offsets = draw(st.sets(st.integers(-n + 1, n - 1), max_size=3))
    bands = {k: draw(st.lists(entries, min_size=n, max_size=n)) for k in offsets}
    dense = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    d = OperatorMatrix(basis, dense)
    return banded(basis, bands), d.dag() if draw(st.booleans()) else d


def assert_matches(op, expected):
    expected = np.asarray(expected)
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(op.entries - expected)) <= 1e-12 * scale


class TestBandStorage:
    @settings(max_examples=200, deadline=None)
    @given(band_cases(), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                            allow_infinity=False))
    def test_band_arithmetic_equals_dense_arithmetic(self, case, z):
        basis, ((a, ad), (b, bd)), d, dd = case
        np.testing.assert_array_equal(a.entries, ad)
        results = [
            (a @ b, ad @ bd), (a @ d, ad @ dd), (d @ a, dd @ ad),
            (a + b, ad + bd), (a - b, ad - bd), (-a, -ad), (a * z, ad * z),
            (z * a, z * ad), (a.dag(), ad.conj().T), (a + d, ad + dd),
        ]
        for op, expected in results:
            assert_matches(op, expected)
        for op, _ in results:
            assert not op.entries.flags.writeable
            if op._bands is not None:
                assert not any(v.flags.writeable for v in op._bands.values())
        assert maxabs_norm(a) == np.max(np.abs(ad))
        assert maxabs_norm(a - a) == 0.0
        assert a.hermiticity_defect() == pytest.approx(
            np.max(np.abs(ad - ad.conj().T)), rel=1e-12, abs=1e-300)
        np.testing.assert_array_equal(a.diagonal(), np.diagonal(ad))
        index = np.flatnonzero(np.arange(basis.dim) % 3 != 1)
        np.testing.assert_array_equal(a.block(index), ad[np.ix_(index, index)])
        np.testing.assert_array_equal(d.block(index), dd[np.ix_(index, index)])

    @settings(max_examples=100, deadline=None)
    @given(band_cases(), band_cases())
    def test_band_tensor_equals_kron(self, left, right):
        ops = []
        for basis, ((a, ad), _), d, dd in (left, right):
            if basis.modes == 2:  # tensor takes single-mode factors
                return
            ops.append((a, ad, d, dd))
        (a, ad, c, cd), (b, bd, d, dd) = ops
        assert_matches(tensor(a, b), np.kron(ad, bd))
        assert_matches(tensor(a, d), np.kron(ad, dd))
        assert_matches(tensor(c, b), np.kron(cd, bd))

    @settings(max_examples=200, deadline=None)
    @given(signed_zero_cases())
    def test_band_dense_sums_match_dense_bit_for_bit(self, case):
        # The band operand is never materialized, yet every entry is the same
        # ufunc of the same two values as on the dense arrays.
        a, d = case
        ad, dd = a.entries, d.entries
        for op, expected in ((a + d, ad + dd), (d + a, dd + ad),
                             (a - d, ad - dd), (d - a, dd - ad)):
            assert op._bands is None
            got = np.ascontiguousarray(op.entries)
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_mixed_products_scale_rows_and_columns(self, monkeypatch):
        # band @ dense and dense @ band must not materialize the band operand.
        a, adag = bose_ladder(6)
        d = random_operator(a.basis, 3)
        expected = [a.entries @ d.entries, d.entries @ adag.entries]
        monkeypatch.setattr(linops, "_to_dense", None)
        assert_matches(a @ d, expected[0])
        assert_matches(d @ adag, expected[1])

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
        np.testing.assert_array_equal(op.entries, [[0, 1, 0], [0, 0, 2], [0, 0, 0]])

    def test_band_vector_must_fit_the_basis(self):
        with pytest.raises(BasisMismatchError):
            banded(FockBasis((4,)), {0: np.ones(3)})


class TestCommutator:
    def test_identity_commutes(self):
        b = random_operator(FockBasis((5,)), seed=0)
        assert maxabs_norm(commutator(identity(b.basis), b)) == 0.0

    def test_self_commutator_vanishes(self):
        a = random_operator(FockBasis((5,)), seed=1)
        assert maxabs_norm(commutator(a, a)) == 0.0

    def test_ladder_commutator_dim4(self):
        # Hand expansion of [a, adag] with a[n-1, n] = sqrt(n) at dim 4:
        # aa^dag = diag(1, 2, 3, 0), a^dag a = diag(0, 1, 2, 3).
        a, adag = bose_ladder(4)
        expected = np.diag([1.0, 1.0, 1.0, -3.0])
        np.testing.assert_allclose(commutator(a, adag).entries, expected, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_antisymmetry_is_exact(self, seed):
        basis = FockBasis((6,))
        a = random_operator(basis, seed)
        b = random_operator(basis, seed + 1)
        ab = commutator(a, b).entries
        ba = commutator(b, a).entries
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
    """Eigenvalues against dense eigh, ascending order, orthonormal vectors
    and the reconstruction of h, each within 1e-12 of the entries' scale."""
    dense = h.entries
    scale = 1.0 + maxabs_norm(h)
    w, v = hermitian_eigensystem(h)
    assert np.max(np.abs(w - np.linalg.eigh(dense)[0])) <= 1e-12 * scale
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(v.conj().T @ v - np.eye(h.dim))) <= 1e-12
    assert np.max(np.abs((v * w) @ v.conj().T - dense)) <= 1e-12 * scale


class TestEigensystem:
    @settings(max_examples=200, deadline=None)
    @given(tridiagonal_cases())
    def test_tridiagonal_band_matches_dense_eigh(self, h):
        assert_eigensystem(h)

    @settings(max_examples=200, deadline=None)
    @given(zero_diagonal_cases())
    def test_zero_diagonal_band_matches_dense_eigh(self, h):
        assert_eigensystem(h)

    @pytest.mark.parametrize("dim", [17, 64, 65])
    def test_quadratures_match_dense_eigh(self, dim):
        for h in quadratures(dim):
            assert_eigensystem(h)

    def test_diagonal_matrix_sorted(self):
        basis = FockBasis((3,))
        w, _ = hermitian_eigensystem(diagonal(basis, [3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(w, [1.0, 2.0, 3.0])

    def test_number_operator_spectrum(self):
        a, adag = bose_ladder(5)
        w, _ = hermitian_eigensystem(adag @ a)
        np.testing.assert_allclose(w, [0, 1, 2, 3, 4], atol=1e-14)

    def test_reconstruction_residual(self):
        basis = FockBasis((8,))
        r = random_operator(basis, seed=7)
        h = r + r.dag()
        w, v = hermitian_eigensystem(h)
        recon = (v * w) @ v.conj().T
        scale = 1.0 + maxabs_norm(h)
        assert np.max(np.abs(h.entries - recon)) <= 1e-9 * scale

    def test_position_spectrum_matches_hermite_nodes(self):
        # Independent oracle: the Gauss-Hermite nodes from numpy's own
        # Hermite-polynomial machinery. The truncated position quadrature has
        # exactly the Jacobi matrix of that weight, so the interior
        # eigenvalues must agree.
        q, _ = quadratures(64)
        w, _ = hermitian_eigensystem(q)
        nodes, _ = np.polynomial.hermite.hermgauss(64)
        np.testing.assert_allclose(w[16:48], nodes[16:48], atol=1e-6)

    def test_non_hermitian_rejected_naming_residual(self):
        a, _ = bose_ladder(4)
        with pytest.raises(ValueError, match="max|"):
            hermitian_eigensystem(a)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_spectrum_invariant_under_permutation(self, seed):
        basis = FockBasis((6,))
        r = random_operator(basis, seed)
        h = r + r.dag()
        rng = np.random.default_rng(seed)
        perm = rng.permutation(6)
        pmat = np.eye(6)[perm]
        conjugated = OperatorMatrix(basis, pmat @ h.entries @ pmat.T)
        w1, _ = hermitian_eigensystem(h)
        w2, _ = hermitian_eigensystem(conjugated)
        np.testing.assert_allclose(w1, w2, atol=1e-9)


class TestUnitaryExp:
    def test_zero_gives_identity(self):
        basis = FockBasis((4,))
        u = unitary_exp(0 * identity(basis), +1)
        np.testing.assert_allclose(u.entries, np.eye(4), atol=1e-15)

    def test_scalar_phases(self):
        basis = FockBasis((2,))
        u = unitary_exp(diagonal(basis, [np.pi, 0.0]), +1)
        np.testing.assert_allclose(u.entries, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_forward_backward_is_identity(self):
        q, _ = quadratures(32)
        u = unitary_exp(q, +1) @ unitary_exp(q, -1)
        assert maxabs_norm(u - identity(q.basis)) <= 1e-12

    def test_opposite_sign_is_the_adjoint(self):
        q, _ = quadratures(48)
        assert maxabs_norm(unitary_exp(q, -1) - unitary_exp(q, +1).dag()) <= 1e-12

    def test_unitarity(self):
        q, _ = quadratures(48)
        u = unitary_exp(q, +1)
        assert maxabs_norm(u @ u.dag() - identity(q.basis)) <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_forward_backward_random_hermitian(self, seed):
        basis = FockBasis((8,))
        r = random_operator(basis, seed)
        h = r + r.dag()
        u = unitary_exp(h, +1) @ unitary_exp(h, -1)
        assert maxabs_norm(u - identity(basis)) <= 1e-9

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            unitary_exp(identity(FockBasis((4,))), 2)

    def test_non_hermitian_rejected(self):
        a, _ = bose_ladder(4)
        with pytest.raises(ValueError):
            unitary_exp(a, +1)


class TestTensor:
    def test_identity_times_identity(self):
        i2 = identity(FockBasis((2,)))
        i3 = identity(FockBasis((3,)))
        np.testing.assert_array_equal(tensor(i2, i3).entries, np.eye(6))

    def test_index_convention(self):
        a, adag = bose_ladder(3)
        number = adag @ a
        t = tensor(number, identity(FockBasis((2,))))
        np.testing.assert_allclose(np.diag(t.entries), [0, 0, 1, 1, 2, 2], atol=1e-15)

    def test_pair_annihilation_amplitude(self):
        # tensor(a, b) |1,1> = |0,0> with coefficient sqrt(1)*sqrt(1) = 1.
        a, _ = bose_ladder(3)
        b, _ = bose_ladder(3)
        t = tensor(a, b)
        assert t.entries[0, 1 * 3 + 1] == 1.0

    def test_non_fock_rejected(self):
        with pytest.raises(ValueError):
            tensor(identity(CircleBasis(0.0, 3)), identity(FockBasis((3,))))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_mixed_product_rule(self, seed):
        ba, bb = FockBasis((4,)), FockBasis((5,))
        a, c = random_operator(ba, seed), random_operator(ba, seed + 1)
        b, d = random_operator(bb, seed + 2), random_operator(bb, seed + 3)
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert maxabs_norm(lhs - rhs) <= 1e-12 * (1 + maxabs_norm(rhs))


class TestInteriorProjector:
    def test_margin_zero_is_identity(self):
        basis = CircleBasis(0.0, 5)
        np.testing.assert_array_equal(
            interior_projector(basis, 0).entries, np.eye(5)
        )

    def test_circle_margin_two(self):
        proj = interior_projector(CircleBasis(0.0, 6), 2)
        np.testing.assert_array_equal(np.diag(proj.entries), [0, 0, 1, 1, 0, 0])

    def test_two_mode_margin_applies_per_mode(self):
        proj = interior_projector(FockBasis((4, 4)), 1)
        kept = np.flatnonzero(np.real(np.diag(proj.entries)))
        # both occupations in {1, 2}
        assert kept.tolist() == [5, 6, 9, 10]

    def test_idempotent_and_hermitian(self):
        proj = interior_projector(FockBasis((8,)), 3)
        assert np.array_equal((proj @ proj).entries, proj.entries)
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
        np.testing.assert_array_equal(np.diag(fock.entries), np.diag(circle.entries))

    def test_excluded_states_are_dropped(self):
        proj = interior_projector(CircleBasis(0.0, 6), 1, excluded=(1, 4))
        np.testing.assert_array_equal(np.diag(proj.entries), [0, 0, 1, 1, 0, 0])


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

    def test_overall_passed(self):
        good = Check("a", 0.0, 1e-10)
        bad = Check("b", 1.0, 1e-10)
        assert CheckReport((good,)).overall_passed
        report = CheckReport((good, bad))
        assert not report.overall_passed
        assert report.failed() == (bad,)
