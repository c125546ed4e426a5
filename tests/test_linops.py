import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11kit.linops import (
    BasisMismatchError,
    Check,
    CheckReport,
    CircleBasis,
    FockBasis,
    OperatorMatrix,
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

    def test_dag_conjugates(self):
        basis = FockBasis((2,))
        op = OperatorMatrix(basis, [[0, 1j], [0, 0]])
        np.testing.assert_array_equal(op.dag().entries, [[0, 0], [-1j, 0]])


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


class TestEigensystem:
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
