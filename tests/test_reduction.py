import numpy as np
import pytest

from conftest import dense
from su11kit.linops import interior_projector, maxabs_norm
from su11kit.linops import CircleBasis, OperatorMatrix, diagonal, identity, tensor
from su11kit.reduction import (
    ModelParams,
    build_direct_hamiltonian,
    build_k_form,
    free_params,
    p0_of,
    pair_energy_closed_form,
    verify_reduction,
)
from su11kit.reps import bose_ladder, hp_spin, saf_realization, two_mode
from su11kit.algebra import _casimir, _whole

EXAMPLE = ModelParams(1.0, 0.1, 0.3)


def random_params(count, seed=20260810):
    """Uniform draws in [-1,1]^3, rejecting near-singular pair couplings."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        eps, phi1, phi2 = rng.uniform(-1.0, 1.0, size=3)
        if abs(2 * phi1 + phi2) < 0.05:
            continue
        out.append(ModelParams(eps, phi1, phi2))
    return out


class TestModelParams:
    def test_singular_coupling_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            ModelParams(1.0, 0.5, -1.0)

    def test_near_singular_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.25, -0.5 + 1e-10)

    def test_condensate_flag(self):
        assert EXAMPLE.condensate
        assert not ModelParams(1.0, -0.5, 0.2).condensate

    @pytest.mark.parametrize("couplings", [
        (1e300, 0.1, 0.3),  # (phi1 - eps)^2 overflows
        (float("inf"), 0.1, 0.3),
        (1.0, float("nan"), 0.3),
    ])
    def test_nonfinite_constants_rejected(self, couplings):
        with pytest.raises(ValueError, match="epsilon=.*phi1=.*phi2="):
            ModelParams(*couplings)


class TestDirectHamiltonian:
    def test_vacuum_energy_zero(self):
        h = build_direct_hamiltonian(EXAMPLE, 5)
        assert dense(h)[0, 0] == 0.0

    def test_one_pair_entry(self):
        h = build_direct_hamiltonian(EXAMPLE, 5)
        idx = 1 * 5 + 1
        assert dense(h)[idx, idx].real == pytest.approx(2 * 1.0 + 0.3, abs=1e-14)

    def test_two_pair_entry(self):
        # 4*eps + 4*phi2 + 4*phi1 at |2,2>: 4 + 1.2 + 0.4 = 5.6
        h = build_direct_hamiltonian(EXAMPLE, 6)
        idx = 2 * 6 + 2
        assert dense(h)[idx, idx].real == pytest.approx(5.6, abs=1e-14)

    def test_diagonal_formula_everywhere(self):
        params = ModelParams(0.7, -0.2, 0.9)
        dim = 7
        h = build_direct_hamiltonian(params, dim)
        occ = h.basis.occupations()
        na, nb = occ[:, 0].astype(float), occ[:, 1].astype(float)
        expected = (
            params.epsilon * (na + nb)
            + params.phi2 * na * nb
            + params.phi1 * (na * (na - 1) + nb * (nb - 1))
        )
        np.testing.assert_allclose(np.diag(dense(h)).real, expected, atol=1e-12)
        # and nothing off the diagonal
        assert maxabs_norm(h - diagonal(h.basis, np.diag(dense(h)))) == 0.0


    @pytest.mark.parametrize("dim", [4, 5, 18, 34])
    @pytest.mark.parametrize("params", [EXAMPLE, ModelParams(0.7, -0.2, 0.9),
                                        ModelParams(-0.4, 0.6, -0.5)])
    def test_only_the_main_band(self, params, dim):
        # verify_reduction reads the pair levels off the diagonal.
        h = build_direct_hamiltonian(params, dim)
        assert h._bands is not None and set(h._bands) == {0}


def two_mode_product_hamiltonian(params, dim):
    """The Hamiltonian with the cross term as the product of two two-mode
    operators, tensor(a+, b+) @ tensor(a, b): the O(d^6) assembly that the
    mixed-product rule replaces, kept as the small-d oracle."""
    a, adag = bose_ladder(dim)
    one = identity(a.basis)
    number = tensor(adag @ a, one) + tensor(one, adag @ a)
    cross = tensor(adag, adag) @ tensor(a, a)
    quartic = tensor(adag @ adag @ a @ a, one) + tensor(one, adag @ adag @ a @ a)
    return params.epsilon * number + params.phi2 * cross + params.phi1 * quartic


class TestMixedProductRoute:
    @pytest.mark.parametrize("dim", [4, 7, 12])
    @pytest.mark.parametrize("params", [EXAMPLE, ModelParams(0.7, -0.2, 0.9)])
    def test_matches_the_two_mode_product(self, params, dim):
        h = build_direct_hamiltonian(params, dim)
        oracle = two_mode_product_hamiltonian(params, dim)
        assert maxabs_norm(h - oracle) <= 1e-12
        occ = h.basis.occupations()
        pairs = np.flatnonzero(occ[:, 0] == occ[:, 1])
        block = np.ix_(pairs, pairs)
        assert np.array_equal(dense(h)[block], dense(oracle)[block])

    def test_no_two_mode_matmul(self, monkeypatch):
        # A product of two d^2 x d^2 operators would make the build O(d^6).
        calls = {"one_mode": 0, "two_mode": 0}
        original = OperatorMatrix.__matmul__

        def counting(self, other):
            calls["two_mode" if self.basis.modes == 2 else "one_mode"] += 1
            return original(self, other)

        monkeypatch.setattr(OperatorMatrix, "__matmul__", counting)
        build_direct_hamiltonian(EXAMPLE, 8)
        assert calls["one_mode"] > 0
        assert calls["two_mode"] == 0


class TestKForm:
    def test_matches_direct_hamiltonian(self):
        t = two_mode(10)
        h_direct = build_direct_hamiltonian(EXAMPLE, 10)
        h_k = build_k_form(EXAMPLE, t)
        assert maxabs_norm(h_k - h_direct) <= 1e-10

    def test_matches_for_random_draws(self):
        t = two_mode(8)
        for params in random_params(20):
            h_direct = build_direct_hamiltonian(params, 8)
            h_k = build_k_form(params, t)
            assert maxabs_norm(h_k - h_direct) <= 1e-10

    def test_no_self_interaction_limit(self):
        # phi1 = 0 collapses the K-form to -eps + 2 eps K0 + phi2 K+K-,
        # i.e. eps(na+nb) + phi2 na nb on the occupation diagonal. (The fully
        # free point phi1 = phi2 = 0 is excluded by the singular-coupling
        # guard, so the cross term stays on.)
        params = ModelParams(0.5, 0.0, 1.0)
        t = two_mode(6)
        h = build_k_form(params, t)
        occ = t.basis.occupations()
        expected = 0.5 * (occ[:, 0] + occ[:, 1]) + 1.0 * occ[:, 0] * occ[:, 1]
        np.testing.assert_allclose(np.diag(dense(h)).real, expected, atol=1e-12)

    def test_spin_triple_rejected(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            build_k_form(EXAMPLE, hp_spin(1.0))

    def test_operator_level_free_particle(self):
        # On the momentum lattice aligned with the pair ladder the K-form
        # collapses to H0 + P^2/(2m) away from the bottom edge.
        params = EXAMPLE
        p0 = p0_of(params)
        h0, mass = free_params(params)
        basis = CircleBasis(1.0 - p0, 24)
        t = saf_realization(p0, basis)
        h_k = build_k_form(params, t)
        p = diagonal(basis, basis.momenta())
        h_free = h0 * identity(basis) + (p @ p) * (1.0 / (2.0 * mass))
        proj = interior_projector(basis, 1)
        assert maxabs_norm(proj @ (h_k - h_free) @ proj) <= 1e-10


class TestPairSubspace:
    @staticmethod
    def _pair_block(op):
        occ = op.basis.occupations()
        pairs = np.flatnonzero(occ[:, 0] == occ[:, 1])
        return dense(op)[np.ix_(pairs, pairs)]

    def test_casimir_restriction_is_minus_quarter(self):
        c = self._pair_block(_casimir(two_mode(6), _whole))
        # the top pair state feels the cutoff (K-K+ truncates), so the
        # constant holds on the levels below it
        np.testing.assert_allclose(c[:5, :5], -0.25 * np.eye(5), atol=1e-12)

    def test_k0_restriction_counts_pairs(self):
        k0 = self._pair_block(two_mode(5).k0)
        np.testing.assert_allclose(k0, np.diag(np.arange(5) + 0.5), atol=1e-14)


class TestClosedForms:
    def test_p0_example(self):
        assert p0_of(EXAMPLE) == pytest.approx(-0.8, abs=1e-14)

    def test_p0_zero_numerator(self):
        params = ModelParams(3 * 0.2 + 0.1, 0.2, 0.1)
        assert p0_of(params) == pytest.approx(0.0, abs=1e-14)

    def test_p0_another_draw(self):
        assert p0_of(ModelParams(0.0, 0.5, 0.0)) == pytest.approx(1.5, abs=1e-14)

    def test_free_params_example(self):
        h0, mass = free_params(EXAMPLE)
        assert h0 == pytest.approx(-1.62, abs=1e-14)
        assert mass == 1.0

    def test_h0_vanishes_when_eps_equals_phi1(self):
        h0, _ = free_params(ModelParams(0.1, 0.1, 0.3))
        assert h0 == 0.0

    def test_pair_energy_examples(self):
        assert pair_energy_closed_form(EXAMPLE, 0) == 0.0
        assert pair_energy_closed_form(EXAMPLE, 2) == pytest.approx(5.6, abs=1e-14)
        assert pair_energy_closed_form(ModelParams(1.0, 0.0, 1e-6), 3) == pytest.approx(6.0, abs=1e-5)


class TestVerifyReduction:
    def test_example_levels(self):
        res = verify_reduction(EXAMPLE, n_pairs=4, tol=1e-9)
        assert res.p0 == pytest.approx(-0.8, abs=1e-14)
        assert res.h0 == pytest.approx(-1.62, abs=1e-14)
        assert res.mass == 1.0
        assert res.direct_spectrum[0] == pytest.approx(0.0, abs=1e-12)
        assert res.direct_spectrum[1] == pytest.approx(2.3, abs=1e-12)
        assert res.predicted_spectrum[1] == pytest.approx(2.3, abs=1e-12)
        assert res.max_deviation <= res.tolerance

    def test_sixteen_levels_within_tolerance(self):
        res = verify_reduction(EXAMPLE, n_pairs=16, tol=1e-9)
        assert res.max_deviation <= 1e-9
        assert len(res.direct_spectrum) == 16

    def test_three_way_oracle_agreement(self):
        res = verify_reduction(EXAMPLE, n_pairs=12, tol=1e-9)
        closed = sorted(pair_energy_closed_form(EXAMPLE, n) for n in range(12))
        np.testing.assert_allclose(res.direct_spectrum, closed, atol=1e-9)
        np.testing.assert_allclose(res.predicted_spectrum, closed, atol=1e-9)

    def test_random_draws(self):
        for params in random_params(20):
            res = verify_reduction(params, n_pairs=16, tol=1e-9)
            assert res.max_deviation <= 1e-9, params

    def test_levels_are_the_pair_block_eigenvalues(self):
        for params in random_params(8):
            res = verify_reduction(params, n_pairs=10)
            h = build_direct_hamiltonian(params, 12)
            occ = h.basis.occupations()
            pairs = np.flatnonzero(occ[:, 0] == occ[:, 1])[:10]
            block = dense(h)[np.ix_(pairs, pairs)]
            np.testing.assert_array_equal(res.direct_spectrum, np.linalg.eigvalsh(block) + 0.0)

    def test_condensate_bound(self):
        for params in random_params(10, seed=7):
            if not params.condensate:
                continue
            res = verify_reduction(params, n_pairs=8, tol=1e-9)
            assert min(res.predicted_spectrum) >= res.h0 - 1e-12

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            verify_reduction(EXAMPLE, n_pairs=1)
