import numpy as np
import pytest

from conftest import dense, exact_range_basis, spin_ladder_matrices
from su11kit.algebra import check_transfo
from su11kit.linops import (
    CircleBasis,
    FockBasis,
    banded,
    diagonal,
    identity,
    interior_projector,
    maxabs_norm,
    tensor,
)
from su11kit.reps import (
    FIDELITIES,
    AlgebraTriple,
    bose_ladder,
    hp_spin,
    mp_realization,
    perelomov_realization,
    quadratures,
    saf_bose_form,
    saf_realization,
    two_mode,
    villain_spin,
)


class TestBoseLadder:
    def test_dim2_single_entry(self):
        a, _ = bose_ladder(2)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(dense(a), expected)

    def test_number_operator(self):
        a, adag = bose_ladder(7)
        np.testing.assert_allclose(
            dense(adag @ a), np.diag(np.arange(7.0)), atol=1e-15
        )

    def test_truncation_fingerprint(self):
        dim = 6
        a, adag = bose_ladder(dim)
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        np.testing.assert_allclose(dense(a @ adag - adag @ a), expected, atol=1e-14)

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            bose_ladder(1)


class TestMpRealization:
    def test_lowering_amplitude_at_half(self):
        # K-|1> = sqrt(1 * (2k + 0)) |0> = |0> at k = 1/2.
        t = mp_realization(0.5, dim=6)
        assert dense(t.kminus)[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_k0_diagonal(self):
        t = mp_realization(0.75, dim=5)
        np.testing.assert_allclose(
            np.diag(dense(t.k0)), 0.75 + np.arange(5.0), atol=1e-15
        )

    def test_general_matrix_elements(self):
        k, dim = 1.3, 12
        t = mp_realization(k, dim)
        n = np.arange(1, dim, dtype=np.float64)
        np.testing.assert_allclose(
            np.diag(dense(t.kminus), k=1), np.sqrt(n * (2 * k + n - 1)), atol=1e-14
        )

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            mp_realization(0.0)
        with pytest.raises(ValueError):
            mp_realization(-1.0)


class TestHolsteinPrimakoff:
    def test_spin_half_corrected_matrices(self):
        t = hp_spin(0.5, "corrected")
        np.testing.assert_array_equal(dense(t.kplus), [[0, 0], [1, 0]])
        np.testing.assert_array_equal(dense(t.kminus), [[0, 1], [0, 0]])
        np.testing.assert_array_equal(dense(t.k0), np.diag([-0.5, 0.5]))

    @pytest.mark.parametrize("spin", [0.5, 1.0, 1.5, 2.5])
    def test_corrected_equals_ladder_oracle(self, spin):
        # The occupation index n and the magnetic index m = n - S are aligned,
        # so the matrices must agree entrywise.
        sz, sp, sm = spin_ladder_matrices(spin)
        t = hp_spin(spin, "corrected")
        np.testing.assert_allclose(dense(t.k0), sz, atol=1e-12)
        np.testing.assert_allclose(dense(t.kplus), sp, atol=1e-12)
        np.testing.assert_allclose(dense(t.kminus), sm, atol=1e-12)

    @pytest.mark.parametrize("spin", [0.5, 1.0, 2.5])
    def test_as_printed_breaks_adjointness(self, spin):
        t = hp_spin(spin, "as_printed")
        assert maxabs_norm(t.kplus - t.kminus.dag()) > 0.0

    def test_as_printed_gap_at_spin_half(self):
        # The slipped raising root gives sqrt(2) where the adjoint needs 1.
        t = hp_spin(0.5, "as_printed")
        gap = maxabs_norm(t.kplus - t.kminus.dag())
        assert gap == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-14)

    def test_invalid_spin_rejected(self):
        with pytest.raises(ValueError):
            hp_spin(0.7)
        with pytest.raises(ValueError):
            hp_spin(-1.0)
        with pytest.raises(ValueError):
            hp_spin(1.0, "verbatim")


def shift_pair(basis):
    """The unit shifts exp(+-iX) on a momentum lattice: E+|p> = |p+1>, which
    annihilates the top state where the lattice ends, and E- = E+^dag."""
    eplus = banded(basis, {-1: np.ones(basis.count)})
    return eplus, eplus.dag()


class TestCircleMomentum:
    def test_momentum_diagonal(self):
        # K0 of perelomov and Sz of villain are the momentum P itself.
        basis = CircleBasis(-2.0, 5)
        for t in (perelomov_realization(1.0, basis), villain_spin(2.0, basis)):
            np.testing.assert_array_equal(np.diag(dense(t.k0)), [-2, -1, 0, 1, 2])

    def test_shift_products_truncate_at_ends(self):
        eplus, eminus = shift_pair(CircleBasis(0.0, 5))
        up_down = dense(eplus @ eminus)
        down_up = dense(eminus @ eplus)
        np.testing.assert_array_equal(np.diag(up_down), [0, 1, 1, 1, 1])
        np.testing.assert_array_equal(np.diag(down_up), [1, 1, 1, 1, 0])

    def test_momentum_shift_bracket(self):
        # [P, E+] = E+ holds entrywise on the whole lattice: the truncated
        # corner vanishes consistently on both sides.
        basis = CircleBasis(-3.0, 6)
        p = diagonal(basis, basis.momenta())
        eplus, _ = shift_pair(basis)
        np.testing.assert_allclose(
            dense(p @ eplus - eplus @ p), dense(eplus), atol=1e-14
        )

    def test_fock_basis_rejected(self):
        basis = FockBasis((5,))
        for build in (lambda: villain_spin(2.0, basis), lambda: saf_realization(0.5, basis),
                      lambda: perelomov_realization(1.0, basis),
                      lambda: check_transfo(basis, 1, 1)):
            with pytest.raises(ValueError, match="requires a CircleBasis"):
                build()


# Reference: each realization's (K0, K+, K-) multiplied out from its printed
# factors with @, a diagonal of labels times a ladder or a shift, as the
# realizations were built before the one-step ladder builder.
def mp_products(k, dim):
    a, adag = bose_ladder(dim)
    n = np.arange(dim, dtype=np.float64)
    root = diagonal(a.basis, np.sqrt(2.0 * k + n))
    return diagonal(a.basis, k + n), adag @ root, root @ a


def hp_products(spin, fidelity):
    a, adag = bose_ladder(int(round(2 * spin)) + 1)
    n = np.arange(a.dim, dtype=np.float64)
    root = diagonal(a.basis, np.sqrt(2.0 * spin - n))
    if fidelity == "corrected":
        splus = adag @ root
    else:
        splus = diagonal(a.basis, np.sqrt(2.0 * spin + n)) @ adag
    return diagonal(a.basis, n - spin), splus, root @ a


def villain_products(spin, basis, fidelity):
    p = basis.momenta()
    eplus, eminus = shift_pair(basis)
    offset = 0.5 if fidelity == "corrected" else -0.5
    f_squared = (spin + 0.5) ** 2 - (p + offset) ** 2
    amplitude = diagonal(basis, np.sqrt(np.clip(f_squared, 0.0, None)))
    return diagonal(basis, p), eplus @ amplitude, amplitude @ eminus


def saf_products(p0, basis):
    p, p0 = basis.momenta(), complex(p0)
    eplus, eminus = shift_pair(basis)
    return (diagonal(basis, p + p0.real - 0.5), eplus @ diagonal(basis, p + np.conj(p0)),
            diagonal(basis, p + p0) @ eminus)


def perelomov_products(lam, basis):
    p = basis.momenta()
    eplus, eminus = shift_pair(basis)
    return (diagonal(basis, p), eplus @ diagonal(basis, p + 0.5 - 1j * lam),
            eminus @ diagonal(basis, p - 0.5 + 1j * lam))


FACTOR_PRODUCTS = {
    "mp": (mp_realization, mp_products),
    "hp": (hp_spin, hp_products),
    "villain": (villain_spin, villain_products),
    "saf": (saf_realization, saf_products),
    "perelomov": (perelomov_realization, perelomov_products),
}
# Lattice starts. From 0.3, and from 1000.37 across 1024, the floats
# p_min + j + 1/2 and p_min + (j + 1) - 1/2 differ on some j; from the others not.
P_MINS = (-32.0, 0.3, -7.1, 1000.37, 1e6 + 0.37)
LADDER_CASES = (
    [("mp", k, dim) for k in (0.5, 1.0, 1.75, 3.0) for dim in (2, 3, 64, 65, 1000)]
    + [("hp", spin, fidelity) for spin in (0.5, 1.0, 2.5, 500.0) for fidelity in FIDELITIES]
    + [("villain", spin, CircleBasis(p_min, count), fidelity)
       for spin, p_min, count in ((0.5, -6.5, 14), (1.0, -7.0, 15), (2.5, -40.5, 82),
                                  (1.5, -1.5, 4))
       for fidelity in FIDELITIES]
    + [("saf", p0, CircleBasis(p_min, 65)) for p_min in P_MINS
       for p0 in (0.7 + 0.4j, -1.3 - 0.2j, 0.7, 0.0, complex(0.0, -0.0))]
    + [("perelomov", lam, CircleBasis(p_min, 65)) for p_min in P_MINS
       for lam in (0.6, 1.0, 2.0)]
)


@pytest.mark.parametrize("case", LADDER_CASES, ids=lambda case: "-".join(map(str, case)))
def test_ladder_builds_the_bytes_of_the_factor_products(case):
    # Every band equal in value, and in its real part by bytes; an adjoint
    # conjugates +0.0 to -0.0 where the product formed +0.0, so an
    # imaginary part may differ in the sign of a zero only.
    rep, *args = case
    build, products = FACTOR_PRODUCTS[rep]
    t = build(*args)
    for got, expected in zip((t.k0, t.kplus, t.kminus), products(*args)):
        assert list(got._bands) == list(expected._bands)
        for k, v in expected._bands.items():
            assert np.array_equal(got._bands[k], v)
            assert got._bands[k].real.tobytes() == v.real.tobytes()


@pytest.mark.parametrize("build", [lambda: hp_spin(1e200), lambda: mp_realization(1.0, 10 ** 12)],
                         ids=["hp", "mp"])
def test_basis_budget_refuses_before_any_label_array(build):
    with pytest.raises(ValueError, match=r"bands of \S+ states"):
        build()


class TestVillain:
    @pytest.mark.parametrize("spin", [0.5, 1.0, 2.5])
    def test_exact_range_equals_ladder_oracle(self, spin):
        sz, sp, sm = spin_ladder_matrices(spin)
        t = villain_spin(spin, exact_range_basis(spin), "corrected")
        np.testing.assert_allclose(dense(t.k0), sz, atol=1e-12)
        np.testing.assert_allclose(dense(t.kplus), sp, atol=1e-12)
        np.testing.assert_allclose(dense(t.kminus), sm, atol=1e-12)

    def test_corrected_closes_on_unclamped_interior(self):
        spin = 1.5
        basis = CircleBasis(-spin - 6, int(2 * spin) + 13)
        t = villain_spin(spin, basis, "corrected")
        proj = interior_projector(t.basis, 1, t.params.clamp_excluded)
        residual = proj @ ((t.kplus @ t.kminus - t.kminus @ t.kplus) - 2.0 * t.k0) @ proj
        assert maxabs_norm(residual) <= 1e-12

    def test_as_printed_constant_offset(self):
        # f(P-1)^2 - f(P)^2 = 2P - 2 for the slipped root, so the bracket
        # undershoots 2 Sz by exactly 2 wherever no clamp is touched.
        spin = 1.0
        basis = CircleBasis(-spin - 5, int(2 * spin) + 11)
        t = villain_spin(spin, basis, "as_printed")
        proj = interior_projector(t.basis, 1, t.params.clamp_excluded)
        offset = (t.kplus @ t.kminus - t.kminus @ t.kplus) - 2.0 * t.k0 + 2.0 * identity(basis)
        assert maxabs_norm(proj @ offset @ proj) <= 1e-12

    def test_clamp_region_recorded(self):
        spin = 1.0
        basis = CircleBasis(-4.0, 9)  # p = -4..4, spin block is -1..1
        t = villain_spin(spin, basis, "corrected")
        # clamped amplitudes sit strictly outside the block; every state at
        # |p| > S must be excluded
        excluded = set(t.params.clamp_excluded)
        p = basis.momenta()
        outside = {j for j, pj in enumerate(p) if abs(pj) > spin + 1e-9}
        assert outside <= excluded

    @pytest.mark.parametrize("fidelity", ["corrected", "as_printed"])
    @pytest.mark.parametrize("spin,p_min,count", [(1.0, -4.0, 9), (2.5, -7.5, 12), (0.5, -0.5, 2),
                                                  (1.5, -1.5, 40), (1.0, -4.0, 6), (2.5, -2.5, 6)])
    def test_clamp_excluded_is_each_clamped_state_and_the_next(self, spin, p_min, count,
                                                               fidelity):
        # Clamped runs at both ends (-4..4), at the last index only (-1.5..37.5)
        # and at index 0 only (-4..1, corrected); the exact-range lattices
        # (0.5 and 2.5) exclude nothing. The reference marks the clamped
        # index array and that array plus one in a mask one state longer.
        basis = CircleBasis(p_min, count)
        t = villain_spin(spin, basis, fidelity)
        p = basis.momenta()
        offset = 0.5 if fidelity == "corrected" else -0.5
        clamped = np.flatnonzero((spin + 0.5) ** 2 - (p + offset) ** 2 < 0)
        touching = np.zeros(count + 1, dtype=bool)
        touching[clamped] = touching[clamped + 1] = True
        excluded = t.params.clamp_excluded
        np.testing.assert_array_equal(excluded, np.flatnonzero(touching[:count]))
        assert excluded.dtype == np.intp and not excluded.flags.writeable
        if count == 2 * spin + 1:
            assert excluded.size == 0

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="^fidelity must be one of"):
            villain_spin(1.0, CircleBasis(-1.0, 3), "verbatim")

    def test_range_not_covered_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            villain_spin(2.5, CircleBasis(-1.5, 4))

    def test_incongruent_grid_rejected(self):
        with pytest.raises(ValueError, match="congruent"):
            villain_spin(0.5, CircleBasis(-2.0, 5))


class TestSafRealization:
    def test_k0_diagonal_with_half_offset(self):
        basis = CircleBasis(0.0, 5)
        t = saf_realization(0.5, basis)
        np.testing.assert_allclose(np.diag(dense(t.k0)), np.arange(5.0), atol=1e-15)

    def test_brackets_vanish_on_interior(self, circle64):
        t = saf_realization(0.7 + 0.4j, circle64)
        proj = interior_projector(circle64, 2)
        for residual in (
            (t.k0 @ t.kplus - t.kplus @ t.k0) - t.kplus,
            (t.k0 @ t.kminus - t.kminus @ t.k0) + t.kminus,
            (t.kplus @ t.kminus - t.kminus @ t.kplus) + 2.0 * t.k0,
        ):
            assert maxabs_norm(proj @ residual @ proj) <= 1e-12

    def test_adjoint_pair(self, circle64):
        t = saf_realization(-1.0 + 2.0j, circle64)
        assert maxabs_norm(t.kplus - t.kminus.dag()) == 0.0


class TestPerelomov:
    @pytest.mark.parametrize("lam", [0.6, 1.0, 2.0])
    def test_equals_shift_affine_mapping(self, lam, circle64):
        pere = perelomov_realization(lam, circle64)
        saf = saf_realization(0.5 + 1j * lam, circle64)
        assert maxabs_norm(pere.k0 - saf.k0) <= 1e-12
        assert maxabs_norm(pere.kplus - saf.kplus) <= 1e-12
        assert maxabs_norm(pere.kminus - saf.kminus) <= 1e-12

    def test_k0_is_momentum(self, circle64):
        t = perelomov_realization(1.0, circle64)
        np.testing.assert_array_equal(np.diag(dense(t.k0)), circle64.momenta())

    def test_nonpositive_lambda_rejected(self, circle64):
        with pytest.raises(ValueError):
            perelomov_realization(0.0, circle64)


class TestQuadratures:
    def test_canonical_bracket_on_interior(self):
        q, p = quadratures(32)
        proj = interior_projector(q.basis, 1)
        residual = (q @ p - p @ q) - 1j * identity(q.basis)
        assert maxabs_norm(proj @ residual @ proj) <= 1e-12

    def test_hermitian(self):
        q, p = quadratures(16)
        assert q.hermiticity_defect() <= 1e-12
        assert p.hermiticity_defect() <= 1e-12

    def test_first_matrix_element(self):
        q, _ = quadratures(8)
        assert dense(q)[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            quadratures(3)


class TestBoseForms:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("form", ["form1", "form2"])
    def test_k0_hermitian(self, form, seed):
        # Exactly: the checks form only the upper triangle of the Hermitian
        # residuals of a triple whose K0 has no Hermiticity defect at all.
        rng = np.random.default_rng(seed)
        p0 = complex(*rng.uniform(-3.0, 3.0, size=2))
        t = saf_bose_form(p0, 32, form)
        assert t.k0.hermiticity_defect() == 0.0

    @pytest.mark.parametrize("form", ["form1", "form2"])
    def test_adjoint_pair(self, form):
        t = saf_bose_form(0.3 - 0.8j, 32, form)
        assert np.max(np.abs(dense(t.kplus) - dense(t.kminus).conj().T)) <= 1e-10

    @pytest.mark.parametrize("form", ["form1", "form2"])
    def test_raising_operator_is_built_as_the_adjoint(self, form):
        # Two separately rounded dense products would differ by about 1e-9 at
        # this |p0|, past the 1e-10 adjointness gate of AlgebraTriple.
        t = saf_bose_form(1e7 - 1e7j, 64, form)
        assert np.array_equal(dense(t.kplus), dense(t.kminus).conj().T)

    def test_residuals_decrease_with_dim(self):
        # Truncation-limited construction: doubling the dimension must shrink
        # the worst bracket residual.
        worst = []
        for dim in (16, 32, 64):
            t = saf_bose_form(0.5 + 1.0j, dim, "form1")
            keep = np.flatnonzero(interior_projector(t.basis, dim // 4).diagonal())
            residuals = [
                (dense(t.k0, t.kplus) - dense(t.kplus, t.k0)) - dense(t.kplus),
                (dense(t.kplus, t.kminus) - dense(t.kminus, t.kplus)) + dense(2.0 * t.k0),
            ]
            worst.append(max(np.max(np.abs(r[np.ix_(keep, keep)])) for r in residuals))
        assert worst[0] > worst[1] > worst[2]

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            saf_bose_form(0.5, 8, "form1")
        with pytest.raises(ValueError):
            saf_bose_form(0.5, 32, "form3")


class TestTwoMode:
    def test_pair_annihilation(self):
        t = two_mode(4)
        # K-|1,1> = |0,0>
        assert dense(t.kminus)[0, 1 * 4 + 1] == pytest.approx(1.0, abs=1e-15)

    def test_k0_counts_pairs(self):
        t = two_mode(5)
        occ = t.basis.occupations()
        np.testing.assert_allclose(
            np.diag(dense(t.k0)), (occ[:, 0] + occ[:, 1] + 1) / 2.0, atol=1e-14
        )

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError):
            two_mode(3)

    @pytest.mark.parametrize("dim", [4, 24, 300])
    def test_k0_and_casimir_are_the_kronecker_construction_byte_for_byte(self, dim):
        # The reference is the Kronecker sum of n = a^dag a and the identity,
        # and the Casimir formula on the occupation table. n's diagonal holds
        # sqrt(i)^2, which is not i at i = 2, 3, 5, ..., so a K0 built from
        # integer labels differs here.
        t = two_mode(dim)
        a, adag = bose_ladder(dim)
        n, one = adag @ a, identity(a.basis)
        k0 = (tensor(n, one) + tensor(one, n) + tensor(one, one)) * 0.5
        assert t.k0._bands.keys() == k0._bands.keys() == {0}
        assert t.k0._bands[0].tobytes() == k0._bands[0].tobytes()
        occ = t.basis.occupations()
        expected = -0.25 + (occ[:, 0] - occ[:, 1]).astype(np.float64) ** 2 / 4.0
        (_, casimir), = t.params.casimir
        assert casimir.dtype == expected.dtype and casimir.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [4, 24, 300])
    def test_raising_operator_is_the_tensor_of_the_raising_ladders(self, dim):
        # K+ is built as K-^dag, entry for entry the Kronecker product
        # a^dag (x) a^dag, so the triple's adjointness gap is exactly 0.
        t = two_mode(dim)
        _, adag = bose_ladder(dim)
        product = tensor(adag, adag)
        assert t.kplus._bands.keys() == product._bands.keys()
        assert all(np.array_equal(v, product._bands[k]) for k, v in t.kplus._bands.items())
        assert maxabs_norm(t.kplus - t.kminus.dag()) == 0.0


class TestAlgebraTriple:
    def test_mismatched_bases_rejected(self):
        a = mp_realization(1.0, 8)
        b = mp_realization(1.0, 9)
        with pytest.raises(ValueError):
            AlgebraTriple("hyperbolic", a.k0, b.kplus, b.kminus, a.params)

    def test_bad_kind_rejected(self):
        t = mp_realization(1.0, 8)
        with pytest.raises(ValueError):
            AlgebraTriple("elliptic", t.k0, t.kplus, t.kminus, t.params)

    def test_non_hermitian_k0_rejected(self):
        t = mp_realization(1.0, 8)
        with pytest.raises(ValueError, match="^diagonal generator is not Hermitian"):
            AlgebraTriple("hyperbolic", 1j * t.k0, t.kplus, t.kminus, t.params)


SAF_FORM = "-1/4 + (P0 - conj(P0))^2/4"
# Each constructor's documented Casimir: its formula texts and the values they
# take, in the order recorded; a list of values is a diagonal over the basis.
RECORDED_CASIMIR = {
    "mp": (lambda: mp_realization(0.5, 16), [("k*(k-1)", 0.5 * (0.5 - 1.0))]),
    "hp": (lambda: hp_spin(1.5, "as_printed"), [("S*(S+1)", 1.5 * 2.5)]),
    "villain": (lambda: villain_spin(1.5, exact_range_basis(1.5)),
                [("S*(S+1)", 1.5 * 2.5)]),
    "saf": (lambda: saf_realization(-1.5 + 0.3j, CircleBasis(-8.0, 16)),
            [(SAF_FORM, -0.25 - 0.3 ** 2)]),
    "bose1": (lambda: saf_bose_form(0.2 - 0.7j, 16, "form1"), [(SAF_FORM, -0.25 - 0.7 ** 2)]),
    "bose2": (lambda: saf_bose_form(0.2 - 0.7j, 16, "form2"), [(SAF_FORM, -0.25 - 0.7 ** 2)]),
    "perelomov": (lambda: perelomov_realization(2.5, CircleBasis(-8.0, 16)),
                  [("-1/4 - lam^2", -0.25 - 2.5 ** 2), ("-1/4 - lam^2/4", -0.25 - 2.5 ** 2 / 4)]),
    "two_mode": (lambda: two_mode(4), [("-1/4 + (n_a - n_b)^2/4",
                 [-0.25 + (na - nb) ** 2 / 4 for na in range(4) for nb in range(4)])]),
}


@pytest.mark.parametrize("rep", RECORDED_CASIMIR)
def test_constructor_records_its_casimir_forms(rep):
    build, documented = RECORDED_CASIMIR[rep]
    params = build().params
    assert [formula for formula, _ in params.casimir] == [formula for formula, _ in documented]
    for (_, value), (_, expected) in zip(params.casimir, documented):
        if isinstance(expected, list):
            assert not value.flags.writeable
            np.testing.assert_array_equal(value, expected)
        else:
            assert type(value) is float and value == expected
    # The forms, arrays included, leave the params comparable and hashable.
    again = build().params
    assert params == again and hash(params) == hash(again)


# A spin is a half-integer exactly: one 1e-10 off is refused, not built with
# the unrounded value, whose bracket then misses 2Sz by about 4e-10.
@pytest.mark.parametrize("spin", [0.5, 1.0, 2.5, 500.0])
@pytest.mark.parametrize("rep", ["hp", "villain"])
def test_spin_must_be_a_half_integer_exactly(rep, spin):
    build = ((lambda s: hp_spin(s)) if rep == "hp"
             else (lambda s: villain_spin(s, exact_range_basis(spin))))
    assert build(spin).basis.dim == int(2 * spin) + 1
    for off in (spin - 1e-10, spin + 1e-10):
        with pytest.raises(ValueError, match="spin must be a positive half-integer"):
            build(off)


@pytest.mark.parametrize("spin", [0.5, 1.0, 2.5, 500.0])
def test_villain_lattice_must_hold_the_spin_range_exactly(spin):
    # p_min + S integral, and -S..S inside the lattice, with no slack.
    count = int(2 * spin) + 1
    with pytest.raises(ValueError, match="not congruent"):
        villain_spin(spin, CircleBasis(-spin + 1e-10, count))
    with pytest.raises(ValueError, match="does not cover"):
        villain_spin(spin, CircleBasis(-spin + 1.0, count))
    with pytest.raises(ValueError, match="does not cover"):
        villain_spin(spin, CircleBasis(-spin - 1.0, count))
