import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su11kit.algebra as algebra
import su11kit.linops as linops
from conftest import dense, exact_range_basis, spin_ladder_matrices
from su11kit.algebra import (
    CheckSpec,
    _casimir,
    _kept_form,
    _whole,
    check_adjointness,
    check_casimir,
    check_commutators,
    check_transfo,
    compare_triples,
)
from su11kit.linops import (
    _BLOCK_BYTES,
    _TILE,
    DENSE_ARRAYS,
    BasisMismatchError,
    CircleBasis,
    FockBasis,
    OperatorMatrix,
    banded,
    diagonal,
    interior_projector,
    maxabs_norm,
    _exponential,
)
from su11kit.reps import (
    HYPERBOLIC,
    AlgebraTriple,
    RepParams,
    hp_spin,
    mp_realization,
    perelomov_realization,
    quadratures,
    saf_bose_form,
    saf_realization,
    two_mode,
    villain_spin,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def kept_form(triple, margin):
    """What :func:`_kept_form` returns for ``triple``'s checks at ``margin``."""
    return _kept_form(triple.basis, margin, triple.params.clamp_excluded,
                      (triple.k0, triple.kplus, triple.kminus))


P0_GRID = [complex(re, im) for re in (-1.0, -0.3, 0.0, 0.7, 2.0)
           for im in (-1.0, -0.3, 0.0, 0.7, 2.0)]


def interior_diag(op, margin):
    d = op.dim
    return np.real(np.diag(dense(op)))[margin:d - margin]


class TestCheckSpec:
    @pytest.mark.parametrize("margin", [-1, 2.5, math.inf, -math.inf, math.nan])
    def test_refuses_a_margin_that_is_no_nonnegative_integer(self, margin):
        with pytest.raises(ValueError, match="margin must be a nonnegative integer"):
            CheckSpec(margin=margin)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, math.inf, math.nan])
    def test_refuses_a_tolerance_a_check_would_refuse(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            CheckSpec(tolerance=tolerance)

    def test_keeps_an_integral_margin_as_an_int(self):
        spec = CheckSpec(margin=3.0, tolerance=1e300)
        assert spec.margin == 3 and isinstance(spec.margin, int)
        assert CheckSpec(margin=10 ** 400).margin == 10 ** 400


class TestCasimirSu11:
    def test_mp_value(self):
        c = _casimir(mp_realization(1.0, 16), _whole)
        np.testing.assert_allclose(interior_diag(c, 1), 0.0, atol=1e-12)

    def test_saf_real_offset_is_quarter(self, circle64):
        c = _casimir(saf_realization(0.7, circle64), _whole)
        np.testing.assert_allclose(interior_diag(c, 1), -0.25, atol=1e-12)

    def test_two_mode_diagonal_formula(self):
        t = two_mode(6)
        c = _casimir(t, _whole)
        occ = t.basis.occupations()
        expected = -0.25 + (occ[:, 0] - occ[:, 1]) ** 2 / 4.0
        proj = interior_projector(t.basis, 1)
        residual = np.real(np.diag((dense(c) - np.diag(expected))))
        kept = np.flatnonzero(np.real(np.diag(dense(proj))))
        np.testing.assert_allclose(residual[kept], 0.0, atol=1e-12)

    def test_pair_states_sit_at_minus_quarter(self):
        t = two_mode(6)
        c = _casimir(t, _whole)
        pair_idx = [n * 7 for n in range(5)]  # |n,n> below the edge
        np.testing.assert_allclose(
            np.real(np.diag(dense(c)))[pair_idx], -0.25, atol=1e-12
        )

    def test_unbalanced_state_value(self):
        # |2,0>: -1/4 + (2-0)^2/4 = 3/4
        t = two_mode(5)
        c = _casimir(t, _whole)
        idx = 2 * 5 + 0
        assert dense(c)[idx, idx].real == pytest.approx(0.75, abs=1e-12)


class TestCasimirSpin:
    def test_hp_half_is_three_quarters_everywhere(self):
        c = _casimir(hp_spin(0.5, "corrected"), _whole)
        np.testing.assert_allclose(dense(c), 0.75 * np.eye(2), atol=1e-14)

    def test_villain_spin_one_matches_oracle(self):
        t = villain_spin(1.0, exact_range_basis(1.0), "corrected")
        sz, sp, sm = spin_ladder_matrices(1.0)
        oracle = sz @ sz + (sp @ sm + sm @ sp) / 2.0
        np.testing.assert_allclose(dense(_casimir(t, _whole)), oracle, atol=1e-12)
        np.testing.assert_allclose(np.diag(dense(_casimir(t, _whole))), 2.0, atol=1e-12)

    def test_sign_reproduces_the_spin_form(self):
        t = villain_spin(2.5, CircleBasis(-10.5, 22), "as_printed")
        k0, kp, km = t.k0, t.kplus, t.kminus
        spin_form = k0 @ k0 + (kp @ km + km @ kp) * 0.5
        assert np.array_equal(dense(_casimir(t, _whole)), dense(spin_form))

    def test_villain_as_printed_disagrees(self):
        basis = CircleBasis(-6.0, 13)
        t = villain_spin(1.0, basis, "as_printed")
        c = _casimir(t, _whole)
        proj = interior_projector(t.basis, 2, t.params.clamp_excluded)
        kept = np.flatnonzero(np.real(np.diag(dense(proj))))
        values = np.real(np.diag(dense(c)))[kept]
        assert np.all(np.abs(values - 2.0) > 0.1)


class TestMaskedInterior:
    def test_all_interior_states_clamped_raises(self):
        # Spin 1/2 on p = -1/2 .. 37/2: every state inside margin 2 touches
        # a clamped amplitude, so no state is left to measure on.
        t = villain_spin(0.5, CircleBasis(-0.5, 20))
        with pytest.raises(ValueError, match="no interior states left"):
            interior_projector(t.basis, 2, t.params.clamp_excluded)
        with pytest.raises(ValueError, match="no interior states left"):
            check_commutators(t, CheckSpec(margin=2))
        with pytest.raises(ValueError, match="no interior states left"):
            check_casimir(t, CheckSpec(margin=2))


# (basis, margin, excluded, the label of each state): one-mode Fock, two-mode
# Fock and circle bases, without and with excluded states.
KEPT_CASES = [
    (basis, margin, excluded, labels)
    for basis, margin, labels in (
        (FockBasis((10,)), 2, np.arange(10)[:, None]),
        (FockBasis((4, 5)), 1, np.indices((4, 5)).reshape(2, -1).T),
        (CircleBasis(-3.5, 12), 3, np.arange(12)[:, None]),
    )
    for excluded in ((), np.array([3, 5], dtype=np.intp))
]


class TestKeptStates:
    @pytest.mark.parametrize("basis,margin,excluded,labels", KEPT_CASES)
    def test_indices_are_the_interior_mask(self, basis, margin, excluded, labels):
        sizes = labels.max(axis=0) + 1
        mask = np.all((labels >= margin) & (labels <= sizes - 1 - margin), axis=1)
        mask[list(excluded)] = False
        keep, _ = _kept_form(basis, margin, excluded)
        assert keep.dtype == np.intp
        assert np.array_equal(keep, np.flatnonzero(mask))

    @pytest.mark.parametrize("basis,margin,excluded,labels", KEPT_CASES)
    def test_norm_is_the_projected_max_abs(self, basis, margin, excluded, labels):
        rng = np.random.default_rng(7)
        n = basis.dim
        residual = linops.banded(basis, {k: rng.normal(size=n) + 1j * rng.normal(size=n)
                                         for k in (-3, -1, 0, 2)})
        proj = interior_projector(basis, margin, excluded)
        _, measure = _kept_form(basis, margin, excluded)
        assert measure(lambda form: form(residual)) == maxabs_norm(proj @ residual @ proj)

    def test_every_projector_of_the_cli_is_built_there(self, monkeypatch, capsys):
        from su11kit.cli import main

        original, callers = linops.interior_projector, []

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "su11kit":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, spy)
        assert main(["check", "--rep", "all"]) == 0
        assert main(["casimir", "--rep", "all"]) == 0
        assert main(["transfo", "--beta", "2", "--n", "3"]) == 0
        assert main(["transfo", "--beta", "2", "--n", "3", "--p-min", "0.3",
                     "--margin", "2"]) == 0
        capsys.readouterr()
        assert callers and set(callers) == {_kept_form.__code__}


class TestCheckCommutators:
    def test_saf_passes_tightly(self, circle64):
        report = check_commutators(
            saf_realization(0.7 + 0.4j, circle64), CheckSpec(margin=2, tolerance=1e-12)
        )
        assert report.overall_passed
        assert [c.name for c in report.checks] == [
            "[K0,K+]-K+", "[K0,K-]+K-", "[K+,K-]+2K0",
        ]

    def test_villain_as_printed_fails_by_two(self):
        basis = CircleBasis(-6.0, 13)
        t = villain_spin(1.0, basis, "as_printed")
        report = check_commutators(t, CheckSpec(margin=2, tolerance=1e-10))
        by_name = {c.name: c for c in report.checks}
        assert by_name["[Sz,S+]-S+"].passed
        assert by_name["[Sz,S-]+S-"].passed
        bracket = by_name["[S+,S-]-2Sz"]
        assert not bracket.passed
        assert bracket.residual == pytest.approx(2.0, abs=1e-10)

    def test_margin_zero_exposes_boundary(self, circle64):
        report = check_commutators(
            saf_realization(1.0 + 0.5j, circle64), CheckSpec(margin=0, tolerance=1e-10)
        )
        assert not report.overall_passed
        worst = max(c.residual for c in report.checks)
        assert worst > 1.0  # edge residuals grow with the lattice size

    @pytest.mark.parametrize("p0", P0_GRID)
    def test_saf_grid_property(self, p0, circle64):
        report = check_commutators(
            saf_realization(p0, circle64), CheckSpec(margin=2, tolerance=1e-12)
        )
        assert report.overall_passed


class TestCheckCasimir:
    def test_mp_expected_value(self):
        report = check_casimir(mp_realization(1.75, 32), CheckSpec(margin=2, tolerance=1e-10))
        check = report.checks[0]
        assert check.passed
        assert check.metadata["expected_value"] == repr(1.75 * 0.75)

    def test_saf_complex_offset(self, circle64):
        report = check_casimir(
            saf_realization(0.5 + 1.0j, circle64), CheckSpec(margin=2, tolerance=1e-10)
        )
        check = report.checks[0]
        assert check.passed
        assert check.metadata["expected_value"] == repr(-1.25)

    def test_perelomov_reports_both_candidates(self, circle64):
        report = check_casimir(
            perelomov_realization(1.0, circle64), CheckSpec(margin=2, tolerance=1e-10)
        )
        check = report.checks[0]
        assert check.passed
        assert check.metadata["matches"] == "-1/4 - lam^2"
        assert check.metadata["candidate[-1/4 - lam^2]"] == repr(-1.25)
        assert check.metadata["candidate[-1/4 - lam^2/4]"] == repr(-0.5)
        # the printed candidate misses by 3/4 at lam = 1
        assert float(check.metadata["residual[-1/4 - lam^2/4]"]) == pytest.approx(0.75, abs=1e-10)

    def test_villain_as_printed_failure_records_value(self):
        basis = CircleBasis(-6.0, 13)
        report = check_casimir(
            villain_spin(1.0, basis, "as_printed"), CheckSpec(margin=2, tolerance=1e-10)
        )
        check = report.checks[0]
        assert not check.passed
        assert "observed_first" in check.metadata

    def test_empty_casimir_rejected(self):
        # The forms come from the triple, not from its variant name: an mp
        # triple that records none has nothing to be checked against.
        t = mp_realization(1.0, 8)
        bare = type(t.params)(variant="mp")
        bad = type(t)(t.kind, t.k0, t.kplus, t.kminus, bare)
        with pytest.raises(ValueError, match="no closed-form Casimir"):
            check_casimir(bad)

    def test_saf_residual_ignores_real_offset(self, circle64):
        spec = CheckSpec(margin=2, tolerance=1e-10)
        r1 = check_casimir(saf_realization(-1.0 + 0.7j, circle64), spec)
        r2 = check_casimir(saf_realization(2.0 + 0.7j, circle64), spec)
        assert abs(r1.checks[0].residual - r2.checks[0].residual) <= 1e-12


class TestCheckTransfo:
    @pytest.mark.parametrize("beta,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_shift_identity_exact(self, beta, n, circle64):
        report = check_transfo(circle64, beta, n, CheckSpec(margin=2, tolerance=1e-12))
        assert report.overall_passed

    def test_margin_below_beta_fails_at_edges(self, circle64):
        report = check_transfo(circle64, 1, 1, CheckSpec(margin=0, tolerance=1e-12))
        assert not report.overall_passed

    def test_bad_power_rejected(self, circle64):
        with pytest.raises(ValueError):
            check_transfo(circle64, 0, 1)
        with pytest.raises(ValueError):
            check_transfo(circle64, 1, 4)

    @pytest.mark.parametrize("beta", [1, 2, 3, 5, 70])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_repeated_products(self, beta, n):
        # The reference: E+, E- and P multiplied out one factor at a time.
        basis = CircleBasis(-31.7, 64)
        p = diagonal(basis, basis.momenta())
        eplus = banded(basis, {-1: np.ones(basis.count)})
        eminus = eplus.dag()
        up, down, pn = eplus, eminus, p
        for _ in range(beta - 1):
            up, down = up @ eplus, down @ eminus
        for _ in range(n - 1):
            pn = pn @ p
        proj = interior_projector(basis, 1)
        rhs = diagonal(basis, (basis.momenta() - beta) ** n)
        expected = maxabs_norm(proj @ (up @ pn @ down - rhs) @ proj)
        report = check_transfo(basis, beta, n, CheckSpec(margin=1, tolerance=1e-12))
        assert report.checks[0].residual == expected

    def test_cost_does_not_grow_with_beta(self, circle64, monkeypatch):
        # E+^b is one band and P^n one diagonal, so no product is repeated b times.
        calls = []
        matmul = OperatorMatrix.__matmul__
        monkeypatch.setattr(OperatorMatrix, "__matmul__",
                            lambda a, b: calls.append(1) or matmul(a, b))
        counts = []
        for beta in (1, 40):
            check_transfo(circle64, beta, 3, CheckSpec(margin=2, tolerance=1e-12))
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("beta,n", [(10 ** 400, 1), (10 ** 104, 3)])
    def test_beta_past_float_range_rejected(self, beta, n, circle64):
        with pytest.raises(ValueError, match="beta = 1.00e\\+"):
            check_transfo(circle64, beta, n)


class TestCompareTriples:
    @pytest.mark.parametrize("lam", [0.6, 1.0, 2.0])
    def test_perelomov_saf_mapping(self, lam, circle64):
        report = compare_triples(
            perelomov_realization(lam, circle64),
            saf_realization(0.5 + 1j * lam, circle64),
            CheckSpec(tolerance=1e-12),
        )
        assert report.overall_passed

    def test_self_comparison_is_zero(self, circle64):
        t = saf_realization(0.3 - 0.2j, circle64)
        report = compare_triples(t, t, CheckSpec(tolerance=1e-15))
        assert all(c.residual == 0.0 for c in report.checks)

    def test_constant_offset_shows_in_k0(self, circle64):
        report = compare_triples(
            saf_realization(0.0, circle64),
            saf_realization(1.0, circle64),
            CheckSpec(tolerance=1e-12),
        )
        by_name = {c.name: c for c in report.checks}
        assert by_name["delta[k0]"].residual == pytest.approx(1.0, abs=1e-15)

    def test_basis_mismatch_rejected(self, circle64):
        other = CircleBasis(-16.0, 32)
        with pytest.raises(BasisMismatchError):
            compare_triples(
                saf_realization(0.5, circle64), saf_realization(0.5, other)
            )

    def test_villain_equals_hp_after_rebase(self):
        # Same spin block, occupation index n against momentum index p + S.
        spin = 2.5
        circle = exact_range_basis(spin)
        villain = villain_spin(spin, circle, "corrected")
        hp = hp_spin(spin, "corrected")
        for v, h in ((villain.k0, hp.k0), (villain.kplus, hp.kplus),
                     (villain.kminus, hp.kminus)):
            np.testing.assert_allclose(dense(v), dense(h), rtol=0, atol=1e-12)


class TestAdjointness:
    def test_hp_corrected_passes(self):
        report = check_adjointness(hp_spin(1.5, "corrected"), CheckSpec(tolerance=1e-10))
        assert report.overall_passed

    def test_hp_as_printed_fails(self):
        report = check_adjointness(hp_spin(0.5, "as_printed"), CheckSpec(tolerance=1e-10))
        assert not report.overall_passed
        assert report.checks[0].residual > 0.1


def dense_triple(kplus, kminus):
    n = kminus.shape[0]
    basis = FockBasis((n,))
    return AlgebraTriple(HYPERBOLIC, diagonal(basis, np.arange(n)), OperatorMatrix(basis, kplus),
                         OperatorMatrix(basis, kminus), RepParams("dense"))


class TestDenseAdjointGap:
    """A dense pair is gated in row blocks of linops._TILE rows; 7, 65 and 200
    states leave a short last block."""

    @pytest.mark.parametrize("n", [7, 64, 65, 200])
    def test_one_entry_off_in_the_last_row_block_raises(self, n):
        rng = np.random.default_rng(n)
        kminus = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kplus = kminus.conj().T.copy()
        assert check_adjointness(dense_triple(kplus, kminus)).checks[0].residual == 0.0
        kplus[n - 1, n // 2] += 2e-10
        with pytest.raises(ValueError, match=r"max\|K\+ - \(K-\)\^dag\| = 2\.000e-10"):
            dense_triple(kplus, kminus)

    def test_an_adjoint_view_is_not_read(self, monkeypatch):
        bose = saf_bose_form(0.7 + 0.4j, 64)
        perturbed = dense(bose.kplus).copy()
        perturbed[40, 3] += 3e-11
        expected = np.max(np.abs(perturbed - dense(bose.kminus).conj().T))
        reads = []
        dense_rows = OperatorMatrix._dense_rows

        def spy_rows(op, *args):
            reads.append(args)
            return dense_rows(op, *args)

        monkeypatch.setattr(OperatorMatrix, "_dense_rows", spy_rows)
        assert linops._adjoint_gap(bose.kplus, bose.kminus) == 0.0
        assert linops._adjoint_gap(bose.kminus, bose.kplus) == 0.0
        assert reads == []
        copy = OperatorMatrix(bose.basis, perturbed)
        assert linops._adjoint_gap(copy, bose.kminus) == expected > 0
        assert reads

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("n", [7, 64, 65, 200])
    def test_gaps_equal_the_whole_difference(self, n, order):
        rng = np.random.default_rng(n)
        a = np.asarray(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), order=order)
        defect = OperatorMatrix(FockBasis((n,)), a).hermiticity_defect()
        assert defect == np.max(np.abs(a - a.conj().T))
        # A pair inside the gate, so that it makes a triple.
        kplus = np.asarray(a.conj().T + 1e-11 * rng.normal(size=(n, n)), order=order)
        gap = check_adjointness(dense_triple(kplus, a)).checks[0].residual
        assert 0 < gap == np.max(np.abs(kplus - a.conj().T))
        # Two arrays, either or both held conjugate-transposed.
        b = np.asarray(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), order=order)
        x, y = OperatorMatrix(FockBasis((n,)), a), OperatorMatrix(FockBasis((n,)), b)
        assert linops._adjoint_gap(x.dag(), y) == np.max(np.abs(a.conj().T - b.conj().T))
        assert linops._adjoint_gap(x, y.dag()) == np.max(np.abs(a - b))
        assert linops._adjoint_gap(x.dag(), y.dag()) == np.max(np.abs(a.conj().T - b))


class TestAlgebraProperties:
    @pytest.mark.parametrize("p0", P0_GRID[::5])
    def test_casimir_commutes_with_k0(self, p0, circle64):
        t = saf_realization(p0, circle64)
        c = _casimir(t, _whole)
        proj = interior_projector(circle64, 2)
        assert maxabs_norm(proj @ (c @ t.k0 - t.k0 @ c) @ proj) <= 1e-10

    def test_casimir_centrality_two_mode(self):
        t = two_mode(10)
        c = _casimir(t, _whole)
        proj = interior_projector(t.basis, 2)
        assert maxabs_norm(proj @ (c @ t.k0 - t.k0 @ c) @ proj) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_saf_commutators_close_for_any_offset(self, re, im):
        basis = CircleBasis(-16.0, 32)
        report = check_commutators(
            saf_realization(complex(re, im), basis),
            CheckSpec(margin=2, tolerance=1e-11),
        )
        assert report.overall_passed


def traced_peak(fn):
    """Peak bytes traced while ``fn`` runs, after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDenseWorkingSet:
    """Memory held beyond a dim-512 bose triple, in n x n complex arrays.

    A row-block scratch is 1/16 of an array at this size; the slack of 1 MiB
    covers numpy's iteration buffers and the isfinite mask of a new matrix.
    """

    N = 512
    P0 = 0.7 + 0.4j

    @pytest.fixture(scope="class")
    def bose(self):
        return saf_bose_form(self.P0, self.N)

    def arrays(self, fn, scratch=True):
        """Peak of ``fn`` in arrays, less a block scratch and the slack."""
        unit = 16 * self.N ** 2
        return (traced_peak(fn) - scratch * _BLOCK_BYTES - 2 ** 20) / unit

    def check_peaks(self, bose, margin):
        """Peaks of check_commutators and check_casimir at ``margin``."""
        spec = CheckSpec(margin=margin, tolerance=1e-3)
        # The Casimir runs no band x dense product, so it needs no scratch.
        return (self.arrays(lambda: check_commutators(bose, spec)),
                self.arrays(lambda: check_casimir(bose, spec), scratch=False))

    def test_band_dense_products_hold_their_output(self, bose):
        # Over every state, a product holds its output; one with K+, held
        # conjugate-transposed, also holds one conjugated copy of K-.
        assert bose.k0._bands is not None and not bose.kminus._adjointed
        for d, copies in ((bose.kminus, 0), (bose.kplus, 1)):
            assert self.arrays(lambda: dense(bose.k0, d)) <= 1 + copies
            assert self.arrays(lambda: dense(d, bose.k0)) <= 1 + copies

    @pytest.mark.parametrize("margin", [0, 1, N // 4])
    def test_checks_hold_three_row_tiles(self, bose, margin):
        # A bracket holds its two products and their difference, or their
        # difference, a band term and the sum, each a tile of _TILE kept rows
        # by at most N columns; the Casimir holds as many. Margin 1 pads the
        # tiles' products to whole BLAS column tiles.
        tile = _TILE / self.N
        assert max(self.check_peaks(bose, margin)) <= 3 * tile

    def test_exponential_holds_under_two_arrays(self, bose):
        # T's real eigenvectors (half an array), the result, and two real
        # blocks of half order (an eighth each) while one is formed.
        q, _ = quadratures(self.N)
        assert self.arrays(lambda: _exponential(q, -1), scratch=False) <= 1.75

    def test_budget_counts_the_larger_of_build_and_check(self, bose):
        # The build holds the exponential, with its three real blocks of half
        # order while they are scattered into it, then K- written over it and
        # the gate of K+ against (K-)^dag, a few row blocks. No block scratch
        # is taken off its peak.
        build = traced_peak(lambda: saf_bose_form(self.P0, self.N)) / (16 * self.N ** 2)
        assert build < 1.5
        # Margin 0 keeps every state, so its checks hold the most. A check
        # holds one array, K-, of which K+ is a view.
        checks = max(self.check_peaks(bose, 0))
        assert DENSE_ARRAYS == max(math.ceil(build), 1 + math.ceil(checks))

    def test_adjoint_shares_the_array(self, bose):
        assert bose.kplus._bands is None and bose.kplus._adjointed
        assert bose.kplus._dense is bose.kminus._dense
        assert np.array_equal(dense(bose.kplus), dense(bose.kminus).conj().T)
        assert traced_peak(lambda: bose.kminus.dag()) < 2 ** 10


def test_a_separate_raising_array_keeps_whole_tiles():
    # K+ a copy of (K-)^dag, off by 5e-11 at (100, 10): [K+,K-] then moves at
    # (99, 10) and (100, 11) only, in a tile left of the kept diagonal's. K+
    # is not the adjoint view of K-, so the bracket is formed on whole tiles
    # and fails.
    mp = mp_realization(1.0, 160)
    kplus = dense(mp.kplus).copy()
    kplus[100, 10] += 5e-11
    triple = AlgebraTriple(HYPERBOLIC, mp.k0, OperatorMatrix(mp.basis, kplus),
                           OperatorMatrix(mp.basis, dense(mp.kminus)), RepParams("dense"))
    spec = CheckSpec(margin=2, tolerance=1e-10)
    keep = np.arange(2, 158)
    bracket = ((dense(triple.kplus, triple.kminus) - dense(triple.kminus, triple.kplus))
               + dense(2.0 * triple.k0))[np.ix_(keep, keep)]
    upper = np.concatenate([bracket[r:r + _TILE, r:].ravel() for r in range(0, keep.size, _TILE)])
    assert np.max(np.abs(upper)) < spec.tolerance
    reported = check_commutators(triple, spec).checks[2]
    assert not reported.passed
    assert reported.residual == pytest.approx(np.max(np.abs(bracket)), rel=1e-6)


def test_bose_checks_form_no_full_dense_product(monkeypatch):
    # K+- are dense, so each of their products is formed on the kept block.
    bose = saf_bose_form(0.7 + 0.4j, 64)
    spec = CheckSpec(margin=16, tolerance=1e-3)
    blocks = []
    dense_block = linops._dense_block

    def spy_block(a, b, rp, rq, p, q):
        blocks.append((a.dim, rq - rp, q - p))
        return dense_block(a, b, rp, rq, p, q)

    monkeypatch.setattr(linops, "_dense_block", spy_block)
    assert check_commutators(bose, spec).overall_passed
    assert check_casimir(bose, spec).overall_passed
    # [K+,K-] and the Casimir's K+K- + K-K+, each on the 32 kept states,
    # which make one row tile; then the Casimir's K+K- + K-K+ on the first
    # kept state alone, for observed_first, widened by a neighbouring row
    # and column.
    assert blocks == [(64, 32, 32)] * 4 + [(64, 2, 2)] * 2


def test_bose_casimir_forms_no_band_product(monkeypatch):
    # K0 @ K0 is formed on each row tile's rows of the band vectors, not whole.
    bose = saf_bose_form(0.7 + 0.4j, 256)
    band_products = []
    matmul = OperatorMatrix.__matmul__

    def spy_matmul(a, b):
        if a._bands is not None and b._bands is not None:
            band_products.append(a.dim)
        return matmul(a, b)

    monkeypatch.setattr(OperatorMatrix, "__matmul__", spy_matmul)
    with kept_blocks() as blocks:
        assert check_casimir(bose, CheckSpec(margin=64, tolerance=1e-3)).overall_passed
    assert band_products == []
    # Two row tiles of the 128 kept states, and the first kept state alone.
    assert {(int(rows[0]), rows.size) for rows, _ in blocks} == {(64, 64), (128, 64), (64, 1)}


@pytest.mark.parametrize("form", ["form1", "form2"])
@pytest.mark.parametrize("dim,margin", [(16, 7), (17, 2), (33, 0), (64, 16)])
def test_bose_kept_blocks_equal_the_projected_residuals(dim, margin, form):
    # The residuals formed over every state, with numpy's sums, and read on
    # the kept states; up to 64 states BLAS forms every product on one thread.
    bose = saf_bose_form(0.3 - 0.8j, dim, form)
    spec = CheckSpec(margin=margin, tolerance=1e-3)
    keep = kept_form(bose, margin)[0]
    kept = np.ix_(keep, keep)
    z, plus, minus = bose.k0, bose.kplus, bose.kminus
    brackets = ((dense(z, plus) - dense(plus, z)) - dense(plus),
                (dense(z, minus) - dense(minus, z)) + dense(minus),
                (dense(plus, minus) - dense(minus, plus)) + dense(2.0 * z))
    assert ([c.residual for c in check_commutators(bose, spec).checks]
            == [np.max(np.abs(r[kept])) for r in brackets])
    ((_, expected),) = bose.params.casimir
    computed = _casimir(bose, dense)
    closed_form = check_casimir(bose, spec).checks[0]
    assert closed_form.residual == np.max(np.abs(
        (computed - dense(diagonal(bose.basis, np.full(dim, expected))))[kept]))
    assert closed_form.metadata["observed_first"] == repr(float(computed[keep[0], keep[0]].real))


# Bose cases at the edges of the row tiles: a one-row remainder (129 kept
# states at margin 0, and 65 at dim 67, margin 1), which numpy would hand to
# another routine were it formed alone, exactly two kept states, and margin 1,
# whose columns do not start on a BLAS column tile.
ROW_TILE_CASES = [(129, 0), (67, 1), (16, 7), (200, 1)]


# The residuals that are Hermitian for a triple whose K+ is K-'s adjoint view.
HERMITIAN = ("[K+,K-]+2K0", "casimir closed form")


@contextlib.contextmanager
def kept_blocks():
    """The list of the ``(keep[rows], keep[cols])`` states of each
    algebra._kept_block call made while it is open."""
    blocks = []
    kept_block = algebra._kept_block

    def spy(keep, a, b=None, rows=slice(None), cols=slice(None)):
        blocks.append((keep[rows], keep[cols]))
        return kept_block(keep, a, b, rows=rows, cols=cols)

    with mock.patch.object(algebra, "_kept_block", spy):
        yield blocks


def bose_residuals(bose):
    """Each bracket and the Casimir less its closed form, by the function that
    forms their products and terms."""
    z, plus, minus = bose.k0, bose.kplus, bose.kminus
    ((_, expected),) = bose.params.casimir
    target = diagonal(bose.basis, np.full(bose.basis.dim, expected))
    return {
        "[K0,K+]-K+": lambda form: (form(z, plus) - form(plus, z)) - form(plus),
        "[K0,K-]+K-": lambda form: (form(z, minus) - form(minus, z)) + form(minus),
        "[K+,K-]+2K0": lambda form: (form(plus, minus) - form(minus, plus)) + form(2.0 * z),
        "casimir closed form": lambda form: _casimir(bose, form) - form(target),
    }


def row_tile_mismatches():
    """The (dim, margin, form, residual) cases in which a row tile is not the
    kept rows of the residual formed whole, or the reported residual is not
    the largest kept entry of the whole one."""
    bad = []
    for dim, margin in ROW_TILE_CASES:
        for form_name in ("form1", "form2"):
            bose = saf_bose_form(0.3 - 0.8j, dim, form_name)
            spec = CheckSpec(margin=margin, tolerance=1e-3)
            keep, measure = kept_form(bose, margin)
            reported = {c.name: c.residual for report in (check_commutators(bose, spec),
                                                          check_casimir(bose, spec))
                        for c in report.checks}
            for name, residual in bose_residuals(bose).items():
                full = residual(dense)
                whole = full[np.ix_(keep, keep)]
                tiles = []

                def tile(form):
                    # The tile equals the whole residual on the block that each
                    # of its products and terms read.
                    start = len(blocks)
                    formed = residual(form)
                    tiles.extend(np.array_equal(formed, full[np.ix_(rows, cols)])
                                 for rows, cols in blocks[start:])
                    return formed

                with kept_blocks() as blocks:
                    measured = measure(tile, hermitian=name in HERMITIAN)
                if (not tiles or not all(tiles) or measured != reported[name]
                        or reported[name] != np.max(np.abs(whole))):
                    bad.append((dim, margin, form_name, name))
    return bad


@pytest.mark.parametrize("dim,margin,sizes,columns", [
    (129, 0, [64, 64, 1], [129, 65, 1]), (67, 1, [64, 1], [65, 1]), (16, 7, [2], [2]),
    (200, 1, [64, 64, 64, 6], [198, 134, 70, 6]), (130, 0, [64, 64, 2], [130, 66, 2])])
def test_row_tiles_cover_the_kept_rows(dim, margin, sizes, columns):
    # The tiles of a Hermitian residual start their columns at their first
    # kept row: the upper triangle of the kept block, and the diagonal tiles.
    bose = saf_bose_form(0.3 - 0.8j, dim)
    keep, measure = kept_form(bose, margin)
    for hermitian, expected in ((False, [keep.size] * len(sizes)), (True, columns)):
        with kept_blocks() as blocks:
            measure(lambda form: form(bose.kminus), hermitian=hermitian)
        assert [rows.size for rows, _ in blocks] == sizes
        assert [cols.size for _, cols in blocks] == expected


def upper_triangle_mismatches():
    """The (dim, margin, form, residual) cases in which a Hermitian residual,
    formed on the upper triangle of the kept block, is reported other than
    as the largest kept entry of the residual formed over every state."""
    bad = []
    for dim in (16, 17, 64, 65, 130):
        for margin in (0, 1, 3, dim // 4):
            for form_name in ("form1", "form2"):
                bose = saf_bose_form(0.3 - 0.8j, dim, form_name)
                spec = CheckSpec(margin=margin, tolerance=1e-3)
                keep = kept_form(bose, margin)[0]
                reported = {c.name: c.residual for report in (check_commutators(bose, spec),
                                                              check_casimir(bose, spec))
                            for c in report.checks}
                residuals = bose_residuals(bose)
                for name in HERMITIAN:
                    whole = residuals[name](dense)[np.ix_(keep, keep)]
                    if reported[name] != np.max(np.abs(whole)):
                        bad.append((dim, margin, form_name, name))
    return bad


def on_one_thread(mismatches: str) -> str:
    """What ``mismatches()`` of this module prints, in a process with one
    BLAS thread: each tile is one BLAS product, whose rounding can change
    with the thread count."""
    script = f"import test_algebra; print(test_algebra.{mismatches}())"
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), str(SRC)])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout.strip()


def test_row_tiles_equal_the_whole_residual():
    assert on_one_thread("row_tile_mismatches") == "[]"


def test_upper_triangles_give_the_whole_residual():
    assert on_one_thread("upper_triangle_mismatches") == "[]"
