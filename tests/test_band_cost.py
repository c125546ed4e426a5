"""Band-stored operators must never fall back to dense arithmetic.

At 65 536 states a dense operand would take 64 GiB, so these checks can only
complete if every step of them stays on the bands. The allocator of every
dense array, ``linops._new_dense``, is patched to raise for an array above
256 x 256 entries, so a materialization fails at once through whichever
route asks for it, instead of asking for the memory; the bose forms below
stay at 256 states. The documented misprints must still be detected at the
large size.
The bose exponential forms are dense by nature; their band generator, Q or
P with its zero diagonal, is diagonalized once per form through the SVD of
its half-size bidiagonal block, without being materialized.
"""

import numpy as np
import pytest

import su11kit.linops as linops
from su11kit.algebra import CheckSpec, check_casimir, check_commutators
from su11kit.linops import CircleBasis
from su11kit.reduction import ModelParams, verify_reduction
from su11kit.reps import (
    mp_realization,
    perelomov_realization,
    saf_bose_form,
    saf_realization,
    two_mode,
    villain_spin,
)

DIM = 65536
SPEC = CheckSpec(margin=2, tolerance=1e-10)


def villain(fidelity):
    # Spin 1 centred on a lattice of DIM momenta: p_min + S is an integer.
    return villain_spin(1.0, CircleBasis(-1.0 - (DIM - 3) // 2, DIM), fidelity)


@pytest.fixture(autouse=True)
def no_dense_materialization(monkeypatch):
    new_dense = linops._new_dense

    def refuse(rows, cols, *args):
        if rows * cols > 256 * 256:
            raise AssertionError(f"a dense {rows}x{cols} array was allocated")
        return new_dense(rows, cols, *args)

    monkeypatch.setattr(linops, "_new_dense", refuse)


@pytest.mark.parametrize("build", [
    lambda: mp_realization(1.75, DIM),
    lambda: saf_realization(0.7 + 0.4j, CircleBasis(-DIM // 2, DIM)),
    lambda: perelomov_realization(1.0, CircleBasis(-DIM // 2, DIM)),
    lambda: villain("corrected"),
    lambda: two_mode(256),
], ids=["mp", "saf", "perelomov", "villain", "two_mode"])
def test_checks_stay_on_the_bands(build):
    triple = build()
    assert triple.basis.dim == DIM
    for check in (check_commutators, check_casimir):
        report = check(triple, SPEC)
        assert report.checks


def test_misprints_detected_at_large_dim():
    brackets = check_commutators(villain("as_printed"), SPEC)
    offset = {c.name: c.residual for c in brackets.checks}["[S+,S-]-2Sz"]
    assert offset == pytest.approx(2.0, abs=1e-6)

    casimir = check_casimir(perelomov_realization(1.0, CircleBasis(-DIM // 2, DIM)), SPEC)
    assert casimir.checks[0].metadata["matches"] == "-1/4 - lam^2"


def test_reduction_stays_on_the_bands():
    result = verify_reduction(ModelParams(1.0, 0.1, 0.3), 254)
    assert (254 + 2) ** 2 == DIM
    assert result.max_deviation <= result.tolerance


@pytest.mark.parametrize("form", ["form1", "form2"])
def test_bose_form_makes_one_real_eigensolve(form, monkeypatch):
    calls = []

    def spy(name, solver):
        def wrapped(a, *args, **kwargs):
            a = np.asarray(a)
            calls.append((name, a.dtype, a.shape))
            return solver(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(linops.np.linalg, "eigh", spy("eigh", np.linalg.eigh))
    monkeypatch.setattr(linops.np.linalg, "svd", spy("svd", np.linalg.svd))
    for dim in (64, 65):
        calls.clear()
        saf_bose_form(0.7 + 0.4j, dim, form)
        assert calls == [("svd", np.dtype(np.float64), ((dim + 1) // 2, dim // 2))]


@pytest.mark.parametrize("form", ["form1", "form2"])
def test_bose_form_never_materializes_its_generator(form):
    triple = saf_bose_form(0.7 + 0.4j, 256, form)
    assert triple.basis.dim == 256


@pytest.mark.parametrize("form", ["form1", "form2"])
def test_bose_checks_add_bands_to_dense_in_place(form):
    # [K+,K-]+2K0 and the Casimir add band terms in K0 to dense products.
    triple = saf_bose_form(0.7 + 0.4j, 256, form)
    spec = CheckSpec(margin=64, tolerance=1e-3)
    assert check_commutators(triple, spec).overall_passed
    assert check_casimir(triple, spec).checks
