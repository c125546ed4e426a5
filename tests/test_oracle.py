"""The rows of ``transfo`` and of the ``--rep all`` ledger's villain offset
against the dense reference values of :mod:`oracle`."""

import json

import pytest

import oracle
from su11kit.cli import main

VILLAIN_ROW = "ledger/villain[as_printed,S=1]: [S+,S-]-2Sz = -2 on unclamped interior"


def report(argv, capsys) -> dict:
    main([*argv, "--format", "json"])
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("count", [32, 33])
@pytest.mark.parametrize("p_min", ["centered", 0.3])
@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("below", [0, 1], ids=["margin-beta", "margin-beta-1"])
def test_transfo_matches_the_oracle(count, p_min, beta, n, below, capsys):
    # At margin beta the identity holds up to rounding; at margin beta - 1 the
    # kept block reaches the lattice edge, where it fails by |p - beta|^n.
    p_min = -float(count // 2) if p_min == "centered" else p_min
    margin = beta - below
    (row,) = report(["transfo", "--beta", str(beta), "--n", str(n), "--dim", str(count),
                     f"--p-min={p_min!r}", "--margin", str(margin)], capsys)["checks"]
    expected, scale = oracle.transfo(p_min, count, beta, n, margin)
    assert abs(row["residual"] - expected) <= 1e-12 * scale
    assert (expected > 1e-12 * scale) == (below == 1)


def test_ledger_villain_offset_matches_the_oracle(capsys):
    # The ledger builds villain as --rep villain --spin 1 --fidelity as_printed
    # does: the spin block p = -1..1 with equal padding on either side.
    params = report(["check", "--rep", "villain", "--spin", "1", "--fidelity", "as_printed"],
                    capsys)["params"]
    count, margin = params["dim"], params["margin"]
    rows = {c["name"]: c for c in report(["check", "--rep", "all"], capsys)["checks"]}
    expected, scale = oracle.villain_offset(1.0, -1.0 - (count - 3) // 2, count, margin)
    assert abs(rows[VILLAIN_ROW]["residual"] - expected) <= 1e-12 * scale
