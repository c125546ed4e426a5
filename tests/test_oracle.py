"""The rows of ``transfo``, of ``check`` and ``casimir`` for the one-step
ladders and ``two_mode``, and of the ``--rep all`` ledger's villain offset
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


# Each rep at two sizes, one of them odd: its flags and its dense triple.
# hp's block is fixed by its spin, 2S + 1 states.
LADDERS = {
    "mp-24": (["--rep", "mp", "--k", "0.75", "--dim", "24"], lambda: oracle.mp(0.75, 24)),
    "mp-25": (["--rep", "mp", "--k", "1.5", "--dim", "25"], lambda: oracle.mp(1.5, 25)),
    "hp-corrected-5": (["--rep", "hp", "--spin", "2", "--fidelity", "corrected"],
                       lambda: oracle.hp(2.0, "corrected")),
    "hp-corrected-6": (["--rep", "hp", "--spin", "2.5", "--fidelity", "corrected"],
                       lambda: oracle.hp(2.5, "corrected")),
    "hp-as_printed-5": (["--rep", "hp", "--spin", "2", "--fidelity", "as_printed"],
                        lambda: oracle.hp(2.0, "as_printed")),
    "hp-as_printed-6": (["--rep", "hp", "--spin", "2.5", "--fidelity", "as_printed"],
                        lambda: oracle.hp(2.5, "as_printed")),
    "saf-24": (["--rep", "saf", "--p0=0.7+0.4i", "--dim", "24"],
               lambda: oracle.saf(0.7 + 0.4j, -12.0, 24)),
    "saf-25": (["--rep", "saf", "--p0=-1.5-0.3i", "--dim", "25", "--p-min", "0.3"],
               lambda: oracle.saf(-1.5 - 0.3j, 0.3, 25)),
    "perelomov-24": (["--rep", "perelomov", "--lam", "1", "--dim", "24"],
                     lambda: oracle.perelomov(1.0, -12.0, 24)),
    "perelomov-25": (["--rep", "perelomov", "--lam", "2.5", "--dim", "25", "--p-min", "0.3"],
                     lambda: oracle.perelomov(2.5, 0.3, 25)),
    "two_mode-7": (["--rep", "two_mode", "--dim", "7"], lambda: oracle.two_mode(7)),
    "two_mode-8": (["--rep", "two_mode", "--dim", "8"], lambda: oracle.two_mode(8)),
}


def agrees(row, expected, scale):
    """The row's residual is the oracle's to 1e-12 of the largest entry
    involved, and its verdict is the oracle's wherever the oracle's residual
    lies outside [tol/10, 10 tol]."""
    tol = row["tolerance"]
    assert abs(row["residual"] - expected) <= 1e-12 * scale, (row, expected)
    if not tol / 10 <= expected <= 10 * tol:
        assert row["passed"] == (expected < tol), (row, expected)


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize("rep", LADDERS)
def test_check_rows_match_the_oracle(rep, margin, capsys):
    flags, build = LADDERS[rep]
    rows = report(["check", *flags, "--margin", str(margin)], capsys)["checks"]
    expected = oracle.brackets(build(), margin)
    assert len(rows) == len(expected) == 3
    for row, (residual, scale) in zip(rows, expected):
        agrees(row, residual, scale)


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize("rep", LADDERS)
def test_casimir_rows_match_the_oracle(rep, margin, capsys):
    flags, build = LADDERS[rep]
    triple = build()
    (row,) = report(["casimir", *flags, "--margin", str(margin)], capsys)["checks"]
    candidates, first = oracle.casimir(triple, margin)
    residual, scale = min(candidates)
    agrees(row, residual, scale)
    metadata = row["metadata"]
    if len(candidates) > 1:
        # Each closed form's residual is reported beside the one it matches.
        reported = [float(v) for k, v in metadata.items() if k.startswith("residual[")]
        assert len(reported) == len(candidates)
        for value, (expected, expected_scale) in zip(reported, candidates):
            assert abs(value - expected) <= 1e-12 * expected_scale
    else:
        assert abs(float(metadata["observed_first"]) - first.real) <= 1e-12 * scale
