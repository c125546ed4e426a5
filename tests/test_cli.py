import json
import tracemalloc

import pytest

from su11kit.cli import RunConfig, format_complex, main, parse_args, parse_complex, run


class TestComplexParsing:
    @pytest.mark.parametrize("text,value", [
        ("0.5+1i", 0.5 + 1.0j),
        ("0.5-1i", 0.5 - 1.0j),
        ("-0.3", -0.3 + 0.0j),
        ("2", 2.0 + 0.0j),
        ("1e-3+2e-4i", 1e-3 + 2e-4j),
    ])
    def test_accepted_forms(self, text, value):
        assert parse_complex(text) == value

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="complex"):
            parse_complex("banana")

    def test_roundtrip_via_format(self):
        for z in (0.5 + 1.0j, -0.25 - 2.0j, 3.0 + 0.0j):
            assert parse_complex(format_complex(z)) == z


class TestParseArgs:
    def test_check_saf_example(self):
        config = parse_args(["check", "--rep", "saf", "--p0", "0.5+1i", "--dim", "64"])
        assert config == RunConfig(
            command="check", rep="saf", p0=0.5 + 1.0j, dim=64, margin=2,
            tolerance=1e-10,
        )

    def test_reduce_example(self):
        config = parse_args([
            "reduce", "--epsilon", "1", "--phi1", "0.1", "--phi2", "0.3",
            "--pairs", "16",
        ])
        assert config.command == "reduce"
        assert (config.epsilon, config.phi1, config.phi2) == (1.0, 0.1, 0.3)
        assert config.pairs == 16
        assert config.tolerance == 1e-9

    def test_singular_reduce_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["reduce", "--phi1", "0.5", "--phi2", "-1"])
        assert exc.value.code == 2
        assert "phi" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["check", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_bad_spin_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["check", "--rep", "hp", "--spin", "0.7"])
        assert exc.value.code == 2
        assert "spin" in capsys.readouterr().err

    def test_config_file_merge(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"rep": "saf", "p0": "0.5+1i", "dim": 48}))
        config = parse_args(["check", "--config", str(path), "--dim", "32"])
        assert config.rep == "saf"
        assert config.p0 == 0.5 + 1.0j
        assert config.dim == 32  # flag overrides file

    def test_config_file_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"rep": "saf", "surprise": 1}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["check", "--config", str(path)])
        assert exc.value.code == 2


class TestRun:
    def test_check_saf_passes(self):
        config = parse_args([
            "check", "--rep", "saf", "--p0", "0.7+0.4i", "--dim", "64",
            "--margin", "2", "--format", "json",
        ])
        output, code = run(config)
        assert code == 0
        payload = json.loads(output)
        assert payload["version"] == 1
        assert payload["overall_passed"] is True
        assert len(payload["checks"]) == 3
        assert all(c["passed"] for c in payload["checks"])

    def test_check_villain_as_printed_fails(self):
        config = parse_args([
            "check", "--rep", "villain", "--fidelity", "as_printed",
            "--spin", "1", "--format", "json",
        ])
        output, code = run(config)
        assert code == 1
        payload = json.loads(output)
        bracket = [c for c in payload["checks"] if "[S+,S-]-2Sz" in c["name"]]
        assert bracket and bracket[0]["residual"] == pytest.approx(2.0, abs=1e-10)
        assert payload["overall_passed"] is False

    def test_reduce_example_fields(self):
        config = parse_args([
            "reduce", "--epsilon", "1", "--phi1", "0.1", "--phi2", "0.3",
            "--pairs", "16", "--format", "json",
        ])
        output, code = run(config)
        assert code == 0
        payload = json.loads(output)
        assert payload["p0"] == pytest.approx(-0.8, abs=1e-14)
        assert payload["h0"] == pytest.approx(-1.62, abs=1e-14)
        assert payload["mass"] == 1.0
        assert payload["condensate"] is True
        assert payload["max_deviation"] <= 1e-9
        assert len(payload["spectra"]["direct"]) == 16

    def test_transfo_passes(self):
        config = parse_args(["transfo", "--beta", "2", "--n", "3", "--format", "json"])
        output, code = run(config)
        assert code == 0

    def test_fidelity_both_prefixes_checks(self):
        config = parse_args([
            "check", "--rep", "hp", "--spin", "0.5", "--fidelity", "both",
            "--format", "json",
        ])
        output, code = run(config)
        payload = json.loads(output)
        names = [c["name"] for c in payload["checks"]]
        assert any(n.startswith("corrected/") for n in names)
        assert any(n.startswith("as_printed/") for n in names)

    def test_casimir_perelomov_flags_printed_value(self):
        config = parse_args(["casimir", "--rep", "perelomov", "--lam", "1", "--format", "json"])
        output, code = run(config)
        assert code == 0
        payload = json.loads(output)
        meta = payload["checks"][0]["metadata"]
        assert meta["matches"] == "-1/4 - lam^2"
        assert float(meta["residual[-1/4 - lam^2/4]"]) == pytest.approx(0.75, abs=1e-10)


class TestOutputStability:
    @pytest.mark.parametrize("argv", [
        ["check", "--rep", "saf", "--p0", "0.7+0.4i", "--dim", "64", "--margin", "2"],
        ["check", "--rep", "two_mode", "--format", "json"],
        ["reduce", "--epsilon", "1", "--phi1", "0.1", "--phi2", "0.3",
         "--pairs", "8", "--format", "csv"],
        ["transfo", "--beta", "1", "--n", "2", "--format", "csv"],
    ])
    def test_byte_identical_across_runs(self, argv):
        config = parse_args(list(argv))
        first, code1 = run(config)
        second, code2 = run(config)
        assert first == second
        assert code1 == code2

    def test_json_roundtrips_full_precision(self):
        config = parse_args([
            "reduce", "--epsilon", "0.37", "--phi1", "0.21", "--phi2", "-0.11",
            "--pairs", "8", "--format", "json",
        ])
        output, _ = run(config)
        payload = json.loads(output)
        again = json.loads(json.dumps(payload))
        assert again == payload
        # numbers survive the round trip bit for bit
        assert again["p0"] == payload["p0"]
        assert again["spectra"]["direct"] == payload["spectra"]["direct"]


class TestMain:
    def test_exit_codes(self, capsys):
        assert main(["check", "--rep", "saf", "--dim", "32"]) == 0
        capsys.readouterr()
        assert main(["check", "--rep", "villain", "--fidelity", "as_printed",
                     "--spin", "1"]) == 1
        capsys.readouterr()
        assert main(["reduce", "--phi1", "0.5", "--phi2", "-1"]) == 2
        capsys.readouterr()
        # An odd dim leaves Q a zero eigenvalue.
        assert main(["check", "--rep", "bose1", "--dim", "65", "--margin", "16",
                     "--tol", "1e-3"]) == 0
        capsys.readouterr()

    def test_domain_error_from_module_exits_2(self, capsys):
        # villain lattice too small to cover the spin range
        code = main(["check", "--rep", "villain", "--spin", "2.5", "--dim", "4"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_stdout_byte_stable(self, capsys):
        argv = ["check", "--rep", "mp", "--k", "1.75", "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


# Spin 1/2 on a lattice whose margin-2 interior is all clamp-excluded.
CLAMPED_INTERIOR = ["check", "--rep", "villain", "--spin", "0.5", "--p-min=-0.5",
                    "--dim", "20", "--margin", "2"]

# Invocations whose operators would not fit the memory budget: a dense
# 200000^2 matrix for the eigensolve of bose1 (596 GiB), and band vectors of
# 10^10 two-mode states.
OVER_BUDGET = {
    "bose1-dense-over-budget": ["check", "--rep", "bose1", "--dim", "200000"],
    "two_mode-over-budget": ["check", "--rep", "two_mode", "--dim", "100000"],
    "reduce-over-budget": ["reduce", "--pairs", "100000"],
}

# Each usage or domain rule that exits 2, run through main. A config entry is
# the text of the --config file, "<missing>" for a path that does not exist,
# or "<dir>" for a path that cannot be read as a file.
EXIT_2_CASES = [
    pytest.param(["check", "--rep", "mp", "--k", "0"], None, id="mp-k"),
    pytest.param(["casimir", "--rep", "perelomov", "--lam", "0"], None, id="perelomov-lam"),
    pytest.param(["check", "--rep", "hp", "--spin", "0.7"], None, id="spin"),
    pytest.param(["check", "--rep", "saf", "--dim", "1"], None, id="dim"),
    pytest.param(["check", "--rep", "saf", "--margin", "-1"], None, id="margin"),
    pytest.param(["check", "--rep", "saf", "--margin", "99999999999999999999"], None,
                 id="margin-beyond-int64"),
    pytest.param(["check", "--rep", "saf", "--tol", "0"], None, id="tol"),
    pytest.param(["reduce", "--phi1", "0.5", "--phi2", "-1"], None, id="singular-coupling"),
    pytest.param(["reduce", "--pairs", "1"], None, id="pairs"),
    pytest.param(["transfo", "--beta", "0"], None, id="beta"),
    pytest.param(["transfo", "--n", "4"], None, id="n"),
    pytest.param(["check", "--rep", "hp", "--spin", "1", "--dim", "5"], None, id="hp-dim"),
    pytest.param(["check"], "<missing>", id="config-missing"),
    pytest.param(["check"], "<dir>", id="config-unreadable"),
    pytest.param(["check"], '{"spin": [1]}', id="config-spin-list"),
    pytest.param(["check"], '{"p0": [1]}', id="config-p0-list"),
    pytest.param(["check", "--rep", "hp", "--spin", "inf"], None, id="hp-spin-inf"),
    pytest.param(["check", "--rep", "villain", "--spin", "1", "--p-min", "inf"], None,
                 id="villain-p-min-inf"),
    pytest.param(["reduce", "--epsilon", "1e300", "--pairs", "4"], None,
                 id="reduce-epsilon-overflow"),
    pytest.param(["check", "--rep", "saf", "--p0", "inf"], None, id="saf-p0-inf"),
    pytest.param(["check", "--rep", "bose1", "--p0", "nan+1i"], None, id="bose1-p0-nan"),
    pytest.param(["casimir", "--rep", "bose2", "--p0", "1+infi"], None, id="bose2-p0-inf"),
    pytest.param(["casimir", "--rep", "perelomov", "--lam", "inf"], None,
                 id="perelomov-lam-inf"),
    pytest.param(["check", "--rep", "perelomov", "--lam", "nan"], None,
                 id="perelomov-lam-nan"),
    pytest.param(["check", "--rep", "mp", "--k", "nan"], None, id="mp-k-nan"),
    pytest.param(["casimir", "--rep", "mp", "--k", "inf"], None, id="mp-k-inf"),
    pytest.param(["check", "--rep", "mp", "--k", "1e308"], None, id="mp-k-overflow"),
    pytest.param(["check", "--rep", "saf", "--p0", "1e300"], None, id="saf-p0-square-overflow"),
    pytest.param(["casimir", "--rep", "saf", "--p0", "1e160i"], None,
                 id="saf-casimir-p0-square-overflow"),
    pytest.param(["casimir", "--rep", "mp", "--k", "1e200"], None, id="mp-casimir-k-overflow"),
    pytest.param(["casimir", "--rep", "perelomov", "--lam", "1e200"], None,
                 id="perelomov-casimir-lam-overflow"),
    pytest.param(["check", "--rep", "saf", "--p-min", "1e200"], None,
                 id="saf-p-min-overflow"),
    pytest.param(["check", "--rep", "bose1", "--p0", "1e200"], None, id="bose1-p0-overflow"),
    pytest.param(["casimir", "--rep", "perelomov", "--p-min", "1e200"], None,
                 id="perelomov-casimir-p-min-overflow"),
    pytest.param(CLAMPED_INTERIOR, None, id="check-no-interior"),
    pytest.param(["casimir"] + CLAMPED_INTERIOR[1:], None, id="casimir-no-interior"),
    *(pytest.param(argv, None, id=case) for case, argv in OVER_BUDGET.items()),
]


# Cases whose message must name the offending parameter or size, by case id.
NAMED_PARAMETER = {
    "hp-spin-inf": "spin",
    "villain-p-min-inf": "p_min",
    "reduce-epsilon-overflow": "epsilon",
    "saf-p0-inf": "p0",
    "bose1-p0-nan": "p0",
    "bose2-p0-inf": "p0",
    "perelomov-lam-inf": "lambda",
    "perelomov-lam-nan": "lambda",
    "mp-k-nan": "Bargmann index k",
    "mp-k-inf": "Bargmann index k",
    "mp-k-overflow": "Bargmann index k",
    "saf-p0-square-overflow": "p0",
    "saf-casimir-p0-square-overflow": "p0",
    "mp-casimir-k-overflow": "Bargmann index k",
    "perelomov-casimir-lam-overflow": "lambda",
    "saf-p-min-overflow": "p_min",
    "bose1-p0-overflow": "p0",
    "perelomov-casimir-p-min-overflow": "p_min",
    "bose1-dense-over-budget": "200000x200000",
    "two_mode-over-budget": "10000000000 states",
    "reduce-over-budget": "10000400004 states",
}


class TestExitTwo:
    # A rule is enforced before any arithmetic can overflow into a warning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,config", EXIT_2_CASES)
    def test_rule_exits_2(self, argv, config, tmp_path, capsys, request):
        argv = list(argv)
        if config is not None:
            path = tmp_path / "run.json"
            if config == "<dir>":
                path.mkdir()
            elif config != "<missing>":
                path.write_text(config)
            argv += ["--config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err.strip().splitlines()[-1]
        named = NAMED_PARAMETER.get(request.node.callspec.id)
        if named is not None:
            assert named in captured.err

    @pytest.mark.parametrize("argv", OVER_BUDGET.values(), ids=OVER_BUDGET.keys())
    def test_over_budget_allocates_nothing_large(self, argv, capsys):
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "memory budget" in capsys.readouterr().err
        assert peak < 2 ** 28


class TestReportedParams:
    def test_hp_reports_the_built_dim(self):
        for argv in (["check", "--rep", "hp", "--spin", "1.5"],
                     ["casimir", "--rep", "hp", "--spin", "1.5", "--dim", "4"]):
            output, code = run(parse_args(argv + ["--format", "json"]))
            assert code == 0
            assert json.loads(output)["params"]["dim"] == 4

    def test_transfo_ignores_the_rep_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"rep": "two_mode"}')
        output, _ = run(parse_args(["transfo", "--config", str(path), "--format", "json"]))
        assert json.loads(output)["params"]["dim"] == 64

    @pytest.mark.parametrize("config", ['{"rep": "hp", "dim": 5}', '{"spin": 0.7}'])
    def test_reduce_ignores_the_rep_keys(self, config, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(config)
        assert main(["reduce", "--config", str(path)]) == 0
        with_config = capsys.readouterr().out
        assert main(["reduce"]) == 0
        assert with_config == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "casimir"])
    def test_spin_is_ignored_by_reps_that_do_not_read_it(self, command, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"spin": 0.7}')
        argv = [command, "--rep", "saf"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--spin", "0.7"]) == 0
        assert capsys.readouterr().out == plain
        assert main(argv + ["--config", str(path)]) == 0
        assert capsys.readouterr().out == plain

    def test_transfo_echoes_p_min(self):
        output, _ = run(parse_args(["transfo", "--p-min", "-10", "--format", "json"]))
        assert json.loads(output)["params"]["p_min"] == -10.0
        output, _ = run(parse_args(["transfo", "--format", "json"]))
        assert "p_min" not in json.loads(output)["params"]


HYPERBOLIC_BRACKETS = ("[K0,K+]-K+", "[K0,K-]+K-", "[K+,K-]+2K0")
SPIN_BRACKETS = ("[Sz,S+]-S+", "[Sz,S-]+S-", "[S+,S-]-2Sz")
CASIMIR_SUITE = [
    f"{rep}/casimir closed form"
    for rep in ("mp[k=1.75]", "saf[p0=0.5+1i]", "perelomov[lam=1]", "two_mode[24x24]",
                "hp[corrected,S=5/2]", "villain[corrected,S=5/2]")
]
LEDGER = [
    "ledger/villain[as_printed,S=1]: [S+,S-]-2Sz = -2 on unclamped interior",
    "ledger/hp[as_printed,S=1/2]: adjointness gap = sqrt(2)-1",
    "ledger/perelomov[lam=1]: casimir matches -1/4-lam^2, not -1/4-lam^2/4",
]
CHECK_SUITE = (
    [f"{family}/{b}"
     for family in ("mp[k=0.5]", "mp[k=1]", "mp[k=1.75]", "saf[25-point P0 grid]",
                    "perelomov[lam in {0.6,1,2}]", "two_mode[24x24]")
     for b in HYPERBOLIC_BRACKETS]
    + [f"{family}/{b}"
       for family in ("hp[corrected,S in {1/2,1,5/2}]", "villain[corrected,S in {1/2,1,5/2}]")
       for b in SPIN_BRACKETS]
    + [f"bose_{form}[dim=64]/{b}" for form in ("form1", "form2") for b in HYPERBOLIC_BRACKETS]
    + [f"casimir/{name}" for name in CASIMIR_SUITE]
    + [f"transfo/E+^{b} P^{n} E-^{b} - (P-{b})^{n}" for b in (1, 2) for n in (1, 2, 3)]
    + [f"mapping[perelomov vs saf, lam={lam}]/delta[{g}]"
       for lam in ("0.6", "1", "2") for g in ("k0", "k+", "k-")]
    + ["reduction[eps=1,phi1=0.1,phi2=0.3]/max-spectral-deviation"]
    + LEDGER
)


class TestSuites:
    def _payload(self, command, capsys):
        assert main([command, "--rep", "all", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        return payload

    def test_check_all(self, capsys):
        payload = self._payload("check", capsys)
        assert len(CHECK_SUITE) == 55
        assert [c["name"] for c in payload["checks"]] == CHECK_SUITE
        ledger = {c["name"]: c for c in payload["checks"][-3:]}
        assert list(ledger) == LEDGER
        assert float(ledger[LEDGER[1]]["metadata"]["gap"]) == pytest.approx(
            2.0 ** 0.5 - 1.0, abs=1e-12
        )
        assert ledger[LEDGER[2]]["metadata"]["matches"] == "-1/4 - lam^2"

    def test_casimir_all(self, capsys):
        payload = self._payload("casimir", capsys)
        assert [c["name"] for c in payload["checks"]] == CASIMIR_SUITE
