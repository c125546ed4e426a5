import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import su11kit

from su11kit.cli import (
    _OPTIONS,
    COMMANDS,
    RunConfig,
    format_complex,
    main,
    parse_args,
    parse_complex,
    run,
)
from su11kit.linops import BYTE_BUDGET, DENSE_ARRAYS, _require_budget


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

    @pytest.mark.parametrize("value", ["64", "64.0", '"64"'])
    def test_config_integer_forms(self, value, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(f'{{"rep": "saf", "dim": {value}}}')
        assert parse_args(["check", "--config", str(path)]).dim == 64

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_file_unknown_key(self, command, tmp_path, capsys):
        # A key of no option is refused, beside keys the command does not read.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"rep": "saf", "beta": 1.5, "surprise": 1}))
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "--config", str(path)])
        assert exc.value.code == 2
        assert "unknown keys in --config file: ['surprise']" in capsys.readouterr().err


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

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="^unknown command 'bogus'$"):
            run(RunConfig(command="bogus"))

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
        # A large offset is a truncation verdict, not a domain error.
        for rep in ("bose1", "bose2"):
            assert main(["check", "--rep", rep, "--p0=1e7-1e7i", "--dim", "64",
                         "--margin", "16", "--tol", "1e-3"]) == 1
            assert "FAIL" in capsys.readouterr().out

    def test_reduce_gates_the_deviation_with_its_tolerance(self, capsys):
        # The default couplings deviate by 4.26e-14 whatever the gate; only
        # the verdict follows --tol.
        runs = {}
        for tol, code in (("1e-14", 1), ("1", 0)):
            assert main(["reduce", "--tol", tol, "--format", "json"]) == code
            runs[tol] = json.loads(capsys.readouterr().out)
            assert runs[tol]["checks"][0]["tolerance"] == float(tol)
        tight, loose = runs["1e-14"], runs["1"]
        assert tight["max_deviation"] == loose["max_deviation"] == pytest.approx(4.26e-14, rel=1e-3)
        for key in ("spectra", "p0", "h0", "mass"):
            assert tight[key] == loose[key]

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


# A new interpreter imports su11kit from where this one did. The parser's help
# text wraps at the terminal width, which COLUMNS sets.
FIXED_WIDTH = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": str(Path(su11kit.__file__).resolve().parents[1])}
MAIN = "import sys; from su11kit.cli import main; raise SystemExit(main(sys.argv[1:]))"


def fresh_main(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", MAIN, *argv], env=FIXED_WIDTH,
                          capture_output=True, text=True, timeout=120, check=False)
    return done.returncode, done.stdout, done.stderr


class TestSharedParser:
    """One process parses every argv with the same parser, built once."""

    @pytest.fixture(scope="class")
    def argvs(self, tmp_path_factory):
        config = tmp_path_factory.mktemp("config") / "run.json"
        config.write_text('{"rep": "saf", "dim": 16, "format": "csv"}')
        return [
            ["check", "--rep", "saf", "--dim", "16"],  # passes
            ["check", "--rep", "villain", "--fidelity", "as_printed", "--spin", "1"],  # fails
            ["check", "--frobnicate", "1"],  # refused by argparse
            ["check", "--rep", "hp", "--spin", "0.7"],  # refused while resolving
            ["casimir", "--rep", "perelomov", "--lam", "0"],  # refused while running
            ["--help"],
            ["check", "--help"],
            ["check", "--config", str(config)],
            ["check", "--rep", "saf", "--dim", "16"],  # the first again
        ]

    @pytest.fixture(scope="class")
    def fresh(self, argvs):
        return [fresh_main(argv) for argv in argvs]

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_each_call_matches_a_fresh_process(self, argvs, fresh, order, capsys,
                                               monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        indices = range(len(argvs)) if order == "forward" else reversed(range(len(argvs)))
        for i in indices:
            code = main(argvs[i])
            out, err = capsys.readouterr()
            assert (code, out, err) == fresh[i], argvs[i]

    def test_import_builds_no_parser_and_parsing_builds_it_once(self):
        # Counts ArgumentParser constructions: none at import, the parser and
        # its four subparsers on the first parse, none on the second.
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import su11kit.cli\n"
            "print(len(built))\n"
            "su11kit.cli.parse_args(['check'])\n"
            "print(len(built))\n"
            "su11kit.cli.parse_args(['reduce'])\n"
            "print(len(built))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=FIXED_WIDTH,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.split() == ["0", "5", "5"]


@pytest.mark.parametrize("argv,code", [
    (["check", "--rep", "saf", "--dim", "16"], 0),
    (["check", "--rep", "villain", "--fidelity", "as_printed", "--spin", "1"], 1),
])
def test_closed_stdout_exits_quietly_with_the_run_code(argv, code):
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        done = subprocess.run([sys.executable, "-c", MAIN, *argv], stdout=write,
                              stderr=subprocess.PIPE, env=FIXED_WIDTH, timeout=120, check=False)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, b"")


# A value of each option that is not its default, as a flag would give it.
OPTION_SAMPLES = {
    "rep": "mp", "k": "0.5", "spin": "1.5", "p0": "0.2-0.7i", "lam": "2", "beta": "2",
    "n": "3", "dim": "32", "p_min": "-9", "fidelity": "as_printed", "epsilon": "0.5",
    "phi1": "0.2", "phi2": "0.4", "pairs": "8", "margin": "3", "tol": "1e-8",
    "format": "json",
}
TAKEN = [(command, key) for key, (_, _, commands, _) in _OPTIONS.items() for command in commands]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _base_argv(command: str, key: str) -> list[str]:
    # The default --rep all refuses every option but rep, tol and format.
    if command in ("check", "casimir") and key != "rep":
        return [command, "--rep", "saf"]
    return [command]


class TestOptionTable:
    """Each row of the option table gives one flag of each command it names,
    read as the same key of a --config file is read."""

    @pytest.mark.parametrize("command,key", TAKEN, ids=[f"{c}-{k}" for c, k in TAKEN])
    def test_flag_and_config_key_resolve_alike(self, command, key, tmp_path):
        base, text = _base_argv(command, key), OPTION_SAMPLES[key]
        try:
            value = json.loads(text)  # a JSON number where the text is one
        except ValueError:
            value = text
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        by_flag = parse_args(base + [f"{_flag(key)}={text}"])
        assert by_flag == parse_args(base + ["--config", str(path)])
        assert by_flag != parse_args(base)

    @pytest.mark.parametrize("key", _OPTIONS)
    def test_config_null_keeps_the_default(self, key, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: None}))
        for command in COMMANDS:
            base = _base_argv(command, key)
            assert parse_args(base + ["--config", str(path)]) == parse_args(base)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_the_options_of_the_command(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"]) == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        assert listed == ["--help", *(_flag(key) for key, (_, _, commands, _) in _OPTIONS.items()
                                      if command in commands), "--config"]
        assert ("--margin" in listed) == (command != "reduce")


# Every option that check and casimir take, but --rep all does not: its suites
# fix each one.
SUITE_FIXED = [(command, key) for command, key in TAKEN
               if command in ("check", "casimir") and key not in ("rep", "tol", "format")]


class TestRepAll:
    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command,key", SUITE_FIXED, ids=[f"{c}-{k}" for c, k in SUITE_FIXED])
    def test_an_option_the_suites_fix_exits_2(self, command, key, given, tmp_path, capsys):
        argv = [command, "--rep", "all"]
        if given == "flag":
            argv.append(f"{_flag(key)}={OPTION_SAMPLES[key]}")
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({key: OPTION_SAMPLES[key]}))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: {_flag(key)} cannot be set with --rep all, whose suites fix it\n")

    def test_the_first_option_in_table_order_is_named(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"rep": "all", "margin": 3, "dim": "abc"}')
        assert main(["casimir", "--config", str(path), "--k", "0.5"]) == 2
        assert "error: --k cannot be set with --rep all" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "casimir"])
    def test_echoes_only_the_rep_and_tolerance(self, command, capsys):
        assert main([command, "--rep", "all", "--tol", "1e-9"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "params: rep=all tolerance=1e-09"

    @pytest.mark.parametrize("command", ["check", "casimir"])
    def test_tol_and_format_still_run(self, command, capsys):
        assert main([command, "--rep", "all", "--tol", "1e-9", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "name,residual,tolerance,passed"
        assert len(rows) > 1 and all(row.endswith(",True") for row in rows[1:])
        assert ",1e-09," in rows[1]  # the tolerance of the families with none of their own


# Spin 1/2 on a lattice whose margin-2 interior is all clamp-excluded.
CLAMPED_INTERIOR = ["check", "--rep", "villain", "--spin", "0.5", "--p-min=-0.5",
                    "--dim", "20", "--margin", "2"]

# The smallest bose dim whose DENSE_ARRAYS dense arrays, the most a bose1
# build or check holds at its peak, would pass the memory budget, and a larger
# one at which a single such array would still fit.
BOSE_JUST_OVER = math.isqrt(BYTE_BUDGET // (16 * DENSE_ARRAYS)) + 1
BOSE_WORKING_SET = 9000
# Invocations whose operators would not fit the memory budget: the dense
# 200000^2 matrices a bose1 build or check holds at its peak (over 1000 GiB),
# the bose working set at the two dims above, band vectors of 10^10 two-mode
# states, and band vectors of more bytes than a float can hold.
OVER_BUDGET = {
    "bose1-dense-over-budget": ["check", "--rep", "bose1", "--dim", "200000"],
    "bose1-dense-working-set": ["check", "--rep", "bose1", "--dim", str(BOSE_WORKING_SET)],
    "bose1-dense-just-over-budget": ["check", "--rep", "bose1", "--dim", str(BOSE_JUST_OVER)],
    "two_mode-over-budget": ["check", "--rep", "two_mode", "--dim", "100000"],
    "reduce-over-budget": ["reduce", "--pairs", "100000"],
    "reduce-pairs-beyond-float": ["reduce", "--pairs", "1" + "0" * 400],
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
    pytest.param(["check", "--rep", "saf", "--tol", "inf"], None, id="tol-inf"),
    pytest.param(["reduce", "--tol", "inf"], None, id="reduce-tol-inf"),
    pytest.param(["reduce", "--phi1", "0.5", "--phi2", "-1"], None, id="singular-coupling"),
    pytest.param(["reduce", "--pairs", "1"], None, id="pairs"),
    pytest.param(["transfo", "--beta", "0"], None, id="beta"),
    pytest.param(["transfo", "--n", "4"], None, id="n"),
    pytest.param(["check", "--rep", "hp", "--spin", "1", "--dim", "5"], None, id="hp-dim"),
    pytest.param(["check"], "<missing>", id="config-missing"),
    pytest.param(["check"], "<dir>", id="config-unreadable"),
    pytest.param(["check"], "[1]", id="config-not-object"),
    pytest.param(["check"], '{"format": "xml"}', id="config-format-unknown"),
    pytest.param(["check", "--rep", "saf", "--p0", ""], None, id="p0-empty"),
    pytest.param(["check"], '{"spin": [1]}', id="config-spin-list"),
    pytest.param(["check"], '{"p0": [1]}', id="config-p0-list"),
    pytest.param(["check"], '{"margin": 2.5}', id="config-margin-fraction"),
    pytest.param(["check"], '{"dim": 64.9}', id="config-dim-fraction"),
    pytest.param(["reduce"], '{"pairs": 16.9}', id="config-pairs-fraction"),
    pytest.param(["transfo"], '{"beta": 1.5}', id="config-beta-fraction"),
    pytest.param(["check"], '{"margin": true}', id="config-margin-bool"),
    pytest.param(["check"], '{"dim": "64.5"}', id="config-dim-string-fraction"),
    pytest.param(["check", "--rep", "mp"], '{"k": true, "tol": true}', id="config-k-bool"),
    pytest.param(["check", "--rep", "mp"], '{"tol": true}', id="config-tol-bool"),
    pytest.param(["check", "--rep", "mp"], '{"k": "abc"}', id="config-k-string"),
    pytest.param(["check", "--rep", "mp"], '{"tol": "abc"}', id="config-tol-string"),
    pytest.param(["check", "--rep", "saf", "--dim", "abc"], None, id="dim-string"),
    pytest.param(["reduce", "--margin", "3"], None, id="reduce-margin"),
    pytest.param(["check", "--rep", "saf"], '{"p0": true}', id="config-p0-bool"),
    pytest.param(["casimir", "--rep", "perelomov"], '{"lam": false}', id="config-lam-bool"),
    pytest.param(["reduce"], '{"phi2": false}', id="config-phi2-bool"),
    pytest.param(["check", "--rep", "hp", "--spin", "1.7e308"], None, id="hp-spin-overflow"),
    pytest.param(["check", "--rep", "villain", "--spin", "1.7e308"], None,
                 id="villain-spin-overflow"),
    pytest.param(["check", "--rep", "saf", "--dim", "1" + "0" * 400], None,
                 id="dim-beyond-float"),
    pytest.param(["transfo"], '{"dim": 1' + "0" * 400 + "}", id="config-dim-beyond-float"),
    pytest.param(["transfo"], '{"dim": 1}', id="transfo-config-dim"),
    *(pytest.param([*argv, "--dim=-1" + "0" * 400], None, id=f"{argv[-1]}-dim-below-float")
      for argv in (["transfo"], ["check", "--rep", "mp"], ["casimir", "--rep", "saf"])),
    pytest.param(["transfo", "--beta", "1" + "0" * 400], None, id="beta-beyond-float"),
    pytest.param(["transfo", "--beta", "1" + "0" * 104, "--n", "3"], None,
                 id="beta-power-overflow"),
    pytest.param(["check", "--rep", "hp", "--spin", "inf"], None, id="hp-spin-inf"),
    pytest.param(["check", "--rep", "villain", "--spin", "1", "--p-min", "inf"], None,
                 id="villain-p-min-inf"),
    pytest.param(["reduce", "--epsilon", "1e300", "--pairs", "4"], None,
                 id="reduce-epsilon-overflow"),
    # Finite couplings whose two-oscillator levels overflow at 102 states a mode.
    pytest.param(["reduce", "--epsilon", "1", "--phi1", "1", "--phi2", "1e307", "--pairs", "100"],
                 None, id="reduce-levels-overflow"),
    # Finite couplings, P0, H0 and m whose free-particle prediction overflows.
    pytest.param(["reduce", "--epsilon=-1e150", "--phi1", "0", "--phi2", "1e-7"], None,
                 id="reduce-prediction-overflow"),
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
    pytest.param(["transfo", "--p-min", "1e300"], None, id="transfo-p-min-inexact"),
    pytest.param(["check", "--rep", "saf", "--p-min", "1e17"], None, id="saf-p-min-inexact"),
    pytest.param(["check", "--rep", "all", "--margin", "40"], None, id="check-all-margin"),
    pytest.param(["casimir", "--rep", "all", "--margin", "40"], None, id="casimir-all-margin"),
    pytest.param(["casimir"], '{"margin": 3}', id="config-all-margin"),
    pytest.param(CLAMPED_INTERIOR, None, id="check-no-interior"),
    pytest.param(["casimir"] + CLAMPED_INTERIOR[1:], None, id="casimir-no-interior"),
    *(pytest.param(argv, None, id=case) for case, argv in OVER_BUDGET.items()),
]


# Cases whose message must name the offending parameter or size, by case id.
NAMED_PARAMETER = {
    "config-not-object": "must hold a JSON object",
    "config-format-unknown": "--format must be one of ('text', 'json', 'csv'), got 'xml'",
    "p0-empty": "--p0 is not a finite number: ''",
    "config-margin-fraction": "margin",
    "tol-inf": "tolerance must be finite and > 0, got inf",
    "reduce-tol-inf": "tolerance must be finite and > 0, got inf",
    "config-dim-fraction": "dim",
    "config-pairs-fraction": "pairs",
    "config-beta-fraction": "beta",
    "config-margin-bool": "margin",
    "config-dim-string-fraction": "dim",
    "config-k-bool": "value for k is",
    "config-tol-bool": "value for tol is",
    "config-k-string": "--config value for k is not a finite number: 'abc'",
    "config-tol-string": "--config value for tol is not a finite number: 'abc'",
    "dim-string": "--dim is not an integer: 'abc'",
    "reduce-margin": "unrecognized arguments: --margin 3",
    "config-p0-bool": "value for p0 is",
    "config-lam-bool": "value for lam is",
    "config-phi2-bool": "value for phi2 is",
    "hp-spin-overflow": "spin must be",
    "villain-spin-overflow": "spin must be",
    "dim": "count must be an integer >= 2, got 1",
    "pairs": "n_pairs must be an integer >= 2, got 1",
    "dim-beyond-float": "--dim must be",
    "config-dim-beyond-float": "--dim must be",
    "transfo-config-dim": "count must be an integer >= 2, got 1",
    "transfo-dim-below-float": "--dim must be at most 1.8e+308 in size, got -1.00e+400",
    "mp-dim-below-float": "--dim must be at most 1.8e+308 in size, got -1.00e+400",
    "saf-dim-below-float": "--dim must be at most 1.8e+308 in size, got -1.00e+400",
    "beta-beyond-float": "beta = 1.00e+400",
    "beta-power-overflow": "beta = 1.00e+104",
    "hp-spin-inf": "spin",
    "villain-p-min-inf": "p_min",
    "reduce-epsilon-overflow": "epsilon",
    "reduce-levels-overflow": "epsilon=1.0, phi1=1.0, phi2=1e+307 give non-finite levels "
                              "at dim 102",
    "reduce-prediction-overflow": "epsilon=-1e+150, phi1=0.0, phi2=1e-07 give non-finite "
                                  "predicted levels or deviations at n_pairs 16",
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
    "transfo-p-min-inexact": "p_min",
    "saf-p-min-inexact": "p_min",
    "check-all-margin": "margin",
    "casimir-all-margin": "margin",
    "config-all-margin": "margin",
    "bose1-dense-over-budget": "200000x200000",
    "bose1-dense-working-set": f"{DENSE_ARRAYS} dense {BOSE_WORKING_SET}x{BOSE_WORKING_SET}",
    "bose1-dense-just-over-budget": f"{DENSE_ARRAYS} dense {BOSE_JUST_OVER}x{BOSE_JUST_OVER} "
                                    "complex matrices would take 2.0005 GiB",
    "two_mode-over-budget": "10000000000 states",
    "reduce-over-budget": "10000400004 states",
    "reduce-pairs-beyond-float": "1.00e+400 states",
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

    def test_bose_budget_edges(self):
        # The last bose dim whose working set fits clears the budget check;
        # the working-set dim fails it, though one of its arrays alone fits.
        _require_budget(16 * DENSE_ARRAYS * (BOSE_JUST_OVER - 1) ** 2, "{}", BOSE_JUST_OVER - 1)
        assert 16 * BOSE_WORKING_SET ** 2 <= BYTE_BUDGET < 16 * DENSE_ARRAYS * BOSE_WORKING_SET ** 2
        assert BOSE_JUST_OVER < BOSE_WORKING_SET

    @pytest.mark.parametrize("argv", OVER_BUDGET.values(), ids=OVER_BUDGET.keys())
    def test_over_budget_allocates_nothing_large(self, argv, capsys):
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert "memory budget" in err
        assert peak < 2 ** 28
        # The size shown is past the 2 GiB budget, however close the request.
        assert float(re.search(r"would take (\S+) GiB", err).group(1)) > 2

    @pytest.mark.parametrize("argv", [
        ["check", "--config", str(Path(__file__).resolve().parents[1] / "tools"
                                  / "digest_config_refused.json")],
        ["reduce", "--phi1", "0.5", "--phi2", "-1"],
        # Refused before the 2048-state bose triple is built.
        ["check", "--rep", "bose1", "--dim", "2048", "--margin", "512", "--tol", "1e309"],
    ], ids=["check-config", "reduce-coupling", "check-tol-beyond-float"])
    def test_resolve_refusal_shows_the_usage_of_the_command(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: su11kit {argv[0]} ")
        assert f"su11kit {argv[0]}: error: " in err

    def test_budget_message_abbreviates_long_numbers(self, capsys):
        # The state count of spin 1e200 has 201 digits.
        assert main(["check", "--rep", "hp", "--spin", "1e200"]) == 2
        err = capsys.readouterr().err
        assert "2.00e+200 states" in err and "memory budget" in err
        assert len(err) < 120


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

    @pytest.mark.parametrize("config", ['{"rep": "hp", "dim": 5}', '{"spin": 0.7}',
                                        '{"dim": 1}', '{"margin": -1}',
                                        pytest.param('{"dim": 1' + "0" * 400 + "}",
                                                     id="dim-beyond-float"),
                                        '{"dim": 2.5, "k": "abc", "fidelity": "bogus", '
                                        '"rep": "nope"}'])
    def test_reduce_ignores_the_rep_keys(self, config, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(config)
        assert main(["reduce", "--config", str(path)]) == 0
        with_config = capsys.readouterr().out
        assert main(["reduce"]) == 0
        assert with_config == capsys.readouterr().out

    @pytest.mark.parametrize("config", ['{"k": "abc", "pairs": 1.5}',
                                        '{"rep": "nope", "fidelity": true, "phi2": "x"}'])
    def test_transfo_ignores_the_keys_of_other_commands(self, config, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(config)
        assert main(["transfo", "--config", str(path)]) == 0
        with_config = capsys.readouterr()
        assert main(["transfo"]) == 0
        assert with_config == capsys.readouterr()

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

    @pytest.mark.parametrize("command", ["check", "casimir"])
    @pytest.mark.parametrize("rep,keys", [
        ("mp", ["k", "dim"]),
        ("hp", ["spin", "fidelity", "dim"]),
        ("villain", ["spin", "fidelity", "dim"]),
        ("saf", ["p0", "dim"]),
        ("perelomov", ["lam", "dim"]),
        ("bose1", ["p0", "dim"]),
        ("bose2", ["p0", "dim"]),
        ("two_mode", ["dim"]),
        ("all", []),
    ])
    def test_echoed_keys_of_each_rep(self, command, rep, keys):
        argv = [command, "--rep", rep, "--format", "json"]
        output, _ = run(parse_args(argv))
        # --rep all reads no margin: its suites run each row at its own.
        margin = [] if rep == "all" else ["margin"]
        assert list(json.loads(output)["params"]) == ["rep", *keys, *margin, "tolerance"]
        if rep in ("villain", "saf", "perelomov"):
            output, _ = run(parse_args(argv + ["--p-min=-9"]))
            params = json.loads(output)["params"]
            assert list(params) == ["rep", *keys, "p_min", "margin", "tolerance"]
            assert params["p_min"] == -9.0

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
        # Only the fields the suites read are echoed; an option they fix exits
        # 2 (TestRepAll).
        assert payload["params"] == {"rep": "all", "tolerance": 1e-10}
        return payload

    def test_check_all(self, capsys):
        payload = self._payload("check", capsys)
        assert len(CHECK_SUITE) == 55
        assert [c["name"] for c in payload["checks"]] == CHECK_SUITE
        aggregated = {c["name"].rsplit("/", 1)[0]: c["metadata"].get("aggregated_over")
                      for c in payload["checks"]}
        assert aggregated["saf[25-point P0 grid]"] == "25"
        assert aggregated["hp[corrected,S in {1/2,1,5/2}]"] == "3"
        assert aggregated["mp[k=1]"] is None and aggregated["casimir/mp[k=1.75]"] is None
        ledger = {c["name"]: c for c in payload["checks"][-3:]}
        assert list(ledger) == LEDGER
        assert float(ledger[LEDGER[1]]["metadata"]["gap"]) == pytest.approx(
            2.0 ** 0.5 - 1.0, abs=1e-12
        )
        assert ledger[LEDGER[2]]["metadata"]["matches"] == "-1/4 - lam^2"

    def test_casimir_all(self, capsys):
        payload = self._payload("casimir", capsys)
        assert [c["name"] for c in payload["checks"]] == CASIMIR_SUITE


P0_AXIS = (-1.0, -0.3, 0.0, 0.7, 2.0)
SPINS = ("0.5", "1", "2.5")
BOSE_FLAGS = ["--p0", "0.5+1i", "--margin", "16", "--tol", "1e-3"]
# Each --rep all family: its command, label and rep, and the flags of the
# single-rep run of each of its triples.
SUITE_FAMILIES = [
    *(("check", f"mp[k={k}]", "mp", [["--k", k]]) for k in ("0.5", "1", "1.75")),
    ("check", "saf[25-point P0 grid]", "saf",
     [[f"--p0={format_complex(complex(re, im))}"] for re in P0_AXIS for im in P0_AXIS]),
    ("check", "perelomov[lam in {0.6,1,2}]", "perelomov",
     [["--lam", lam] for lam in ("0.6", "1", "2")]),
    ("check", "two_mode[24x24]", "two_mode", [[]]),
    ("check", "hp[corrected,S in {1/2,1,5/2}]", "hp", [["--spin", s] for s in SPINS]),
    ("check", "villain[corrected,S in {1/2,1,5/2}]", "villain", [["--spin", s] for s in SPINS]),
    ("check", "bose_form1[dim=64]", "bose1", [BOSE_FLAGS]),
    ("check", "bose_form2[dim=64]", "bose2", [BOSE_FLAGS]),
    ("casimir", "mp[k=1.75]", "mp", [["--k", "1.75"]]),
    ("casimir", "saf[p0=0.5+1i]", "saf", [["--p0", "0.5+1i"]]),
    ("casimir", "perelomov[lam=1]", "perelomov", [["--lam", "1"]]),
    ("casimir", "two_mode[24x24]", "two_mode", [[]]),
    ("casimir", "hp[corrected,S=5/2]", "hp", [["--spin", "2.5"]]),
    ("casimir", "villain[corrected,S=5/2]", "villain", [["--spin", "2.5"]]),
]


@functools.cache
def _suite_checks(command):
    output, code = run(parse_args([command, "--rep", "all", "--format", "json"]))
    assert code == 0
    return json.loads(output)["checks"]


@pytest.mark.parametrize("command,label,rep,flag_sets", SUITE_FAMILIES,
                         ids=[f"{family[0]}-{family[1]}" for family in SUITE_FAMILIES])
def test_suite_family_is_the_worst_single_rep_run(command, label, rep, flag_sets, capsys):
    singles = []
    for flags in flag_sets:
        assert main([command, "--rep", rep, *flags, "--format", "json"]) == 0
        singles.append(json.loads(capsys.readouterr().out)["checks"])
    # A casimir family appears in both suites, under casimir/ in the check suite.
    prefixes = [f"{label}/"] + ([f"casimir/{label}/"] if command == "casimir" else [])
    for prefix, suite in zip(prefixes, (_suite_checks(command), _suite_checks("check"))):
        family = [c for c in suite if c["name"].startswith(prefix)]
        assert len(family) == len(singles[0]) > 0
        for i, check in enumerate(family):
            assert check["residual"] == max(single[i]["residual"] for single in singles)
            assert check["tolerance"] == singles[0][i]["tolerance"]
            assert check["metadata"].get("aggregated_over") == (
                str(len(singles)) if len(singles) > 1 else None)
