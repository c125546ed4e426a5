"""tools/stdout_digest.py fingerprints the CLI output that must stay
byte-stable; these checks keep its argv list and its hashing honest."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import cli_lines  # noqa: E402
import stdout_digest  # noqa: E402
from su11kit.cli import main  # noqa: E402
from su11kit.linops import FockBasis, interior_projector  # noqa: E402
from test_cli import OVER_BUDGET  # noqa: E402


def test_covers_the_readme_in_every_format_and_the_float_edges():
    argvs = stdout_digest.invocations()
    for argv in stdout_digest.README:
        for fmt in stdout_digest.FORMATS:
            assert argv + ["--format", fmt] in argvs
    assert all(argv in argvs for argv in stdout_digest.BEYOND_FLOAT)
    assert all(argv in argvs for argv in stdout_digest.REFUSED)
    assert all(argv + ["--format", "json"] in argvs for argv in stdout_digest.BOSE_EDGES)
    assert stdout_digest.WIDE_VILLAIN + ["--format", "json"] in argvs
    assert stdout_digest.WIDE_REDUCE + ["--format", "json"] in argvs
    for beta in ("63", "64"):
        assert ["transfo", "--beta", beta, "--format", "json"] in argvs
    assert all(argv + ["--format", "json"] in argvs for argv in stdout_digest.MARGIN_ZERO)
    assert all(argv + ["--format", "json"] in argvs for argv in stdout_digest.FIRST_KEPT)
    assert all(argv + ["--format", "json"] in argvs
               for argv in stdout_digest.PERELOMOV_LATTICES)
    # Each budget refusal exits before it allocates, so it is cheap to run.
    assert all(argv in argvs for argv in OVER_BUDGET.values())
    assert ["casimir", "--rep", "villain", "--spin", "2.5", "--format", "csv"] in argvs


def test_readme_lists_the_command_lines_of_the_digest():
    # The first block under "## Command line", with the program name and any
    # --format dropped: the digest runs each line in every format.
    readme = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = readme.split("```", 2)[1]
    argvs = []
    for line in block.strip().splitlines():
        program, *argv = line.split()
        assert program == "su11kit"
        if "--format" in argv:
            at = argv.index("--format")
            del argv[at:at + 2]
        argvs.append(argv)
    assert argvs == stdout_digest.README


def test_readme_library_use_runs(capsys):
    # The first python block under "## Library use", run as it is printed,
    # so that it fails when the API it shows drifts.
    readme = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    opening, block, _ = readme.split("```", 2)
    assert opening.strip() == "" and block.startswith("python\n")
    exec(compile(block.removeprefix("python\n"), "README.md", "exec"), {})
    p0, h0, mass, deviation = capsys.readouterr().out.split()
    assert float(deviation) <= 1e-9


def test_digest_hashes_stdout_then_stderr_of_one_run():
    argv = ["transfo", "--beta", "0"]
    row = stdout_digest.digest(ROOT, argv)
    done = subprocess.run([sys.executable, "-m", "su11kit.cli", *argv], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"},
                          capture_output=True, timeout=120)
    assert row == {"argv": argv, "exit": 2,
                   "sha256": hashlib.sha256(done.stdout + done.stderr).hexdigest()}


def test_covers_casimir_of_every_rep_at_non_default_parameters():
    argvs = stdout_digest.invocations()
    assert {argv[2] for argv in stdout_digest.CASIMIR_PARAMS} == set(stdout_digest.REPS)
    for argv in stdout_digest.CASIMIR_PARAMS:
        assert argv[0] == "casimir" and len(argv) > 3
        assert argv + ["--format", "json"] in argvs


def test_covers_a_config_file_and_a_refused_one():
    argvs = stdout_digest.invocations()
    assert all(argv in argvs for argv in stdout_digest.CONFIGS)
    (accepted, *flags), (refused,) = (
        [json.loads(Path(argv[2]).read_text()), *argv[3:]] for argv in stdout_digest.CONFIGS)
    # A null keeps the default, 32.0 reads as the integer 32, and --margin
    # overrides the file's margin.
    assert None in accepted.values()
    assert isinstance(accepted["dim"], float) and accepted["dim"] == 32
    assert "margin" in accepted and "--margin" in flags
    assert refused == {"margin": 2.5}


def test_covers_each_size_below_its_least_value_and_an_unread_config():
    argvs = stdout_digest.invocations()
    assert all(argv in argvs for argv in stdout_digest.BELOW_LEAST)
    # Each list is appended after the ones before it, so that line N of an
    # older digest is still line N.
    tail = (stdout_digest.BELOW_LEAST + stdout_digest.UNREAD + stdout_digest.REDUCE_EDGES
            + stdout_digest.TWO_MODE_EDGES)
    assert argvs[-len(tail):] == tail
    *sizes, unread = stdout_digest.BELOW_LEAST
    assert [argv[-1] for argv in sizes] == ["1", "3", "15", "1"]
    assert unread[:2] == ["reduce", "--config"]
    assert json.loads(Path(unread[2]).read_text()) == {"dim": 1, "margin": -1}


def test_below_least_lines_exit_as_they_should(capsys):
    # Each size below its least value exits 2 with the message that names
    # it; the unread config prints what plain reduce prints.
    messages = ["count must be an integer >= 2, got 1",
                "dim must be an integer >= 4, got 3",
                "dim must be an integer >= 16, got 15",
                "n_pairs must be an integer >= 2, got 1"]
    *sizes, unread = stdout_digest.BELOW_LEAST
    for argv, message in zip(sizes, messages):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["reduce"]) == 0
    plain = capsys.readouterr()
    assert main(unread) == 0
    assert capsys.readouterr() == plain and plain.err == ""


def test_unread_lines_exit_as_they_should(capsys):
    # --rep all refuses an option its suites fix, an inexact spin is refused,
    # and reduce reads no key of another command's option, whatever it holds.
    *refused, unread = stdout_digest.UNREAD
    messages = ["--dim cannot be set with --rep all, whose suites fix it",
                "--fidelity cannot be set with --rep all, whose suites fix it",
                "spin must be a positive half-integer, got 0.5000000001"]
    for argv, message in zip(refused, messages):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"error: {message}\n")
    assert unread[:2] == ["reduce", "--config"]
    assert json.loads(Path(unread[2]).read_text()) == {
        "dim": 2.5, "k": "abc", "fidelity": "bogus", "rep": "nope"}
    assert main(["reduce"]) == 0
    plain = capsys.readouterr()
    assert main(unread) == 0
    assert capsys.readouterr() == plain and plain.err == ""


def test_reduce_edge_lines_exit_as_they_should(capsys):
    # A tighter gate fails the same measurement, levels near the float edge
    # fail on rounding, and overflowing levels or predictions are refused by name.
    tight, edge, overflow, predicted = stdout_digest.REDUCE_EDGES
    assert main(tight) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["tolerance"] == 1e-14
    assert main(edge) == 1
    assert json.loads(capsys.readouterr().out)["max_deviation"] == 7.61352657140625e+286
    assert main(overflow) == 2
    assert capsys.readouterr() == (
        "", "error: epsilon=1.0, phi1=1.0, phi2=1e+307 give non-finite levels at dim 102\n")
    assert main(predicted) == 2
    assert capsys.readouterr() == (
        "", "error: epsilon=-1e+150, phi1=0.0, phi2=1e-07 give non-finite predicted levels "
            "or deviations at n_pairs 16\n")


def test_two_mode_edge_lines_exit_as_they_should(capsys):
    # One kept state, a 2x2 kept block and one kept state of the Casimir
    # pass; margin 2 on four states per mode keeps none.
    *kept, empty = stdout_digest.TWO_MODE_EDGES
    for argv, states in zip(kept, (1, 4, 1)):
        dim, margin = (int(argv[argv.index(flag) + 1]) for flag in ("--dim", "--margin"))
        assert interior_projector(FockBasis((dim, dim)), margin).diagonal().sum() == states
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["overall_passed"]
    assert main(empty) == 2
    assert capsys.readouterr() == ("", "error: no interior states left on FockBasis(dims=(4, 4)) "
                                       "with margin 2 and 0 excluded states\n")


def test_keep_writes_each_stdout_by_digest_line(tmp_path, monkeypatch, capsys):
    argvs = [["transfo", "--beta", "0"], ["transfo", "--beta", "2", "--format", "json"]]
    monkeypatch.setattr(stdout_digest, "invocations", lambda: argvs)
    assert stdout_digest.main([str(ROOT)]) == 0
    plain = capsys.readouterr().out
    kept = tmp_path / "kept"
    assert stdout_digest.main(["--keep", str(kept), str(ROOT)]) == 0
    # The digest does not change with --keep.
    assert capsys.readouterr().out == plain
    assert sorted(p.name for p in kept.iterdir()) == ["001.out", "002.out"]
    for line, argv in enumerate(argvs, start=1):
        done = subprocess.run([sys.executable, "-m", "su11kit.cli", *argv], cwd=ROOT,
                              env={"PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"},
                              capture_output=True, timeout=120)
        assert (kept / f"{line:03d}.out").read_bytes() == done.stdout
    assert (kept / "002.out").read_bytes().startswith(b"{")


def test_cli_lines_lists_a_line_only_the_argvs_given_skip(monkeypatch, capsys):
    # reduce builds the two-oscillator Hamiltonian; transfo never does.
    source = (ROOT / "src" / "su11kit" / "reduction.py").read_text().splitlines()
    line = source.index("    hamiltonian = build_direct_hamiltonian(params, dim)") + 1
    entry = f"src/su11kit/reduction.py:{line}: "
    transfo = ["transfo", "--beta", "2", "--format", "json"]
    for argvs, listed in (([transfo, transfo], True),
                          ([transfo, ["reduce", "--pairs", "2"]], False)):
        monkeypatch.setattr(stdout_digest, "invocations", lambda: argvs)
        assert cli_lines.main([str(ROOT)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.startswith(entry) for row in rows) == listed


def test_cli_lines_credits_a_line_to_its_outermost_function(tmp_path):
    # Line 3 carries bytecode only in the generator expression; line 7 runs
    # at import, in a comprehension of the module body.
    module = tmp_path / "generator.py"
    module.write_text("def outer(xs):\n"
                      "    return max(abs(x)\n"
                      "               - abs(x + 1)\n"
                      "               for x in xs)\n"
                      "\n"
                      "\n"
                      "TABLE = [n * 2 for n in range(3)]\n")
    lines = cli_lines.statement_lines(module)
    assert 3 in lines and 7 not in lines
    assert set(lines.values()) == {"outer"}


UNREACHED_REASONS = ("refusal", "public-API edge", "read by perfbench/tracing.py until item 1",
                     "given a caller by item 4/7")


def test_every_unrun_line_is_listed_with_its_reason():
    # A fresh interpreter, as the tool runs alone: a cache that an earlier
    # test filled would hide the lines that fill it.
    listed = {}
    for row in (ROOT / "tools" / "unreached.txt").read_text().splitlines():
        if row and not row.startswith("#"):
            reason, path, function, source = row.split(" | ", 3)
            assert reason in UNREACHED_REASONS, row
            listed[(path, function, source)] = reason
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_lines.py"), str(ROOT)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    unrun = set()
    for row in done.stdout.splitlines():
        place, function, source = row.split(": ", 2)
        unrun.add((place.rsplit(":", 1)[0], function, source))
    assert sorted(unrun - listed.keys()) == [], "unrun lines missing from tools/unreached.txt"
    assert sorted(listed.keys() - unrun) == [], "lines in tools/unreached.txt that run or are gone"
