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
    assert all(argv + ["--format", "json"] in argvs for argv in stdout_digest.MARGIN_ZERO)
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
