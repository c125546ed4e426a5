"""Fingerprint what su11kit prints, one JSON line per invocation.

    python tools/stdout_digest.py [--keep DIR] SRC_ROOT > digest.jsonl

SRC_ROOT is a checkout of this repository; the su11kit under its ``src`` is
the one that runs. Each line holds an argv, its exit code and the sha256 of
its stdout followed by its stderr. With ``--keep DIR``, the stdout of the
invocation on line N is also written to ``DIR/N.out`` (N from 001), so that
two runs whose digest lines differ can be compared number by number; the
digest itself is the same with and without it. The argv list is fixed by this file and
by the ``perfbench/workloads.py`` beside it, not by SRC_ROOT, so the digests
of two checkouts can be compared with ``diff``: a line differs exactly when
that invocation's bytes or exit code differ. The list covers

* every benchmark workload argv at seeds 1, 2 and 3;
* the README invocations, in text, json and csv;
* every ``--rep`` under ``check`` and ``casimir``, plus ``--fidelity both``
  and ``--spin 2.5`` for hp and villain, in text, json and csv;
* ``transfo`` at beta in {1, 2, 3, 5} and n in {1, 2, 3}, with and without
  ``--p-min 0.3 --margin beta``, in json;
* ``casimir`` of every ``--rep`` at non-default parameters, in json;
* a villain ``check`` on 65 536 momenta, of which 65 533 are clamp-excluded,
  in json;
* the band residuals at margin 0: a ``transfo`` that keeps every state and
  reports its boundary residual, and a villain ``check`` whose only dropped
  states are its clamp exclusions, in json;
* ``check`` and ``casimir`` of the bose forms at the edges of the kept block
  and of its row tiles: margin 0, odd dims, two kept states, a p0 with a
  negative imaginary part, a last tile of one row, a last tile of the upper
  triangle two rows by two columns, and margin 1, in json;
* the shift powers and pair count past float range, which once hung or
  exited with an unnamed message;
* the inputs refused with exit 2 because they could not be honoured: a
  lattice whose momenta are past 2^52, a margin given with ``--rep all``, and
  requests past the memory budget, which are refused before they allocate.
* a ``check --config`` file of this directory that holds a null, an
  integer-valued float and a key that a flag overrides, and one refused for
  a fractional margin.

Each invocation runs in its own interpreter, with one BLAS thread and an
80-column terminal; one that runs past TIMEOUT_S seconds is recorded with
the exit code "timeout".
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60
FORMATS = ("text", "json", "csv")
SEEDS = (1, 2, 3)

README = [
    ["check", "--rep", "saf", "--p0", "0.7+0.4i", "--dim", "64", "--margin", "2"],
    ["check", "--rep", "villain", "--fidelity", "as_printed", "--spin", "1"],
    ["check", "--rep", "all"],
    ["casimir", "--rep", "perelomov", "--lam", "1"],
    ["transfo", "--beta", "2", "--n", "3"],
    ["reduce", "--epsilon", "1", "--phi1", "0.1", "--phi2", "0.3", "--pairs", "16"],
]
REPS = ("mp", "hp", "villain", "saf", "perelomov", "bose1", "bose2", "two_mode", "all")
SPIN_EXTRAS = ([], ["--fidelity", "both"], ["--spin", "2.5"])
CASIMIR_PARAMS = [
    ["casimir", "--rep", "mp", "--k", "0.5", "--dim", "128"],
    ["casimir", "--rep", "hp", "--spin", "1.5", "--fidelity", "both"],
    ["casimir", "--rep", "villain", "--spin", "1.5", "--fidelity", "both"],
    ["casimir", "--rep", "saf", "--p0=-1.5+0.3i", "--dim", "96", "--margin", "3"],
    ["casimir", "--rep", "perelomov", "--lam", "2.5"],
    ["casimir", "--rep", "bose1", "--p0=0.2-0.7i", "--dim", "96", "--margin", "24",
     "--tol", "1e-3"],
    ["casimir", "--rep", "bose2", "--p0=0.2-0.7i", "--dim", "96", "--margin", "24",
     "--tol", "1e-3"],
    ["casimir", "--rep", "two_mode", "--dim", "9", "--margin", "1"],
    ["casimir", "--rep", "all", "--tol", "1e-9"],
]
# A wide villain lattice: every state but the spin-1 block's is clamp-excluded.
WIDE_VILLAIN = ["check", "--rep", "villain", "--dim", "65536"]
# Margin 0 on bands: every state kept, and only the clamp exclusions dropped.
MARGIN_ZERO = [["transfo", "--beta", "2", "--n", "3", "--margin", "0"],
               ["check", "--rep", "villain", "--spin", "2.5", "--margin", "0"]]
# The edges of the kept block on which the dense bose residuals are formed:
# every state kept, odd dims (kept and not), two kept states, a p0 below the
# real axis, and the edges of its row tiles: a last tile of one row (129 and
# 65 kept states), a last tile of the upper triangle of two rows by two
# columns (130 kept states), and margin 1, whose columns do not start on a
# BLAS column tile.
BOSE_EDGES = [[command, "--rep", rep, *flags]
              for command in ("check", "casimir") for rep in ("bose1", "bose2")
              for flags in (["--margin", "0"], ["--dim", "17"], ["--dim", "33"],
                            ["--dim", "33", "--margin", "0"], ["--dim", "16", "--margin", "7"],
                            ["--p0=0.3-0.8i", "--margin", "16"],
                            ["--dim", "129", "--margin", "0"], ["--dim", "130", "--margin", "0"],
                            ["--dim", "67", "--margin", "1"],
                            ["--margin", "1"])]
BEYOND_FLOAT = [
    ["transfo", "--beta", "1" + "0" * 400],
    ["transfo", "--beta", "1" + "0" * 104, "--n", "3"],
    ["reduce", "--pairs", "1" + "0" * 400],
]
REFUSED = [
    ["transfo", "--p-min", "1e300"],
    ["check", "--rep", "saf", "--p-min", "1e17"],
    ["check", "--rep", "all", "--margin", "40"],
    ["casimir", "--rep", "all", "--margin", "40"],
    ["check", "--rep", "bose1", "--dim", "200000"],
    ["check", "--rep", "bose1", "--dim", "9000"],
    ["check", "--rep", "bose1", "--dim", "8193"],
    ["check", "--rep", "two_mode", "--dim", "100000"],
    ["reduce", "--pairs", "100000"],
]

# Given by their path in this checkout, so that every SRC_ROOT reads the same
# files.
CONFIGS = [
    ["check", "--config", str(REPO / "tools" / "digest_config.json"), "--margin", "2",
     "--format", "json"],
    ["check", "--config", str(REPO / "tools" / "digest_config_refused.json")],
]


def _workload_argvs() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for name in workloads.WORKLOADS for seed in SEEDS
            for argv in workloads.invocations(name, seed)]


def invocations() -> list[list[str]]:
    """Every argv the digest covers, in the order it prints them."""
    reps = [[command, "--rep", rep, *extra]
            for command in ("check", "casimir") for rep in REPS
            for extra in (SPIN_EXTRAS if rep in ("hp", "villain") else ([],))]
    transfo = [["transfo", "--beta", str(beta), "--n", str(n), *extra, "--format", "json"]
               for beta in (1, 2, 3, 5) for n in (1, 2, 3)
               for extra in ([], ["--p-min", "0.3", "--margin", str(beta)])]
    return [*_workload_argvs(),
            *(argv + ["--format", fmt] for argv in README + reps for fmt in FORMATS),
            *transfo, *(argv + ["--format", "json"]
                        for argv in CASIMIR_PARAMS + [WIDE_VILLAIN] + MARGIN_ZERO
                        + BOSE_EDGES),
            *BEYOND_FLOAT, *REFUSED, *CONFIGS]


def digest(src_root: Path, argv: list[str], keep: Path | None = None) -> dict:
    """Run ``su11kit argv`` from ``src_root`` and fingerprint what it printed;
    write its stdout to the file ``keep`` as well, when one is given and the
    run finishes."""
    env = {**os.environ, "PYTHONPATH": str(src_root / "src"), "COLUMNS": "80",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "su11kit.cli", *argv], cwd=src_root,
                              env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"argv": argv, "exit": "timeout", "sha256": None}
    if keep is not None:
        keep.write_bytes(done.stdout)
    sha = hashlib.sha256(done.stdout + done.stderr).hexdigest()
    return {"argv": argv, "exit": done.returncode, "sha256": sha}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/stdout_digest.py")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also write the stdout of line N to DIR/N.out")
    parser.add_argument("src_root", type=Path, metavar="SRC_ROOT")
    args = parser.parse_args(argv)
    src_root = args.src_root.resolve()
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    for line, invocation in enumerate(invocations(), start=1):
        keep = None if args.keep is None else args.keep / f"{line:03d}.out"
        print(json.dumps(digest(src_root, invocation, keep)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
