"""su11kit benchmark: one workload in one process, as a closed loop.

    python3 perfbench/run.py --workload dense_large --seed 1 --seconds 20 --trace 0

One caller drives ``su11kit.cli.main(argv)`` in-process with ``--format
json``, sending the next invocation only when the previous one has returned.
A pass is one run through the workload's invocation list (see
``workloads.py``); passes repeat until ``--seconds`` have elapsed. BLAS and
OpenMP are pinned to one thread before numpy loads. The package is imported
from ``src/`` of the checkout this file sits in; without it the benchmark
exits with code 2 and prints no result.

Every output is judged by ``oracle.py``. ``failed`` counts invocations whose
exit code, per-check verdicts or numbers disagree with the oracle, or whose
output differs from the first pass; ``attempted`` counts all invocations run;
their ratio is the error rate. ``correct`` is false when an output is
unreadable, not reproducible, or carries a wrong number; a verdict that
disagrees while the numbers are right (an absolute gate failing an identity
that holds up to rounding) counts in ``failed`` only.

--trace 0 reports pass_s (median seconds per pass), peak_rss_mb (this
process's getrusage high-water mark) and setup_s (median time for a fresh
interpreter to import su11kit and su11kit.cli; the samples are taken between
passes, spread over the run). --trace 1 runs one cold pass, then alternates
untraced and traced passes, derives per-layer metrics from the spans of the
traced ones (``tracing.py``), reports the tracing overhead against the
untraced passes on either side, and sweeps matrix dimension to fit a scaling
exponent per layer. Spans are written to ``.perfbench/`` at the end. The
last line of stdout is the result object; the lines before it give
provenance and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The import takes about 0.1 s, and the host's speed drifts in phases of tens
# of seconds, so setup_s takes many samples and spreads them over the run.
SETUP_SAMPLES = 41
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import su11kit, su11kit.cli; d = time.perf_counter() - t; "
    "assert su11kit.__file__.startswith(sys.argv[1]); print(repr(d))"
)
# A sweep point repeats until it has run this long, so small sizes are not
# timed from a single call.
SWEEP_POINT_SECONDS = 0.3
SWEEP_MAX_REPEATS = 20
SWEEP_PASS_BASE = 1_000_000


def invoke(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an error of this invocation; keep measuring
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Runs passes over one invocation list and judges every output."""

    def __init__(self, cli, judge, invocations: list[list[str]]) -> None:
        self.cli, self.judge, self.invocations = cli, judge, invocations
        self.reference: list[tuple | None] = [None] * len(invocations)
        self.attempted = self.failed = 0
        self.correct = True
        self.reasons: list[str] = []

    def one_pass(self) -> float:
        start = perf_counter()
        results = [invoke(self.cli, argv) for argv in self.invocations]
        elapsed = perf_counter() - start
        for i, (code, stdout, stderr) in enumerate(results):
            self.attempted += 1
            if self.reference[i] is None:
                verdicts_ok, numbers_ok, reasons = self.judge(self.invocations[i], code, stdout)
                if stderr:
                    reasons.append(f"stderr: {stderr.strip()}")
                self.reference[i] = (code, stdout, verdicts_ok, numbers_ok)
                self.correct &= numbers_ok
                if reasons:
                    self.reasons.append(f"{' '.join(self.invocations[i])}: {'; '.join(reasons)}")
            ref_code, ref_stdout, verdicts_ok, numbers_ok = self.reference[i]
            if (code, stdout) != (ref_code, ref_stdout):
                self.correct = False
                verdicts_ok = False
                self.reasons.append(f"{' '.join(self.invocations[i])}: output differs from pass 1")
            self.failed += not (verdicts_ok and numbers_ok)
        return elapsed


def setup_sample() -> float:
    """Import time of su11kit and su11kit.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          env={**os.environ, **PINS}, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {}
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_pins": {k: os.environ.get(k) for k in PINS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
        "loop": "closed, one caller, in-process",
    }


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "samples": len(values)}


def run_untraced(loop: Loop, seconds: float) -> tuple[dict, dict]:
    setup_sample()  # may compile bytecode; not kept
    # No warm-up pass: the median of the passes discounts the first one, which
    # pays for lazy imports, and the long passes cannot afford an extra pass.
    # The window counts pass time only. Before each pass, setup samples catch
    # up with the share of the window already run, so they cover it evenly.
    setup, times = [], []
    while not times or sum(times) < seconds:
        due = round(SETUP_SAMPLES * sum(times) / seconds)
        setup.extend(setup_sample() for _ in range(due - len(setup)))
        times.append(loop.one_pass())
    setup.extend(setup_sample() for _ in range(SETUP_SAMPLES - len(setup)))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"pass_s": quartiles(times), "setup_s": quartiles(setup)}
    metrics = {
        "pass_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return metrics, summary


def run_traced(loop: Loop, seconds: float, workload: str, seed: int) -> tuple[dict, dict]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    # The first pass is cold (lazy imports, first-touch pages): it is judged
    # but not timed. Untraced and traced passes then alternate, starting and
    # ending untraced, so each traced pass has an untraced pass on either side.
    # Traced pass i has pass id i.
    start = perf_counter()
    loop.one_pass()
    plain, traced = [loop.one_pass()], []
    while not traced or perf_counter() - start < seconds:
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            traced.append(loop.one_pass())
        finally:
            tracer.uninstall()
        plain.append(loop.one_pass())

    # Size sweep: each repeat of each point gets its own pass id.
    sweep_ids: list[tuple[str, int, list[int]]] = []
    next_id = SWEEP_PASS_BASE
    tracer.install()
    try:
        for size_set, n, argvs in workloads.sweep():
            ids, began = [], perf_counter()
            while not ids or (perf_counter() - began < SWEEP_POINT_SECONDS
                              and len(ids) < SWEEP_MAX_REPEATS):
                tracer.pass_id = next_id
                for argv in argvs:
                    invoke(loop.cli, argv)
                ids.append(next_id)
                next_id += 1
            sweep_ids.append((size_set, n, ids))
    finally:
        tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")

    spans = tracer.spans
    own = tracing.self_times(spans)
    groups = tracing.by_pass(spans)
    layers, repeat = tracing.summarize(
        [tracing.layer_metrics(spans, own, groups[i]) for i in range(len(traced))])
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS}
    # Each traced pass against the mean of its two neighbours, which cancels a
    # steady drift of the host's speed over the three passes.
    overhead = statistics.median(t - (before + after) / 2
                                 for t, before, after in zip(traced, plain, plain[1:]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    point_times = {}
    for size_set, n, ids in sweep_ids:
        per_repeat = [tracing.layer_metrics(spans, own, groups[i]) for i in ids]
        point_times[(size_set, n)] = {
            layer: statistics.median(m[f"{layer}_s"] for m in per_repeat)
            for layer in tracing.EXPONENTS}
    for layer, size_set in tracing.EXPONENTS.items():
        points = [(n, times[layer]) for (s, n), times in point_times.items() if s == size_set]
        metrics[f"{layer}.exponent"] = {"value": tracing.fit_exponent(points), "unit": "exponent"}

    summary = {
        "untraced_pass_s": quartiles(plain),
        "traced_pass_s": quartiles(traced),
        "counts_repeat_between_passes": repeat,
        "sweep": {f"{s}:{n}": {"repeats": len(ids)} for s, n, ids in sweep_ids},
        "spans": len(spans),
    }
    return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "su11kit" / "__init__.py").is_file():
        print(f"error: no su11kit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINS)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import su11kit.cli
    if not Path(su11kit.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: su11kit was imported from {su11kit.cli.__file__}", file=sys.stderr)
        return 2

    import oracle
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    loop = Loop(su11kit.cli, oracle.judge, workloads.invocations(args.workload, args.seed))
    if args.trace:
        metrics, summary = run_traced(loop, args.seconds, args.workload, args.seed)
    else:
        metrics, summary = run_untraced(loop, args.seconds)

    summary.update(attempted=loop.attempted, failed=loop.failed,
                   error_rate=loop.failed / loop.attempted, problems=loop.reasons)
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": loop.correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
