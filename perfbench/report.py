"""Run every workload untraced once and traced twice, and print all metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workloads suite,spectral]

The workloads default to those of BENCHMARK.json; ``suite`` runs only when
named. For each workload it prints setup_s, pass_s, peak_rss_mb and error_rate by
name, with units and sample counts; then every per-layer metric of the first
traced run, with the tracing overhead, next to the second traced run's value.
The count metrics (``*_calls``, ``linops.matmul_gflop``,
``linops.construct_mb``, ``reduction.largest_matrix_mb``,
``algebra.kept_fraction``, ``reduction.pair_fraction``) must be identical in
the two traced runs. Exits 1 when one differs or an output was judged
incorrect. Each run is its own process, started by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    summary = json.loads(next(line for line in lines if line.startswith("summary "))[8:])
    return summary, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = parser.parse_args()

    ok = True
    row = "{:<12} {:<34} {:>22} {:<9} {}"
    print(row.format("workload", "metric", "value", "unit", "samples"))
    for workload in args.workloads.split(","):
        summary, result = run(workload, args.seed, args.seconds, 0)
        metrics = result["metrics"]
        passes, setup = summary["pass_s"], summary["setup_s"]
        print(row.format(workload, "setup_s", f"{metrics['setup_s']['value']:.4f}", "s",
                         f"median of {setup['samples']} fresh imports"))
        print(row.format(workload, "pass_s", f"{metrics['pass_s']['value']:.4f}", "s",
                         f"median of {passes['samples']} passes, q1 {passes['q1']:.4f} "
                         f"q3 {passes['q3']:.4f}"))
        print(row.format(workload, "peak_rss_mb", f"{metrics['peak_rss_mb']['value']:.1f}",
                         "MiB", "1 process high-water mark"))
        print(row.format(workload, "error_rate", f"{result['failed'] / result['attempted']:.4f}",
                         "ratio", f"{result['failed']} of {result['attempted']} invocations"))
        for problem in summary["problems"]:
            print(f"{'':12} problem: {problem}")
        ok &= result["correct"]

        (summary_a, traced_a), (_, traced_b) = (run(workload, args.seed, args.seconds, 1)
                                                for _ in range(2))
        a, b = traced_a["metrics"], traced_b["metrics"]
        for name, entry in a.items():
            same = name not in tracing.COUNT_METRICS or entry["value"] == b[name]["value"]
            ok &= same
            note = "" if name not in tracing.COUNT_METRICS else (
                "repeats" if same else f"DIFFERS: {b[name]['value']!r}")
            if name == "trace.overhead_s":
                note = (f"traced {summary_a['traced_pass_s']['median']:.4f} s vs untraced "
                        f"{summary_a['untraced_pass_s']['median']:.4f} s per pass")
            print(row.format(workload, name, f"{entry['value']:.6g}", entry["unit"],
                             note or f"second run {b[name]['value']:.6g}"))
        ok &= traced_a["correct"] and traced_b["correct"]
    print("counts repeat and outputs correct" if ok else "FAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
