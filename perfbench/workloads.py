"""Seeded invocation lists for each benchmark workload.

A workload is a list of ``su11kit`` argv lists that make up one pass. Every
parameter the program sees is drawn here from the workload seed, so the same
seed gives the same argv. Values are written with ``--flag=value`` because
argparse reads a leading ``-`` in ``--p0 -1.5+0.3i`` as a new option.
"""

from __future__ import annotations

import random

JSON = ["--format", "json"]


def _p0(rng: random.Random, bound: float) -> str:
    return f"{rng.uniform(-bound, bound):.6f}{rng.uniform(-bound, bound):+.6f}i"


def _model(rng: random.Random) -> list[str]:
    """(epsilon, phi1, phi2) from uniform(-1, 1)^3, rejecting |2 phi1 + phi2| < 0.05,
    the rule of the acceptance test for the reduction."""
    while True:
        eps, phi1, phi2 = (rng.uniform(-1.0, 1.0) for _ in range(3))
        if abs(2.0 * phi1 + phi2) >= 0.05:
            return [f"--epsilon={eps!r}", f"--phi1={phi1!r}", f"--phi2={phi2!r}"]


def suite(rng: random.Random) -> list[list[str]]:
    # Many small operands: per-call overhead (OperatorMatrix construction,
    # small matmuls, argparse, rendering) dominates. Not among the workloads
    # of BENCHMARK.json: interpreter-bound code follows the host's speed
    # phases, and ten run medians spread by up to 0.31 of their median. Its
    # traced counts still repeat exactly.
    return [
        ["check", "--rep", "all"],
        ["casimir", "--rep", "all"],
        ["check", "--rep", "saf", f"--p0={_p0(rng, 2.0)}", "--dim", "64"],
        ["check", "--rep", "mp", f"--k={rng.uniform(0.25, 3.0):.6f}"],
        ["casimir", "--rep", "perelomov", f"--lam={rng.uniform(0.2, 3.0):.6f}"],
        ["transfo", "--beta", "2", "--n", "3"],
        ["reduce", *_model(rng), "--pairs", "16"],
        ["check", "--rep", "villain", "--fidelity", "as_printed", "--spin", "1"],
        ["check", "--rep", "hp", "--fidelity", "both", "--spin", "2.5"],
    ]


def dense_large(rng: random.Random) -> list[list[str]]:
    # A few large operands: O(n^3) matmuls and proj @ op @ proj dominate.
    # mp at dim 1024 is a known false failure (absolute gate against a
    # rounding error that grows like n^2); it stays and counts as an error.
    return [
        ["check", "--rep", "mp", "--dim", "1024"],
        ["check", "--rep", "saf", f"--p0={_p0(rng, 2.0)}", "--dim", "1024"],
        ["check", "--rep", "two_mode", "--dim", "32"],
        ["check", "--rep", "villain", "--spin", "2.5", "--dim", "512"],
    ]


def pair_reduce(rng: random.Random) -> list[list[str]]:
    # build_direct_hamiltonian and iso.T @ H @ iso: O(d^6) time, O(d^4) memory.
    return [["reduce", *_model(rng), "--pairs", str(p)] for p in (16, 32, 48)]


def spectral(rng: random.Random) -> list[list[str]]:
    # The exponential forms go through unitary_exp, two eigh per realization.
    bose = ["--margin", "128", "--tol", "1e-3", "--dim", "512"]
    return [
        ["check", "--rep", "bose1", f"--p0={_p0(rng, 2.0)}", *bose],
        ["check", "--rep", "bose2", f"--p0={_p0(rng, 2.0)}", *bose],
        ["casimir", "--rep", "bose1", f"--p0={_p0(rng, 2.0)}",
         "--dim", "384", "--margin", "96", "--tol", "1e-3"],
    ]


WORKLOADS = {
    "suite": suite,
    "dense_large": dense_large,
    "pair_reduce": pair_reduce,
    "spectral": spectral,
}


def invocations(name: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of workload ``name``, with --format json."""
    rng = random.Random(f"{name}:{seed}")
    return [argv + JSON for argv in WORKLOADS[name](rng)]


# Size sweep of the traced run: (set name, matrix dimension n, argv list).
# n is the row count of the largest dense operand: d for a single mode, d^2
# for two modes, and (pairs + 2)^2 for the two-mode Hamiltonian of reduce.
def sweep() -> list[tuple[str, int, list[list[str]]]]:
    points = []
    for d in (64, 256, 1024):
        points.append(("single", d, [
            ["check", "--rep", "saf", "--dim", str(d)] + JSON,
            ["check", "--rep", "bose1", "--dim", str(d), "--margin", str(d // 4),
             "--tol", "1e-3"] + JSON,
        ]))
    for d in (16, 24, 32):
        points.append(("two_mode", d * d, [
            ["check", "--rep", "two_mode", "--dim", str(d)] + JSON,
        ]))
    for p in (16, 32, 48):
        points.append(("pairs", (p + 2) ** 2, [
            ["reduce", "--pairs", str(p)] + JSON,
        ]))
    return points
