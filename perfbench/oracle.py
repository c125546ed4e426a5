"""Expected verdicts and numbers for su11kit invocations, from the maths alone.

The oracle never reads what su11kit printed to decide what it should have
printed. For each invocation it states which checks must pass, which must fail
(the documented misprints), what the residual of a misprint must be, and what
the reduction spectrum must be. An invocation is an *error* when its exit
code, a per-check verdict or a number disagrees, or when its output differs
from the first pass. Numbers are judged separately from verdicts: an exact
identity whose residual sits within rounding of zero has correct numbers even
when the program's absolute gate calls it a failure.
"""

from __future__ import annotations

import json
import math

EPS = 2.0 ** -52

HYPERBOLIC_BRACKETS = ["[K0,K+]-K+", "[K0,K-]+K-", "[K+,K-]+2K0"]
SPIN_BRACKETS = ["[Sz,S+]-S+", "[Sz,S-]+S-", "[S+,S-]-2Sz"]
MISPRINTED_BRACKET = "as_printed/[S+,S-]-2Sz"

# Row counts of the two hand-wired suites; a check silently dropped from a
# suite must not read as a pass.
SUITE_CHECKS = {"check": 55, "casimir": 6}

DEFAULT_DIM = 64


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Command and flag values of an argv list (``--a b`` and ``--a=b``)."""
    command, flags, i = argv[0], {}, 1
    while i < len(argv):
        key = argv[i][2:]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            value = argv[i + 1]
            i += 2
        flags[key] = value
    return command, flags


def parse_complex(text: str) -> complex:
    return complex(text[:-1] + "j") if text[-1] in "ij" else complex(float(text))


def rounding_bound(dim: int) -> float:
    """Residual within which an exact identity holds up to rounding.

    A product of operators with entries of size s carries an error of order
    eps * s^2 (Higham, ch. 3); every realization here has entries bounded by
    the per-mode dimension plus a parameter of order one.
    """
    return 1e3 * EPS * (dim + 8) ** 2


def hp_as_printed_residual(spin: float) -> float:
    """max_n |[S+,S-] - 2 Sz| of the as-printed Holstein-Primakoff form.

    With S+|n> = sqrt(2S + n + 1) sqrt(n + 1)|n+1> and
    S-|n+1> = sqrt(2S - n) sqrt(n + 1)|n>, the bracket is diagonal with entry
    n sqrt((2S + n)(2S - n + 1)) - (n + 1) sqrt((2S - n)(2S + n + 1)).
    """
    two_s = 2.0 * spin
    return max(
        abs(n * math.sqrt((two_s + n) * (two_s - n + 1))
            - (n + 1) * math.sqrt((two_s - n) * (two_s + n + 1))
            - 2.0 * (n - spin))
        for n in range(int(round(two_s)) + 1)
    )


def pair_energies(epsilon: float, phi1: float, phi2: float, pairs: int) -> list[float]:
    """(2 phi1 + phi2) n^2 + 2 (epsilon - phi1) n for n < pairs, ascending."""
    c = 2.0 * phi1 + phi2
    return sorted(c * n * n + 2.0 * (epsilon - phi1) * n for n in range(pairs))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _expected_names(command: str, flags: dict[str, str]) -> list[str] | None:
    rep = flags.get("rep", "all")
    if command == "transfo" or command == "reduce":
        return None
    if command == "casimir":
        return None if rep == "all" else ["casimir closed form"]
    if rep in ("hp", "villain"):
        fidelity = flags.get("fidelity", "corrected")
        fids = ["corrected", "as_printed"] if fidelity == "both" else [fidelity]
        return [f"{f}/{b}" for f in fids for b in SPIN_BRACKETS]
    if rep == "all":
        return None
    return list(HYPERBOLIC_BRACKETS)


def _casimir_value(flags: dict[str, str]) -> float | None:
    """Closed-form Casimir constant the report must quote as expected_value."""
    rep = flags.get("rep")
    if rep == "mp":
        k = float(flags.get("k", 1.0))
        return k * (k - 1.0)
    if rep in ("saf", "bose1", "bose2"):
        return -0.25 - parse_complex(flags.get("p0", "0.5+1i")).imag ** 2
    if rep in ("hp", "villain"):
        s = float(flags.get("spin", 1.0))
        return s * (s + 1.0)
    return None


def judge(argv: list[str], code: int, stdout: str) -> tuple[bool, bool, list[str]]:
    """(verdicts agree, numbers agree, reasons) for one invocation's output."""
    command, flags = parse_argv(argv)
    reasons: list[str] = []
    try:
        payload = json.loads(stdout)
        checks = payload["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return False, False, [f"unreadable output (exit {code}): {exc}"]
    rep = flags.get("rep", "all")
    if command in ("check", "casimir") and flags.get("fidelity") in ("as_printed", "both") \
            and (command == "casimir" or rep not in ("hp", "villain")):
        raise ValueError(f"the oracle has no rule for {' '.join(argv)}")

    numbers_ok = True
    names = [c["name"] for c in checks]
    expected_names = _expected_names(command, flags)
    if expected_names is not None and names != expected_names:
        numbers_ok = False
        reasons.append(f"check names {names} != {expected_names}")
    if rep == "all" and command in SUITE_CHECKS and len(checks) != SUITE_CHECKS[command]:
        numbers_ok = False
        reasons.append(f"{len(checks)} checks, expected {SUITE_CHECKS[command]}")
    if command == "transfo" and len(checks) != 1:
        numbers_ok = False
        reasons.append(f"{len(checks)} checks, expected 1")

    verdicts_ok = True
    dim = int(flags.get("dim", DEFAULT_DIM))
    for c in checks:
        residual, tol = float(c["residual"]), float(c["tolerance"])
        misprint = c["name"] == MISPRINTED_BRACKET and command == "check"
        if c["passed"] != (not misprint):
            verdicts_ok = False
            reasons.append(f"{c['name']}: passed={c['passed']} expected {not misprint}")
        if c["passed"] != (residual <= tol):
            numbers_ok = False
            reasons.append(f"{c['name']}: passed={c['passed']} but residual {residual!r} vs tol {tol!r}")
        if misprint:
            documented = 2.0 if rep == "villain" else hp_as_printed_residual(float(flags.get("spin", 1.0)))
            if not _close(residual, documented, 1e-9):
                numbers_ok = False
                reasons.append(f"{c['name']}: residual {residual!r}, documented {documented!r}")
        elif residual > max(tol, rounding_bound(dim)):
            numbers_ok = False
            reasons.append(f"{c['name']}: residual {residual!r} beyond tolerance and rounding")

    if command == "casimir" and rep != "all" and checks:
        meta = checks[0]["metadata"]
        if rep == "perelomov":
            lam = float(flags.get("lam", 1.0))
            if meta.get("matches") != "-1/4 - lam^2" or not _close(
                    float(meta.get("candidate[-1/4 - lam^2]", "nan")), -0.25 - lam ** 2):
                numbers_ok = False
                reasons.append(f"perelomov casimir metadata {meta}")
        else:
            value = _casimir_value(flags)
            if value is not None and not _close(float(meta.get("expected_value", "nan")), value):
                numbers_ok = False
                reasons.append(f"casimir expected_value {meta.get('expected_value')} != {value!r}")

    if command == "reduce":
        eps = float(flags.get("epsilon", 1.0))
        phi1 = float(flags.get("phi1", 0.1))
        phi2 = float(flags.get("phi2", 0.3))
        pairs = int(flags.get("pairs", 16))
        closed = pair_energies(eps, phi1, phi2, pairs)
        for route in ("direct", "predicted"):
            spectrum = sorted(payload["spectra"][route])
            if len(spectrum) != pairs or max(
                    abs(a - b) for a, b in zip(spectrum, closed)) > 1e-9:
                numbers_ok = False
                reasons.append(f"reduce {route} spectrum off the closed form by > 1e-9")
        if payload["condensate"] != (2.0 * phi1 + phi2 > 0):
            numbers_ok = False
            reasons.append("reduce condensate flag disagrees with 2 phi1 + phi2 > 0")

    expect_pass = not (command == "check" and rep in ("hp", "villain")
                       and flags.get("fidelity") in ("as_printed", "both"))
    if not checks or payload.get("overall_passed") != expect_pass or code != (0 if expect_pass else 1):
        verdicts_ok = False
        reasons.append(f"exit {code}, overall_passed={payload.get('overall_passed')}, "
                       f"expected {'pass' if expect_pass else 'fail'}")
    return verdicts_ok, numbers_ok, reasons
