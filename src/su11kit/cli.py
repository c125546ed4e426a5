"""Command-line front end for the check suites and the spectral reduction.

    su11kit check --rep saf --p0 0.7+0.4i --dim 64 --margin 2
    su11kit check --rep all
    su11kit casimir --rep perelomov --lam 1
    su11kit transfo --beta 2 --n 3
    su11kit reduce --epsilon 1 --phi1 0.1 --phi2 0.3 --pairs 16

Exit codes: 0 when every check passes, 1 when a check fails, 2 on usage or
domain errors. Reports go to stdout, diagnostics to stderr. The json and csv
formats carry no timestamps and are byte-stable across runs; parsing the json
back recovers every number at full precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, replace

from .algebra import (
    CheckSpec,
    _kept_form,
    check_adjointness,
    check_casimir,
    check_commutators,
    check_transfo,
    compare_triples,
)
from .linops import (
    MIN_BASIS_DIM,
    Check,
    CheckReport,
    CircleBasis,
    _figure,
    _integer,
    commutator,
    identity,
)
from .reduction import ModelParams, ReductionResult, verify_reduction
from .reps import (
    _validate_spin,
    hp_spin,
    mp_realization,
    perelomov_realization,
    saf_bose_form,
    saf_realization,
    two_mode,
    villain_spin,
)

SCHEMA_VERSION = 1

FORMATS = ("text", "json", "csv")
FIDELITY_CHOICES = ("corrected", "as_printed", "both")

# Default truncation sizes; chosen so the full default suite runs in seconds.
SINGLE_MODE_DIM = 64
TWO_MODE_DIM = 24
VILLAIN_PAD = 8

SUITE_SPINS = (0.5, 1.0, 2.5)
SUITE_LAMBDAS = (0.6, 1.0, 2.0)
SUITE_P0_AXIS = (-1.0, -0.3, 0.0, 0.7, 2.0)

# Regression bound for the exponential (bose) forms at dim 64, margin 16:
# frozen from a convergence sweep over dim in {32, 64, 128}, where the worst
# bracket residual measured 1.24, 6.8e-4 and 2.8e-13. The residual is
# truncation-limited, so the bound tracks the dim-64 value, not machine eps.
BOSE_RESIDUAL_BOUND_64 = 1e-3


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command plus every parameter it may consume."""

    command: str
    rep: str = "all"
    k: float = 1.0
    spin: float = 1.0
    p0: complex = 0.5 + 1.0j
    lam: float = 1.0
    dim: int = SINGLE_MODE_DIM
    p_min: float | None = None
    margin: int = 2
    tolerance: float = 1e-10
    fidelity: str = "corrected"
    fmt: str = "text"
    epsilon: float = 1.0
    phi1: float = 0.1
    phi2: float = 0.3
    pairs: int = 16
    beta: int = 1
    n: int = 1


# Every realization --rep names: the RunConfig fields it reads, in the order
# its report echoes them, and its builder config -> AlgebraTriple. A row that
# reads "fidelity" is built once per requested fidelity. These builders are
# the only ones: a --rep all triple is built from a config resolved as for
# --rep REP with the same flags (see _suite_build).
_REALIZATIONS = {
    "mp": (("k", "dim"), lambda c: mp_realization(c.k, c.dim)),
    "hp": (("spin", "fidelity", "dim"), lambda c: hp_spin(c.spin, c.fidelity)),
    "villain": (("spin", "fidelity", "dim", "p_min"), lambda c: villain_spin(
        c.spin, _villain_basis(c.spin, c.dim, c.p_min), c.fidelity)),
    "saf": (("p0", "dim", "p_min"), lambda c: saf_realization(
        c.p0, _centered_circle(c.dim, c.p_min))),
    "perelomov": (("lam", "dim", "p_min"), lambda c: perelomov_realization(
        c.lam, _centered_circle(c.dim, c.p_min))),
    "bose1": (("p0", "dim"), lambda c: saf_bose_form(c.p0, c.dim, "form1")),
    "bose2": (("p0", "dim"), lambda c: saf_bose_form(c.p0, c.dim, "form2")),
    "two_mode": (("dim",), lambda c: two_mode(c.dim)),
}
REPS = (*_REALIZATIONS, "all")

# The --rep all suites, one row per family: (label, rep, the flags of each
# triple). The family reports, at each check, the worst of its triples.
_CHECK_SUITE = [
    *((f"mp[k={k:g}]", "mp", [{"k": k}]) for k in (0.5, 1.0, 1.75)),
    ("saf[25-point P0 grid]", "saf",
     [{"p0": complex(re, im)} for re in SUITE_P0_AXIS for im in SUITE_P0_AXIS]),
    ("perelomov[lam in {0.6,1,2}]", "perelomov", [{"lam": lam} for lam in SUITE_LAMBDAS]),
    ("two_mode[24x24]", "two_mode", [{}]),
    ("hp[corrected,S in {1/2,1,5/2}]", "hp", [{"spin": s} for s in SUITE_SPINS]),
    ("villain[corrected,S in {1/2,1,5/2}]", "villain", [{"spin": s} for s in SUITE_SPINS]),
    *((f"bose_{form}[dim=64]", rep, [{"p0": 0.5 + 1j, "margin": SINGLE_MODE_DIM // 4,
                                      "tol": BOSE_RESIDUAL_BOUND_64}])
      for form, rep in (("form1", "bose1"), ("form2", "bose2"))),
]
_CASIMIR_SUITE = [
    ("mp[k=1.75]", "mp", [{"k": 1.75}]),
    ("saf[p0=0.5+1i]", "saf", [{"p0": 0.5 + 1j}]),
    ("perelomov[lam=1]", "perelomov", [{"lam": 1.0}]),
    ("two_mode[24x24]", "two_mode", [{}]),
    ("hp[corrected,S=5/2]", "hp", [{"spin": 2.5}]),
    ("villain[corrected,S=5/2]", "villain", [{"spin": 2.5}]),
]


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi' (also accepting j for the unit)."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    try:
        if s[-1] in "iIjJ":
            return complex(s[:-1] + "j")
        return complex(float(s))
    except ValueError:
        raise ValueError(
            f"cannot parse complex number {text!r} (expected 'a', 'a+bi' or 'a-bi')"
        ) from None


def format_complex(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _complex(value) -> complex:
    return parse_complex(value) if isinstance(value, str) else complex(value)


COMMANDS = {
    "check": "commutator residuals of a realization",
    "casimir": "Casimir closed-form residuals",
    "transfo": "shift identity E+^b P^n E-^b = (P-b)^n",
    "reduce": "pair-sector spectrum vs free particle",
}
_REP = ("check", "casimir")
_LATTICE = (*_REP, "transfo")

# Every option, in the order --help lists it: its --config key (the flag with
# "_" in place of "-") -> the RunConfig field it sets, the type that reads a
# value or the tuple of values allowed, the commands that take it as a flag,
# and its help text. A new option is a row here and its RunConfig field; a
# --config file may set any key, whatever the command.
_OPTIONS = {
    "rep": ("rep", REPS, _REP, "realization to check (default all)"),
    "k": ("k", float, _REP, "Bargmann index (mp)"),
    "spin": ("spin", float, _REP, "spin S, positive half-integer (hp, villain)"),
    "p0": ("p0", _complex, _REP, "complex offset, e.g. 0.5+1i (saf, bose1, bose2)"),
    "lam": ("lam", float, _REP, "lambda > 0 (perelomov)"),
    "beta": ("beta", _integer, ("transfo",), "integer shift power"),
    "n": ("n", _integer, ("transfo",), "momentum power, 1..3"),
    "dim": ("dim", _integer, _LATTICE, "truncation dimension / lattice count"),
    "p_min": ("p_min", float, _LATTICE, "lowest momentum of the circle lattice"),
    "fidelity": ("fidelity", FIDELITY_CHOICES, _REP,
                 "build the corrected or the as-printed variant (hp, villain)"),
    "epsilon": ("epsilon", float, ("reduce",), "oscillator energy"),
    "phi1": ("phi1", float, ("reduce",), "self-interaction"),
    "phi2": ("phi2", float, ("reduce",), "cross-interaction"),
    "pairs": ("pairs", _integer, ("reduce",), "number of pair levels"),
    "margin": ("margin", _integer, _LATTICE, "interior margin for residual projection"),
    "tol": ("tolerance", float, tuple(COMMANDS), "pass/fail tolerance for residuals"),
    "format": ("fmt", FORMATS, tuple(COMMANDS), "output format (default text)"),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its parser of each command, built on the first call
    and shared by every later one.

    Building it costs about a millisecond, as much as a small check, so an
    in-process caller of :func:`main` pays it once. Nothing alters it after
    it is built, and parsing keeps its state in a new namespace each time.
    Flag values stay text until :func:`_resolve` reads them.
    """
    parser = argparse.ArgumentParser(
        prog="su11kit",
        description="Finite-matrix checks for the su(1,1)/spin ladder realizations "
        "and the two-oscillator pair reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, summary in COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=summary)
        for key, (_, reader, commands, text) in _OPTIONS.items():
            if command in commands:
                p.add_argument("--" + key.replace("_", "-"), help=text,
                               choices=reader if isinstance(reader, tuple) else None)
        p.add_argument("--config", help="JSON file with the same field names as the flags; "
                       "flags override the file")
    return parser, parsers


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read --config file: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"--config file {path} must hold a JSON object")
    return data


def _read(key: str, value, source: str):
    """``value`` as option ``key`` reads it; ``source`` names it in the message."""
    reader = _OPTIONS[key][1]
    if isinstance(reader, tuple):
        if value not in reader:
            raise ValueError(f"--{key} must be one of {reader}, got {value!r}")
        return value
    try:
        if isinstance(value, bool):  # JSON true/false would read as 1/0
            raise TypeError(value)
        return reader(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if reader is _integer else "a finite number"
        raise ValueError(f"{source} is not {kind}: {value!r}") from None


def _resolve(ns: argparse.Namespace) -> RunConfig:
    """Merge flags over the optional config file, read each value as its
    option reads it, and fill the rep defaults of ``check`` and ``casimir``.

    The domain rules (spin, margin, tolerance, the singular coupling) are the
    library's own checks; k, lam, pairs, beta and n are checked by the
    constructors when :func:`run` builds them.
    """
    given = _load_config_file(ns.config) if ns.config else {}
    unknown = set(given) - set(_OPTIONS)
    if unknown:
        raise ValueError(f"unknown keys in --config file: {sorted(unknown)}")
    flags = {key: value for key, value in vars(ns).items()
             if value is not None and key not in ("command", "config")}
    values: dict = {}
    for key, value in {**given, **flags}.items():
        if value is not None:  # a JSON null keeps the default
            source = "--" + key.replace("_", "-") if key in flags else f"--config value for {key}"
            values[_OPTIONS[key][0]] = _read(key, value, source)

    if ns.command in ("check", "casimir"):
        rep = values.get("rep", RunConfig.rep)
        if rep == "all" and "margin" in values:
            raise ValueError("--margin cannot be set with --rep all, whose suites run "
                             "at their own fixed margins")
        if rep in ("hp", "villain"):
            block, padded = _spin_lattice(_validate_spin(values.get("spin", RunConfig.spin)))
        if rep == "hp":
            # The Holstein-Primakoff block is the (2S+1)-space, exact to its edges.
            if values.setdefault("dim", block) != block:
                raise ValueError(f"--dim must be 2S+1 = {block} for hp, got {values['dim']}")
            values.setdefault("margin", 0)
        elif rep == "villain":
            values.setdefault("dim", padded)
        elif rep == "two_mode":
            values.setdefault("dim", TWO_MODE_DIM)
    if ns.command == "reduce":
        values.setdefault("tolerance", 1e-9)

    config = RunConfig(command=ns.command, **values)
    if config.dim < MIN_BASIS_DIM:
        raise ValueError(f"--dim must be >= {MIN_BASIS_DIM}, got {config.dim}")
    if config.dim > sys.float_info.max:  # the lattice momenta are floats
        raise ValueError(f"--dim must be at most {sys.float_info.max:.3g}, "
                         f"got {_figure(config.dim)}")
    CheckSpec(config.margin, config.tolerance)
    if config.command == "reduce":
        ModelParams(config.epsilon, config.phi1, config.phi2)
    return config


def parse_args(argv: list[str]) -> RunConfig:
    """The run that ``argv`` asks for. A value that :func:`_resolve` refuses
    exits 2 with the usage of the command that was run, as argparse's own
    refusals do."""
    parser, parsers = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return _resolve(ns)
    except (ValueError, OverflowError) as exc:
        parsers[ns.command].error(str(exc))
        raise AssertionError("unreachable")  # parser.error always exits


# ---------------------------------------------------------------------------
# dispatch


def _centered_circle(count: int, p_min: float | None) -> CircleBasis:
    if p_min is None:
        p_min = -float(count // 2)
    return CircleBasis(p_min, count)


def _spin_lattice(spin: float) -> tuple[int, int]:
    """The 2S+1 states of spin S, and the default villain lattice count: that
    block with VILLAIN_PAD states on either side."""
    block = int(round(2 * spin)) + 1
    return block, block + 2 * VILLAIN_PAD


def _villain_basis(spin: float, count: int, p_min: float | None) -> CircleBasis:
    if p_min is None:
        p_min = -spin - max((count - _spin_lattice(spin)[0]) // 2, 0)
    return CircleBasis(p_min, count)


def _labelled(label: str, reports: list[CheckReport]) -> list[Check]:
    """The checks of one report under ``label/`` (bare for an empty label), or,
    across several reports, the worst residual at each check position."""
    out = []
    for i, first in enumerate(reports[0].checks):
        metadata = first.metadata
        if len(reports) > 1:
            metadata = {**metadata, "aggregated_over": str(len(reports))}
        out.append(Check(
            f"{label}/{first.name}" if label else first.name,
            max(r.checks[i].residual for r in reports), first.tolerance, metadata,
        ))
    return out


def _suite_config(command: str, **flags) -> RunConfig:
    """The config that ``command`` with ``flags`` resolves to."""
    return _resolve(argparse.Namespace(command=command, config=None, **flags))


def _suite_build(command: str, rep: str, tolerance: float, flags: dict):
    """The triple and CheckSpec that ``command --rep rep --tol tolerance`` with
    ``flags`` would build; a ``tol`` in ``flags`` wins over ``tolerance``."""
    config = _suite_config(command, rep=rep, **{"tol": tolerance, **flags})
    return _REALIZATIONS[rep][1](config), CheckSpec(config.margin, config.tolerance)


def _run_suite(command: str, rows: list[tuple], tolerance: float) -> list[Check]:
    """Run ``command`` over each (label, rep, flags of each triple) row."""
    runner = check_commutators if command == "check" else check_casimir
    return [c for label, rep, family in rows for c in _labelled(label, [
        runner(*_suite_build(command, rep, tolerance, flags)) for flags in family])]


def _discrepancy_ledger(tolerance: float, casimir: list[Check]) -> list[Check]:
    """The documented printing slips, asserted quantitatively.

    These checks PASS when the misprinted variants misbehave in exactly the
    recorded way; they are regression guards on the discrepancies, not bugs.
    The villain and hp triples are built as ``--rep REP --fidelity as_printed``
    builds them; the Perelomov entry restates ``perelomov[lam=1]`` of ``casimir``.
    """
    tri, spec = _suite_build("check", "villain", tolerance,
                             {"spin": 1.0, "fidelity": "as_printed"})
    _, measure = _kept_form(tri, spec.margin)
    offset = commutator(tri.kplus, tri.kminus) - 2.0 * tri.k0 + 2.0 * identity(tri.basis)
    tri, _ = _suite_build("check", "hp", tolerance, {"spin": 0.5, "fidelity": "as_printed"})
    gap = check_adjointness(tri).checks[0].residual
    expected_gap = 2.0 ** 0.5 - 1.0
    perelomov = next(c for c in casimir if c.name.startswith("perelomov[lam=1]/"))
    return [
        Check("ledger/villain[as_printed,S=1]: [S+,S-]-2Sz = -2 on unclamped interior",
              measure(lambda form: form(offset)), tolerance, {"documented_offset": "-2"}),
        Check("ledger/hp[as_printed,S=1/2]: adjointness gap = sqrt(2)-1",
              abs(gap - expected_gap), tolerance,
              {"gap": repr(gap), "expected_gap": repr(expected_gap)}),
        Check("ledger/perelomov[lam=1]: casimir matches -1/4-lam^2, not -1/4-lam^2/4",
              perelomov.residual, perelomov.tolerance,
              {**perelomov.metadata, "printed_candidate_inconsistent": "-1/4 - lam^2/4"}),
    ]


def _suite_all(tolerance: float) -> list[Check]:
    """Every realization at default dimensions, plus the discrepancy ledger.

    Each triple of the families, the mapping rows and the ledger is built
    exactly as ``--rep REP`` with the same flags would build it, and the
    transfo and reduction rows as ``transfo`` and ``reduce`` would run them.
    """
    checks = _run_suite("check", _CHECK_SUITE, tolerance)
    casimir = _run_suite("casimir", _CASIMIR_SUITE, tolerance)
    checks += _labelled("casimir", [CheckReport(casimir)])
    tight = CheckSpec(margin=2, tolerance=1e-12)
    for beta in (1, 2):
        for power in (1, 2, 3):
            checks += _labelled("transfo", [_transfo(
                _suite_config("transfo", beta=beta, n=power, tol=tight.tolerance))])
    for lam in SUITE_LAMBDAS:
        perelomov, _ = _suite_build("check", "perelomov", tolerance, {"lam": lam})
        saf, _ = _suite_build("check", "saf", tolerance, {"p0": 0.5 + 1j * lam})
        checks += _labelled(f"mapping[perelomov vs saf, lam={lam:g}]",
                            [compare_triples(perelomov, saf, tight)])

    reduce = _suite_config("reduce")
    result = _reduction(reduce)
    checks.append(Check(
        f"reduction[eps={reduce.epsilon:g},phi1={reduce.phi1:g},phi2={reduce.phi2:g}]"
        "/max-spectral-deviation", result.max_deviation, result.tolerance,
        {"p0": repr(result.p0), "h0": repr(result.h0), "mass": repr(result.mass)},
    ))
    checks += _discrepancy_ledger(tolerance, casimir)
    return checks


def _checks_payload(config: RunConfig, params: dict, checks: list[Check]) -> tuple[dict, int]:
    payload = {
        "version": SCHEMA_VERSION,
        "command": config.command,
        "params": params,
        "checks": [
            {
                "name": c.name,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "metadata": c.metadata,
            }
            for c in checks
        ],
        "overall_passed": CheckReport(checks).overall_passed,
    }
    return payload, 0 if payload["overall_passed"] else 1


def _params(config: RunConfig, keys: tuple[str, ...]) -> dict:
    """The fields ``keys`` of ``config`` that are set, in order, for the report."""
    values = ((key, getattr(config, key)) for key in keys)
    return {key: format_complex(value) if key == "p0" else value
            for key, value in values if value is not None}


def _transfo(config: RunConfig) -> CheckReport:
    """The shift identity report of ``transfo`` with ``config``."""
    return check_transfo(_centered_circle(config.dim, config.p_min), config.beta, config.n,
                         CheckSpec(config.margin, config.tolerance))


def _reduction(config: RunConfig) -> ReductionResult:
    """Both spectra of ``reduce`` with ``config``."""
    return verify_reduction(ModelParams(config.epsilon, config.phi1, config.phi2),
                            config.pairs, config.tolerance)


def run(config: RunConfig) -> tuple[str, int]:
    """Execute the resolved invocation; returns (rendered report, exit code)."""
    # transfo and reduce echo the fields of the options they take.
    taken = tuple(field for key, (field, _, commands, _) in _OPTIONS.items()
                  if config.command in commands and key != "format")
    if config.command in ("check", "casimir"):
        runner = check_commutators if config.command == "check" else check_casimir
        if config.rep == "all":
            reads = ()
            checks = (_suite_all(config.tolerance) if config.command == "check"
                      else _run_suite("casimir", _CASIMIR_SUITE, config.tolerance))
        else:
            reads, build = _REALIZATIONS[config.rep]
            configs = [config]
            if "fidelity" in reads and config.fidelity == "both":
                configs = [replace(config, fidelity=fid) for fid in ("corrected", "as_printed")]
            spec = CheckSpec(config.margin, config.tolerance)
            checks = [c for each in configs for c in _labelled(
                each.fidelity if "fidelity" in reads else "", [runner(build(each), spec)])]
        params = _params(config, ("rep", *reads, "margin", "tolerance"))
        payload, code = _checks_payload(config, params, checks)
    elif config.command == "transfo":
        payload, code = _checks_payload(config, _params(config, taken),
                                        list(_transfo(config).checks))
    elif config.command == "reduce":
        result = _reduction(config)
        check = Check("max-spectral-deviation", result.max_deviation, result.tolerance,
                      {"levels": str(config.pairs)})
        payload, code = _checks_payload(config, _params(config, taken), [check])
        payload.update(
            p0=result.p0,
            h0=result.h0,
            mass=result.mass,
            condensate=result.condensate,
            spectra={
                "direct": list(result.direct_spectrum),
                "predicted": list(result.predicted_spectrum),
            },
            max_deviation=result.max_deviation,
        )
    else:
        raise ValueError(f"unknown command {config.command!r}")

    return _render(payload, config.fmt), code


# ---------------------------------------------------------------------------
# rendering


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        return _render_csv(payload)
    return _render_text(payload)


def _render_text(payload: dict) -> str:
    lines = [f"su11kit schema-v{payload['version']} {payload['command']}"]
    params = " ".join(f"{k}={v}" for k, v in payload["params"].items())
    lines.append(f"params: {params}")
    for c in payload["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(
            f"  {status}  {c['name']}  residual={c['residual']:.6e}  "
            f"tol={c['tolerance']:.6e}"
        )
    if payload["command"] == "reduce":
        lines.append(
            f"p0={payload['p0']!r} h0={payload['h0']!r} mass={payload['mass']!r} "
            f"condensate={payload['condensate']}"
        )
        lines.append("  level  direct                  predicted")
        direct = payload["spectra"]["direct"]
        predicted = payload["spectra"]["predicted"]
        for i, (d, p) in enumerate(zip(direct, predicted)):
            lines.append(f"  {i:5d}  {d:<22.15g}  {p:<22.15g}")
        lines.append(f"max_deviation={payload['max_deviation']!r}")
    lines.append(f"overall: {'PASS' if payload['overall_passed'] else 'FAIL'}")
    return "\n".join(lines)


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload["command"] == "reduce":
        writer.writerow(["level", "direct", "predicted", "abs_deviation"])
        direct = payload["spectra"]["direct"]
        predicted = payload["spectra"]["predicted"]
        for i, (d, p) in enumerate(zip(direct, predicted)):
            writer.writerow([i, repr(d), repr(p), repr(abs(d - p))])
    else:
        writer.writerow(["name", "residual", "tolerance", "passed"])
        for c in payload["checks"]:
            writer.writerow([c["name"], repr(c["residual"]),
                             repr(c["tolerance"]), c["passed"]])
    return buf.getvalue().rstrip("\n")


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse already wrote its message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        output, exit_code = run(config)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early. Point it at devnull, as the signal
        # module's note on SIGPIPE does, so that the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
