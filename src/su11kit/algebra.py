"""Verification engine: Casimir operators and interior-projected residuals.

The su(1,1) and spin algebras differ in one sign, ``triple.sign``, so each
identity is written once with the sign as a coefficient, and one Casimir,
``K0^2 - sign (K+K- + K-K+)/2``, serves both kinds. :func:`check_casimir`
checks it against the closed forms each realization records in
``params.casimir``.

Residuals are evaluated on the kept block: the interior states away from the
truncation boundary, less, for clamped spin realizations, the states that
touch a clamped square-root amplitude. Each residual is written once, as a
function of ``form``, which forms its products ``form(a, b)`` and terms
``form(a)``, and handed to the ``measure`` that :func:`_kept_form` returns:
the three brackets, the Casimir less its closed form, the shift identity of
:func:`check_transfo` and the villain offset of the ``--rep all`` ledger.
:func:`_kept_form` is the one place that builds and applies the 0/1 interior
projector, and that decides how a residual is formed and reduced to its
largest absolute entry on the kept block: whole behind the projector for
band operators, one row tile at a time for a triple with a dense generator.
On the kept block each identity either holds to machine precision or fails
by a finite, reportable amount; the reports never auto-resolve a
discrepancy, they record it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linops import (
    BasisMismatchError,
    BasisSpec,
    Check,
    CheckReport,
    CircleBasis,
    OperatorMatrix,
    _adjoint_gap,
    _figure,
    _integer,
    _is_adjoint_view,
    _kept_block,
    _kept_max,
    _require_tolerance,
    banded,
    diagonal,
    interior_projector,
    maxabs_norm,
)
from .reps import HYPERBOLIC, SPIN, AlgebraTriple

# The report names of the brackets of check_commutators, by triple kind.
_BRACKET_NAMES = {
    HYPERBOLIC: ("[K0,K+]-K+", "[K0,K-]+K-", "[K+,K-]+2K0"),
    SPIN: ("[Sz,S+]-S+", "[Sz,S-]+S-", "[S+,S-]-2Sz"),
}


@dataclass(frozen=True)
class CheckSpec:
    """Margin and tolerance shared by a batch of residual checks."""

    margin: int = 2
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        object.__setattr__(self, "margin", _integer(self.margin, "margin", least=0))
        _require_tolerance(self.tolerance)


def _whole(a: OperatorMatrix, b: OperatorMatrix | None = None) -> OperatorMatrix:
    """``a @ b``, or ``a`` alone."""
    return a if b is None else a @ b


def _casimir(triple: AlgebraTriple, form) -> OperatorMatrix | np.ndarray:
    """K0^2 - sign (K+K- + K-K+)/2, with each product ``a @ b`` formed as
    ``form(a, b)``: the su(1,1) Casimir for a hyperbolic triple, and
    Sz^2 + (S+S- + S-S+)/2, S(S+1) when exact, for a spin one."""
    k0, kp, km = triple.k0, triple.kplus, triple.kminus
    # The ladder term is formed first, so that at most three results are held.
    ladder = (form(kp, km) + form(km, kp)) * (0.5 * triple.sign)
    return form(k0, k0) - ladder


def _kept_form(basis: BasisSpec, margin: int, excluded=(), generators=()):
    """The kept states of ``basis`` at ``margin``, less ``excluded``, as
    ascending indices, and ``measure(residual, hermitian=False)``: the
    largest absolute entry on the kept block of ``residual(form)``, where
    ``form(a, b)`` forms the product ``a @ b`` and ``form(a)`` the term ``a``.
    It measures the brackets, the Casimir, the shift identity and the
    ledger's villain offset. ``generators`` are a triple's (K0, K+, K-), when
    there is a triple.

    This is the one place that builds and applies the 0/1 interior projector
    P. When every generator is held in bands, and when there are none, the
    residual R is formed whole and reduced as ``maxabs_norm(P @ R @ P)``.
    For a triple with a dense generator it is walked by
    :func:`su11kit.linops._kept_max`, one row tile of kept states at a time.
    Its largest entry is the one the projector, whose 0/1 entries keep the
    kept entries and zero all others, would leave.

    ``hermitian`` marks a residual that is Hermitian when K+ is the adjoint
    of K- and K0 is Hermitian: [K+,K-]+2K0, and the Casimir less a real
    closed form. When K+ is the adjoint view of K- (one array, so exactly
    its adjoint) and K0's Hermiticity defect is exactly 0, such a residual's
    tiles are formed on the upper triangle of the kept block only: each
    tile's kept columns from its first row on. Below it each entry is the
    conjugate of the one above, in exact arithmetic, and each entry formed
    is the same as in the whole tile. For any other triple ``hermitian``
    changes nothing.
    """
    proj = interior_projector(basis, margin, excluded)
    keep = np.flatnonzero(proj.diagonal())
    if all(op._bands is not None for op in generators):
        return keep, lambda residual, hermitian=False: maxabs_norm(
            proj @ residual(_whole) @ proj)
    k0, kplus, kminus = generators
    upper = _is_adjoint_view(kplus, kminus) and k0.hermiticity_defect() == 0.0
    return keep, lambda residual, hermitian=False: _kept_max(
        keep, residual, hermitian and upper)


def check_commutators(triple: AlgebraTriple, spec: CheckSpec = CheckSpec()) -> CheckReport:
    """Residuals of the three defining brackets on the kept block:
    [K0,K+]-K+, [K0,K-]+K- and [K+,K-]+2 sign K0, each measured by
    :func:`_kept_form` before the next is formed; the third is Hermitian
    when K+ is the adjoint of K- and K0 is Hermitian.
    """
    z, plus, minus = triple.k0, triple.kplus, triple.kminus
    _, measure = _kept_form(triple.basis, spec.margin, triple.params.clamp_excluded,
                            (z, plus, minus))
    residuals = (
        measure(lambda form: (form(z, plus) - form(plus, z)) - form(plus)),
        measure(lambda form: (form(z, minus) - form(minus, z)) + form(minus)),
        measure(lambda form: (form(plus, minus) - form(minus, plus))
                + form((2.0 * triple.sign) * z), hermitian=True),
    )
    metadata = {"margin": str(spec.margin), "variant": triple.params.variant}
    if triple.params.fidelity is not None:
        metadata["fidelity"] = triple.params.fidelity
    if triple.params.clamp_excluded.size:
        metadata["clamp_excluded"] = str(triple.params.clamp_excluded.size)
    checks = tuple(
        Check(name, residual, spec.tolerance, dict(metadata))
        for name, residual in zip(_BRACKET_NAMES[triple.kind], residuals)
    )
    return CheckReport(checks)


def check_adjointness(triple: AlgebraTriple, spec: CheckSpec = CheckSpec()) -> CheckReport:
    """max|K+ - (K-)^dag| as a single check (margin plays no role here)."""
    gap = _adjoint_gap(triple.kplus, triple.kminus)
    metadata = {"variant": triple.params.variant}
    if triple.params.fidelity is not None:
        metadata["fidelity"] = triple.params.fidelity
    return CheckReport(
        (Check("K+ vs (K-)^dag", gap, spec.tolerance, metadata),),
    )


def check_casimir(triple: AlgebraTriple, spec: CheckSpec = CheckSpec()) -> CheckReport:
    """Residual of the computed Casimir on the kept block against the closed
    forms the triple records in ``params.casimir``. The Casimir is formed
    once per closed form, and the residual, Hermitian when K+ is the adjoint
    of K- and K0 is Hermitian, is measured by :func:`_kept_form`.

    With one recorded form the report states it, its expected value, and the
    value the matrices actually produced on the first kept state; for the
    as-printed variants that is the documented discrepancy. With several
    (Perelomov's -1/4 - lam^2 and -1/4 - lam^2/4) the report evaluates each,
    states which one the matrices match, and uses it as the primary residual;
    the others stay in the metadata as data.
    """
    params = triple.params
    if not params.casimir:
        raise ValueError(f"no closed-form Casimir recorded for variant {params.variant!r}")
    basis = triple.basis
    keep, measure = _kept_form(basis, spec.margin, params.clamp_excluded,
                               (triple.k0, triple.kplus, triple.kminus))
    residuals = {}
    for formula, expected in params.casimir:
        target = diagonal(basis, np.full(basis.dim, expected))
        residuals[formula] = measure(lambda form: _casimir(triple, form) - form(target),
                                     hermitian=True)
    best = min(residuals, key=residuals.get)
    metadata = {"margin": str(spec.margin), "variant": params.variant}
    if len(residuals) > 1:
        metadata["matches"] = best
        for formula, expected in params.casimir:
            metadata[f"candidate[{formula}]"] = repr(expected)
            metadata[f"residual[{formula}]"] = repr(residuals[formula])
    else:
        ((formula, expected),) = params.casimir
        metadata["expected"] = formula
        if params.fidelity is not None:
            metadata["fidelity"] = params.fidelity
        if isinstance(expected, np.ndarray):
            metadata["expected_kind"] = "diagonal"
        else:
            metadata["expected_value"] = repr(expected)
        first = _casimir(triple, partial(_kept_block, keep[:1]))[0, 0]
        metadata["observed_first"] = repr(float(first.real))
    return CheckReport(
        (Check("casimir closed form", residuals[best], spec.tolerance, metadata),),
    )


def check_transfo(
    basis: CircleBasis, beta: int, n: int, spec: CheckSpec = CheckSpec()
) -> CheckReport:
    """Residual of the shift identity Eplus^b P^n Eminus^b = (P - b)^n.

    Only integer shift powers are representable on the unit lattice, so beta
    is restricted to positive integers; n is capped at 3 because that is as
    far as the downstream constructions ever need. A beta for which
    (max|p| + beta)^n leaves the float range is refused. Eplus^b is one band
    at offset -b, Eminus^b its adjoint and P^n one diagonal, so the cost does
    not depend on beta. With margin >= beta the identity is exact; smaller
    margins leave the lattice edge in view and the check reports the
    resulting boundary residual as a failure. :func:`su11kit.linops._integer`
    reads beta and n, so 2.0 reads as 2 and 2.5, inf and nan raise ValueError.
    """
    beta, n = _integer(beta, "beta", least=1), _integer(n, "n")
    if n not in (1, 2, 3):
        raise ValueError(f"n must be in {{1, 2, 3}}, got {n}")
    if not isinstance(basis, CircleBasis):
        raise ValueError(f"check_transfo requires a CircleBasis, got {type(basis).__name__}")
    p = basis.momenta()
    top = float(np.max(np.abs(p)))
    try:
        finite = math.isfinite((top + beta) ** n)
    except OverflowError:  # beta is past float range, or the power is
        finite = False
    if not finite:
        raise ValueError(f"beta = {_figure(beta)} puts (max|p| + beta)^{n} past the "
                         f"float range, with max|p| = {top:g}")
    up = banded(basis, {-beta: np.ones(basis.count)})
    # p * p * p from the left, the order in which band products would form it.
    power = diagonal(basis, np.prod([p] * n, axis=0))
    rhs = diagonal(basis, (p - beta) ** n)
    _, measure = _kept_form(basis, spec.margin)
    residual = measure(lambda form: form(up @ power, up.dag()) - form(rhs))
    metadata = {"margin": str(spec.margin), "beta": str(beta), "n": str(n)}
    return CheckReport(
        (Check(f"E+^{beta} P^{n} E-^{beta} - (P-{beta})^{n}", residual,
               spec.tolerance, metadata),),
    )


def compare_triples(
    a: AlgebraTriple, b: AlgebraTriple, spec: CheckSpec = CheckSpec()
) -> CheckReport:
    """Entrywise max-abs distance between two triples on the same basis."""
    if a.basis != b.basis:
        raise BasisMismatchError(
            f"cannot compare triples on different bases: {a.basis} vs {b.basis}"
        )
    metadata = {"left": a.params.variant, "right": b.params.variant}
    checks = (
        Check("delta[k0]", maxabs_norm(a.k0 - b.k0), spec.tolerance, dict(metadata)),
        Check("delta[k+]", maxabs_norm(a.kplus - b.kplus), spec.tolerance, dict(metadata)),
        Check("delta[k-]", maxabs_norm(a.kminus - b.kminus), spec.tolerance, dict(metadata)),
    )
    return CheckReport(checks)
