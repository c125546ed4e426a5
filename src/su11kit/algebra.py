"""Verification engine: Casimir operators and interior-projected residuals.

Residuals are evaluated behind an interior projector that strips states near
the truncation boundary, plus, for clamped spin realizations, the states that
touch a clamped square-root amplitude. On the surviving block each identity
either holds to machine precision or fails by a finite, reportable amount;
the reports never auto-resolve a discrepancy, they record it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import (
    BasisMismatchError,
    Check,
    CheckReport,
    CircleBasis,
    OperatorMatrix,
    commutator,
    diagonal,
    interior_projector,
    maxabs_norm,
)
from .reps import HYPERBOLIC, SPIN, AlgebraTriple, circle_momentum


@dataclass(frozen=True)
class CheckSpec:
    """Margin and tolerance shared by a batch of residual checks."""

    margin: int = 2
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if int(self.margin) != self.margin or self.margin < 0:
            raise ValueError(f"margin must be a nonnegative integer, got {self.margin}")
        object.__setattr__(self, "margin", int(self.margin))
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


def _require_kind(triple: AlgebraTriple, kind: str, caller: str) -> None:
    if triple.kind != kind:
        raise ValueError(f"{caller} requires a {kind} triple, got {triple.kind}")


def casimir_su11(triple: AlgebraTriple) -> OperatorMatrix:
    """K0^2 - (K+K- + K-K+)/2 for a hyperbolic triple."""
    _require_kind(triple, HYPERBOLIC, "casimir_su11")
    k0, kp, km = triple.k0, triple.kplus, triple.kminus
    return k0 @ k0 - (kp @ km + km @ kp) * 0.5


def casimir_spin(triple: AlgebraTriple) -> OperatorMatrix:
    """Sz^2 + (S+S- + S-S+)/2 for a spin triple; equals S(S+1) when exact."""
    _require_kind(triple, SPIN, "casimir_spin")
    sz, sp, sm = triple.sz, triple.splus, triple.sminus
    return sz @ sz + (sp @ sm + sm @ sp) * 0.5


def masked_interior(triple: AlgebraTriple, margin: int) -> OperatorMatrix:
    """Interior projector with the triple's clamp-touching states removed."""
    return interior_projector(triple.basis, margin, triple.params.clamp_excluded)


def _projected_residual(
    proj: OperatorMatrix, residual_op: OperatorMatrix
) -> float:
    return maxabs_norm(proj @ residual_op @ proj)


def check_commutators(triple: AlgebraTriple, spec: CheckSpec = CheckSpec()) -> CheckReport:
    """Residuals of the three defining brackets on the projected interior.

    Hyperbolic: [K0,K+]-K+, [K0,K-]+K-, [K+,K-]+2K0.
    Spin:       [Sz,S+]-S+, [Sz,S-]+S-, [S+,S-]-2Sz.
    """
    proj = masked_interior(triple, spec.margin)
    z, plus, minus = triple.k0, triple.kplus, triple.kminus
    if triple.kind == HYPERBOLIC:
        items = [
            ("[K0,K+]-K+", commutator(z, plus) - plus),
            ("[K0,K-]+K-", commutator(z, minus) + minus),
            ("[K+,K-]+2K0", commutator(plus, minus) + 2.0 * z),
        ]
    else:
        items = [
            ("[Sz,S+]-S+", commutator(z, plus) - plus),
            ("[Sz,S-]+S-", commutator(z, minus) + minus),
            ("[S+,S-]-2Sz", commutator(plus, minus) - 2.0 * z),
        ]
    metadata = {"margin": str(spec.margin), "variant": triple.params.variant}
    if triple.params.fidelity is not None:
        metadata["fidelity"] = triple.params.fidelity
    if triple.params.clamp_excluded:
        metadata["clamp_excluded"] = str(len(triple.params.clamp_excluded))
    checks = tuple(
        Check(name, _projected_residual(proj, op), spec.tolerance, dict(metadata))
        for name, op in items
    )
    return CheckReport(checks)


def check_adjointness(triple: AlgebraTriple, spec: CheckSpec = CheckSpec()) -> CheckReport:
    """max|K+ - (K-)^dag| as a single check (margin plays no role here)."""
    gap = maxabs_norm(triple.kplus - triple.kminus.dag())
    metadata = {"variant": triple.params.variant}
    if triple.params.fidelity is not None:
        metadata["fidelity"] = triple.params.fidelity
    return CheckReport(
        (Check("K+ vs (K-)^dag", gap, spec.tolerance, metadata),),
    )


def _expected_casimir_diagonal(triple: AlgebraTriple) -> tuple[np.ndarray, str]:
    """Closed-form Casimir diagonal implied by the triple's parameters."""
    params = triple.params
    basis = triple.basis
    if params.variant == "mp":
        value = params.k * (params.k - 1.0)
        return np.full(basis.dim, value), "k*(k-1)"
    if params.variant in ("hp", "villain"):
        value = params.spin * (params.spin + 1.0)
        return np.full(basis.dim, value), "S*(S+1)"
    if params.variant in ("saf", "bose_form1", "bose_form2"):
        value = -0.25 - params.p0.imag ** 2
        return np.full(basis.dim, value), "-1/4 + (P0 - conj(P0))^2/4"
    if params.variant == "two_mode":
        occ = basis.occupations()
        diff = occ[:, 0] - occ[:, 1]
        return -0.25 + diff.astype(np.float64) ** 2 / 4.0, "-1/4 + (n_a - n_b)^2/4"
    raise ValueError(f"no closed-form Casimir for variant {params.variant!r}")


def check_casimir(triple: AlgebraTriple, spec: CheckSpec = CheckSpec()) -> CheckReport:
    """Projected residual of the computed Casimir against its closed form.

    For the Perelomov realization two candidate constants circulate,
    -1/4 - lam^2/4 (as printed next to the realization) and -1/4 - lam^2
    (what the shift-affine mapping implies). The report evaluates both,
    states which one the matrices actually match, and uses the matching one
    as the primary residual; the loser stays in the metadata as data.
    """
    computed = casimir_su11(triple) if triple.kind == HYPERBOLIC else casimir_spin(triple)
    proj = masked_interior(triple, spec.margin)
    basis = triple.basis

    if triple.params.variant == "perelomov":
        lam = triple.params.lam
        candidates = {
            "-1/4 - lam^2": -0.25 - lam ** 2,
            "-1/4 - lam^2/4": -0.25 - lam ** 2 / 4.0,
        }
        residuals = {
            label: _projected_residual(
                proj, computed - diagonal(basis, np.full(basis.dim, value))
            )
            for label, value in candidates.items()
        }
        best = min(residuals, key=residuals.get)
        metadata = {"margin": str(spec.margin), "variant": "perelomov", "matches": best}
        for label, value in candidates.items():
            metadata[f"candidate[{label}]"] = repr(value)
            metadata[f"residual[{label}]"] = repr(residuals[label])
        return CheckReport(
            (Check("casimir closed form", residuals[best], spec.tolerance, metadata),),
        )

    expected_diag, formula = _expected_casimir_diagonal(triple)
    residual = _projected_residual(proj, computed - diagonal(basis, expected_diag))
    metadata = {
        "margin": str(spec.margin),
        "variant": triple.params.variant,
        "expected": formula,
    }
    if triple.params.fidelity is not None:
        metadata["fidelity"] = triple.params.fidelity
    if not np.all(expected_diag == expected_diag[0]):
        metadata["expected_kind"] = "diagonal"
    else:
        metadata["expected_value"] = repr(float(expected_diag[0]))
    # Record what the matrices actually produced on the projected interior;
    # for the as-printed variants this is the documented discrepancy.
    first = np.flatnonzero(np.real(proj.diagonal()) > 0.5)[0]
    metadata["observed_first"] = repr(float(computed.diagonal()[first].real))
    return CheckReport(
        (Check("casimir closed form", residual, spec.tolerance, metadata),),
    )


def check_transfo(
    basis: CircleBasis, beta: int, n: int, spec: CheckSpec = CheckSpec()
) -> CheckReport:
    """Residual of the shift identity Eplus^b P^n Eminus^b = (P - b)^n.

    Only integer shift powers are representable on the unit lattice, so beta
    is restricted to positive integers; n is capped at 3 because that is as
    far as the downstream constructions ever need. With margin >= beta the
    identity is exact; smaller margins leave the lattice edge in view and the
    check reports the resulting boundary residual as a failure.
    """
    beta = int(beta)
    if beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")
    if n not in (1, 2, 3):
        raise ValueError(f"n must be in {{1, 2, 3}}, got {n}")
    p, eplus, eminus = circle_momentum(basis)
    up, down, pn = eplus, eminus, p
    for _ in range(beta - 1):
        up = up @ eplus
        down = down @ eminus
    for _ in range(n - 1):
        pn = pn @ p
    lhs = up @ pn @ down
    rhs = diagonal(basis, (basis.momenta() - beta) ** n)
    proj = interior_projector(basis, spec.margin)
    residual = _projected_residual(proj, lhs - rhs)
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
