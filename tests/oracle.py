"""Dense reference values for su11kit's report rows, from the printed formulas.

Each function builds its operators as dense numpy arrays on a circle lattice
of ``count`` momenta ``p_min, p_min + 1, ...``, forms its identity with ``@``,
and reduces the residual to its largest absolute entry on the kept states,
chosen here from scratch: the lattice indices in ``[margin, count - 1 - margin]``,
less the states that touch a clamped square-root amplitude. Nothing is
imported from su11kit, so a defect in how su11kit forms or reduces a residual
does not reach these values.

Each function returns ``(residual, scale)``, ``scale`` being the largest
absolute entry of the terms the residual is formed from; a reported residual
agrees with the oracle when they differ by at most ``1e-12 * scale``.
"""

from __future__ import annotations

import numpy as np


def momenta(p_min: float, count: int) -> np.ndarray:
    return p_min + np.arange(count, dtype=np.float64)


def raise_by(count: int, beta: int = 1) -> np.ndarray:
    """E+^beta: |p> to |p + beta>, so ``E[i, i - beta] = 1``; E-^beta is its transpose."""
    return np.eye(count, k=-beta)


def kept_max(residual: np.ndarray, margin: int, excluded=()) -> float:
    """max |residual[i, j]| over kept states i and j."""
    keep = np.zeros(residual.shape[0], dtype=bool)
    keep[margin:residual.shape[0] - margin] = True
    keep[list(excluded)] = False
    return float(np.max(np.abs(residual[np.ix_(keep, keep)])))


def scale_of(*terms: np.ndarray) -> float:
    return max(float(np.max(np.abs(t))) for t in terms)


def transfo(p_min: float, count: int, beta: int, n: int, margin: int) -> tuple[float, float]:
    """E+^beta P^n E-^beta - (P - beta)^n, the shift identity of ``transfo``."""
    p = momenta(p_min, count)
    up = raise_by(count, beta)
    lhs = up @ np.diag(p ** n) @ up.T
    rhs = np.diag((p - beta) ** n)
    return kept_max(lhs - rhs, margin), scale_of(lhs, rhs)


def villain(spin: float, p_min: float, count: int, fidelity: str):
    """(Sz, S+, S-, clamp-touching states) of Villain's realization:
    Sz = P, S- = f(P) E-, S+ = E+ f(P), with

        corrected:   f(P)^2 = (S + 1/2)^2 - (P + 1/2)^2,
        as_printed:  f(P)^2 = (S + 1/2)^2 - (P - 1/2)^2,

    and a negative f^2 clamped to zero. The amplitude f(p_i) joins states i
    and i + 1, so both touch it when it is clamped."""
    p = momenta(p_min, count)
    f_squared = (spin + 0.5) ** 2 - (p + (0.5 if fidelity == "corrected" else -0.5)) ** 2
    clamped = np.flatnonzero(f_squared < 0)
    touching = np.union1d(clamped, clamped[clamped + 1 < count] + 1)
    lower = np.diag(np.sqrt(np.clip(f_squared, 0.0, None))) @ raise_by(count).T
    return np.diag(p), lower.T, lower, touching


def villain_offset(spin: float, p_min: float, count: int, margin: int) -> tuple[float, float]:
    """[S+, S-] - 2 Sz + 2 of the as-printed Villain realization: the ledger's
    villain row, which is zero on the unclamped interior."""
    sz, plus, minus, touching = villain(spin, p_min, count, "as_printed")
    terms = plus_minus, minus_plus, twice_sz, two = (
        plus @ minus, minus @ plus, 2.0 * sz, 2.0 * np.eye(count))
    residual = (plus_minus - minus_plus) - twice_sz + two
    return kept_max(residual, margin, touching), scale_of(*terms)
