"""Dense reference values for su11kit's report rows, from the printed formulas.

Each function builds its operators as dense numpy arrays, on a circle lattice
of ``count`` momenta ``p_min, p_min + 1, ...`` or on the Fock space of one or
two truncated modes, forms its identity with ``@``, and reduces the residual
to its largest absolute entry on the kept states, chosen here from scratch:
the states whose label in each mode lies in ``[margin, size - 1 - margin]``,
less the states that touch a clamped square-root amplitude. Two-mode states
are labelled row-major, ``index = n_a * dim_b + n_b``, by :func:`occupations`.
Nothing is imported from su11kit, so a defect in how su11kit forms or
reduces a residual does not reach these values.

Each residual comes with ``scale``, the largest absolute entry of the terms
it is formed from; a reported residual agrees with the oracle when they
differ by at most ``1e-12 * scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HYPERBOLIC, SPIN = 1.0, -1.0


def occupations(dims) -> np.ndarray:
    """The labels of every state of a basis of per-mode sizes ``dims``, one
    row per state, enumerated row-major: ``index = n_a * dim_b + n_b``."""
    index = np.arange(math.prod(dims), dtype=np.int64)
    if len(dims) == 1:
        return index[:, None]
    return np.stack(np.divmod(index, dims[1]), axis=1)


def kept_states(dims, margin: int, excluded=()) -> np.ndarray:
    """Ascending indices of the states whose labels all lie in
    ``[margin, size - 1 - margin]``, less ``excluded``, read off a table of
    every state's labels."""
    labels = occupations(dims)
    keep = np.all((labels >= margin) & (labels <= np.array(dims) - 1 - margin), axis=1)
    keep[list(excluded)] = False
    return np.flatnonzero(keep)


def momenta(p_min: float, count: int) -> np.ndarray:
    return p_min + np.arange(count, dtype=np.float64)


def raise_by(count: int, beta: int = 1) -> np.ndarray:
    """E+^beta: |p> to |p + beta>, so ``E[i, i - beta] = 1``; E-^beta is its transpose."""
    return np.eye(count, k=-beta)


def kept_max(residual: np.ndarray, margin: int, excluded=(), dims=None) -> float:
    """max |residual[i, j]| over kept states i and j of a basis of per-mode
    sizes ``dims``, by default one mode of the residual's order."""
    keep = kept_states(dims or residual.shape[:1], margin, excluded)
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


@dataclass(frozen=True)
class Triple:
    """Dense (K0, K+, K-) on a basis of per-mode sizes ``dims``, with the
    sign of [K+, K-] = -2 sign K0 and the Casimir's closed forms, each a
    number or a diagonal."""

    k0: np.ndarray
    kplus: np.ndarray
    kminus: np.ndarray
    sign: float
    dims: tuple[int, ...]
    casimir: tuple


def lowering(dim: int) -> np.ndarray:
    """a on ``dim`` Fock states: ``a[n - 1, n] = sqrt(n)``."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=np.float64))


def sqrt_of(diag: np.ndarray) -> np.ndarray:
    return np.diag(np.sqrt(np.diag(diag)))


def mp(k: float, dim: int) -> Triple:
    """K- = (2k + N)^{1/2} a, K+ = a^dag (2k + N)^{1/2}, K0 = k + N; the
    Casimir is k(k - 1)."""
    a, root = lowering(dim), sqrt_of(2.0 * k * np.eye(dim) + number(dim))
    return Triple(k * np.eye(dim) + number(dim), a.T @ root, root @ a, HYPERBOLIC,
                  (dim,), (k * (k - 1.0),))


def hp(spin: float, fidelity: str) -> Triple:
    """S- = (2S - N)^{1/2} a, Sz = N - S on 2S + 1 Fock states; S+ is
    a^dag (2S - N)^{1/2} corrected, and (2S + N)^{1/2} a^dag, the root read on
    the raised state, as printed. The Casimir is S(S + 1)."""
    dim = int(round(2 * spin)) + 1
    a, n = lowering(dim), number(dim)
    root = sqrt_of(2.0 * spin * np.eye(dim) - n)
    kplus = a.T @ root if fidelity == "corrected" else sqrt_of(2.0 * spin * np.eye(dim) + n) @ a.T
    return Triple(n - spin * np.eye(dim), kplus, root @ a, SPIN, (dim,),
                  (spin * (spin + 1.0),))


def saf(p0: complex, p_min: float, count: int) -> Triple:
    """K- = (P + P0) E-, K+ = E+ (P + P0*), K0 = P + Re(P0) - 1/2; the
    Casimir is -1/4 + (P0 - P0*)^2 / 4."""
    p, up = np.diag(momenta(p_min, count)), raise_by(count)
    one = np.eye(count)
    return Triple(p + (p0.real - 0.5) * one, up @ (p + p0.conjugate() * one),
                  (p + p0 * one) @ up.T, HYPERBOLIC, (count,), (-0.25 - p0.imag ** 2,))


def perelomov(lam: float, p_min: float, count: int) -> Triple:
    """K0 = P, K- = E- (P - 1/2 + i lam), K+ = E+ (P + 1/2 - i lam); the
    Casimir is recorded as -1/4 - lam^2 and as printed, -1/4 - lam^2/4."""
    p, up = np.diag(momenta(p_min, count)), raise_by(count)
    one = np.eye(count)
    return Triple(p, up @ (p + (0.5 - 1j * lam) * one), up.T @ (p + (-0.5 + 1j * lam) * one),
                  HYPERBOLIC, (count,), (-0.25 - lam ** 2, -0.25 - lam ** 2 / 4.0))


def two_mode(dim: int) -> Triple:
    """K- = a (x) a, K+ = a^dag (x) a^dag, K0 = (N (x) 1 + 1 (x) N + 1) / 2,
    by ``np.kron``, with the diagonal Casimir -1/4 + (n_a - n_b)^2 / 4."""
    if dim > 8:
        raise ValueError(f"the dense two-mode oracle stops at dim 8, got {dim}")
    a, n, one = lowering(dim), number(dim), np.eye(dim)
    labels = occupations((dim, dim))
    closed_form = np.diag(-0.25 + (labels[:, 0] - labels[:, 1]) ** 2 / 4.0)
    return Triple((np.kron(n, one) + np.kron(one, n) + np.eye(dim * dim)) / 2.0,
                  np.kron(a.T, a.T), np.kron(a, a), HYPERBOLIC, (dim, dim), (closed_form,))


def brackets(t: Triple, margin: int) -> list[tuple[float, float]]:
    """[K0,K+] - K+, [K0,K-] + K- and [K+,K-] + 2 sign K0 on the kept states."""
    z, plus, minus = t.k0, t.kplus, t.kminus
    out = []
    for terms in ((z @ plus, -(plus @ z), -plus), (z @ minus, -(minus @ z), minus),
                  (plus @ minus, -(minus @ plus), 2.0 * t.sign * z)):
        out.append((kept_max(sum(terms), margin, dims=t.dims), scale_of(*terms)))
    return out


def casimir(t: Triple, margin: int) -> tuple[list[tuple[float, float]], complex]:
    """K0^2 - sign (K+K- + K-K+)/2 less each closed form on the kept states,
    and the Casimir's value at the first kept state."""
    terms = (t.k0 @ t.k0, t.kplus @ t.kminus, t.kminus @ t.kplus)
    value = terms[0] - t.sign * (terms[1] + terms[2]) / 2.0
    out = []
    for closed_form in t.casimir:
        target = closed_form * np.eye(len(value)) if np.isscalar(closed_form) else closed_form
        out.append((kept_max(value - target, margin, dims=t.dims), scale_of(*terms, target)))
    first = kept_states(t.dims, margin)[0]
    return out, value[first, first]
