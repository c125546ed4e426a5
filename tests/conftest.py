import numpy as np
import pytest

from su11kit.linops import CircleBasis, _kept_block


def dense(a, b=None):
    """``a @ b``, or ``a`` alone, over every state as a numpy array: the kept
    block of all states, so the tests densify through the one route that reads
    a dense operator, and compare against numpy's own products and sums."""
    return _kept_block(np.arange(a.dim), a, b)


def spin_ladder_matrices(spin: float):
    """Textbook spin-S matrices in the Sz eigenbasis m = -S..S, ascending.

    Built straight from the ladder formula S-|m> = sqrt(S(S+1) - m(m-1))|m-1>,
    independently of any realization in the package; used as the oracle for
    the Holstein-Primakoff and Villain constructions.
    """
    dim = int(round(2 * spin)) + 1
    m = -spin + np.arange(dim, dtype=np.float64)
    sz = np.diag(m).astype(complex)
    amp = np.sqrt(spin * (spin + 1) - m[1:] * (m[1:] - 1))
    sminus = np.zeros((dim, dim), dtype=complex)
    sminus[np.arange(dim - 1), np.arange(1, dim)] = amp
    return sz, sminus.conj().T, sminus


def exact_range_basis(spin: float) -> CircleBasis:
    """Momentum lattice holding exactly the spin range p = -S..S."""
    return CircleBasis(-spin, int(round(2 * spin)) + 1)


@pytest.fixture
def circle64() -> CircleBasis:
    return CircleBasis(-32.0, 64)
