"""One integer rule for every size, count, margin, pair count and shift power.

Each entry point reads its integer parameters through ``linops._integer``:
64, 64.0 and np.int64(64) build byte-identical operators, and a fractional,
infinite or nan value raises ValueError naming the parameter instead of
being truncated.
"""

import math
import re

import numpy as np
import pytest

from su11kit.algebra import CheckSpec, check_transfo
from su11kit.linops import CircleBasis, FockBasis, _integer, identity, interior_projector
from su11kit.reduction import ModelParams, build_direct_hamiltonian, verify_reduction
from su11kit.reps import (
    AlgebraTriple,
    bose_ladder,
    mp_realization,
    quadratures,
    saf_bose_form,
    two_mode,
)

PARAMS = ModelParams(1.0, 0.1, 0.3)
LATTICE = CircleBasis(-100.0, 200)

# The integer rule's own message, which an entry point that reads ``dim``
# first gives before any rule of its own (a norm bound), and the message of
# the rule with a least value of 4.
DIM_RULE = "^dim must be an integer, got "
DIM_RULE_4 = "^dim must be an integer >= 4, got "

# Entry point -> (the regex its refusal matches, the call with the value in
# place of its integer parameter). Each call is made with 64 in that place.
ENTRY_POINTS = {
    "FockBasis": ("per-mode dimension", lambda v: identity(FockBasis((v,)))),
    "FockBasis two modes": ("per-mode dimension", lambda v: identity(FockBasis((3, v)))),
    "CircleBasis": ("count", lambda v: identity(CircleBasis(-3.5, v))),
    "interior_projector": ("margin", lambda v: interior_projector(FockBasis((200,)), v)),
    "check_transfo beta": ("beta", lambda v: check_transfo(LATTICE, v, 2, CheckSpec(64))),
    "verify_reduction": ("n_pairs", lambda v: verify_reduction(PARAMS, v)),
    "bose_ladder": ("dim", bose_ladder),
    "quadratures": (DIM_RULE_4, quadratures),
    "mp_realization": (DIM_RULE, lambda v: mp_realization(1.25, v)),
    "saf_bose_form": ("dim", lambda v: saf_bose_form(0.5 + 1j, v)),
    "two_mode": (DIM_RULE_4, two_mode),
    "build_direct_hamiltonian": (DIM_RULE_4, lambda v: build_direct_hamiltonian(PARAMS, v)),
}

# Each reader of a size with a least value -> (that least value, the name its
# refusal gives, the call with the value in place of the size).
LEAST_VALUES = {
    "FockBasis": (2, "per-mode dimension", lambda v: FockBasis((v,))),
    "FockBasis two modes": (2, "per-mode dimension", lambda v: FockBasis((3, v))),
    "CircleBasis": (2, "count", lambda v: CircleBasis(-3.5, v)),
    "quadratures": (4, "dim", quadratures),
    "two_mode": (4, "dim", two_mode),
    "build_direct_hamiltonian": (4, "dim", lambda v: build_direct_hamiltonian(PARAMS, v)),
    "saf_bose_form": (16, "dim", lambda v: saf_bose_form(0.5 + 1j, v)),
    "verify_reduction": (2, "n_pairs", lambda v: verify_reduction(PARAMS, v)),
}


def stored(result):
    """Every stored array of an operator, a tuple of them or a triple, as
    bytes, or the result itself when it holds no operator."""
    if isinstance(result, tuple):
        return [stored(part) for part in result]
    if isinstance(result, AlgebraTriple):
        return [stored(op) for op in (result.k0, result.kplus, result.kminus)]
    if hasattr(result, "_bands"):
        if result._bands is None:
            return ("dense", result._adjointed, result._dense.tobytes())
        return sorted((k, v.dtype.str, v.tobytes()) for k, v in result._bands.items())
    return result


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_refuses_a_non_integer_and_reads_an_integral_value_as_the_int(name):
    pattern, call = ENTRY_POINTS[name]
    for value in (2.5, 64.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=pattern):
            call(value)
    assert stored(call(64.0)) == stored(call(np.int64(64))) == stored(call(64))


@pytest.mark.parametrize("name", LEAST_VALUES)
def test_refuses_one_below_the_least_value_and_builds_at_it(name):
    least, named, call = LEAST_VALUES[name]
    message = f"{named} must be an integer >= {least}, got {least - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(least - 1)
    call(least)


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan])
def test_check_transfo_refuses_a_non_integer_power(n):
    with pytest.raises(ValueError, match="^n must be an integer, got "):
        check_transfo(CircleBasis(-8.0, 16), 1, n)


@pytest.mark.parametrize("n", [2.0, np.int64(2), np.float64(2.0)])
def test_check_transfo_reads_an_integral_power_as_the_int(n):
    basis = CircleBasis(-8.0, 16)
    assert check_transfo(basis, 1, n) == check_transfo(basis, 1, 2)


class TestReader:
    @pytest.mark.parametrize("value", [64, 64.0, "64", " 64 ", np.int64(64), np.float32(64)])
    def test_reads_an_integral_value_as_an_int(self, value):
        number = _integer(value, "size")
        assert number == 64 and type(number) is int

    def test_reads_a_negative_and_a_huge_integer_as_they_are(self):
        assert _integer(-3, "shift") == -3
        assert _integer(10 ** 400, "size") == 10 ** 400

    @pytest.mark.parametrize("value", [2.5, "2.5", math.inf, -math.inf, math.nan, "inf",
                                       None, 1j, np.float32(2.5), "sixty-four"])
    def test_refuses_anything_else_naming_the_parameter(self, value):
        with pytest.raises(ValueError, match=r"^size must be an integer, got "):
            _integer(value, "size")

    @pytest.mark.parametrize("value,least,message", [
        (2.5, 0, "margin must be a nonnegative integer, got 2.5"),
        (-1, 0, "margin must be a nonnegative integer, got -1"),
        (0, 1, "margin must be a positive integer, got 0"),
        (math.nan, 1, "margin must be a positive integer, got nan"),
    ])
    def test_refuses_a_value_below_least_as_it_refuses_a_non_integer(self, value, least,
                                                                     message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _integer(value, "margin", least=least)

    def test_reads_least_itself(self):
        assert _integer(0.0, "margin", least=0) == 0
        assert _integer("1", "beta", least=1) == 1

    @pytest.mark.parametrize("least,kind", [
        (None, "an integer"), (0, "a nonnegative integer"), (1, "a positive integer"),
        (2, "an integer >= 2"), (4, "an integer >= 4"), (16, "an integer >= 16"),
    ])
    def test_every_least_value_is_worded_and_read(self, least, kind):
        refused = [2.5, math.inf, math.nan] + ([] if least is None else [least - 1])
        for value in refused:
            message = f"size must be {kind}, got {value}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _integer(value, "size", least=least)
        for value in (0, 1) if least is None else (least, least + 1):
            number = _integer(float(value), "size", least=least)
            assert number == value and type(number) is int

    @pytest.mark.parametrize("call,message", [
        (lambda: CheckSpec(margin=-1), "margin must be a nonnegative integer, got -1"),
        (lambda: interior_projector(FockBasis((8,)), -1),
         "margin must be a nonnegative integer, got -1"),
        (lambda: check_transfo(LATTICE, 0, 1), "beta must be a positive integer, got 0"),
        (lambda: check_transfo(LATTICE, -2.0, 1), "beta must be a positive integer, got -2.0"),
    ])
    def test_an_out_of_range_margin_or_power_gets_the_one_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestExcludedIndices:
    @pytest.mark.parametrize("excluded", [(-1,), (4,), (7,), (1.5,), (1.0,),
                                          np.array([True, False, False, False]),
                                          np.array([0, 4], dtype=np.uint64)])
    def test_refuses_an_index_that_is_no_integer_in_range(self, excluded):
        with pytest.raises(ValueError, match=r"excluded must be integer indices in \[0, 4\)"):
            interior_projector(FockBasis((4,)), 0, excluded)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_an_integer_array_drops_the_states_a_tuple_drops(self, dtype):
        basis = CircleBasis(-4.0, 8)
        excluded = np.array([0, 3, 7], dtype=dtype)
        excluded.setflags(write=False)
        by_array = interior_projector(basis, 0, excluded)
        by_tuple = interior_projector(basis, 0, (0, 3, 7))
        assert stored(by_array) == stored(by_tuple)
        assert np.flatnonzero(by_array.diagonal().real).tolist() == [1, 2, 4, 5, 6]
