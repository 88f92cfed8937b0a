import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hptools import (DomainError, alpha_adjust, graph_from_edges, max_bad_set,
                     random_graph)
from hptools.errors import exact
from hptools.freeness import (BipGraph, distinguishing_set, extract_clone_classes,
                              planted_clone_instance)
from hptools.regularity import is_epsilon_regular, is_grey, toy_szemeredi_partition

# exponents stay far inside the +-400 that exact reads; p/q has no exponent
DECIMALS = st.from_regex(r"[-+]?[0-9]{1,6}(\.[0-9]{0,6})?([eE][-+]?[0-9]{1,2})?",
                         fullmatch=True)
RATIOS = st.from_regex(r"[-+]?[0-9]{1,6}/0*[1-9][0-9]{0,5}", fullmatch=True)


@given(st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                 st.fractions(), DECIMALS, RATIOS))
def test_exact_reads_what_fraction_reads(value):
    assert exact(value, "refused") == Fraction(value)


def test_exact_returns_a_fraction_unchanged():
    value = Fraction(3, 7)
    assert exact(value, "refused") is value


@pytest.mark.parametrize("value", [
    "x", None, float("nan"), float("inf"), float("-inf"), "nan", "inf", "1/0",
    "1e400", "1e-400"])
def test_exact_refuses_what_is_no_finite_number(value):
    with pytest.raises(DomainError, match="^refused$"):
        exact(value, "refused")


def test_exact_reads_the_exponents_inside_the_float_range():
    assert exact("1e399", "refused") == 10 ** 399
    assert exact("1e-399", "refused") == Fraction(1, 10 ** 399)


def test_exact_refuses_a_huge_exponent_before_expanding_it():
    # Fraction("1e-4000000") builds 10^4000000, which takes seconds
    start = time.perf_counter()
    with pytest.raises(DomainError):
        exact("1e-4000000", "refused")
    assert time.perf_counter() - start < 0.1


G6 = random_graph(6, 0.5, seed=1)
PLANTED = planted_clone_instance(1, 1, copies=4)


# each of these once ended in a bare ValueError from Fraction
@pytest.mark.parametrize("call, message", [
    (lambda: max_bad_set(G6, (0, 1) * 3, "x"), "alpha must be a finite number"),
    (lambda: alpha_adjust(G6, (0, 1) * 3, 1, "x"), "alpha must be a finite number"),
    (lambda: is_epsilon_regular(G6, 0b000111, 0b111000, "x"),
     "eps must be a finite number"),
    (lambda: is_grey(graph_from_edges(4, []), 0b0011, 0b1100, Fraction(1, 4), "x"),
     "delta must be a finite number"),
    (lambda: toy_szemeredi_partition(G6, 2, "x"), "eps must be a finite number"),
    (lambda: distinguishing_set(BipGraph(2, 4, (0b0011, 0b1100)), 0b11,
                                float("nan"), seed=0),
     "alpha must be a finite number"),
    (lambda: extract_clone_classes(*PLANTED, float("nan"), 1),
     "alpha must be a finite number"),
], ids=["max_bad_set", "alpha_adjust", "is_epsilon_regular", "is_grey",
        "toy_szemeredi_partition", "distinguishing_set", "extract_clone_classes"])
def test_threshold_readers_refuse_a_non_number(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_is_grey_refuses_an_eps_it_would_not_reach():
    # density 0 lies outside [delta, 1 - delta], so the regularity check,
    # the only other reader of eps, never runs
    E = graph_from_edges(4, [])
    with pytest.raises(DomainError, match="^eps must be a finite number$"):
        is_grey(E, 0b0011, 0b1100, "x", Fraction(1, 4))
