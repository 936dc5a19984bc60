"""Every numeric argument meets the one integer gate at its entry point."""

import re

import pytest

from zscomb import (
    GroupSpec,
    character_sum,
    cnr_reciprocity_check,
    count_elements_of_order,
    count_sequences,
    cyclic_shift,
    divisors,
    enum_dyck,
    enum_pairs,
    enum_sequences,
    enum_subsets,
    factorize,
    gaps_to_word,
    is_prime,
    mobius,
    multinomial,
    rational_catalan,
    sequences_by_sum,
    subset_reci_predicate,
    subsets_by_sum,
    v2,
)
from zscomb.groups import _integer, _integers

G = GroupSpec((2, 4))
BUDGET = "the budget must be an integer, got 2.5"

# (call, exact message); the 1.0-style inputs used to give a wrong answer
CASES = {
    "factorize": (lambda: factorize(2.5), "n must be an integer, got 2.5"),
    "divisors": (lambda: divisors(2.5), "n must be an integer, got 2.5"),
    "divisors-6.0": (lambda: divisors(6.0), "n must be an integer, got 6.0"),
    "mobius": (lambda: mobius(2.5), "n must be an integer, got 2.5"),
    "mobius-6.0": (lambda: mobius(6.0), "n must be an integer, got 6.0"),
    "is_prime": (lambda: is_prime(2.5), "n must be an integer, got 2.5"),
    "is_prime-7.0": (lambda: is_prime(7.0), "n must be an integer, got 7.0"),
    "character_sum": (lambda: character_sum(G, 0, 2.5), "d must be an integer, got 2.5"),
    "count_elements_of_order": (
        lambda: count_elements_of_order(G, 2.5), "d must be an integer, got 2.5"),
    "label": (lambda: G.label([2.5, 0]), "coordinates must be integers, got [2.5, 0]"),
    "label-1.0": (lambda: G.label([1.0, 2]), "coordinates must be integers, got [1.0, 2]"),
    "label-generator": (
        lambda: G.label(x / 2 for x in (2, 4)), "coordinates must be integers, got (1.0, 2.0)"),
    "scalar_mul": (lambda: G.scalar_mul(2.5, 3), "c must be an integer, got 2.5"),
    "scalar_mul-2.0": (lambda: G.scalar_mul(2.0, 3), "c must be an integer, got 2.0"),
    "multinomial-n": (lambda: multinomial(2.5, 1, 1), "n must be an integer, got 2.5"),
    "multinomial-parts": (
        lambda: multinomial(3, 2.5, 0.5), "parts must be integers, got (2.5, 0.5)"),
    "cnr-n": (lambda: cnr_reciprocity_check(2.5, 3, 1), "n must be an integer, got 2.5"),
    "cnr-m": (lambda: cnr_reciprocity_check(2, 2.5, 1), "m must be an integer, got 2.5"),
    "cnr-r": (lambda: cnr_reciprocity_check(2, 3, 2.5), "r must be an integer, got 2.5"),
    "v2": (lambda: v2(2.5), "m must be an integer, got 2.5"),
    "subset_reci_predicate": (
        lambda: subset_reci_predicate(G, 2.5), "k must be an integer, got 2.5"),
    "cyclic_shift": (lambda: cyclic_shift((1, 2, 3), 2.5), "l must be an integer, got 2.5"),
    "gaps_to_word": (lambda: gaps_to_word((1, 2.5)), "gaps must be integers, got (1, 2.5)"),
    "enum_sequences": (lambda: enum_sequences(G, 2, 0, 2.5), BUDGET),
    "enum_subsets": (lambda: enum_subsets(G, 2, 0, 2.5), BUDGET),
    "enum_subsets-10.5": (
        lambda: enum_subsets(G, 2, 0, limit=10.5), "the budget must be an integer, got 10.5"),
    "enum_pairs": (lambda: enum_pairs(G, 1, 1, 0, 2.5), BUDGET),
    "sequences_by_sum": (lambda: sequences_by_sum(G, 2, 2.5), BUDGET),
    "subsets_by_sum": (lambda: subsets_by_sum(G, 2, 2.5), BUDGET),
    "enum_dyck": (lambda: enum_dyck(3, 2, 2.5), BUDGET),
    # an integer below its floor meets the same gate, in the same wording
    "v2-0": (lambda: v2(0), "m must be >= 1, got 0"),
    "character_sum-0": (lambda: character_sum(G, 0, 0), "d must be >= 1, got 0"),
    "count_elements_of_order-0": (
        lambda: count_elements_of_order(G, 0), "d must be >= 1, got 0"),
}


@pytest.mark.parametrize("call, reason", CASES.values(), ids=CASES)
def test_non_integer_meets_the_integer_gate(call, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        call()


def test_a_float_never_hits_a_cached_int():
    assert divisors(6) == (1, 2, 3, 6) and mobius(6) == 1 and is_prime(7)
    for call in (lambda: divisors(6.0), lambda: mobius(6.0), lambda: factorize(7.0)):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            call()


def test_the_gate_owns_the_floor():
    # the floor itself passes, and True is read as 1
    assert _integer(1, "m", 1) == 1 and _integers(iter([2, 4]), "factors", 2) == (2, 4)
    assert _integer(True, "m", 1) == 1 and type(_integer(True, "m", 1)) is int
    assert _integers((True, 0), "gaps", 0) == (1, 0)
    refusals = (
        # a non-integer below the floor gets the integer message first
        (lambda: _integer(0.5, "m", 1), "m must be an integer, got 0.5"),
        (lambda: _integers((-1.5,), "gaps", 0), "gaps must be integers, got (-1.5,)"),
        (lambda: _integer(True, "d", 2), "d must be >= 2, got 1"),
        # an iterator's values show as a tuple
        (lambda: GroupSpec(iter([1, 4])), "invariant factors must be >= 2, got (1, 4)"),
        (lambda: gaps_to_word(iter([1, -1])), "gaps must be >= 0, got (1, -1)"),
    )
    for call, reason in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            call()


class Int(int):
    """An int subclass: not a plain int, so it must go through ``__index__``."""


# Every site that once tested for a plain int before calling the gate: a call
# and the plain ints it is tried at; True stands for 1.
EDGES = {
    "is_prime": (is_prime, (1, 7, 9)),
    "coords": (G.coords, (1, 6)),
    "count_sequences": (lambda m: count_sequences(G, m), (1, 4)),
    "rational_catalan-a": (lambda a: rational_catalan(a, 5), (1, 3)),
    "rational_catalan-b": (lambda b: rational_catalan(3, b), (1, 4)),
    "v2": (v2, (1, 12)),
    "subset_reci_predicate": (lambda k: subset_reci_predicate(GroupSpec((12,)), k), (1, 4, 6)),
}


@pytest.mark.parametrize("call, values", EDGES.values(), ids=EDGES)
def test_bools_and_int_subclasses_answer_as_the_plain_int(call, values):
    answers = [(value, call(value)) for value in values]
    assert call(True) == answers[0][1] and type(call(True)) is type(answers[0][1])
    for value, want in answers:
        got = call(Int(value))
        assert got == want and type(got) is type(want), value
