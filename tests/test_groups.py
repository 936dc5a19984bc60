"""Group structure, normalization, and character-sum arithmetic."""

import pickle
import random
from copy import deepcopy
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zscomb import (
    GroupSpec,
    character_sum,
    count_elements_of_order,
    divisors,
    factorize,
    is_prime,
    mobius,
    normalize_group,
)
from zscomb import groups
from zscomb.analysis import all_abelian_groups
from zscomb.groups import _minus, character_profile

small_groups = (
    st.lists(st.integers(1, 12), max_size=4)
    .map(lambda fs: normalize_group(tuple(fs)))
    .filter(lambda g: g.order <= 200)
)


def test_factorize():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors_and_mobius():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert [mobius(d) for d in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_parse_and_str():
    assert GroupSpec.parse("2,2,4").invariant_factors == (2, 2, 4)
    assert GroupSpec.parse("").invariant_factors == ()
    assert GroupSpec.parse("1").invariant_factors == ()
    assert str(GroupSpec((2, 2, 4))) == "2,2,4"
    assert str(GroupSpec(())) == "1"


def test_chain_validation():
    with pytest.raises(ValueError):
        GroupSpec((2, 3))
    with pytest.raises(ValueError):
        GroupSpec((0,))


def test_groupspec_value_contract():
    g = GroupSpec((2, 4))
    same = GroupSpec(invariant_factors=(2, 4))
    assert g == same and not g != same and hash(g) == hash(same) == hash(((2, 4),))
    for other in (GroupSpec((8,)), GroupSpec((2, 2, 2)), GroupSpec(())):
        assert g != other and not g == other
    assert g != (2, 4) and g != "2,4"
    assert {g, same, GroupSpec((8,))} == {g, GroupSpec((8,))}
    assert {g: 1}[same] == 1
    assert repr(g) == "GroupSpec(invariant_factors=(2, 4))"
    assert repr(GroupSpec(())) == "GroupSpec(invariant_factors=())"
    with pytest.raises(AttributeError):
        g.invariant_factors = (8,)
    with pytest.raises(AttributeError, match=r"^cannot delete field 'order'$"):
        del g.order
    assert g.invariant_factors == (2, 4) and g.order == 8
    for orig in (g, GroupSpec((3, 3, 9)), GroupSpec(())):
        for copy in (pickle.loads(pickle.dumps(orig)), deepcopy(orig)):
            assert type(copy) is GroupSpec and copy == orig and hash(copy) == hash(orig)
            assert copy.order == orig.order
            with pytest.raises(AttributeError):
                copy.invariant_factors = ()
    with pytest.raises(ValueError, match=r"^invariant factors must be >= 2, got \(0,\)$"):
        GroupSpec((0,))
    with pytest.raises(ValueError, match=r"^\(2, 3\) is not a divisibility chain$"):
        GroupSpec((2, 3))


def test_normalize_group():
    assert normalize_group((3, 2)).invariant_factors == (6,)
    assert normalize_group((2, 4, 3)).invariant_factors == (2, 12)
    assert normalize_group((1, 1)).invariant_factors == ()
    assert normalize_group((6, 4)).invariant_factors == (2, 12)


def _chain_by_primes(factors):
    """Invariant factors of C_f1 x ... x C_fk from the primary decomposition:
    each prime's exponents, largest first, go into n_r, n_(r-1), ...."""
    exponents = {}
    for f in factors:
        for p, e in factorize(f):
            exponents.setdefault(p, []).append(e)
    top_down = [1] * max(map(len, exponents.values()), default=0)
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            top_down[i] *= p**e
    return tuple(reversed(top_down))


@given(
    st.lists(
        st.one_of(st.sampled_from((1, 2, 4, 6, 9, 12, 36, 60, 210)), st.integers(1, 10**6)),
        max_size=8,
    )
)
@example([])
@example([1, 1, 1])
@example([4, 4, 2, 2, 8])
@example([6, 10, 15])
@example([12, 18, 1, 12])
def test_normalize_group_matches_primary_decomposition(factors):
    assert normalize_group(factors).invariant_factors == _chain_by_primes(factors)


def test_non_integer_factors_rejected():
    # the message names the factors as given, even when they come from a generator
    calls = (
        (lambda: GroupSpec((2.5,)), "invariant factors must be integers, got (2.5,)"),
        (lambda: GroupSpec((2, 4.0)), "invariant factors must be integers, got (2, 4.0)"),
        (lambda: normalize_group((4.0,)), "factors must be integers, got (4.0,)"),
        (lambda: normalize_group(f for f in (3, 0.5)), "factors must be integers, got (3, 0.5)"),
        (lambda: normalize_group(f for f in (3, 0)), "factors must be positive, got (3, 0)"),
        (lambda: normalize_group((3, -2)), "factors must be positive, got (3, -2)"),
    )
    for call, reason in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == reason
    # anything with __index__ is an integer, and comes back as an int
    class Two:
        def __index__(self):
            return 2

    for g in (GroupSpec((Two(), 4)), normalize_group((True, 4, Two()))):
        assert g.invariant_factors == (2, 4) and all(type(f) is int for f in g.invariant_factors)


def test_trivial_group():
    t = GroupSpec(())
    assert t.order == 1 and t.exponent == 1 and t.rank == 0
    assert list(t.elements()) == [0]
    assert t.add(0, 0) == 0 and t.negate(0) == 0


def test_check_label():
    g = GroupSpec((2, 4))
    assert [g.check_label(lab) for lab in g.elements()] == list(range(8))
    for bad in (8, -1, 99):
        with pytest.raises(ValueError, match="out of range for order 8"):
            g.check_label(bad)
    assert GroupSpec(()).check_label(0) == 0


def test_label_roundtrip():
    g = GroupSpec((2, 2, 4))
    assert g.order == 16
    # least-significant-first: label 1 is the generator of the first factor
    assert g.coords(1) == (1, 0, 0)
    assert g.coords(2) == (0, 1, 0)
    assert g.coords(4) == (0, 0, 1)
    # every label operation against a label -> digits table counted out by
    # itertools.product (the first digit turns fastest), with no divmod
    for order in range(1, 33):
        for g in all_abelian_groups(order):
            fs = g.invariant_factors
            table = [tuple(reversed(ds)) for ds in product(*map(range, reversed(fs)))]
            label = {ds: lab for lab, ds in enumerate(table)}.__getitem__

            def reduced(ds):
                return label(tuple(a % n for a, n in zip(ds, fs)))

            assert len(table) == g.order
            for a, da in enumerate(table):
                assert g.coords(a) == da and g.label(da) == a
                assert g.negate(a) == reduced([-x for x in da])
                for c in (-3, -1, 0, 2, 5, g.exponent + 1):
                    assert g.scalar_mul(c, a) == reduced([c * x for x in da])
                assert g.element_order(a) == next(
                    d for d in range(1, g.order + 1) if reduced([d * x for x in da]) == 0
                )
                for b, db in enumerate(table):
                    assert g.add(a, b) == reduced([x + y for x, y in zip(da, db)])
                    assert g.sub(a, b) == reduced([x - y for x, y in zip(da, db)])


def test_minus_tabulates_sub():
    rng = random.Random(5)
    for order in range(1, 129):
        for g in all_abelian_groups(order):
            # every target up to order 32, one seeded target above
            for target in g.elements() if order <= 32 else [rng.randrange(order)]:
                minus = _minus(g.invariant_factors, g.coords(target))
                assert minus == [g.sub(target, s) for s in g.elements()], (g, target)


@given(small_groups, st.data())
def test_group_axioms(g, data):
    n = g.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert g.add(a, b) == g.add(b, a)
    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
    assert g.add(a, 0) == a
    assert g.add(a, g.negate(a)) == 0
    assert g.sub(a, b) == g.add(a, g.negate(b))
    assert g.scalar_mul(3, a) == g.add(a, g.add(a, a))


@given(small_groups)
def test_element_orders(g):
    for a in g.elements():
        d = g.element_order(a)
        assert g.exponent % d == 0
        assert g.scalar_mul(d, a) == 0
        for e in divisors(d)[:-1]:
            assert g.scalar_mul(e, a) != 0


@given(small_groups)
def test_count_elements_of_order_matches_enumeration(g):
    from collections import Counter

    by_order = Counter(g.element_order(a) for a in g.elements())
    for d in divisors(g.exponent):
        assert count_elements_of_order(g, d) == by_order.get(d, 0)
    assert count_elements_of_order(g, 5 * g.exponent + 7) == 0


@given(small_groups)
def test_character_sum_row_identities(g):
    n = g.order
    # summing over targets at fixed order d counts nothing twice:
    # sum_g Phi(g, d) = 0 for d > 1 and = n for d = 1
    for d in divisors(g.exponent):
        total = sum(character_sum(g, lab, d) for lab in g.elements())
        assert total == (n if d == 1 else 0)
    # at a fixed target, summing over d recovers a point-mass indicator:
    # sum_d Phi(g, d) = n * [g == 0]
    for lab in g.elements():
        total = sum(character_sum(g, lab, d) for d in divisors(g.exponent))
        assert total == (n if lab == 0 else 0)


def test_character_sum_brute_force_definition():
    # Phi(g, d) equals the sum over elements h of order d of the number of
    # solutions ... checked here against the direct character-theoretic
    # computation on a cyclic group, where characters are integral powers.
    import cmath

    g = GroupSpec((6,))
    for lab in g.elements():
        for d in divisors(6):
            direct = sum(
                cmath.exp(2j * cmath.pi * h * lab / 6)
                for h in range(6)
                if g.element_order(h) == d
            )
            assert abs(character_sum(g, lab, d) - direct.real) < 1e-9
            assert abs(direct.imag) < 1e-9


def test_character_sum_invalid_order():
    g = GroupSpec((4,))
    with pytest.raises(ValueError):
        character_sum(g, 0, 0)
    assert character_sum(g, 0, 3) == 0  # 3 does not divide the exponent


def test_character_profile_matches_character_sum():
    # the prime-power kernel against the per-divisor reference, on every target
    for order in range(1, 65):
        for g in all_abelian_groups(order):
            for t in g.elements():
                sums = [(d, character_sum(g, t, d)) for d in divisors(g.exponent)]
                assert list(character_profile(g, t)) == [(d, c) for d, c in sums if c]


def test_character_profile_matches_character_sum_to_order_2048():
    # exponents up to 2048 reach 2^11 and four distinct primes (2*3*5*7 = 210)
    rng = random.Random(2048)
    for order in range(1, 2049):
        for g in all_abelian_groups(order):
            for t in (0, rng.randrange(order)):
                sums = [(d, character_sum(g, t, d)) for d in divisors(g.exponent)]
                assert character_profile(g, t) == tuple((d, c) for d, c in sums if c), (g, t)


def test_character_profile_refuses_bad_targets(monkeypatch):
    g, calls = GroupSpec((2, 4)), []
    monkeypatch.setattr(groups, "_profile", lambda *args: calls.append(args))
    for bad in (-1, 8, 8, -1):  # every call raises before the kernel runs
        with pytest.raises(ValueError, match="out of range"):
            character_profile(g, bad)
    assert calls == []
    character_profile(g, 7)
    assert calls == [((2, 4), 7)]
