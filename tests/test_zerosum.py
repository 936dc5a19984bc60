"""Vector sums, rotations, and the staged shift constructions."""

import random
from functools import reduce
from itertools import accumulate
from math import gcd
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zscomb import (
    GroupSpec,
    complement_bijection,
    cyclic_shift,
    is_zero_sum,
    is_zero_sum_by_congruences,
    normalize_group,
    reciprocity_bijection,
    rotations_with_sum,
    sequence_sum,
    sequence_to_dyck,
    sequence_to_necklace,
    subset_to_dyck,
    target_sum_shift,
    translate,
    translate_complement_bijection,
    zero_sum_shift,
)
from zscomb.analysis import _groups_up_to
from zscomb.zerosum import _stage_digit, _sum_digits, _zero_sum_input

small_groups = (
    st.lists(st.integers(2, 9), max_size=3)
    .map(lambda fs: normalize_group(tuple(fs)))
    .filter(lambda g: g.order <= 60)
)


def vectors_over(group, max_mass=6):
    n = group.order
    return st.lists(st.integers(0, max_mass), min_size=n, max_size=n).map(tuple)


def test_sequence_sum_basic():
    g = GroupSpec((7,))
    assert sequence_sum(g, (0, 0, 1, 1, 1, 0, 2)) == 0
    assert sequence_sum(g, (0, 1, 0, 0, 0, 0, 0)) == 1
    g22 = GroupSpec((2, 2))
    # two copies of label 3 = (1,1): doubles to identity
    assert sequence_sum(g22, (0, 0, 0, 2)) == 0
    assert sequence_sum(g22, (0, 1, 1, 0)) == 3


def test_vector_validation():
    g = GroupSpec((4,))
    with pytest.raises(ValueError):
        sequence_sum(g, (1, 2, 3))  # wrong length
    with pytest.raises(ValueError):
        sequence_sum(g, (1, -1, 0, 0))
    with pytest.raises(ValueError, match="indicator entries must be 0 or 1"):
        subset_to_dyck(g, (2, 1, 0, 1))


@given(small_groups, st.data())
def test_two_sum_paths_agree(g, data):
    vec = data.draw(vectors_over(g))
    assert is_zero_sum(g, vec) == is_zero_sum_by_congruences(g, vec)


def _sum_by_fold(group, vec):
    """Reference: the group sum as a fold of GroupSpec.add over the labels."""
    return reduce(group.add, (group.scalar_mul(m, lab) for lab, m in enumerate(vec)), 0)


def _gate_passes(group, vec, subset):
    try:
        _zero_sum_input(group, vec, subset)
    except ValueError as exc:
        assert str(exc) == f"{'subset' if subset else 'sequence'} does not sum to the identity"
        return False
    return True


def test_sum_routes_agree_on_zero_sums_and_near_misses():
    # Random vectors almost never sum to zero, so build zero-sum ones with
    # zero_sum_shift (multiplicities above every factor, and subsets), then
    # move one unit to another label for a near-miss that cannot sum to zero.
    rng = random.Random(20)
    zero_sums = near_misses = 0
    for g in _groups_up_to(64):
        n, top = g.order, max(g.invariant_factors, default=1)
        for subset in (False, False, False, True):
            if subset:
                vec = [rng.randint(0, 1) for _ in range(n)]
            else:
                vec = [rng.randint(0, 2 * top + 2) for _ in range(n)]
                vec[rng.randrange(n)] = top + 1 + rng.randrange(top)
            while gcd(sum(vec), n) != 1:
                if subset:
                    vec[rng.randrange(n)] ^= 1
                else:
                    vec[0] += 1
            zero = zero_sum_shift(g, vec)[1]
            cases = [(zero, True)]
            if n > 1:
                a = rng.choice([lab for lab, m in enumerate(zero) if m])
                free = [lab for lab in range(n) if lab != a and not (subset and zero[lab])]
                if free:
                    miss = list(zero)
                    miss[a] -= 1
                    miss[rng.choice(free)] += 1
                    cases.append((tuple(miss), False))
            for vec, expect in cases:
                assert sequence_sum(g, vec) == _sum_by_fold(g, vec), (g, vec)
                assert is_zero_sum(g, vec) is expect
                assert is_zero_sum_by_congruences(g, vec) is expect
                assert _gate_passes(g, vec, subset) is expect
                zero_sums += expect
                near_misses += not expect
    assert zero_sums > 400 and near_misses > 400


@given(small_groups, st.data())
def test_translate_preserves_mass_and_shifts_sum(g, data):
    vec = data.draw(vectors_over(g))
    lab = data.draw(st.integers(0, g.order - 1))
    out = translate(g, vec, lab)
    assert sum(out) == sum(vec)
    expected = g.add(sequence_sum(g, vec), g.scalar_mul(sum(vec), lab))
    assert sequence_sum(g, out) == expected


def _translate_by_labels(group, vec, g):
    """Reference: move each count with one label addition."""
    out = [0] * group.order
    for lab, mult in enumerate(vec):
        out[group.add(lab, g)] = mult
    return tuple(out)


def test_translate_matches_label_additions():
    rng = random.Random(22)
    for factors in ((), (7,), (2, 2), (2, 6), (3, 3, 9), (2, 4, 8), (5, 60), (2, 2, 2, 2)):
        g = GroupSpec(factors)
        for _ in range(15):
            vec = tuple(rng.randint(0, 3) for _ in range(g.order))
            x = rng.randrange(g.order)
            assert translate(g, vec, x) == _translate_by_labels(g, vec, x)


def test_cyclic_shift_is_left_rotation():
    assert cyclic_shift((1, 2, 3, 4), 1) == (2, 3, 4, 1)
    assert cyclic_shift((1, 2, 3, 4), 0) == (1, 2, 3, 4)
    assert cyclic_shift((1, 2, 3, 4), 6) == (3, 4, 1, 2)
    assert cyclic_shift((), 5) == ()


@pytest.mark.parametrize(
    "bijection,kind",
    [
        (sequence_to_dyck, "sequence"),
        (sequence_to_necklace, "sequence"),
        (lambda g, vec: reciprocity_bijection(g, GroupSpec((5,)), vec), "sequence"),
        (subset_to_dyck, "subset"),
        (complement_bijection, "subset"),
        (translate_complement_bijection, "subset"),
    ],
    ids=["seq-to-dyck", "necklace", "reciprocity", "subset-to-dyck", "complement", "translate"],
)
def test_bijections_refuse_inputs_off_the_identity(bijection, kind):
    # mass 5 and size 2 meet every other precondition over Z/7; the sums are 1 and 3
    vec = (4, 1, 0, 0, 0, 0, 0) if kind == "sequence" else (0, 1, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=f"^{kind} does not sum to the identity$"):
        bijection(GroupSpec((7,)), vec)


def test_zero_sum_shift_worked_example():
    g = GroupSpec((7,))
    assert zero_sum_shift(g, (1, 0, 2, 0, 0, 1, 1)) == (3, (0, 0, 1, 1, 1, 0, 2))


def test_zero_sum_shift_rejects_bad_mass():
    g = GroupSpec((6,))
    with pytest.raises(ValueError):
        zero_sum_shift(g, (1, 1, 0, 0, 0, 0))  # mass 2 shares a factor with 6


@given(small_groups, st.data())
def test_zero_sum_shift_unique_among_rotations(g, data):
    vec = data.draw(vectors_over(g, max_mass=4))
    if gcd(sum(vec), g.order) != 1:
        vec = vec[:-1] + (vec[-1] + 1,)
    if gcd(sum(vec), g.order) != 1:
        return
    shift, rotated = zero_sum_shift(g, vec)
    assert rotated == cyclic_shift(vec, shift)
    assert is_zero_sum(g, rotated)
    assert rotations_with_sum(g, vec, 0) == [shift]


@given(small_groups, st.data())
def test_target_sum_shift_hits_every_target(g, data):
    vec = data.draw(vectors_over(g, max_mass=4))
    if gcd(sum(vec), g.order) != 1:
        return
    seen = {}
    for target in g.elements():
        shift, rotated = target_sum_shift(g, vec, target)
        assert sequence_sum(g, rotated) == target
        assert rotated == cyclic_shift(vec, shift)
        seen[target] = shift
    # coprime mass makes rotation -> sum a bijection, so shifts are distinct
    assert sorted(seen.values()) == list(range(g.order))


def test_target_sum_shift_matches_zero_sum_shift():
    g = GroupSpec((2, 2, 4))
    vec = (1, 0, 2, 0, 1, 0, 0, 0, 3, 0, 0, 1, 0, 0, 1, 0)  # mass 9, coprime to 16
    assert target_sum_shift(g, vec, 0)[1] == zero_sum_shift(g, vec)[1]


def test_stage_digits_read_every_rotation_off_one_prefix_pass():
    # The staged shift reads each stage's digit off the unrotated prefix
    # sums; at every shift that digit must be the rotated vector's own, and
    # every target must land on the one shift the rotation scan finds.
    rng = random.Random(48)
    for g in _groups_up_to(48):
        ns, n = g.invariant_factors, g.order
        vec = [rng.randint(0, 3) for _ in range(n)]
        while gcd(sum(vec), n) != 1:
            vec[rng.randrange(n)] += 1
        pre = list(accumulate(vec, initial=0))
        units = list(accumulate(ns, mul, initial=1))
        for s in range(n):
            digits = tuple(_stage_digit(pre, u, n_t, s) for n_t, u in zip(ns, units))
            assert digits == _sum_digits(ns, cyclic_shift(vec, s)), (g, vec, s)
        for target in g.elements():
            assert [target_sum_shift(g, vec, target)[0]] == rotations_with_sum(g, vec, target)
