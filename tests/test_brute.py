"""The enumeration oracles themselves: shapes, order, budgets."""

import os
import random
from collections import Counter
from decimal import Decimal
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from zscomb import (
    EnumerationLimitError,
    GroupSpec,
    all_abelian_groups,
    cnr_reciprocity_check,
    count_pairs_coefficient,
    count_sequences,
    count_subsets,
    default_limit,
    enum_dyck,
    enum_pairs,
    enum_sequences,
    enum_subsets,
    is_zero_sum,
    rotations_with_sum,
    sequence_sum,
    sequences_by_sum,
    subsets_by_sum,
    target_sum_shift,
)
from zscomb.brute import _candidates, _Packing
from zscomb.groups import _label
from zscomb.poincare import series_cross_check


def test_enum_sequences_example():
    assert enum_sequences(GroupSpec((3,)), 2, 0) == [(2, 0, 0), (0, 1, 1)]
    assert len(enum_sequences(GroupSpec((2, 2)), 3, 0)) == 5


def test_enum_sequences_boundaries():
    g = GroupSpec((4,))
    assert enum_sequences(g, 0, 0) == [(0, 0, 0, 0)]
    assert enum_sequences(g, 0, 1) == []
    t = GroupSpec(())
    assert enum_sequences(t, 3, 0) == [(3,)]


def test_enum_sequences_all_targets_partition_everything():
    g = GroupSpec((2, 4))
    m = 3
    chunks = [enum_sequences(g, m, t) for t in g.elements()]
    assert sum(len(c) for c in chunks) == comb(g.order + m - 1, m)
    flat = [v for c in chunks for v in c]
    assert len(set(flat)) == len(flat)
    for t, chunk in enumerate(chunks):
        for vec in chunk:
            assert sum(vec) == m and sequence_sum(g, vec) == t


def test_enum_subsets_examples():
    g5 = GroupSpec((5,))
    assert enum_subsets(g5, 2, 0) == [(0, 1, 0, 0, 1), (0, 0, 1, 1, 0)]
    g6 = GroupSpec((6,))
    assert len(enum_subsets(g6, 2, 0)) == 2
    assert len(enum_subsets(g6, 4, 0)) == 3
    assert enum_subsets(g6, 0, 0) == [(0,) * 6]


def test_enum_subsets_matches_direct_filter():
    g = GroupSpec((2, 4))
    n = g.order
    for k in (0, 1, 3, 8):
        got = enum_subsets(g, k, 0)
        expected = []
        for labs in combinations(range(n), k):
            bits = tuple(1 if i in labs else 0 for i in range(n))
            if is_zero_sum(g, bits):
                expected.append(bits)
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == len(got)


def test_enum_pairs_example():
    g = GroupSpec((2,))
    assert enum_pairs(g, 1, 1, 0) == [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    assert enum_pairs(g, 0, 0, 0) == [((0, 0), (0, 0))]
    assert len(enum_pairs(g, 2, 1, 0)) == 3


def test_enum_pairs_sums():
    g = GroupSpec((4,))
    for target in g.elements():
        for vec, bits in enum_pairs(g, 2, 2, target):
            assert sum(vec) == 2 and sum(bits) == 2
            assert g.add(sequence_sum(g, vec), sequence_sum(g, bits)) == target


def test_target_defaults_to_zero():
    # on C_4 at size 2 targets 0 and 1 differ: 1 against 2 subsets, 3 against 2
    # multisets, 14 against 16 pairs, so a default of 1 shows in every call
    g = GroupSpec((4,))
    assert count_subsets(g, 2) == 1 and enum_subsets(g, 2) == [(0, 1, 0, 1)]
    assert count_sequences(g, 2) == len(enum_sequences(g, 2)) == 3
    assert len(enum_pairs(g, 2, 2)) == 14


def test_budget_errors():
    g = GroupSpec((12,))
    with pytest.raises(EnumerationLimitError):
        enum_sequences(g, 30, 0, limit=1000)
    with pytest.raises(EnumerationLimitError):
        enum_subsets(g, 6, 0, limit=100)
    with pytest.raises(EnumerationLimitError):
        enum_pairs(g, 10, 6, 0, limit=10_000)
    for call in (enum_sequences, enum_subsets):
        with pytest.raises(ValueError, match=r"^the budget must be >= 0, got -5$"):
            call(g, 2, 0, limit=-5)
    # C(65536, 32768) candidates, past the default int-to-str digit limit of
    # 4300, still print: a traceback shows the message, not a failed str()
    with pytest.raises(EnumerationLimitError) as info:
        enum_subsets(GroupSpec((65536,)), 32768)
    count, _, limit = str(info.value).partition(" candidates exceed the enumeration limit ")
    assert len(count) > 4300 and Decimal(count) == info.value.candidates == comb(65536, 32768)
    assert limit == str(info.value.limit)


def test_limit_env_override(monkeypatch):
    monkeypatch.setenv("ZSCOMB_LIMIT", "50")
    assert default_limit() == 50
    g = GroupSpec((10,))
    with pytest.raises(EnumerationLimitError):
        enum_sequences(g, 3, 0)  # C(12,3) = 220 > 50
    for bad in ("-1", "x", "1.5"):
        monkeypatch.setenv("ZSCOMB_LIMIT", bad)
        with pytest.raises(ValueError, match=f"^ZSCOMB_LIMIT must be an integer >= 0, got '{bad}'$"):
            default_limit()
    monkeypatch.delenv("ZSCOMB_LIMIT")
    assert default_limit() == 10_000_000


class _Environ(dict):
    """An os.environ stand-in that counts the reads of ZSCOMB_LIMIT."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == "ZSCOMB_LIMIT"
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += key == "ZSCOMB_LIMIT"
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += key == "ZSCOMB_LIMIT"
        return super().__contains__(key)


G24 = GroupSpec((2, 4))

# (call, ZSCOMB_LIMIT reads): a call charges its whole job once; cnr's
# oracles (220 and 495 candidates here) run under its own fixed gate, and
# the series oracle expands the group algebra and enumerates nothing.
READS = {
    "enum_sequences": (lambda: enum_sequences(G24, 3), 1),
    "enum_subsets": (lambda: enum_subsets(G24, 3), 1),
    "sequences_by_sum": (lambda: sequences_by_sum(G24, 3), 1),
    "subsets_by_sum": (lambda: subsets_by_sum(G24, 3), 1),
    "enum_pairs": (lambda: enum_pairs(G24, 2, 3, 5), 1),
    "enum_dyck": (lambda: enum_dyck(5, 3), 1),
    "series_cross_check": (lambda: series_cross_check(G24, 0, 4, 4), 0),
    "cnr_reciprocity_check": (lambda: cnr_reciprocity_check(2, 3, 2), 0),
}


@pytest.mark.parametrize("call, reads", READS.values(), ids=READS)
def test_budget_variable_read_once_per_call(monkeypatch, call, reads):
    env = _Environ(os.environ)
    monkeypatch.setattr(os, "environ", env)
    result = call()
    assert env.reads == reads
    if call is READS["cnr_reciprocity_check"][0]:
        assert result["rows"][0]["oracle_checked"] == ["2,2", "3,3"]


def test_histograms_match_enumeration():
    g = GroupSpec((3, 3))
    for m in range(0, 4):
        hist = sequences_by_sum(g, m)
        assert sum(hist.values()) == comb(g.order + m - 1, m)
        for t in g.elements():
            assert hist.get(t, 0) == len(enum_sequences(g, m, t))
    for k in range(0, 5):
        hist = subsets_by_sum(g, k)
        assert sum(hist.values()) == comb(g.order, k)
        for t in g.elements():
            assert hist.get(t, 0) == len(enum_subsets(g, k, t))


def test_out_of_range_target_rejected_everywhere():
    g = GroupSpec((5,))
    calls = (
        lambda t: enum_sequences(g, 2, target=t),
        lambda t: enum_subsets(g, 2, target=t),
        lambda t: enum_pairs(g, 1, 1, target=t),
        lambda t: count_sequences(g, 2, t),
        lambda t: count_subsets(g, 2, t),
        lambda t: count_subsets(g, 0, t),  # boundary size, no divisor sum
        lambda t: count_pairs_coefficient(g, t, 1, 6),  # k > n, no divisor sum
        lambda t: target_sum_shift(g, (1, 0, 0, 0, 0), t),
        lambda t: rotations_with_sum(g, (1, 0, 0, 0, 0), t),
    )
    for call in calls:
        for bad in (99, 5, -1):
            with pytest.raises(ValueError, match="out of range"):
                call(bad)
        call(4)  # the largest label is fine


def test_bad_sizes_rejected_with_one_message():
    g = GroupSpec((5,))
    length = "length must be >= 0, got -1"
    subset = "subset size {} out of range for order 5"
    calls = (
        (lambda: enum_sequences(g, -1), length),
        (lambda: sequences_by_sum(g, -1), length),
        (lambda: count_sequences(g, -1), length),
        (lambda: enum_pairs(g, -1, 1), length),
        (lambda: enum_pairs(g, -1, 6), length),  # the multiset side is checked first
        *((lambda k=k: enum_subsets(g, k), subset.format(k)) for k in (-1, 6)),
        *((lambda k=k: subsets_by_sum(g, k), subset.format(k)) for k in (-1, 6)),
        *((lambda k=k: count_subsets(g, k), subset.format(k)) for k in (-1, 6)),
        *((lambda k=k: enum_pairs(g, 1, k), subset.format(k)) for k in (-1, 6)),
        (lambda: count_pairs_coefficient(g, 0, -1, 1), length),
        (lambda: count_pairs_coefficient(g, 0, -1, -1), length),  # p is checked first
        (lambda: count_pairs_coefficient(g, 0, 1, -1), "subset size must be >= 0, got -1"),
    )
    for call, reason in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == reason


def test_non_integer_inputs_rejected():
    g = GroupSpec((3,))
    calls = (
        (lambda: sequence_sum(g, (0.5, 0, 0)), "multiplicities must be integers, got (0.5, 0, 0)"),
        (lambda: is_zero_sum(g, (1.0, 1, 1)), "multiplicities must be integers, got (1.0, 1, 1)"),
        (lambda: target_sum_shift(g, (1, 0.0, 0), 0), "multiplicities must be integers, got (1, 0.0, 0)"),
        (lambda: count_sequences(g, 2.5), "length must be an integer, got 2.5"),
        (lambda: enum_sequences(g, 1.0), "length must be an integer, got 1.0"),
        (lambda: count_subsets(g, 1.0), "subset size must be an integer, got 1.0"),
        (lambda: count_pairs_coefficient(g, 0, 2.5, 0), "length must be an integer, got 2.5"),
        (lambda: count_pairs_coefficient(g, 0, 0, 0.5), "subset size must be an integer, got 0.5"),
        (lambda: count_sequences(g, 2, 0.5), "label must be an integer, got 0.5"),
        (lambda: enum_subsets(g, 1, 1.0), "label must be an integer, got 1.0"),
        (lambda: g.coords(1.5), "label must be an integer, got 1.5"),
    )
    for call, reason in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == reason
    # anything with __index__ is an integer, and comes back as an int
    assert sequence_sum(g, (True, 0, 0)) == 0 and count_sequences(g, True) == 1


def _reference(group, size, distinct):
    """(labels, sum) of every candidate, the sum folded label by label
    through GroupSpec.add."""
    pick = combinations if distinct else combinations_with_replacement
    out = []
    for labels in pick(range(group.order), size):
        acc = 0
        for lab in labels:
            acc = group.add(acc, lab)
        out.append((labels, acc))
    return out


def _vector(group, labels):
    return tuple(labels.count(lab) for lab in group.elements())


def test_enumerators_match_reference_fold():
    rng = random.Random(3)
    # (factors, largest multiset size, largest subset size, pair shape);
    # m = 5 on (3, 3) sums digits up to 10, past the 2 bits one digit needs
    cases = [
        ((), 4, 1, (3, 1)),
        ((7,), 4, 4, (2, 3)),
        ((2, 6), 3, 3, (2, 2)),
        ((2, 2, 4), 3, 2, (2, 2)),
        ((3, 3, 9), 2, 2, (1, 1)),
        ((3, 3), 5, 4, (3, 2)),
    ]
    for factors, max_m, max_k, (p, k) in cases:
        g = GroupSpec(factors)
        for size in range(max(max_m, max_k) + 1):
            for distinct, max_size in ((False, max_m), (True, max_k)):
                if size > max_size:
                    continue
                ref = _reference(g, size, distinct)
                hist = (subsets_by_sum if distinct else sequences_by_sum)(g, size)
                assert list(hist.items()) == list(Counter(s for _, s in ref).items())
                enum = enum_subsets if distinct else enum_sequences
                for target in {0, rng.randrange(g.order), rng.randrange(g.order)}:
                    expected = [_vector(g, labels) for labels, s in ref if s == target]
                    assert enum(g, size, target) == expected, (factors, size, target)
        multisets, subsets = _reference(g, p, False), _reference(g, k, True)
        for target in {0, rng.randrange(g.order)}:
            expected = [
                (_vector(g, u), _vector(g, v))
                for u, su in multisets
                for v, sv in subsets
                if g.add(su, sv) == target
            ]
            assert enum_pairs(g, p, k, target) == expected, (factors, p, k, target)


def test_prefix_walk_edges_match_reference_fold():
    # a listing solves each sorted (size - 1)-prefix for its last label: check
    # the sizes where that prefix is empty, full or most of the group, in order
    for g in (g for order in range(1, 9) for g in all_abelian_groups(order)):
        n = g.order
        subset_sizes = {0, 1, n - 1, n, *range(n // 2 + 1, n + 1)}
        for distinct, sizes in ((True, subset_sizes), (False, (0, 1, 2))):
            enum = enum_subsets if distinct else enum_sequences
            for size in sorted(sizes):
                ref = _reference(g, size, distinct)
                for target in g.elements():
                    expected = [_vector(g, labels) for labels, s in ref if s == target]
                    assert enum(g, size, target) == expected, (g, distinct, size, target)


def test_packing_reads_every_packed_sum_back():
    # a packed sum of up to `width` labels reads back to its group sum, and
    # the walk's empty prefix sums to label 0
    for g in (g for order in range(1, 25) for g in all_abelian_groups(order)):
        for distinct in (False, True):
            assert list(_candidates(g, 0, distinct, g.order)[1]) == [0]
        sums = {(): 0}  # each sorted label tuple of size <= 4 to its sum by GroupSpec.add
        for size in range(1, 5):
            for labels in combinations_with_replacement(g.elements(), size):
                sums[labels] = g.add(sums[labels[:-1]], labels[-1])
        for width in range(1, 5):
            pack = _Packing(g, width)
            assert [pack[packed] for packed in pack.packed] == list(g.elements()), (g, width)
            for labels, total in sums.items():
                if len(labels) <= width:
                    assert pack[sum(map(pack.packed.__getitem__, labels))] == total, (g, labels)


def _fold_by_sum(group, size, distinct):
    """Counter of the `_label` read of each candidate's summed digits, over
    combinations (subsets) or combinations with replacement (multisets)."""
    pick = combinations if distinct else combinations_with_replacement
    ns, digits = group.invariant_factors, [group.coords(lab) for lab in group.elements()]
    return Counter(
        _label(ns, map(sum, zip(*map(digits.__getitem__, labels))))
        for labels in pick(group.elements(), size)
    )


@pytest.mark.parametrize("factors, size", [((16, 32), 2), ((4, 16), 3), ((250,), 1), ((250,), 0)])
def test_histograms_match_the_reference_fold_in_order(factors, size):
    g = GroupSpec(factors)
    for distinct in (False, True):
        hist = (subsets_by_sum if distinct else sequences_by_sum)(g, size)
        assert list(hist.items()) == list(_fold_by_sum(g, size, distinct).items()), distinct
