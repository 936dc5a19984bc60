"""Rational Dyck paths and the rotation bijections into them."""

import hashlib
import pickle
import random
from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest

from zscomb import (
    EnumerationLimitError,
    GroupSpec,
    InvariantError,
    all_abelian_groups,
    cyclic_shift,
    dyck_to_sequence,
    dyck_to_subset,
    enum_dyck,
    enum_sequences,
    enum_subsets,
    gaps_to_word,
    is_dyck,
    is_zero_sum,
    rational_catalan,
    sequence_to_dyck,
    subset_to_dyck,
    word_to_gaps,
    zero_sum_shift,
)
from zscomb.dyck import _cycle_lemma_start


def test_word_gap_roundtrip():
    assert gaps_to_word((1, 1, 1, 0, 2, 0, 0)) == "010101100111"
    # explicit small case: gaps (2, 1) means two up-steps, across, up, across
    assert gaps_to_word((2, 1)) == "00101"
    assert word_to_gaps("00101") == (2, 1)
    for gaps in ((0,), (3, 0, 1), (1, 1, 1, 0, 2, 0, 0)):
        assert word_to_gaps(gaps_to_word(gaps)) == gaps
    with pytest.raises(ValueError):
        word_to_gaps("0010")  # must end on an across-step
    with pytest.raises(ValueError):
        word_to_gaps("0a1")


def test_is_dyck_gap_and_step_forms_agree():
    for a, b in ((3, 2), (5, 2), (7, 5), (2, 7), (1, 4)):
        if gcd(a, b) != 1:
            continue
        words = enum_dyck(a, b)
        # every word in the enumeration passes both forms; mutations that
        # leave the endpoint intact but dip below the diagonal fail
        for w in words:
            assert is_dyck(a, b, w)
            assert is_dyck(a, b, word_to_gaps(w))
    assert not is_dyck(7, 5, (1, 0, 2, 0, 0, 1, 1))
    assert is_dyck(7, 5, (1, 1, 1, 0, 2, 0, 0))
    assert not is_dyck(3, 2, "10011")  # starts below the line
    with pytest.raises(ValueError):
        is_dyck(3, 2, "0011")  # wrong length
    with pytest.raises(ValueError):
        is_dyck(4, 2, "001011")  # endpoints not coprime


def _dyck_by_steps(a, b, word):
    """Reference: walk the word, requiring a*y >= b*x after every east step."""
    x = y = 0
    for step in word:
        if step == "1":
            x += 1
            if a * y < b * x:
                return False
        else:
            y += 1
    return True


def _dyck_by_gaps(a, b, gaps):
    """Reference: east step i (1 <= i < a) comes after gaps[0] + ... + gaps[i-1] north steps."""
    return all(a * sum(gaps[:i]) >= b * i for i in range(1, a))


def test_is_dyck_matches_per_index_references():
    for a, b in ((a, t - a) for t in range(2, 14) for a in range(1, t)):
        if gcd(a, b) != 1:
            continue
        words = 0
        for east in combinations(range(a + b), a):
            word = "".join("1" if i in east else "0" for i in range(a + b))
            assert is_dyck(a, b, word) is _dyck_by_steps(a, b, word), (a, b, word)
            words += _dyck_by_steps(a, b, word)
        gap_vectors = 0
        for cuts in combinations_with_replacement(range(b + 1), a - 1):  # heights of east steps
            gaps = tuple(y - x for x, y in zip((0, *cuts), (*cuts, b)))
            assert is_dyck(a, b, gaps) is _dyck_by_gaps(a, b, gaps), (a, b, gaps)
            gap_vectors += _dyck_by_gaps(a, b, gaps)
        assert words == gap_vectors == rational_catalan(a, b)


@pytest.mark.parametrize(
    "a,b,path,reason",
    [
        (4, 2, "001011", "(4, 2) are not coprime"),
        (0, 2, "00", "need a, b >= 1, got (0, 2)"),
        (3, 2, "0011", "step word must have 5 steps over '0'/'1'"),
        (3, 2, "00a11", "step word must have 5 steps over '0'/'1'"),
        (3, 2, "00001", "step word must contain 3 east steps"),
        (3, 2, (1, 1), "gap vector must have 3 entries"),
        (3, 2, (1, 1, 1), "gaps must total 2, got 3"),
        (3, 2, (3, -1, 0), "gaps must be >= 0, got (3, -1, 0)"),
    ],
)
def test_is_dyck_refuses_malformed_paths(a, b, path, reason):
    with pytest.raises(ValueError) as exc:
        is_dyck(a, b, path)
    assert str(exc.value) == reason


def test_is_dyck_refuses_non_integer_gaps():
    # 1.5 + 0.5 totals 2 and stays above the line, yet is no gap vector
    with pytest.raises(ValueError, match=r"^gaps must be integers, got \(1\.5, 0\.5, 0\)$"):
        is_dyck(3, 2, (1.5, 0.5, 0))
    assert is_dyck(3, 2, [True, True, 0])  # anything with __index__ is an integer


def test_enum_dyck_refuses_non_integer_shape():
    for a, b, reason in ((3, 2.0, "b must be an integer, got 2.0"), (3.0, 2, "a must be an integer, got 3.0")):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            enum_dyck(a, b)


def _dyck_reference(a, b):
    """Every step word with a east steps, filtered by is_dyck, in order."""
    words = (
        "".join("1" if i in east else "0" for i in range(a + b))
        for east in combinations(range(a + b), a)
    )
    return sorted(w for w in words if is_dyck(a, b, w))


COPRIME_UP_TO_16 = [(a, s - a) for s in range(2, 17) for a in range(1, s) if gcd(a, s - a) == 1]


@pytest.mark.parametrize("a, b", [*COPRIME_UP_TO_16, (40, 3), (3, 40)])
def test_enum_dyck_matches_filtered_reference(a, b):
    paths = enum_dyck(a, b)
    assert len(paths) == rational_catalan(a, b)
    assert paths == _dyck_reference(a, b)


def test_enum_dyck_counts_and_order():
    assert enum_dyck(3, 2) == ["00111", "01011"]
    assert enum_dyck(1, 5) == ["000001"] and enum_dyck(5, 1) == ["011111"]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (11, 13, "67bf541b20265efa74f334d6d58a5b7c12ee3956a283fb8490b72eab7d0b30c2"),
        (10, 13, "5684a4a65ef3ef6b1941a27725e0c2c833076d0ee781781c10d3391e5146678e"),
        (13, 11, "c8bb8ab046a05976015b100b22cde923f4e1d203211a248bf08950e7ad65b3f5"),
    ],
)
def test_enum_dyck_digest(a, b, expected):
    """SHA-256 of the newline-joined listing, pinned on the plain stack walk."""
    assert hashlib.sha256("\n".join(enum_dyck(a, b)).encode()).hexdigest() == expected


def test_enum_dyck_cap():
    with pytest.raises(EnumerationLimitError):
        enum_dyck(20, 21, limit=24)


def test_enum_dyck_budget_counts_paths_not_length():
    assert enum_dyck(3, 2, limit=2) == ["00111", "01011"]
    with pytest.raises(EnumerationLimitError) as info:
        enum_dyck(3, 2, limit=1)
    assert (info.value.candidates, info.value.limit) == (2, 1)
    copy = pickle.loads(pickle.dumps(info.value))
    assert (copy.candidates, copy.limit, str(copy)) == (2, 1, str(info.value))
    # long paths with few of them: Cat(2, 2001) = 1001, and the walk needs
    # no recursion as deep as the path is long
    paths = enum_dyck(2, 2001)
    assert len(paths) == 1001 and paths == sorted(paths)
    assert paths[0] == "0" * 2001 + "11" and paths[-1] == "0" * 1001 + "1" + "0" * 1000 + "1"
    paths = enum_dyck(3001, 2)
    assert len(paths) == 1501
    assert paths[0] == "00" + "1" * 3001 and paths[-1] == "0" + "1" * 1500 + "0" + "1" * 1501


def test_worked_example_sequence_to_dyck():
    g = GroupSpec((7,))
    assert sequence_to_dyck(g, (0, 0, 1, 1, 1, 0, 2)) == ((1, 1, 1, 0, 2, 0, 0), 2)
    assert dyck_to_sequence(g, (1, 1, 1, 0, 2, 0, 0)) == ((0, 0, 1, 1, 1, 0, 2), 5)


def test_already_dyck_input_is_fixed_point():
    # an input that is already a valid path must come back unrotated
    g = GroupSpec((2, 2))
    assert sequence_to_dyck(g, (1, 2, 0, 0)) == ((1, 2, 0, 0), 0)
    g2 = GroupSpec((3,))
    assert sequence_to_dyck(g2, (2, 0, 0)) == ((2, 0, 0), 0)


def test_sequence_to_dyck_validation():
    g = GroupSpec((6,))
    with pytest.raises(ValueError):
        sequence_to_dyck(g, (1, 1, 0, 0, 0, 0))  # mass not coprime
    with pytest.raises(ValueError):
        sequence_to_dyck(g, (0, 1, 0, 0, 0, 0))  # not zero-sum
    with pytest.raises(ValueError):
        dyck_to_sequence(g, (0, 1, 0, 0, 0, 0))  # dips below the diagonal


def test_sequence_dyck_roundtrip_exhaustive():
    for g in (gr for o in range(2, 9) for gr in all_abelian_groups(o)):
        n = g.order
        for m in range(1, 6):
            if gcd(m, n) != 1:
                continue
            seen = set()
            for vec in enum_sequences(g, m, 0):
                gaps, rotation = sequence_to_dyck(g, vec)
                assert is_dyck(n, m, gaps)
                back, shift = dyck_to_sequence(g, gaps)
                assert back == vec
                assert (shift + rotation) % n == 0
                seen.add(gaps)
            # distinct sequences map to distinct paths, covering all of them
            assert len(seen) == rational_catalan(n, m)
            for gaps in map(word_to_gaps, enum_dyck(n, m)):
                vec, _ = dyck_to_sequence(g, gaps)
                assert is_zero_sum(g, vec)
                assert sequence_to_dyck(g, vec)[0] == gaps


def test_subset_dyck_roundtrip_exhaustive():
    for g in (gr for o in range(2, 11) for gr in all_abelian_groups(o)):
        n = g.order
        for k in range(1, n):
            if gcd(k, n) != 1:
                continue
            seen = set()
            for bits in enum_subsets(g, k, 0):
                word, rotation = subset_to_dyck(g, bits)
                assert is_dyck(k, n - k, word)
                back, shift = dyck_to_subset(g, word)
                assert back == bits
                assert (shift + rotation) % n == 0
                seen.add(word)
            assert len(seen) == len(enum_subsets(g, k, 0))
            for word in enum_dyck(k, n - k):
                bits, _ = dyck_to_subset(g, word)
                assert is_zero_sum(g, bits)  # indicator doubles as multiplicity
                assert subset_to_dyck(g, bits)[0] == word


def test_subset_golden():
    g = GroupSpec((5,))
    assert subset_to_dyck(g, (0, 1, 0, 0, 1)) == ("00101", 2)
    assert dyck_to_subset(g, "00101") == ((0, 1, 0, 0, 1), 3)


def _subset_to_dyck_by_scan(group, bits):
    """Reference: build all n rotated words and keep the one Dyck word."""
    n, k = group.order, sum(bits)
    words = ["".join(map(str, cyclic_shift(bits, l))) for l in range(n)]
    hits = [l for l, w in enumerate(words) if is_dyck(k, n - k, w)]
    assert len(hits) == 1
    return words[hits[0]], hits[0]


def test_subset_to_dyck_matches_rotation_scan():
    rng = random.Random(1905)
    for factors in ((7,), (2, 2), (3, 3), (2, 6), (5, 10), (2, 2, 4), (97,), (4, 20), (211,)):
        g = GroupSpec(factors)
        n = g.order
        for _ in range(12):
            k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
            labels = set(rng.sample(range(n), k))
            _, bits = zero_sum_shift(g, tuple(int(i in labels) for i in range(n)))
            assert subset_to_dyck(g, bits) == _subset_to_dyck_by_scan(g, bits)


def test_cycle_lemma_start():
    assert _cycle_lemma_start([2, -1, -1]) == 0
    assert _cycle_lemma_start([-1, -1, 2]) == 2  # heights 0, -1, -2
    assert _cycle_lemma_start([0]) == 0
    with pytest.raises(InvariantError) as info:
        _cycle_lemma_start([1, -1, 1, -1])  # heights 0, 1, 0, 1: two minima
    assert info.value.check == "prefix-height minimum is unique"
    assert info.value.context == {"length": 4, "low": 0}
