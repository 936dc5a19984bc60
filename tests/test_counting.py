"""Closed-form counts against oracle enumeration and each other."""

from decimal import Decimal
from math import comb, gcd

import pytest

from zscomb import (
    ExactDivisionError,
    GroupSpec,
    all_abelian_groups,
    count_pairs_coefficient,
    count_sequences,
    count_subsets,
    enum_pairs,
    exact_div,
    multinomial,
    pair_dimension,
    rational_catalan,
    sequence_sum,
    sequences_by_sum,
    series_cross_check,
    subsets_by_sum,
)
from zscomb import groups, zerosum
from zscomb.counting import (
    _COMB_CUTOFF, _pair_count, binomial, binomial_row, pair_count_table, prime_power_binomial)
from zscomb.groups import character_profile, character_sum, divisors
from zscomb.poincare import _sum_rows


def groups_through(max_order):
    return [g for o in range(1, max_order + 1) for g in all_abelian_groups(o)]


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 4) == -3
    with pytest.raises(ExactDivisionError):
        exact_div(13, 4)
    # a numerator past the default int-to-str digit limit of 4300 is named in full
    big = 7**6000
    with pytest.raises(ExactDivisionError) as info:
        exact_div(big, 2)
    num, _, den = str(info.value).partition(" is not divisible by ")
    assert len(num) > 4300 and Decimal(num) == big and den == "2"


def test_multinomial():
    assert multinomial(6, 2, 2, 2) == 90
    assert multinomial(5, 5) == 1
    assert multinomial(0) == 1
    with pytest.raises(ValueError):
        multinomial(5, 2, 2)  # parts must sum to the total


def test_known_counts():
    assert count_sequences(GroupSpec((2, 2)), 3, 0) == 5
    assert count_sequences(GroupSpec((2, 2)), 2, 0) == 4
    assert count_sequences(GroupSpec((2,)), 4, 0) == 3
    assert count_subsets(GroupSpec((6,)), 2, 0) == 2
    assert count_subsets(GroupSpec((6,)), 4, 0) == 3
    assert count_subsets(GroupSpec((5,)), 2, 0) == 2


def test_boundary_sizes():
    g = GroupSpec((4,))
    assert count_sequences(g, 0, 0) == 1
    assert count_sequences(g, 0, 2) == 0
    assert count_subsets(g, 0, 0) == 1
    assert count_subsets(g, 0, 1) == 0
    # the full subset sums to 0+1+2+3 = 6 = 2 in C_4
    assert count_subsets(g, 4, 2) == 1
    assert count_subsets(g, 4, 0) == 0
    with pytest.raises(ValueError):
        count_subsets(g, 5, 0)
    t = GroupSpec(())
    assert count_sequences(t, 5, 0) == 1
    assert count_subsets(t, 1, 0) == 1
    # sizes 0 and n go through the divisor sum like every other size
    for g in groups_through(64):
        n = g.order
        full = sequence_sum(g, (1,) * n)
        for target in g.elements():
            assert count_subsets(g, 0, target) == (target == 0)
            assert count_subsets(g, n, target) == (target == full)
            assert count_sequences(g, 0, target) == (target == 0)


def test_counts_match_oracle_all_targets():
    for g in groups_through(9):
        n = g.order
        for m in range(0, 6):
            hist = sequences_by_sum(g, m)
            for target in g.elements():
                assert count_sequences(g, m, target) == hist.get(target, 0)
        for k in range(0, n + 1):
            hist = subsets_by_sum(g, k)
            for target in g.elements():
                assert count_subsets(g, k, target) == hist.get(target, 0)


def test_rational_catalan():
    assert rational_catalan(7, 5) == 66
    assert rational_catalan(1, 1) == 1
    assert rational_catalan(2, 3) == 2
    # Catalan numbers are the (n, n+1) diagonal
    assert [rational_catalan(n, n + 1) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        rational_catalan(4, 2)
    with pytest.raises(ValueError):
        rational_catalan(0, 3)


def test_rational_catalan_refuses_non_integers():
    for a, b, reason in ((2.0, 3, "a must be an integer, got 2.0"), (2, 3.5, "b must be an integer, got 3.5")):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            rational_catalan(a, b)


def test_cyclic_reciprocity_all_labels():
    # |M(C_n, m, i)| = |M(C_m, n, i)| for every shared label i, even when
    # n and m are not coprime: both sides reduce to the same divisor sum.
    for n in range(1, 11):
        for m in range(1, 11):
            for i in range(min(n, m)):
                left = count_sequences(GroupSpec.parse(str(n)), m, i % n)
                right = count_sequences(GroupSpec.parse(str(m)), n, i % m)
                assert left == right, (n, m, i)


def test_coprime_reciprocity_equals_catalan():
    for g in groups_through(8):
        for h in groups_through(8):
            if gcd(g.order, h.order) != 1:
                continue
            c = rational_catalan(g.order, h.order)
            assert count_sequences(g, h.order, 0) == c
            assert count_sequences(h, g.order, 0) == c


def test_pair_dimension_matches_enumeration():
    for q in range(0, 4):
        for m in range(0, 4):
            if q + m < 1:
                continue
            for g in all_abelian_groups(q + m):
                for p in range(0, 5):
                    if p + q + m < 1:
                        continue
                    expected = len(enum_pairs(g, p, m, 0))
                    assert pair_dimension(p, q, m, g) == expected, (p, q, m, g)


def test_pair_dimension_matches_the_group_algebra():
    # a second route that reads no character profile: pairs with sum 0 pair
    # the length-p multisets of sum s with the m-subsets of sum -s
    for order in range(1, 25):
        for g in all_abelian_groups(order):
            seq, sub = _sum_rows(g, 6, False), _sum_rows(g, order, True)
            neg = [g.negate(s) for s in g.elements()]
            for m in range(order + 1):
                for p in range(7):
                    expected = sum(seq[p][s] * sub[m][neg[s]] for s in g.elements())
                    assert pair_dimension(p, order - m, m, g) == expected, (p, m, g)


def test_pair_dimension_structure_free_when_coprime():
    # gcd(p, q, m) = 1 collapses the divisor sum to one multinomial term,
    # so the count cannot see the group structure.
    for p, q, m in ((1, 1, 1), (2, 1, 1), (3, 2, 2), (4, 3, 2)):
        assert gcd(p, gcd(q, m)) == 1
        vals = {pair_dimension(p, q, m, g) for g in all_abelian_groups(q + m)}
        assert len(vals) == 1
        assert vals.pop() == multinomial(p + q + m, p, q, m) // (p + q + m)


def test_pair_dimension_validation():
    with pytest.raises(ValueError):
        pair_dimension(1, 1, 1, GroupSpec((3,)))  # order must be q + m
    with pytest.raises(ValueError):
        pair_dimension(0, 0, 0, GroupSpec(()))


def test_pair_dimension_refuses_non_integers():
    g = GroupSpec((2,))
    for p, q, m, name, bad in ((1.5, 1, 1, "p", 1.5), (1, 1.0, 1, "q", 1.0), (1, 1, 1.0, "m", 1.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
            pair_dimension(p, q, m, g)


def test_count_pairs_coefficient_against_oracle():
    for g in groups_through(6):
        n = g.order
        for p in range(0, 4):
            for k in range(0, n + 2):
                expected = len(enum_pairs(g, p, k, 0)) if k <= n else 0
                assert count_pairs_coefficient(g, 0, p, k) == expected
        # non-zero targets too, one group is enough for the sweep
        if n == 4:
            for target in g.elements():
                for p in range(0, 4):
                    for k in range(0, n + 1):
                        expected = len(enum_pairs(g, p, k, target))
                        assert count_pairs_coefficient(g, target, p, k) == expected


def test_pair_count_equals_the_unpruned_divisor_sum():
    # the sum over every d | n, with no early stop and every sign read from
    # (-1)^(k + k/d); math.comb is 0 for k > n
    def unpruned(n, sums, p, k):
        total = sum(
            chi * (-1) ** (k + k // d) * comb(n // d + p // d - 1, p // d) * comb(n // d, k // d)
            for d, chi in sums if p % d == 0 and k % d == 0
        )
        assert total % n == 0
        return total // n

    for g in groups_through(48):
        n, checked = g.order, set()
        for target in g.elements():
            sums = tuple((d, character_sum(g, target, d)) for d in divisors(n))
            profile, sizes = character_profile(g, target), range(n + 2)
            if (sums, profile) in checked:
                continue  # the same inputs as an earlier target
            checked.add((sums, profile))
            expected = [[unpruned(n, sums, p, k) for k in sizes] for p in sizes]
            pruned = [[_pair_count(g, profile, p, k) for k in sizes] for p in sizes]
            assert pruned == expected, (g, target)
            assert pair_count_table(g, target, n + 1, n + 1) == expected, (g, target)


def test_count_sequences_total_over_targets():
    for g in groups_through(8):
        n = g.order
        for m in range(0, 5):
            total = sum(count_sequences(g, m, t) for t in g.elements())
            assert total == comb(n + m - 1, m)
        for k in range(0, n + 1):
            total = sum(count_subsets(g, k, t) for t in g.elements())
            assert total == comb(n, k)


def test_binomial_equals_math_comb():
    cut = _COMB_CUTOFF
    for n in [*range(0, 3000, 7), 4096, 8191, 2**15, 2**16 + 1]:
        for k in {0, 1, cut - 1, cut, cut + 1, n - cut, n // 2, n, n + 1}:
            if k < 0:
                with pytest.raises(ValueError):
                    binomial(n, k)
            else:
                assert binomial(n, k) == comb(n, k), (n, k)  # 0 for k > n
    for n, k in ((-1, 0), (-5, -2), (3, -1)):
        with pytest.raises(ValueError):
            comb(n, k)
        with pytest.raises(ValueError):
            binomial(n, k)
    with pytest.raises(TypeError):
        binomial(4000.0, 2000)  # as math.comb: not an integer


def test_prime_power_binomial_small_arguments():
    # the product of prime powers, below the cutoff that keeps it off small inputs
    for n in range(300):
        assert [prime_power_binomial(n, k) for k in range(n + 1)] == [comb(n, k) for k in range(n + 1)]


def test_binomial_row():
    for n in range(300):
        assert binomial_row(n, n) == [comb(n, j) for j in range(n + 1)]
    # each side of the n // 2 seam, where the mirrored half starts, and the zero tail
    for n in range(65):
        for top in range(n + 3):
            assert binomial_row(n, top) == [comb(n, j) for j in range(top + 1)], (n, top)
    assert binomial_row(4, 6) == [1, 4, 6, 4, 1, 0, 0]
    for n, top in ((-1, 0), (-1, 2), (3, -1), (0, -1)):
        with pytest.raises(ValueError):
            binomial_row(n, top)


def test_big_subset_counts_against_math_comb():
    # Z/2^17, k = 2^16: the divisors d = 2^a of gcd(n, k), the Ramanujan sum
    # c_d(t) = d[d | t] - (d/2)[d/2 | t], and (-1)^(k + k/d) = -1 only at d = k
    n, k = 2**17, 2**16
    terms = [(2**a, comb(n >> a, k >> a)) for a in range(17)]
    for t in (0, 1, 6, 3 * 2**10, 2**16):
        total = 0
        for d, c in terms:
            ramanujan = (d if t % d == 0 else 0) - (d // 2 if d > 1 and t % (d // 2) == 0 else 0)
            total += (-1 if d == k else 1) * ramanujan * c
        assert count_subsets(GroupSpec((n,)), k, t) == total // n
        assert total % n == 0


def test_a_count_checks_its_target_once(monkeypatch):
    g, calls, real = GroupSpec((2, 12)), [], GroupSpec.check_label

    def counted(self, label):
        calls.append(label)
        return real(self, label)

    monkeypatch.setattr(GroupSpec, "check_label", counted)
    for count in (
        lambda: count_sequences(g, 5, 3),
        lambda: count_subsets(g, 6, 3),
        lambda: count_pairs_coefficient(g, 3, 2, 2),
    ):
        groups._profile.cache_clear()  # a profile built afresh checks nothing again
        calls.clear()
        count()
        assert calls == [3]


def test_the_oracles_check_their_target_once(monkeypatch):
    # the oracles do their label and row arithmetic through the unchecked core:
    # enum_pairs checks its target once, series_cross_check adds at most one
    # check to the table's four (the profile's, and character_sum's per
    # divisor of 4), and the group-algebra DP checks none of the rows it builds
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    monkeypatch.setattr(GroupSpec, "check_label", counted("label", GroupSpec.check_label))
    monkeypatch.setattr(zerosum, "check_vector", counted("vector", zerosum.check_vector))
    enum_pairs(GroupSpec((2, 6)), 2, 3, 5)
    assert calls == ["label"]
    groups._profile.cache_clear()
    calls.clear()
    series_cross_check(GroupSpec((2, 4, 4)), 7, 4, 4)
    assert set(calls) == {"label"} and len(calls) <= 5
    for distinct in (False, True):
        calls.clear()
        _sum_rows(GroupSpec((2, 4, 4)), 4, distinct)
        assert calls == []


def test_enum_pairs_checks_its_sizes_once(monkeypatch):
    # p and k are checked at the entry; the two candidate streams take them as checked
    calls, real = [], GroupSpec.check_size

    def counted(self, size, *args, **kwargs):
        calls.append(size)
        return real(self, size, *args, **kwargs)

    monkeypatch.setattr(GroupSpec, "check_size", counted)
    enum_pairs(GroupSpec((2, 6)), 2, 3, 5)
    assert calls == [2, 3]
