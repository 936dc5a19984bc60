"""Every bijection both ways at |G| = 10^4, enumeration memory at 2^11,
listings at 2^12, and a series cross-check past enumeration's reach.

Each map is linear in |G| + mass, so this runs in well under a second; a
map that scans all rotations or re-reads the necklace per marker would take
minutes here.  CI runs the same round trip, every_map_both_ways, at order
300,000, where such a map would take hours.  An enumerator's setup is
O(|G| * rank), so listing the 2048 one-element subsets needs kilobytes, not
an |G| x |G| table; a listing solves each (size - 1)-label prefix for its
last label, so the pairs of one sum in a group of order 4096 cost about
their output, where a walk over all 8 million pairs would take seconds.
The series oracle expands the group algebra, so a (32, 32) table of a group
of order 32 takes milliseconds where enumerating its multisets would not end.
"""

import random
import tracemalloc
from itertools import compress
from math import gcd

from zscomb import (
    GroupSpec,
    complement_bijection,
    count_sequences,
    count_subsets,
    dyck_to_sequence,
    dyck_to_subset,
    enum_sequences,
    enum_subsets,
    is_zero_sum_by_congruences,
    necklace_to_sequence,
    pair_bijection,
    reciprocity_bijection,
    sequence_sum,
    sequence_to_dyck,
    sequence_to_necklace,
    series_cross_check,
    subset_to_dyck,
    target_sum_shift,
    translate_complement_bijection,
    zero_sum_shift,
)


def every_map_both_ways(factors):
    """Run every bijection both ways on seeded zero-sum inputs in the group
    with these invariant factors.  The mass m is the least k >= |G| // 3
    coprime to |G|; the pair map takes p red beads, the least k >= m with
    gcd(k, |G|) = gcd(|G| - m, k + m) = 1, m green and |G| - m blue."""
    g = GroupSpec(factors)
    n = g.order
    rng = random.Random(n)
    m = next(k for k in range(n // 3, n) if gcd(k, n) == 1)
    p = next(k for k in range(m, n) if gcd(k, n) == gcd(n - m, k + m) == 1)

    def multiset(mass):
        vec = [0] * n
        for label in rng.choices(range(n), k=mass):
            vec[label] += 1
        return vec

    _, vec = zero_sum_shift(g, multiset(m))
    gaps, rotation = sequence_to_dyck(g, vec)
    assert dyck_to_sequence(g, gaps) == (vec, (n - rotation) % n)
    assert necklace_to_sequence(g, sequence_to_necklace(g, vec)) == vec

    h = GroupSpec((m,))
    image = reciprocity_bijection(g, h, vec)
    assert sum(image) == n and is_zero_sum_by_congruences(h, image)
    assert reciprocity_bijection(h, g, image) == vec

    green = [0] * n
    for label in rng.sample(range(n), m):
        green[label] = 1
    green = tuple(green)
    _, bits = zero_sum_shift(g, green)
    word, rotation = subset_to_dyck(g, bits)
    assert dyck_to_subset(g, word) == (bits, (n - rotation) % n)
    comp, _ = complement_bijection(g, bits)
    assert complement_bijection(g, comp)[0] == bits
    image, _ = translate_complement_bijection(g, bits)
    assert sum(image) == n - m and is_zero_sum_by_congruences(g, image)
    for source in (comp, image):
        out, _ = translate_complement_bijection(g, source)
        assert sum(out) == m and is_zero_sum_by_congruences(g, out)

    other = GroupSpec((p + m,))
    _, red = target_sum_shift(g, multiset(p), g.negate(sequence_sum(g, green)))
    u_vec, v_bits = pair_bijection(g, other, red, green)
    assert sum(u_vec) == n - m and sum(v_bits) == m
    assert pair_bijection(other, g, u_vec, v_bits) == (red, green)


def test_every_bijection_both_ways_at_ten_thousand():
    every_map_both_ways((5, 2000))  # one even factor: translate-complement translates


def test_enum_subsets_memory_is_linear_in_the_group():
    for g in (GroupSpec((2048,)), GroupSpec((2,) * 11)):
        tracemalloc.start()
        try:
            out = enum_subsets(g, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == [(1,) + (0,) * 2047]
        assert peak < 4 * 2**20, (g, peak)


def test_pair_listings_at_four_thousand():
    # the working memory on top of the listing itself (about 2048 vectors of
    # 4096 entries) stays under the one-element listing's bound above; each
    # item's sum is its two labels' GroupSpec.add (a sequence_sum per item
    # would cost seconds here)
    for g in (GroupSpec((4096,)), GroupSpec((2, 2048))):
        target, labels = g.order // 2 + 5, range(g.order)
        for enum, count in ((enum_subsets, count_subsets), (enum_sequences, count_sequences)):
            tracemalloc.start()
            try:
                out = enum(g, 2, target)
                size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(out) == count(g, 2, target), (g, enum)
            assert len(set(out)) == len(out), (g, enum)
            for vec in out:
                pair = [lab for lab in compress(labels, vec) for _ in range(vec[lab])]
                assert len(pair) == 2 and g.add(*pair) == target, (g, enum, pair)
            assert peak - size < 4 * 2**20, (g, enum, peak - size)
            del out


def test_series_cross_check_past_enumeration():
    report = series_cross_check(GroupSpec((2, 4, 4)), 7, 32, 32)
    assert report["failures"] == [] and report["scanned"] == 33 * 33
