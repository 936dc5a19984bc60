"""Necklace readings and the rotation/translation/pair bijections."""

import random
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zscomb import (
    GroupSpec,
    all_abelian_groups,
    canonical_rotation,
    complement_bijection,
    enum_pairs,
    enum_sequences,
    enum_subsets,
    is_zero_sum,
    necklace_to_sequence,
    pair_bijection,
    pair_dimension,
    rational_catalan,
    reciprocity_bijection,
    sequence_sum,
    sequence_to_necklace,
    subset_reci_predicate,
    target_sum_shift,
    translate_complement_bijection,
    v2,
    word_to_gaps,
    zero_sum_shift,
)
from zscomb.necklaces import _gaps_after


def groups_through(lo, hi):
    return [g for o in range(lo, hi + 1) for g in all_abelian_groups(o)]


def test_canonical_rotation():
    assert canonical_rotation("BRR") == "RRB"
    assert canonical_rotation("BRBRR") == "RRBRB"
    assert canonical_rotation("GGB") == "GGB"
    assert canonical_rotation("BGR") == "RBG"
    assert canonical_rotation("") == ""
    with pytest.raises(ValueError):
        canonical_rotation("RXB")


def _canonical_rotation_by_min(word):
    """Reference: the least of all rotations under R < G < B."""
    rank = {"R": 0, "G": 1, "B": 2}
    rotations = (word[i:] + word[:i] for i in range(len(word)))
    return min(rotations, key=lambda w: [rank[c] for c in w], default=word)


def test_canonical_rotation_matches_min_over_rotations():
    rng = random.Random(1980)
    words = ["", "R", "B", "G", "RB" * 6, "BR" * 5, "GRB" * 4, "BBRBBRBBR", "RRRRB"]
    for _ in range(600):
        colors = rng.choice(["RB", "RGB", "GB", "B"])
        block = "".join(rng.choice(colors) for _ in range(rng.randint(1, 12)))
        # repeated blocks give periodic words, where several starts tie
        words.append(block * rng.choice([1, 1, 2, 3, 5]))
    for word in words:
        assert canonical_rotation(word) == _canonical_rotation_by_min(word), word


@pytest.mark.parametrize("colors", ["01", "RB", "RGB"])
def test_gap_readers_match_positional_reference(colors):
    """Both gap readers against marker positions: _gaps_after counts the
    beads after each marker up to the next one, cyclically from the first
    marker; word_to_gaps counts the north steps before each east step."""
    rng = random.Random(colors)
    words = [w for w in ("1", "0", "0001", "R", "B", "GB") if set(w) <= set(colors)]
    words += ["".join(rng.choice(colors) for _ in range(rng.randint(1, 30))) for _ in range(2000)]
    for word in words:
        for marker in colors:
            at = [i for i, c in enumerate(word) if c == marker]
            if at:
                after = tuple(b - a - 1 for a, b in zip(at, at[1:] + [at[0] + len(word)]))
                assert _gaps_after(word, marker) == after, (word, marker)
            else:
                with pytest.raises(ValueError, match="has no"):
                    _gaps_after(word, marker)
            if marker == "1" and word.endswith("1"):
                before = tuple(b - a - 1 for a, b in zip([-1] + at, at))
                assert word_to_gaps(word) == before, word
            elif marker == "1":  # no east step, or not last
                with pytest.raises(ValueError, match="final step"):
                    word_to_gaps(word)
    assert (_gaps_after("R", "R"), word_to_gaps("1")) == ((0,), (0,))


def test_worked_example_necklace():
    g = GroupSpec((7,))
    word = sequence_to_necklace(g, (0, 0, 1, 1, 1, 0, 2))
    assert sorted(word) == sorted("R" * 7 + "B" * 5)
    assert word == canonical_rotation(word)
    assert necklace_to_sequence(g, word) == (0, 0, 1, 1, 1, 0, 2)


def test_necklace_reading_is_rotation_invariant():
    g = GroupSpec((7,))
    word = sequence_to_necklace(g, (0, 0, 1, 1, 1, 0, 2))
    for i in range(len(word)):
        rotated = word[i:] + word[:i]
        assert necklace_to_sequence(g, rotated) == (0, 0, 1, 1, 1, 0, 2)


def test_necklace_preconditions():
    g = GroupSpec((3,))
    with pytest.raises(ValueError):
        sequence_to_necklace(g, (1, 1, 1))  # mass 3 not coprime to 3
    with pytest.raises(ValueError):
        sequence_to_necklace(g, (0, 1, 0))  # not zero-sum


def test_worked_example_reciprocity():
    g7, g5 = GroupSpec((7,)), GroupSpec((5,))
    assert reciprocity_bijection(g7, g5, (0, 0, 1, 1, 1, 0, 2)) == (1, 2, 0, 3, 1)
    assert reciprocity_bijection(g5, g7, (1, 2, 0, 3, 1)) == (0, 0, 1, 1, 1, 0, 2)


def test_reciprocity_trivial_side():
    t = GroupSpec(())
    g = GroupSpec((4,))
    # from the trivial group: the one multiset of size 4 maps to the one
    # zero-sum singleton over C_4, namely {0}
    assert reciprocity_bijection(t, g, (4,)) == (1, 0, 0, 0)
    assert reciprocity_bijection(g, t, (1, 0, 0, 0)) == (4,)


def test_reciprocity_bijective_and_involutive():
    for g in groups_through(1, 8):
        for h in groups_through(1, 8):
            if gcd(g.order, h.order) != 1 or g.order < h.order:
                continue
            domain = enum_sequences(g, h.order, 0)
            images = [reciprocity_bijection(g, h, vec) for vec in domain]
            assert sorted(images) == sorted(enum_sequences(h, g.order, 0))
            for vec, img in zip(domain, images):
                assert reciprocity_bijection(h, g, img) == vec
            assert len(images) == rational_catalan(g.order, h.order)


def test_complement_goldens():
    g5 = GroupSpec((5,))
    bits, shift = complement_bijection(g5, (0, 1, 0, 0, 1))
    assert bits == (1, 0, 1, 1, 0) and shift == 0  # {0,2,3}, already zero-sum
    g4 = GroupSpec((4,))
    assert complement_bijection(g4, (1, 0, 0, 0))[0] == (1, 1, 0, 1)


def test_complement_roundtrip_exhaustive():
    for g in groups_through(2, 10):
        n = g.order
        for k in range(1, n):
            if gcd(k, n) != 1:
                continue
            for bits in enum_subsets(g, k, 0):
                out, _ = complement_bijection(g, bits)
                assert sum(out) == n - k and is_zero_sum(g, out)
                back, _ = complement_bijection(g, out)
                assert back == bits


def test_translate_complement_golden():
    g4 = GroupSpec((4,))
    assert translate_complement_bijection(g4, (0, 1, 0, 1)) == ((0, 1, 0, 1), 1)


def test_translate_complement_odd_order_is_plain_complement():
    g = GroupSpec((9,))
    bits = (1, 0, 0, 0, 1, 1, 0, 0, 0)  # {0,4,5}: 9 | 9
    out, x = translate_complement_bijection(g, bits)
    assert x == 0
    assert out == tuple(1 - b for b in bits)


def test_translate_complement_bijective_where_defined():
    # the map is defined exactly where the symmetry predicate holds: either
    # the elements sum to zero (plain complement) or k*x = e is solvable
    for g in groups_through(2, 12):
        n = g.order
        for k in range(1, n):
            if not subset_reci_predicate(g, k):
                continue
            domain = enum_subsets(g, k, 0)
            images = []
            for bits in domain:
                out, _ = translate_complement_bijection(g, bits)
                assert sum(out) == n - k and is_zero_sum(g, out)
                images.append(out)
            assert sorted(images) == sorted(enum_subsets(g, n - k, 0))


def _translate_complement_by_scan(group, bits):
    """Reference: scan every label for k*x = e and translate label by label."""
    n, k = group.order, sum(bits)
    comp = tuple(1 - b for b in bits)
    e = sequence_sum(group, [1] * n)
    if e == 0:
        return comp, 0
    xs = [x for x in group.elements() if group.scalar_mul(k, x) == e]
    if not xs:
        raise ValueError("no solution")
    x = min(xs)
    out = [0] * n
    for lab, bit in enumerate(comp):
        out[group.add(lab, x)] = bit
    return tuple(out), x


def test_translate_complement_matches_label_scan():
    # every group of order <= 48 and every k with a zero-sum k-subset found
    # by a seeded search: k - 1 random labels, then the one that closes them
    rng = random.Random(2019)
    checked = refused = 0
    for g in groups_through(2, 48):
        n = g.order
        for k in range(1, n):
            for _ in range(20):
                chosen = rng.sample(range(n), k - 1)
                last = g.negate(sequence_sum(g, [int(x in chosen) for x in range(n)]))
                if last not in chosen:
                    break
            else:
                continue
            bits = tuple(int(x in chosen or x == last) for x in range(n))
            assert sum(bits) == k and is_zero_sum(g, bits)
            checked += 1
            try:
                expected = _translate_complement_by_scan(g, bits)
            except ValueError:
                refused += 1
                with pytest.raises(ValueError, match="^k\\*x = e has no solution"):
                    translate_complement_bijection(g, bits)
                continue
            assert translate_complement_bijection(g, bits) == expected
    assert checked > 1000 and 0 < refused < checked


def test_translate_complement_no_solution():
    # over C_6 all elements sum to e = 3; for even k the equation k*x = 3
    # has an even left side mod 6 and no solution
    g6 = GroupSpec((6,))
    with pytest.raises(ValueError):
        translate_complement_bijection(g6, (0, 0, 1, 0, 1, 0))  # {2,4}, k=2
    with pytest.raises(ValueError):
        translate_complement_bijection(g6, (1, 1, 1, 1, 0, 0))  # {0,1,2,3}, k=4


def test_pair_bijection_two_element_example():
    g = GroupSpec((2,))
    pairs = enum_pairs(g, 1, 1, 0)
    assert pairs == [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    images = [pair_bijection(g, g, v, b) for v, b in pairs]
    assert sorted(images) == sorted(pairs)
    for (v, b), (u, w) in zip(pairs, images):
        assert pair_bijection(g, g, u, w) == (v, b)


def test_pair_bijection_m0_degenerates_to_reciprocity():
    g7, g5 = GroupSpec((7,)), GroupSpec((5,))
    vec = (0, 0, 1, 1, 1, 0, 2)
    u, v = pair_bijection(g7, g5, vec, (0,) * 7)
    assert v == (0,) * 5
    assert u == reciprocity_bijection(g7, g5, vec)


def _assert_m0_pair_map_is_reciprocity(g, h, rng):
    vec = [0] * g.order
    for _ in range(h.order):
        vec[rng.randrange(g.order)] += 1
    _, vec = zero_sum_shift(g, vec)
    u, v = pair_bijection(g, h, vec, (0,) * g.order)
    assert u == reciprocity_bijection(g, h, vec) and v == (0,) * h.order


@given(st.sampled_from(groups_through(1, 36)), st.sampled_from(groups_through(1, 36)), st.randoms())
def test_reciprocity_is_the_m0_pair_map(g, h, rng):
    # the two-colour necklace is the three-colour one without green beads
    assume(gcd(g.order, h.order) == 1)
    _assert_m0_pair_map_is_reciprocity(g, h, rng)


@pytest.mark.parametrize("g, h", [((301,), (2, 500)), ((2, 1500), (1001,)), ((3001,), (1000,))])
def test_reciprocity_is_the_m0_pair_map_at_scale(g, h):
    _assert_m0_pair_map_is_reciprocity(GroupSpec(g), GroupSpec(h), random.Random(2019))


def test_pair_bijection_exhaustive():
    for q in range(0, 4):
        for m in range(0, 4):
            if q + m < 1:
                continue
            for p in range(0, 4):
                if p + m < 1 or gcd(p, q + m) != 1 or gcd(q, p + m) != 1:
                    continue
                for g in all_abelian_groups(q + m):
                    for h in all_abelian_groups(p + m):
                        domain = enum_pairs(g, p, m, 0)
                        codomain = enum_pairs(h, q, m, 0)
                        assert len(domain) == pair_dimension(p, q, m, g)
                        assert len(codomain) == pair_dimension(q, p, m, h)
                        images = [pair_bijection(g, h, v, b) for v, b in domain]
                        assert sorted(images) == sorted(codomain), (p, q, m, g, h)
                        for (v, b), (u, w) in zip(domain, images):
                            assert sequence_sum(g, v) == g.negate(sequence_sum(g, b))
                            assert pair_bijection(h, g, u, w) == (v, b)


def test_pair_bijection_preconditions():
    g4 = GroupSpec((4,))
    g2 = GroupSpec((2,))
    with pytest.raises(ValueError):
        # p = 2 shares a factor with q + m = 4
        pair_bijection(g4, GroupSpec((5,)), (1, 1, 0, 0), (1, 1, 1, 0))
    with pytest.raises(ValueError):
        # pair sum is not zero
        pair_bijection(g2, g2, (0, 1), (1, 0))


def _pair_bijection_by_reads(group, other, seq_vec, subset_bits):
    """Reference: read the blue gaps at every marker and keep the one read
    whose gaps equal the zero-sum rotation of the first read's gaps."""
    _, pinned = zero_sum_shift(group, seq_vec)
    word = "".join(
        "R" * pinned[i] + ("G" if subset_bits[i] else "B") for i in range(group.order)
    )
    reads = []
    for pos in [i for i, c in enumerate(word) if c != "B"]:
        gaps, pattern, run = [], [], 0
        for c in word[pos + 1 :] + word[: pos + 1]:
            if c == "B":
                run += 1
            else:
                gaps.append(run)
                pattern.append(1 if c == "G" else 0)
                run = 0
        reads.append((tuple(gaps), tuple(pattern)))
    _, pinned_out = zero_sum_shift(other, reads[0][0])
    matches = [pattern for gaps, pattern in reads if gaps == pinned_out]
    assert len(matches) == 1
    target = other.negate(sequence_sum(other, matches[0]))
    return target_sum_shift(other, pinned_out, target)[1], matches[0]


def test_pair_bijection_matches_all_marker_reads():
    rng = random.Random(1947)
    checked = 0
    while checked < 150:
        q_plus_m = rng.randint(1, 60)
        m = rng.randint(0, q_plus_m)
        q = q_plus_m - m
        p = rng.randint(0, 60)
        if p + m < 1 or gcd(p, q + m) != 1 or gcd(q, p + m) != 1:
            continue
        g = rng.choice(all_abelian_groups(q_plus_m))
        h = rng.choice(all_abelian_groups(p + m))
        labels = set(rng.sample(range(q_plus_m), m))
        bits = tuple(int(i in labels) for i in range(q_plus_m))
        vec = [0] * q_plus_m
        for _ in range(p):
            vec[rng.randrange(q_plus_m)] += 1
        # rotate A so that sum(A) + sum(B) = 0; p is coprime to |G|
        _, vec = target_sum_shift(g, vec, g.negate(sequence_sum(g, bits)))
        assert pair_bijection(g, h, vec, bits) == _pair_bijection_by_reads(g, h, vec, bits)
        checked += 1
