"""Necklace pictures of the rotation bijections.

A zero-sum multiset of size m over a group of order n is drawn as a necklace
of n red and m blue beads: reading clockwise, the number of blue beads
following each red bead is the multiplicity vector.  Swapping the roles of
the colors reads the same necklace as a multiset of size n over any group of
order m, and picking the unique zero-sum rotation on each side gives a
bijection between the two collections ("reciprocity").

Necklaces are serialized as strings over R, G, B in canonical rotation (the
lexicographically least one under R < G < B); green only appears in the
three-color pair bijection.  Every map here reads its necklace a bounded
number of times and rotates by the staged shift, so each runs in time
linear in |G| + mass.
"""

from itertools import repeat
from math import gcd
from operator import add, mul, neg

from .errors import _check
from .groups import GroupSpec, _label, factorize
from .zerosum import _shift, _sum_digits, _zero_sum_input, check_indicator, check_vector
from .zerosum import cyclic_shift, is_zero_sum_by_congruences, translate

_RANKS = str.maketrans("RGB", "012")
_GREEN = str.maketrans("RG", "\0\1")
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def canonical_rotation(word: str) -> str:
    """Lexicographically least rotation of a color word under R < G < B.

    Two-pointer least-rotation scan, linear in len(word): start candidates
    i and j are compared bead by bead on the doubled rank string, and a
    mismatch after k equal beads rules out the losing start and the k
    starts that follow it.
    """
    if not set(word) <= set("RGB"):
        raise ValueError(f"necklace words use R, G, B only, got {word!r}")
    n = len(word)
    ranks = word.translate(_RANKS) * 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = ranks[i + k], ranks[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return word[start:] + word[:start]


def _gaps_after(word: str, marker: str) -> tuple[int, ...]:
    """Cyclic gap vector: non-marker beads after each marker, from the first one."""
    first = word.find(marker) + 1
    if not first:
        raise ValueError(f"word {word!r} has no {marker!r} beads")
    return tuple(map(len, (word[first:] + word[: first - 1]).split(marker)))


def sequence_to_necklace(group: GroupSpec, vec) -> str:
    """Canonical two-color necklace of a zero-sum multiset."""
    vec, m = _zero_sum_input(group, vec)
    n = group.order
    if gcd(n, m) != 1:
        raise ValueError(f"mass {m} is not coprime to group order {n}")
    return canonical_rotation("R" + "R".join(map(mul, repeat("B"), vec)))


def necklace_to_sequence(group: GroupSpec, word: str) -> tuple[int, ...]:
    """Zero-sum multiset encoded by a two-color necklace.

    The blue gaps are read from an arbitrary red bead; the unique zero-sum
    rotation of the gap vector makes the result independent of that choice.
    """
    if not set(word) <= {"R", "B"}:
        raise ValueError(f"expected a two-color R/B word, got {word!r}")
    n, m = word.count("R"), word.count("B")
    if n != group.order:
        raise ValueError(f"{n} red beads do not match group order {group.order}")
    if gcd(n, m) != 1:
        raise ValueError(f"bead counts ({n}, {m}) are not coprime")
    return _shift(group, _gaps_after(word, "R"), m)[1]


def reciprocity_bijection(group: GroupSpec, other: GroupSpec, vec) -> tuple[int, ...]:
    """Map a zero-sum multiset over `group` of size |other| to one over
    `other` of size |group| by re-reading its necklace with colors swapped.
    """
    n, m = group.order, other.order
    if gcd(n, m) != 1:
        raise ValueError(f"group orders ({n}, {m}) are not coprime")
    vec, mass = _zero_sum_input(group, vec)
    if mass != m:
        raise ValueError(f"mass {mass} must equal the other group's order {m}")
    return _shift(other, _gaps_after("R" + "R".join(map(mul, repeat("B"), vec)), "B"), n)[1]


def complement_bijection(group: GroupSpec, bits) -> tuple[tuple[int, ...], int]:
    """Map a zero-sum k-subset to a zero-sum (n-k)-subset for gcd(k, n) = 1.

    Complements the indicator and rotates to the unique zero-sum position.
    Applying the map twice returns the original subset.
    """
    bits, k = _zero_sum_input(group, bits, subset=True)
    n = group.order
    if gcd(k, n) != 1:
        raise ValueError(f"subset size {k} is not coprime to group order {n}")
    shift, out = _shift(group, tuple(bytes(bits).translate(_FLIP)), n - k)
    return out, shift


def translate_complement_bijection(group: GroupSpec, bits) -> tuple[tuple[int, ...], int]:
    """Map a zero-sum k-subset to the zero-sum (n-k)-subset x + complement.

    When the sum of all group elements is zero the plain complement already
    works and x = 0.  Otherwise that sum is the unique element e of order 2,
    top/2 on the top axis; any x with k*x = e makes the translated
    complement zero-sum, and the smallest such label is used.  Returns
    (indicator, x).
    """
    bits, k = _zero_sum_input(group, bits, subset=True)
    n = group.order
    if not 1 <= k <= n - 1:
        raise ValueError(f"subset size {k} must be in [1, {n - 1}]")
    comp = tuple(bytes(bits).translate(_FLIP))
    if not group._total:
        return comp, 0
    # k*x = e is k*a = top/2 (mod top) on the top axis and 0 on the others,
    # so the smallest label takes the smallest such a and zeros below it.
    top = group.invariant_factors[-1]
    g = gcd(k, top)
    if top // 2 % g:
        raise ValueError(f"k*x = e has no solution for k = {k} in group {group}")
    a = top // 2 // g * pow(k // g, -1, top // g) % (top // g)
    x = a * (n // top)
    out = translate(group, comp, x)
    ok = is_zero_sum_by_congruences(group, out)
    _check(ok, "translated complement is zero-sum", order=n, size=k, translation=x)
    return out, x


def pair_bijection(
    group: GroupSpec, other: GroupSpec, seq_vec, subset_bits
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bijection between zero-sum (multiset, subset) pairs over two groups.

    Input: a length-p multiset A and an m-subset B over `group` (order q+m)
    with sum(A) + sum(B) = 0; output: the corresponding length-q multiset and
    m-subset over `other` (order p+m).  Requires gcd(p, q+m) = gcd(q, p+m) = 1.

    The pair is a necklace of p red, m green and q blue beads: red runs of
    A's multiplicities before the q+m green/blue beads, green where B has a
    1.  Pin A at its zero-sum rotation; the blue runs after the p+m red/green
    beads, at their zero-sum rotation, give the output pattern, and rotating
    them so the output pair sums to zero ends the map.  The same steps from
    the other side invert it.  The necklace is read once: linear in |G| + p.
    """
    seq_vec = check_vector(group, seq_vec)
    subset_bits = check_indicator(group, subset_bits)
    p, m = sum(seq_vec), sum(subset_bits)
    q = group.order - m
    if other.order != p + m:
        raise ValueError(f"other group's order {other.order} must equal p + m = {p + m}")
    if gcd(p, q + m) != 1 or gcd(q, p + m) != 1:
        raise ValueError(f"need gcd(p, q+m) = gcd(q, p+m) = 1, got (p, q, m) = {(p, q, m)}")
    if any(_sum_digits(group.invariant_factors, tuple(map(add, seq_vec, subset_bits)))):
        raise ValueError("pair does not sum to the identity")

    _, pinned = _shift(group, seq_vec, p)
    word = "".join("R" * x + "BG"[b] for x, b in zip(pinned, subset_bits))
    # gaps[i] counts the blue beads after red/green marker i; the color of
    # marker i + 1, which ends that run, gives bit i of the pattern.
    gaps = _gaps_after(word.replace("G", "R"), "R")
    marks = word.replace("B", "").translate(_GREEN).encode()
    # The pattern at the gaps' zero-sum rotation is well defined only if no
    # rotation by size/l, l a prime of size, fixes the gaps (aperiodic).
    size = len(gaps)
    aperiodic = all(cyclic_shift(gaps, size // l) != gaps for l, _ in factorize(size))
    _check(aperiodic, "blue gap vector is aperiodic", order=size, mass=q)
    shift, pinned_out = _shift(other, gaps, q)
    v_bits = cyclic_shift(marks, shift + 1)
    ns = other.invariant_factors
    _, u_vec = _shift(other, pinned_out, q, _label(ns, map(neg, _sum_digits(ns, v_bits))))
    return u_vec, v_bits
