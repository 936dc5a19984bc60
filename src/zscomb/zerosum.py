"""Multiplicity vectors over a group and their zero-sum structure.

A sequence (unordered, repetition allowed) over a group G of order n is
stored as a multiplicity vector: a length-n tuple whose entry at position l
counts how often the element with label l occurs.  A subset is the special
case with entries in {0, 1} (an indicator vector).

The central tool is label rotation.  Rotating a vector left by l sends the
count at label i+l to label i.  For a vector of total mass w with
gcd(w, n) = 1, the group sum of the n rotations runs through every element
of G exactly once, which is what makes the cycle-lemma bijections work.
"""

from itertools import accumulate, chain, cycle
from math import gcd
from operator import mul

from .errors import _check
from .groups import GroupSpec, _digits, _integer, _integers, _label


def check_vector(group: GroupSpec, vec) -> tuple[int, ...]:
    vec = _integers(vec, "multiplicities")
    if len(vec) != group.order:
        raise ValueError(f"vector length {len(vec)} does not match group order {group.order}")
    if min(vec, default=0) < 0:
        raise ValueError(f"multiplicities must be >= 0, got {vec}")
    return vec


def check_indicator(group: GroupSpec, vec) -> tuple[int, ...]:
    vec = check_vector(group, vec)
    if max(vec, default=0) > 1:
        raise ValueError(f"indicator entries must be 0 or 1, got {vec}")
    return vec


def sequence_sum(group: GroupSpec, vec) -> int:
    """Group sum of the multiset encoded by vec, as an element label."""
    vec = check_vector(group, vec)
    return _label(group.invariant_factors, _sum_digits(group.invariant_factors, vec))


def is_zero_sum(group: GroupSpec, vec) -> bool:
    return sequence_sum(group, vec) == 0


def _zero_sum_input(group: GroupSpec, vec, subset: bool = False) -> tuple[tuple[int, ...], int]:
    """The checked vector (indicator if subset) of an input that must sum to
    the identity, and its mass: the one entry check of the bijections."""
    vec = check_indicator(group, vec) if subset else check_vector(group, vec)
    if any(_sum_digits(group.invariant_factors, vec)):
        raise ValueError(f"{'subset' if subset else 'sequence'} does not sum to the identity")
    return vec, sum(vec)


def is_zero_sum_by_congruences(group: GroupSpec, vec) -> bool:
    """Zero-sum test through one weighted congruence per invariant factor.

    The multiset sums to the identity iff for every axis t the digit totals
    A_t(k) (total multiplicity of the labels whose t-th digit is k) satisfy
    sum_k k*A_t(k) = 0 (mod n_t).  Here blocks[j] is the mass of the labels
    l with l // (n_1*...*n_{t-1}) = j, whose t-th digit is j mod n_t, and
    runs of n_t blocks sum to the next axis's blocks.  This route shares no
    helper with the prefix-sum kernel of :func:`sequence_sum`, so the tests
    comparing the two, and the post-check of translate_complement_bijection,
    see a slip in either one.
    """
    blocks = check_vector(group, vec)
    for n_t in group.invariant_factors:
        if sum(map(mul, cycle(range(n_t)), blocks)) % n_t:
            return False
        blocks = tuple(map(sum, zip(*[iter(blocks)] * n_t)))
    return True


def _sum_digits(ns: tuple[int, ...], vec: tuple[int, ...]) -> tuple[int, ...]:
    """Digits of the group sum of a checked vector, from one prefix-sum pass:
    with u = n_1*...*n_{t-1}, digit t is sum_l vec[l] * (l // u) mod n_t, and
    that total is sum_{0<j<n/u} (mass - pre[j*u]), one strided slice sum."""
    n, pre = len(vec), list(accumulate(vec, initial=0))
    units = accumulate(ns, mul, initial=1)
    return tuple(((n // u - 1) * pre[n] - sum(pre[u:n:u])) % n_t for n_t, u in zip(ns, units))


def cyclic_shift(vec, l: int):
    """Rotate a vector left by l positions (entry at index i+l moves to i)."""
    vec = tuple(vec)
    l = _integer(l, "l") % (len(vec) or 1)
    return vec[l:] + vec[:l]


def translate(group: GroupSpec, vec, g: int):
    """Multiplicity vector of the translated multiset g + A.

    This is group translation, not label rotation: the count at label(h)
    moves to label(h + g).  Adding g_t to the t-th digit rotates every block
    of n_1*...*n_t consecutive labels right by g_t*n_1*...*n_{t-1}, so the
    whole move is one block rotation per axis, linear in |G|.
    """
    vec = check_vector(group, vec)
    return _translate(group.invariant_factors, vec, group.coords(g))


def _translate(ns: tuple[int, ...], vec, digits):
    """:func:`translate` of a checked vector by the element with these digits."""
    n, out, unit = len(vec), vec, 1
    for n_t, g_t in zip(ns, digits):
        block = unit * n_t
        cut = block - g_t * unit
        if g_t:
            out = tuple(
                chain.from_iterable(
                    out[s + cut : s + block] + out[s : s + cut] for s in range(0, n, block)
                )
            )
        unit = block
    return out


def zero_sum_shift(group: GroupSpec, vec) -> tuple[int, tuple[int, ...]]:
    """:func:`target_sum_shift` to the identity: (shift, zero-sum rotation of vec)."""
    return target_sum_shift(group, vec, 0)


def target_sum_shift(group: GroupSpec, vec, target: int) -> tuple[int, tuple[int, ...]]:
    """The unique left rotation of vec whose multiset sums to target.

    Requires gcd(mass, |G|) = 1.  Staged construction, one mixed-radix digit
    at a time: rotating by a multiple of n_1*...*n_{t-1} moves the t-th
    coordinate of the sum by -mass per unit while leaving coordinates below
    t unchanged, so stage t settles the mod-n_t congruence for good.  Linear
    in |G|.  Returns (total shift, rotated vector).
    """
    vec = check_vector(group, vec)
    target, mass = group.check_label(target), sum(vec)
    if gcd(mass, group.order) != 1:
        raise ValueError(f"mass {mass} is not coprime to group order {group.order}")
    return _shift(group, vec, mass, target)


def _shift(group, vec, mass, target=0):
    """Unchecked :func:`target_sum_shift`: one prefix-sum pass, one rotation."""
    ns = group.invariant_factors
    goal, pre, shift, unit = _digits(ns, target), list(accumulate(vec, initial=0)), 0, 1
    for n_t, g_t in zip(ns, goal):
        shift += (_stage_digit(pre, unit, n_t, shift) - g_t) * pow(mass, -1, n_t) % n_t * unit
        unit *= n_t
    del pre  # one pass alive at a time
    out = cyclic_shift(vec, shift)
    reached = _sum_digits(ns, out) == goal
    _check(reached, "staged shift reaches the target sum", target=target, mass=mass, shift=shift)
    return shift, out


def _stage_digit(pre, u, n_t, s):
    """:func:`_sum_digits`' digit at stride u for pre's vector rotated left by s."""
    n, mass = len(pre) - 1, pre[-1]
    total = sum(pre[s % u : n : u]) + mass * (s // u) - (n // u) * pre[s]
    return ((n // u - 1) * mass - total) % n_t


def rotations_with_sum(group: GroupSpec, vec, target: int) -> list[int]:
    """All shifts l whose rotation sums to target; brute scan for cross-checks."""
    vec = check_vector(group, vec)
    group.check_label(target)
    return [l for l in range(group.order) if sequence_sum(group, cyclic_shift(vec, l)) == target]
