"""Brute-force enumeration oracles.

Everything here recounts by exhaustion what the closed formulas claim, so it
is deliberately simple: walk candidate multisets or subsets in a fixed order
and add up their packed mixed-radix digits.  A listing of one sum walks only
the sorted (size - 1)-label prefixes and solves each for its last label; a
histogram counts every last label that sorts after each and reads each
distinct packed sum back once.  Setup is O(|G| * rank), one add per table
entry; budgets (`errors.py`) charge every candidate first, bounding the walk.
"""

from collections import Counter
from itertools import chain, combinations, combinations_with_replacement, repeat
from math import comb
from operator import add

from .errors import _check_budget
from .groups import GroupSpec, _label, _minus


class _Packing(dict):
    """Each label's digits packed into one int, and the label of a packed sum.

    packed[l] puts digit i of label l in slot i, (width * (n_i - 1)).bit_length() bits
    wide, so up to `width` packed labels add without carries between slots.
    """

    def __init__(self, group: GroupSpec, width: int):
        self.group, self.packed, self.slots, shift = group, [0], [], 0
        for n_i in group.invariant_factors:
            self.packed = [p + (d << shift) for d in range(n_i) for p in self.packed]
            bits = (width * (n_i - 1)).bit_length()
            self.slots.append((shift, (1 << bits) - 1))
            shift += bits
        self.update(zip(self.packed, range(group.order)))

    def __missing__(self, key: int) -> int:
        slots = [key >> shift & mask for shift, mask in self.slots]
        label = self[key] = _label(self.group.invariant_factors, slots)
        return label


def _charge(group: GroupSpec, size: int, distinct: bool, limit: int | None) -> int:
    """Check a multiset (subset if distinct) size, charge all its candidates."""
    n, size = group.order, group.check_size(size, distinct)
    _check_budget(comb(n, size) if distinct else comb(n + size - 1, size), limit)
    return size


def _candidates(group: GroupSpec, size: int, distinct: bool, pool: int):
    """Label tuples of every size-`size` multiset (subset if distinct) of the
    labels below `pool`, in combinations order, in step with them the label of
    each one's sum, and their packing, which also reads sums of two labels.
    The caller has checked `size`."""
    pick = combinations if distinct else combinations_with_replacement
    pack = _Packing(group, max(size, 2))
    sums = map(pack.__getitem__, map(sum, pick(pack.packed[:pool], size)))
    return pick(range(pool), size), sums, pack


def _to_multiplicity(n: int, labels) -> tuple[int, ...]:
    out = [0] * n
    for lab in labels:
        out[lab] += 1
    return tuple(out)


def _with_sum(group: GroupSpec, size: int, distinct: bool, target: int, limit: int | None):
    """Each sorted (size - 1)-label prefix is completed by need[its sum], the
    label of target minus that sum, kept if it sorts last (strictly if distinct)."""
    goal, n = group.coords(target), group.order
    size = _charge(group, size, distinct, limit)
    if not size:
        return [(0,) * n] if target == 0 else []
    need = _minus(group.invariant_factors, goal)
    prefixes, sums, _ = _candidates(group, size - 1, distinct, n - distinct)
    return [
        _to_multiplicity(n, prefix + (x,))
        for prefix, x in zip(prefixes, map(need.__getitem__, sums))
        if not prefix or x >= prefix[-1] + distinct
    ]


def _by_sum(group: GroupSpec, size: int, distinct: bool, limit: int | None) -> Counter:
    """Each sorted (size - 1)-label prefix's sum, packed again, adds every last
    label that sorts after it; each distinct two-label sum is read back once."""
    size, n = _charge(group, size, distinct, limit), group.order
    if not size:
        return Counter({0: 1})
    prefixes, sums, pack = _candidates(group, size - 1, distinct, n - distinct)
    packed = pack.packed
    keys = Counter(chain.from_iterable(
        map(add, repeat(packed[s]), packed[prefix[-1] + distinct if prefix else 0:])
        for prefix, s in zip(prefixes, sums)))
    hist = Counter()
    for key, count in keys.items():
        hist[pack[key]] += count
    return hist


def enum_sequences(group: GroupSpec, m: int, target: int = 0, limit: int | None = None):
    """All length-m multisets over the group with sum = target.

    Returned as multiplicity vectors, ordered like the underlying sorted
    element tuples (combinations with replacement of labels), so the output
    is deterministic and duplicate-free.
    """
    return _with_sum(group, m, False, target, limit)


def enum_subsets(group: GroupSpec, k: int, target: int = 0, limit: int | None = None):
    """All k-element subsets of the group with sum = target, as indicator vectors."""
    return _with_sum(group, k, True, target, limit)


def enum_pairs(
    group: GroupSpec, p: int, k: int, target: int = 0, limit: int | None = None
):
    """All pairs (length-p multiset, k-subset) with total sum = target.

    Pairs are returned as (multiplicity vector, indicator vector) in
    lexicographic candidate order.
    """
    goal, n = group.coords(target), group.order
    p, k = group.check_size(p), group.check_size(k, subset=True)
    _check_budget(comb(n + p - 1, p) * comb(n, k), limit)
    # the subsets of sum t pair with the multisets of sum target - t
    need = _minus(group.invariant_factors, goal)
    partners: dict[int, list] = {}
    for labels, t in zip(*_candidates(group, k, True, n)[:2]):
        partners.setdefault(need[t], []).append(_to_multiplicity(n, labels))
    out = []
    for labels, s in zip(*_candidates(group, p, False, n)[:2]):
        if subsets := partners.get(s):
            out += zip(repeat(_to_multiplicity(n, labels)), subsets)
    return out


def sequences_by_sum(group: GroupSpec, m: int, limit: int | None = None) -> Counter:
    """Counter mapping each group sum to the number of length-m multisets."""
    return _by_sum(group, m, False, limit)


def subsets_by_sum(group: GroupSpec, k: int, limit: int | None = None) -> Counter:
    """Counter mapping each group sum to the number of k-subsets."""
    return _by_sum(group, k, True, limit)
