"""Brute-force enumeration oracles.

Everything here recounts by exhaustion what the closed formulas claim, so it
is deliberately simple: walk candidate multisets or subsets in a fixed order,
add up their packed mixed-radix digits and read the sums back with the
unchecked `groups._label`.  A listing of one sum walks only the sorted
(size - 1)-label prefixes and solves each for its last label.  Setup is
O(|G| * rank); budgets (`errors.py`) charge the full candidate space before
any work, which bounds the walk.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement, repeat
from math import comb

from .errors import _check_budget
from .groups import GroupSpec, _label, _minus


class _Packing(dict):
    """Each label's digits packed into one int, and the label of a packed sum.

    packed[l] puts digit i of label l in a slot of (width * n_r).bit_length()
    bits, so up to `width` packed labels add without carries between slots.
    """

    def __init__(self, group: GroupSpec, width: int):
        self.group = group
        self.bits = (width * group.exponent).bit_length()
        self.packed = [0]
        for i, n_i in enumerate(group.invariant_factors):
            self.packed = [p + (d << i * self.bits) for d in range(n_i) for p in self.packed]

    def __missing__(self, key: int) -> int:
        mask = (1 << self.bits) - 1
        slots = (key >> i * self.bits & mask for i in range(self.group.rank))
        label = self[key] = _label(self.group.invariant_factors, slots)
        return label


def _charge(group: GroupSpec, size: int, distinct: bool, limit: int | None) -> int:
    """Check a multiset (subset if distinct) size, charge all its candidates."""
    n, size = group.order, group.check_size(size, distinct)
    _check_budget(comb(n, size) if distinct else comb(n + size - 1, size), limit)
    return size


def _candidates(group: GroupSpec, size: int, distinct: bool, pool: int):
    """Label tuples of every size-`size` multiset (subset if distinct) of the
    labels below `pool`, in combinations order, and in step with them the
    label of each one's sum.  The caller has checked `size`."""
    pick = combinations if distinct else combinations_with_replacement
    pack = _Packing(group, size)
    return pick(range(pool), size), map(pack.__getitem__, map(sum, pick(pack.packed[:pool], size)))


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
    prefixes, sums = _candidates(group, size - 1, distinct, n - distinct)
    return [
        _to_multiplicity(n, prefix + (x,))
        for prefix, x in zip(prefixes, map(need.__getitem__, sums))
        if not prefix or x >= prefix[-1] + distinct
    ]


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
    for labels, t in zip(*_candidates(group, k, True, n)):
        partners.setdefault(need[t], []).append(_to_multiplicity(n, labels))
    out = []
    for labels, s in zip(*_candidates(group, p, False, n)):
        if subsets := partners.get(s):
            out += zip(repeat(_to_multiplicity(n, labels)), subsets)
    return out


def sequences_by_sum(group: GroupSpec, m: int, limit: int | None = None) -> Counter:
    """Counter mapping each group sum to the number of length-m multisets."""
    return Counter(_candidates(group, _charge(group, m, False, limit), False, group.order)[1])


def subsets_by_sum(group: GroupSpec, k: int, limit: int | None = None) -> Counter:
    """Counter mapping each group sum to the number of k-subsets."""
    return Counter(_candidates(group, _charge(group, k, True, limit), True, group.order)[1])
