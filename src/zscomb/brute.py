"""Brute-force enumeration oracles.

Everything here recounts by exhaustion what the closed formulas claim, so it
is deliberately simple: iterate over candidate multisets or subsets in a
fixed order, fold their group sums through an addition table, and filter.
Candidate budgets guard against accidental blowups; the default admits about
ten million candidates per call.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import EnumerationLimitError
from .groups import GroupSpec

DEFAULT_LIMIT = 10_000_000


def default_limit() -> int:
    """Candidate budget; override with the ZSCOMB_LIMIT environment variable."""
    raw = os.environ.get("ZSCOMB_LIMIT")
    return int(raw) if raw else DEFAULT_LIMIT


def _check_budget(candidates: int, limit: int | None) -> None:
    cap = default_limit() if limit is None else limit
    if candidates > cap:
        raise EnumerationLimitError(
            f"{candidates} candidates exceed the enumeration limit {cap}"
        )


@lru_cache(maxsize=None)
def _add_table(group: GroupSpec) -> tuple[tuple[int, ...], ...]:
    n = group.order
    return tuple(
        tuple(group.add(g, h) for h in range(n)) for g in range(n)
    )


def _fold_sum(table, labels) -> int:
    acc = 0
    for lab in labels:
        acc = table[acc][lab]
    return acc


def _to_multiplicity(n: int, labels) -> tuple[int, ...]:
    out = [0] * n
    for lab in labels:
        out[lab] += 1
    return tuple(out)


def enum_sequences(group: GroupSpec, m: int, target: int = 0, limit: int | None = None):
    """All length-m multisets over the group with sum = target.

    Returned as multiplicity vectors, ordered like the underlying sorted
    element tuples (combinations with replacement of labels), so the output
    is deterministic and duplicate-free.
    """
    group.check_label(target)
    n = group.order
    if m < 0:
        raise ValueError(f"length must be >= 0, got {m}")
    _check_budget(comb(n + m - 1, m), limit)
    table = _add_table(group)
    out = []
    for labels in combinations_with_replacement(range(n), m):
        if _fold_sum(table, labels) == target:
            out.append(_to_multiplicity(n, labels))
    return out


def enum_subsets(group: GroupSpec, k: int, target: int = 0, limit: int | None = None):
    """All k-element subsets of the group with sum = target, as indicator vectors."""
    group.check_label(target)
    n = group.order
    if not 0 <= k <= n:
        raise ValueError(f"subset size {k} out of range for order {n}")
    _check_budget(comb(n, k), limit)
    table = _add_table(group)
    out = []
    for labels in combinations(range(n), k):
        if _fold_sum(table, labels) == target:
            out.append(_to_multiplicity(n, labels))
    return out


def enum_pairs(
    group: GroupSpec, p: int, k: int, target: int = 0, limit: int | None = None
):
    """All pairs (length-p multiset, k-subset) with total sum = target.

    Pairs are returned as (multiplicity vector, indicator vector) in
    lexicographic candidate order.
    """
    group.check_label(target)
    n = group.order
    if p < 0 or not 0 <= k <= n:
        raise ValueError(f"bad pair shape p={p}, k={k} for order {n}")
    _check_budget(comb(n + p - 1, p) * comb(n, k), limit)
    table = _add_table(group)
    subsets = [
        (_fold_sum(table, labels), _to_multiplicity(n, labels))
        for labels in combinations(range(n), k)
    ]
    out = []
    for labels in combinations_with_replacement(range(n), p):
        s = _fold_sum(table, labels)
        vec = _to_multiplicity(n, labels)
        for t, bits in subsets:
            if table[s][t] == target:
                out.append((vec, bits))
    return out


def sequences_by_sum(group: GroupSpec, m: int, limit: int | None = None) -> Counter:
    """Counter mapping each group sum to the number of length-m multisets."""
    n = group.order
    if m < 0:
        raise ValueError(f"length must be >= 0, got {m}")
    _check_budget(comb(n + m - 1, m), limit)
    table = _add_table(group)
    hist: Counter = Counter()
    for labels in combinations_with_replacement(range(n), m):
        hist[_fold_sum(table, labels)] += 1
    return hist


def subsets_by_sum(group: GroupSpec, k: int, limit: int | None = None) -> Counter:
    """Counter mapping each group sum to the number of k-subsets."""
    n = group.order
    if not 0 <= k <= n:
        raise ValueError(f"subset size {k} out of range for order {n}")
    _check_budget(comb(n, k), limit)
    table = _add_table(group)
    hist: Counter = Counter()
    for labels in combinations(range(n), k):
        hist[_fold_sum(table, labels)] += 1
    return hist
