"""Bigraded coefficient tables counting (multiset, subset) pairs by size.

For a group G of order n and a target element g, the table entry at (p, k)
is the number of pairs (length-p multiset, k-subset) over G whose total sum
is g.  These are the coefficients of a rational generating function in two
variables (s tracks multiset size, t tracks subset size):

    (1/n) * sum over d | exponent of
        character_sum(g, d) * ((1 - (-t)^d) / (1 - s^d))^(n/d).

Every table is computed twice, and the two must agree before it is
returned.  The closed route, :func:`counting.pair_count_table`, checks the
target and both bounds once per table and fills each row from one binomial
column per divisor of the closed formula.  The series route expands the sum
above, truncated, with its own binomials, signs and character sums (from
`character_sum`, not the memoised profile), so the agreement check compares
two tables that were built separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .brute import sequences_by_sum, subsets_by_sum
from .counting import exact_div_row, pair_count_table
from .errors import _check, _check_budget
from .groups import GroupSpec, character_sum, divisors


@dataclass(frozen=True)
class CoeffTable:
    """Rows are multiset sizes 0..max_s, columns subset sizes 0..max_t."""

    group: GroupSpec
    target: int
    coeffs: tuple[tuple[int, ...], ...]

    @property
    def max_s(self) -> int:
        return len(self.coeffs) - 1

    @property
    def max_t(self) -> int:
        return len(self.coeffs[0]) - 1

    def entry(self, p: int, k: int) -> int:
        return self.coeffs[p][k]

    def to_json_dict(self) -> dict:
        return {
            "group": str(self.group),
            "target": self.target,
            "coeffs": [[str(c) for c in row] for row in self.coeffs],
        }


def _series_table(group: GroupSpec, target: int, max_s: int, max_t: int):
    """Table by truncated expansion of the generating function, with
    characters from `character_sum`, not the profile memo."""
    n = group.order
    acc = [[0] * (max_t + 1) for _ in range(max_s + 1)]
    for d in divisors(group.exponent):
        chi, nd = character_sum(group, target, d), n // d
        if not chi:
            continue
        # (1 - (-t)^d)^(n/d): the t^(d*j) coefficient is C(n/d, j) times
        # (-1)^j from the binomial and (-1)^(d*j) from (-t)^d, so the sign
        # is (-1)^(j*(d+1)); for even d the terms alternate.
        tcoefs = [
            (d * j, comb(nd, j) if (j * (d + 1)) % 2 == 0 else -comb(nd, j))
            for j in range(0, min(nd, max_t // d) + 1)
        ]
        # 1/(1 - s^d)^(n/d) has s^(d*i) coefficient C(n/d + i - 1, i).
        for i in range(0, max_s // d + 1):
            row, scoef = acc[d * i], chi * comb(nd + i - 1, i)
            for k, tcoef in tcoefs:
                row[k] += scoef * tcoef
    return [exact_div_row(row, n) for row in acc]


def poincare_table(group: GroupSpec, target: int, max_s: int, max_t: int) -> CoeffTable:
    """Coefficient table through degrees (max_s, max_t), doubly computed."""
    closed = pair_count_table(group, target, max_s, max_t)
    series = _series_table(group, target, max_s, max_t)
    agree = closed == series
    _check(agree, "closed-form and series tables agree", group=str(group), target=target)
    return CoeffTable(group, target, tuple(tuple(row) for row in closed))


def series_cross_check(
    group: GroupSpec,
    target: int,
    max_s: int,
    max_t: int,
    limit: int | None = None,
) -> dict:
    """Compare a table against brute-force pair counts, entry by entry.

    The oracle side enumerates all multisets and subsets once per size,
    histograms them by group sum, and convolves the histograms.  The whole
    job, every histogram's candidates, is charged to the budget before the
    first one is built.  Returns a report dict with any mismatching entries.
    """
    table = poincare_table(group, target, max_s, max_t)
    n, top = group.order, min(max_t, group.order)
    # sum over p <= max_s of C(n + p - 1, p) multisets is C(n + max_s, max_s)
    limit = _check_budget(comb(n + max_s, max_s) + sum(comb(n, k) for k in range(top + 1)), limit)
    seq_hists = [sequences_by_sum(group, p, limit) for p in range(max_s + 1)]
    sub_hists = [subsets_by_sum(group, k, limit) if k <= n else {} for k in range(max_t + 1)]
    failures = []
    for p in range(max_s + 1):
        partners = [(group.sub(target, s), count) for s, count in seq_hists[p].items()]
        for k in range(max_t + 1):
            oracle = sum(count * sub_hists[k].get(t, 0) for t, count in partners)
            if oracle != table.entry(p, k):
                failures.append(
                    {"p": p, "k": k,
                     "formula": str(table.entry(p, k)), "oracle": str(oracle)}
                )
    row = {
        "group": str(group),
        "target": target,
        "max_s": max_s,
        "max_t": max_t,
        "entries": (max_s + 1) * (max_t + 1),
        "ok": not failures,
    }
    return {"theorem": "series", "scanned": row["entries"], "failures": failures, "rows": [row]}
