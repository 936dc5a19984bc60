"""Bigraded coefficient tables counting (multiset, subset) pairs by size.

For a group G of order n and a target element g, the table entry at (p, k)
is the number of pairs (length-p multiset, k-subset) over G whose total sum
is g.  These are the coefficients of a rational generating function in two
variables (s tracks multiset size, t tracks subset size):

    (1/n) * sum over d | exponent of
        character_sum(g, d) * ((1 - (-t)^d) / (1 - s^d))^(n/d).

Every table is computed twice, and the two must agree before it is
returned.  The closed route, :func:`counting.pair_count_table`, checks the
target and both bounds once per table and adds one signed subset column per
divisor of the profile into every d-th row.  The series route
expands the sum above, truncated, with its own signs, characters from
`character_sum` (not the profile) and recurrences for its column and row
factor, and calls no `counting` helper but `exact_div_row`: the agreement
check compares two tables built separately.

:func:`series_cross_check` compares a table with a third route that shares
no formula with them: the product over x in G of 1/(1 - s[x])(1 + t[x]),
multiplied out in the group algebra Z[G] without characters or enumeration.
"""

from dataclasses import dataclass
from operator import add, mul

from .counting import exact_div_row, pair_count_table
from .errors import _check
from .groups import GroupSpec, _decimal, _digits, _minus, character_sum, divisors


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
            "coeffs": [list(map(_decimal, row)) for row in self.coeffs],
        }


def _series_table(group: GroupSpec, target: int, max_s: int, max_t: int):
    """Truncated expansion, characters from `character_sum` (not the profile),
    its own column and row-factor recurrences; of `counting`, only `exact_div_row`."""
    n = group.order
    acc = [[0] * (max_t + 1) for _ in range(max_s + 1)]
    for d in divisors(group.exponent):
        chi, nd = character_sum(group, target, d), n // d
        if not chi:
            continue
        # (1 - (-t)^d)^(n/d): the t^(d*j) coefficient is C(n/d, j) times (-1)^j
        # from the binomial and (-1)^(d*j) from (-t)^d: sign (-1)^(j*(d+1)).
        tcoefs, c = [], 1  # c = C(n/d, j)
        for j in range(0, min(nd, max_t // d) + 1):
            tcoefs.append((d * j, c if (j * (d + 1)) % 2 == 0 else -c))
            c = c * (nd - j) // (j + 1)
        # 1/(1 - s^d)^(n/d) has s^(d*i) coefficient C(n/d + i - 1, i), in chi.
        for i, row in enumerate(acc[::d]):
            for k, tcoef in tcoefs:
                row[k] += chi * tcoef
            chi = chi * (nd + i) // (i + 1)
    cells = exact_div_row([c for row in acc for c in row], n)  # one scan of the table
    return [cells[i : i + max_t + 1] for i in range(0, len(cells), max_t + 1)]


def poincare_table(group: GroupSpec, target: int, max_s: int, max_t: int) -> CoeffTable:
    """Coefficient table through degrees (max_s, max_t), doubly computed."""
    closed = pair_count_table(group, target, max_s, max_t)
    agree = closed == _series_table(group, target, max_s, max_t)
    _check(agree, "closed-form and series tables agree", group=str(group), target=target)
    return CoeffTable(group, target, tuple(map(tuple, closed)))


def _sum_rows(group: GroupSpec, top: int, distinct: bool) -> list[list[int]]:
    """rows[s][g] counts the size-s multisets (subsets if distinct) with sum g:
    the product over x in G of 1/(1 - s[x]) (1 + s[x] if distinct) in Z[G],
    truncated at size top, sizes ascending (descending if distinct): each x
    decoded once, then one unchecked `zerosum._translate` per size."""
    from .zerosum import _translate  # only here: a table needs no zerosum

    ns = group.invariant_factors
    rows = [[int(g == 0) for g in group.elements()]] + [[0] * group.order for _ in range(top)]
    for x in group.elements():
        digits = _digits(ns, x)
        for s in range(top, 0, -1) if distinct else range(1, top + 1):
            rows[s] = list(map(add, rows[s], _translate(ns, rows[s - 1], digits)))
    return rows


def series_cross_check(group: GroupSpec, target: int, max_s: int, max_t: int) -> dict:
    """Compare a table against direct expansion (`_sum_rows`), entry by entry:
    entry (p, k) pairs the multisets of sum g with the subsets of sum target - g,
    in O(|G|^2 (max_s + max_t) + |G| max_s max_t) and with no budget.  Returns a
    report dict with any mismatching entries."""
    table = poincare_table(group, target, max_s, max_t)
    partner = _minus(group.invariant_factors, group.coords(target))
    subs = [[row[h] for h in partner] for row in _sum_rows(group, min(max_t, group.order), True)]
    failures = []
    for p, seq in enumerate(_sum_rows(group, max_s, False)):
        for k, formula in enumerate(table.coeffs[p]):
            oracle = sum(map(mul, seq, subs[k])) if k < len(subs) else 0
            if oracle != formula:
                failures.append(
                    {"p": p, "k": k, "formula": _decimal(formula), "oracle": _decimal(oracle)}
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
