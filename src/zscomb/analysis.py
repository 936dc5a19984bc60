"""Decision procedures for count symmetries, with exhaustive verifiers.

Each predicate here states a structural condition on a group (its invariant
factors n_1 | ... | n_r) that is claimed to be equivalent to an equality of
zero-sum counts.  The verify_* functions sweep every abelian group up to a
given order, compare predicate against computed counts, and return a JSON-
ready report: {"theorem": ..., "scanned": N, "failures": [...], "rows": [...]}.
A failure entry means the claimed equivalence broke; verifiers never raise
on mathematical grounds.  A sweep lists its groups in one walk over the
chains (`GroupSpec._of` builds each without validating it again), and reads
its counts from table rows and columns or, in verify_gcp, from one target-0
profile per group through the unchecked `_pair_count`.

Counts inside reports are decimal strings so arbitrary-precision values
survive any JSON consumer.
"""

from functools import cache
from math import gcd, prod

from .counting import _pair_count, count_sequences, pair_count_table, rational_catalan
from .errors import EnumerationLimitError
from .groups import (
    GroupSpec, _decimal, _integer, character_profile, divisors, is_prime, normalize_group)

# Enumeration is only consulted when the candidate space is this small.
ORACLE_BUDGET = 200_000


def v2(m: int) -> int:
    """2-adic valuation: the largest t with 2^t dividing m; m >= 1."""
    m = _integer(m, "m", 1)
    return (m & -m).bit_length() - 1


def _chains(n: int, base: int):
    """Invariant-factor chains of product n with every factor a multiple of
    base, ascending: a first factor f > 1 from divisors(n), then a chain of
    n // f, which exists only if n // f is 1 or a multiple of f."""
    if n == 1:
        yield ()
    for f in divisors(n)[1:]:
        if f % base == 0 and (n == f or n // f % f == 0):
            yield from ((f, *rest) for rest in _chains(n // f, f))


def all_abelian_groups(order: int) -> list[GroupSpec]:
    """Every abelian group of the given order, one per invariant-factor chain
    n_1 | ... | n_r with product order, sorted by chain (divisors ascend)."""
    return [GroupSpec._of(chain) for chain in _chains(order, 1)]


def _groups_up_to(max_order: int) -> list[GroupSpec]:
    """Every group of order <= max_order, sorted by (order, chain), in one walk
    that extends each chain by the multiples of its top factor in bound."""
    n = _integer(max_order, "max_order", 1)
    level, found = [(f, (f,)) for f in range(2, n + 1)], [(1, ())]  # (order, chain)
    while level:
        found += level
        level = [(o * f, c + (f,)) for o, c in level for f in range(c[-1], n // o + 1, c[-1])]
    return [GroupSpec._of(c) for _, c in sorted(found)]


def _report(theorem: str, rows: list, failures: list) -> dict:
    return {"theorem": theorem, "scanned": len(rows), "failures": failures, "rows": rows}


def subset_reci_predicate(group: GroupSpec, k: int) -> bool:
    """Whether the zero-sum k-subset count equals the (n-k)-subset count.

    True iff the order is odd, or the second-largest invariant factor is
    even, or v2(k) < v2(n_r).  For even-order groups failing the first two
    conditions the counts genuinely differ whenever v2(k) >= v2(n_r).
    """
    k, n = _integer(k, "k"), group.order
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= {n - 1}, got {k}")
    return _subset_reci(group, k)


def _subset_reci(group: GroupSpec, k: int) -> bool:
    """:func:`subset_reci_predicate` on a checked k."""
    top = group.invariant_factors[-1]  # k & -k is 2^v2(k), with no call per row
    return not group._total or k & -k < top & -top


def verify_subset_reciprocity(max_order: int = 16) -> dict:
    """Check the subset-count symmetry predicate against actual counts.

    For every group of order <= max_order and every 1 <= k <= n-1, the
    predicate must match count equality; when it fails, the deviation must
    have the proven direction: k-count < (n-k)-count if v2(k) = v2(n_r),
    and > if v2(k) > v2(n_r).
    """
    rows, failures, text = [], [], cache(_decimal)  # each distinct count written once
    for group in _groups_up_to(max_order):
        n, name = group.order, str(group)
        counts = pair_count_table(group, 0, 0, n - 1)[0][1:]  # k = 1..n-1
        texts = list(map(text, counts))
        for k, ck, cnk, tk, tnk in zip(
            range(1, n), counts, reversed(counts), texts, reversed(texts)
        ):
            pred = _subset_reci(group, k)
            row = {"group": name, "k": k, "count_k": tk, "count_nk": tnk, "predicate": pred}
            if pred != (ck == cnk):
                failures.append({**row, "reason": "predicate mismatch"})
            if not pred:
                top = group.invariant_factors[-1]
                if (ck < cnk) != (k & -k == top & -top):  # less iff v2(k) = v2(top)
                    failures.append({**row, "reason": "wrong inequality direction"})
            rows.append(row)
    return _report("subset-reci", rows, failures)


def _prime(p) -> int:
    if not is_prime(p := _integer(p, "p")):
        raise ValueError(f"p must be prime, got {p}")
    return p


def gcp_predicate(group: GroupSpec, p: int) -> bool:
    """Whether zero-sum counts are reciprocal between the group and C_p.

    True iff the prime p divides none of the invariant factors below the
    top one; then p-multisets over G and |G|-multisets over C_p are
    equinumerous, otherwise G strictly wins.
    """
    return _gcp(group, _prime(p))


def _gcp(group: GroupSpec, p: int) -> bool:
    """:func:`gcp_predicate` on a checked prime p."""
    return prod(group.invariant_factors[:-1]) % p != 0  # p is prime


def verify_gcp(max_order: int = 16, primes=(2, 3, 5, 7)) -> dict:
    """Check gcp_predicate against counts for all groups up to max_order."""
    max_order, rows, failures, text = _integer(max_order, "max_order", 1), [], [], cache(_decimal)
    primes = tuple(map(_prime, primes))  # checked once; an iterator is read once
    if not primes or len(set(primes)) < len(primes):
        raise ValueError(f"need at least one prime and no repeats, got {primes}")
    rights = {p: [row[0] for row in pair_count_table(GroupSpec((p,)), 0, max_order, 0)]
              for p in primes}  # rights[p][m] = |M(C_p, m)|
    for group in _groups_up_to(max_order):  # listed only once the primes are checked
        name, profile = str(group), character_profile(group, 0)
        for p in primes:
            left = _pair_count(group, profile, p, 0)
            right = rights[p][group.order]
            pred = _gcp(group, p)
            row = {
                "group": name,
                "p": p,
                "left": text(left),
                "right": text(right),
                "predicate": pred,
            }
            if pred != (left == right):
                failures.append({**row, "reason": "predicate mismatch"})
            if not pred and not left > right:
                failures.append({**row, "reason": "expected strict left > right"})
            rows.append(row)
    return _report("gcp", rows, failures)


def cnr_reciprocity_check(n: int, m: int, r: int) -> dict:
    """Reciprocity between r-th power groups: C_n^r with m^r-multisets
    against C_m^r with n^r-multisets.

    Requires gcd(n, m^r) = gcd(n^r, m); both counts are computed by formula,
    re-derived by enumeration when the candidate space is small, and, in the
    coprime case, compared with the rational Catalan number.
    """
    n, m, r = _integer(n, "n"), _integer(m, "m"), _integer(r, "r")
    if n < 1 or m < 1 or r < 1:
        raise ValueError(f"need n, m, r >= 1, got {(n, m, r)}")
    if gcd(n, m**r) != gcd(n**r, m):
        raise ValueError(
            f"condition gcd(n, m^r) = gcd(n^r, m) fails: "
            f"gcd({n}, {m}^{r}) = {gcd(n, m**r)} but gcd({n}^{r}, {m}) = {gcd(n**r, m)}"
        )
    sides = (
        (normalize_group((n,) * r), m**r),
        (normalize_group((m,) * r), n**r),
    )
    from .brute import enum_sequences  # only here: the sweeps enumerate nothing
    counts, oracle_checked, failures = [], [], []
    for group, size in sides:
        count = count_sequences(group, size, 0)
        counts.append(count)
        try:
            oracle = len(enum_sequences(group, size, 0, limit=ORACLE_BUDGET))
        except EnumerationLimitError:
            continue  # over budget: closed form only
        oracle_checked.append(name := str(group))
        if oracle != count:
            failures.append(
                {"group": name, "size": size, "formula": _decimal(count), "oracle": str(oracle)}
            )
    left, right = counts
    row = {
        "n": n,
        "m": m,
        "r": r,
        "left": _decimal(left),
        "right": _decimal(right),
        "oracle_checked": oracle_checked,
    }
    if coprime := gcd(n**r, m**r) == 1:
        cat = rational_catalan(n**r, m**r)
        row["catalan"] = _decimal(cat)
    if left != right:  # the row is complete, so each failure carries all of it
        failures.append({**row, "reason": "sides differ"})
    if coprime and left != cat:
        failures.append({**row, "reason": "coprime case missed Catalan value"})
    return _report("cnr", [row], failures)


def reciprocity_scan(max_order: int = 10) -> dict:
    """Tabulate |M(G,|H|)| vs |M(H,|G|)| over all group pairs.

    Raw data collection: every unordered pair of abelian groups with orders
    <= max_order gets a row.  Coprime-order pairs must agree (those go to
    failures if not); non-coprime rows carry no verdict.
    """
    groups, text = _groups_up_to(max_order), cache(_decimal)
    names = [str(g) for g in groups]
    # columns[i][m] = |M(groups[i], m)|
    columns = [[row[0] for row in pair_count_table(g, 0, max_order, 0)] for g in groups]
    rows, failures = [], []
    for i, g in enumerate(groups):
        for h, other, h_column in zip(groups[i:], names[i:], columns[i:]):
            left = columns[i][h.order]
            right = h_column[g.order]
            row = {
                "group": names[i],
                "other": other,
                "left": text(left),
                "right": text(right),
                "equal": left == right,
                "coprime_orders": gcd(g.order, h.order) == 1,
            }
            if row["coprime_orders"] and not row["equal"]:
                failures.append({**row, "reason": "coprime pair must agree"})
            rows.append(row)
    return _report("reciprocity-scan", rows, failures)
