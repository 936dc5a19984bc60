"""Closed-form counts of subsets, sequences and pairs with a prescribed sum.

One divisor sum over the target's memoised character profile, in
:func:`count_pairs_coefficient`, gives every fixed-sum count: multisets and
subsets are its two edges, and :func:`pair_dimension` is the pair count at
target 0.  Each public count checks its inputs once (the target by reading
its profile) and then runs the unchecked sum, `_pair_count`, which stops at
the first profile divisor past gcd(p, k) (the profile ascends) and calls
``math.comb`` itself while both sizes are below the cutoff of :func:`binomial`
(past it, :func:`prime_power_binomial`).  :func:`pair_count_table` checks a
whole table's inputs once and fills it divisor by divisor: one subset column
from :func:`binomial_row` (a recurrence to n/2, then its mirror), signed by one
slice, added into rows 0, d, 2d, ... times a running chi * C(n/d + i - 1, i).
:func:`exact_div` turns any non-exact division into a loud error as each
value is a cardinality.
"""

from itertools import compress
from math import comb, gcd, isqrt
from operator import index, mul, neg

from .errors import ExactDivisionError
from .groups import GroupSpec, _check_shape, _decimal, _integer, _integers, character_profile


def exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ExactDivisionError(f"{_decimal(num)} is not divisible by {_decimal(den)}")
    return q


def exact_div_row(row: list[int], den: int) -> list[int]:
    """``[exact_div(c, den) for c in row]`` with one remainder scan."""
    if any(c % den for c in row):
        return [exact_div(c, den) for c in row]  # raises at the first inexact cell
    return [c // den for c in row]


# Below this min(k, n - k), or where n > min(k, n - k)^2 / 256, math.comb is
# faster than the prime-power product (Python 3.11, k = 500..5000, n/k = 2..32).
_COMB_CUTOFF = 1500


def binomial(n: int, k: int) -> int:
    """``math.comb(n, k)``, with its errors; past the cutoff it multiplies the
    prime powers of C(n, k) and divides no big integer."""
    j = min(k, n - k)
    if j < _COMB_CUTOFF or j * j < 256 * n:
        return comb(n, k)
    return prime_power_binomial(index(n), index(k))


def prime_power_binomial(n: int, k: int) -> int:
    """C(n, k), 0 <= k <= n, as the product of p^e over the primes p <= n, e by
    Legendre's formula, multiplied in a balanced pairwise tree."""
    k, r = min(k, n - k), isqrt(n)
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, r + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    powers = []
    for p in compress(range(r + 1), sieve[: r + 1]):
        e, q = 0, p
        while q <= n:
            e += n // q - k // q - (n - k) // q
            q *= p
        powers.append(p**e)
    # Each prime p > sqrt(n) divides C(n, k) once if n % p < k % p, else not at
    # all: never for n/2 < p <= n - k, always for p > n - k.
    h = max(r, n // 2)
    powers += [p for p in compress(range(r + 1, h + 1), sieve[r + 1 : h + 1]) if n % p < k % p]
    powers += compress(range(n - k + 1, n + 1), sieve[n - k + 1 :])
    while len(powers) > 1:
        if len(powers) % 2:
            powers.append(1)
        powers = list(map(mul, powers[::2], powers[1::2]))
    return powers[0] if powers else 1


def binomial_row(n: int, top: int) -> list[int]:
    """[C(n, j) for j <= top], n, top >= 0: C(n, j + 1) = C(n, j)(n - j)/(j + 1)
    up to j = n // 2, then the mirror image C(n, j) = C(n, n - j), 0 past n."""
    if not 0 <= top + top <= n:  # a lower-half row (every scan and gcp column) pays this one test
        if n < 0 or top < 0:
            raise ValueError(f"need n, top >= 0, got {(n, top)}")
        row = binomial_row(n, n // 2)
        return row + row[n - min(top, n) : n - n // 2][::-1] + [0] * (top - n)
    row = [c := 1]
    for j in range(top):
        row.append(c := c * (n - j) // (j + 1))
    return row


def multinomial(n: int, *parts: int) -> int:
    n, parts = _integer(n, "n"), _integers(parts, "parts")
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise ValueError(f"bad multinomial arguments {n}; {parts}")
    out = 1
    rest = n
    for p in parts:
        out *= binomial(rest, p)
        rest -= p
    return out


def count_subsets(group: GroupSpec, k: int, target: int = 0) -> int:
    """Number of k-element subsets summing to target: the pair count's edge
    ``count_pairs_coefficient(group, target, 0, k)``."""
    profile = character_profile(group, target)
    return _pair_count(group, profile, 0, group.check_size(k, subset=True))


def count_sequences(group: GroupSpec, m: int, target: int = 0) -> int:
    """Number of length-m multisets summing to target: the pair count's edge
    ``count_pairs_coefficient(group, target, m, 0)``."""
    profile = character_profile(group, target)
    return _pair_count(group, profile, group.check_size(m), 0)


def rational_catalan(a: int, b: int) -> int:
    """C(a+b, a) / (a+b) for coprime a, b >= 1."""
    _check_shape(a, b)
    return exact_div(binomial(a + b, a), a + b)


def pair_dimension(p: int, q: int, m: int, group: GroupSpec) -> int:
    """Number of pairs (length-p multiset A, m-subset B) over the group with
    sum(A) + sum(B) = 0, for a group of order q + m: equal, term by term, to
    ``count_pairs_coefficient(group, 0, p, m)`` and to the paper's formula
    (1/(p+q+m)) * sum over d | gcd(p, q, m) of (-1)^(m + m/d)
        * count_elements_of_order(d) * M((p+q+m)/d; p/d, q/d, m/d),
    M the multinomial coefficient: M(p+q+m; p,q,m)/(p+q+m) when gcd(p,q,m) = 1.
    """
    p, q, m = _integer(p, "p"), _integer(q, "q"), _integer(m, "m")
    if min(p, q, m) < 0 or p + q + m < 1:
        raise ValueError(f"need p, q, m >= 0 and p+q+m >= 1, got {(p, q, m)}")
    if group.order != q + m:
        raise ValueError(f"group order {group.order} must equal q + m = {q + m}")
    return _pair_count(group, character_profile(group, 0), p, m)


def count_pairs_coefficient(group: GroupSpec, target: int, p: int, k: int) -> int:
    """Number of pairs (length-p multiset A, k-subset B) with sum = target.

    Equals (1/n) * sum over d | gcd(n, p, k) of
        character_sum(target, d) * (-1)^(k + k/d)
        * C(n/d + p/d - 1, p/d) * C(n/d, k/d),
    and is 0 for k > n.  Its k = 0 and p = 0 edges are count_sequences and count_subsets.
    """
    profile = character_profile(group, target)
    p, k = group.check_size(p), group.check_size(k, subset=True, capped=False)
    return _pair_count(group, profile, p, k)


def _pair_count(group: GroupSpec, profile, p: int, k: int) -> int:
    """:func:`count_pairs_coefficient` over a target's profile, on checked sizes."""
    n = group.order
    if k > n:
        return 0
    c = comb if p < _COMB_CUTOFF and k < _COMB_CUTOFF else binomial  # no frame per term
    total, top = 0, gcd(p, k) or n  # a term's d divides top, and every d divides n
    for d, chi in profile:  # d ascends, so no later d divides top
        if d > top:
            break
        if top % d == 0:
            sign = -1 if (k + k // d) % 2 else 1
            nd, pd, kd = n // d, p // d, k // d
            total += chi * sign * c(nd + pd - 1, pd) * c(nd, kd)
    return exact_div(total, n)


def pair_count_table(group: GroupSpec, target: int, max_s: int, max_t: int) -> list[list[int]]:
    """Rows p = 0..max_s of ``count_pairs_coefficient(group, target, p, k)``
    for k = 0..max_t, with the inputs checked once for the whole table.

    Each divisor d of the profile adds one signed column, nonzero entries
    (-1)^(k + k/d) * C(n/d, k/d) at d | k <= n, into rows p = d*i, i = 0, 1, ...,
    times character_sum(target, d) * C(n/d + i - 1, i); the table then divides by n.
    """
    profile = character_profile(group, target)  # checks the target
    max_s = group.check_size(max_s)
    max_t = group.check_size(max_t, subset=True, capped=False)
    n, top = group.order, min(max_t, group.order)
    rows = [[0] * (max_t + 1) for _ in range(max_s + 1)]
    for d, chi in profile:
        nd = n // d
        col = binomial_row(nd, top // d)
        if d % 2 == 0:  # (-1)^(k + k/d) = (-1)^j at k = d*j, and 1 for odd d
            col[1::2] = map(neg, col[1::2])
        col = list(zip(range(0, top + 1, d), col))
        f = chi  # chi * C(nd + i - 1, i) for row p = d * i
        for i, row in enumerate(rows[::d]):
            for k, c in col:
                row[k] += f * c
            f = f * (nd + i) // (i + 1)
    cells = exact_div_row([c for row in rows for c in row], n)  # one scan of the table
    return [cells[i : i + max_t + 1] for i in range(0, len(cells), max_t + 1)]
