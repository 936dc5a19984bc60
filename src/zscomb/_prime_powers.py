"""C(n, k) as a product of prime powers, with no division of big integers.

``counting.binomial`` imports this module on its first binomial past the
cutoff, so calls that only meet small binomials never compile it.
"""

from itertools import compress
from math import isqrt
from operator import mul


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
