"""Finite abelian groups in invariant-factor form.

A group is a chain of invariant factors n_1 | n_2 | ... | n_r (each >= 2),
so G = C_{n_1} x ... x C_{n_r}.  The trivial group has an empty chain.
Elements are addressed by integer labels 0..|G|-1 in mixed radix, least
significant factor first:

    label = a_1 + n_1*(a_2 + n_2*(a_3 + ...))      with 0 <= a_i < n_i.

The unchecked `_digits` and `_label` encode one label, `_minus` a whole table.
"""

from functools import cache
from math import gcd, lcm, prod
from operator import add, index, neg, sub


@cache
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) by trial division."""
    n = _integer(n, "n")  # runs on misses; 6.0 never hits the int key 6
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return tuple(sorted(ds))


@cache
def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def is_prime(n: int) -> bool:
    n = _integer(n, "n")
    return n >= 2 and factorize(n) == ((n, 1),)


def _integer(value, what: str) -> int:
    """value as an int through ``__index__``, so 2.5 or 1.0 is refused; a
    plain int returns at once, so per-row checks cost one call."""
    if type(value) is int:
        return value
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints through ``__index__``; ValueError naming them if not."""
    if iter(values) is values:
        values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _check_shape(a: int, b: int) -> None:
    """The (a, b) of a rational Catalan number or Dyck path: coprime, both >= 1."""
    a, b = _integer(a, "a"), _integer(b, "b")
    if a < 1 or b < 1:
        raise ValueError(f"need a, b >= 1, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) are not coprime")


def _decimal(n: int) -> str:
    """str(n), also past the int-to-str digit limit: the one writer of printed
    counts, through `decimal` so that no caller sees the limit change."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # imported only here: it costs ~2 ms
        return str(Decimal(n))


def _digits(ns: tuple[int, ...], label: int) -> tuple[int, ...]:
    """Mixed-radix digits of a label already known to be in range."""
    out = []
    for n_i in ns:
        out.append(label % n_i)
        label //= n_i
    return tuple(out)


def _label(ns: tuple[int, ...], digits) -> int:
    """Label of any integer digits (an iterable), each reduced mod its factor."""
    out, unit = 0, 1
    for n_i, a_i in zip(ns, digits):
        out += a_i % n_i * unit
        unit *= n_i
    return out


def _minus(ns: tuple[int, ...], goal) -> list[int]:
    """minus[s] is the label of goal - s for each label s (goal as digits), one add per entry."""
    out, unit = [0], 1
    for n_i, g_i in zip(ns, goal):
        out = [c + p for c in [(g_i - d) % n_i * unit for d in range(n_i)] for p in out]
        unit *= n_i
    return out


class GroupSpec:
    """A finite abelian group with a canonical invariant-factor chain.

    Construct through :func:`normalize_group` (or :meth:`parse`) unless the
    factors are already a divisibility chain with every entry >= 2.
    Instances are immutable values: equal chains compare and hash equal.
    """

    __slots__ = ("invariant_factors", "order", "_total")

    def __init__(self, invariant_factors: tuple[int, ...]):
        fs = _integers(invariant_factors, "invariant factors")
        if any(f < 2 for f in fs):
            raise ValueError(f"invariant factors must be >= 2, got {fs}")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"{fs} is not a divisibility chain")
        self._set(fs)

    @classmethod
    def _of(cls, fs: tuple[int, ...]) -> "GroupSpec":
        """Unchecked: the group of a chain its caller built, ints >= 2 each dividing the next."""
        return object.__new__(cls)._set(fs)

    def _set(self, fs: tuple[int, ...]) -> "GroupSpec":
        order = prod(fs)
        object.__setattr__(self, "invariant_factors", fs)
        object.__setattr__(self, "order", order)
        # label of the sum of all elements, i.e. of the 2-torsion: top/2 on the
        # top axis when the top factor is the only even one, else 0
        total = order // 2 if order % 2 == 0 and (len(fs) == 1 or fs[-2] % 2) else 0
        object.__setattr__(self, "_total", total)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash((self.invariant_factors,))

    def __repr__(self) -> str:
        return f"GroupSpec(invariant_factors={self.invariant_factors!r})"

    def __reduce__(self):
        return GroupSpec, (self.invariant_factors,)

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse a comma-separated factor list; '' and '1' denote the trivial group."""
        text = text.strip()
        if text in ("", "1"):
            return normalize_group(())
        try:
            factors = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"bad group text {text!r}") from None
        return normalize_group(factors)

    def __str__(self) -> str:
        return ",".join(map(str, self.invariant_factors)) or "1"

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        """Largest element order; 1 for the trivial group."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def elements(self) -> range:
        return range(self.order)

    # -- label arithmetic ---------------------------------------------------

    def check_label(self, label: int) -> int:
        """Return label as an int if it names an element; raise ValueError if not."""
        label = _integer(label, "label")
        if not 0 <= label < self.order:
            raise ValueError(f"label {label} out of range for order {self.order}")
        return label

    def check_size(self, size: int, subset: bool = False, capped: bool = True) -> int:
        """Return size as an int if it is a multiset length, or if subset a
        subset size: at most the order unless not capped."""
        size = _integer(size, "subset size" if subset else "length")
        if subset and capped and not 0 <= size <= self.order:
            raise ValueError(f"subset size {size} out of range for order {self.order}")
        if size < 0:
            raise ValueError(f"{'subset size' if subset else 'length'} must be >= 0, got {size}")
        return size

    def coords(self, label: int) -> tuple[int, ...]:
        """Mixed-radix digits (a_1, ..., a_r) of an element label."""
        return _digits(self.invariant_factors, self.check_label(label))

    def label(self, coords) -> int:
        """Inverse of :meth:`coords`."""
        coords = _integers(coords, "coordinates")
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        for n_i, a_i in zip(reversed(self.invariant_factors), reversed(coords)):
            if not 0 <= a_i < n_i:
                raise ValueError(f"coordinate {a_i} out of range mod {n_i}")
        return _label(self.invariant_factors, coords)

    def add(self, g: int, h: int) -> int:
        return _label(self.invariant_factors, map(add, self.coords(g), self.coords(h)))

    def negate(self, g: int) -> int:
        return _label(self.invariant_factors, map(neg, self.coords(g)))

    def sub(self, g: int, h: int) -> int:
        h = self.coords(h)  # h first: with two bad labels, the error names h
        return _label(self.invariant_factors, map(sub, self.coords(g), h))

    def scalar_mul(self, c: int, g: int) -> int:
        c = _integer(c, "c")
        return _label(self.invariant_factors, (c * a for a in self.coords(g)))

    def element_order(self, g: int) -> int:
        return lcm(
            *(n // gcd(n, a) for a, n in zip(self.coords(g), self.invariant_factors)),
            1,
        )


def normalize_group(factors) -> GroupSpec:
    """Build a GroupSpec from arbitrary cyclic factors in one insertion pass:
    each factor f walks the chain top down, leaving lcm(n_i, f) and carrying
    gcd(n_i, f), which divides it (C_a x C_f = C_lcm x C_gcd); a carry > 1
    ends at the bottom and a 1 falls out.  No factors give the trivial group.
    """
    factors, fs = _integers(factors, "factors"), []  # fs: top factor first
    for f in factors:
        if f < 1:
            raise ValueError(f"factors must be positive, got {factors}")
        for i, a in enumerate(fs):
            fs[i], f = lcm(a, f), gcd(a, f)
        if f > 1:
            fs.append(f)
    return GroupSpec(tuple(reversed(fs)))


def count_elements_of_order(group: GroupSpec, d: int) -> int:
    """Number of elements of order exactly d, by Moebius inversion.

    Elements of order dividing l form a subgroup of size prod_i gcd(n_i, l),
    so the exact count is sum over l | d of mobius(d/l) * prod_i gcd(n_i, l).
    Zero whenever d does not divide the exponent.
    """
    return character_sum(group, 0, d)


def character_profile(group: GroupSpec, g: int) -> tuple[tuple[int, int], ...]:
    """Each nonzero (d, character_sum(group, g, d)), d | exponent ascending."""
    return _profile(group.invariant_factors, group.check_label(g))


def _profile(ns: tuple[int, ...], g: int) -> tuple[tuple[int, int], ...]:
    # F(l) = prod_i [gcd(n_i, l) | a_i] * gcd(n_i, l) of character_sum is
    # multiplicative in l, and so is its Moebius inversion f: on each prime
    # power p^e of the exponent f(p^j) = F(p^j) - F(p^(j-1)), and f(d) is the
    # product of those over the primes of d.
    coords, terms = _digits(ns, g), [(1, 1)]
    for p, e in factorize(ns[-1] if ns else 1):
        steps, before, q = [], 1, 1
        for _ in range(e):
            q *= p
            now = 1
            for a_i, n_i in zip(coords, ns):
                gl = gcd(n_i, q)
                if a_i % gl:
                    now = 0
                    break
                now *= gl
            if now != before:
                steps.append((q, now - before))
            if not now:
                break  # F(p^j) = 0 stays 0 for larger j
            before = now
        terms += [(d * r, c * v) for d, c in terms for r, v in steps]
    return tuple(sorted(terms))


def character_sum(group: GroupSpec, g: int, d: int) -> int:
    """Integer value of the sum of all order-d characters evaluated at g.

    The characters of order dividing l that are trivial on g form either the
    full dual l-torsion (when every gcd(n_i, l) divides the i-th coordinate
    of g) or sum to zero; Moebius inversion over l | d isolates exact order d.
    The result is an integer, possibly negative, and 0 when d does not divide
    the group exponent.
    """
    d = _integer(d, "d")
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    coords = group.coords(g)
    ns = group.invariant_factors
    total = 0
    for l in divisors(d):
        mu = mobius(d // l)
        if mu == 0:
            continue
        term = 1
        for a_i, n_i in zip(coords, ns):
            gl = gcd(n_i, l)
            if a_i % gl:
                term = 0
                break
            term *= gl
        total += mu * term
    return total
