"""Rational Dyck paths and the rotation bijections onto zero-sum objects.

An (a, b)-Dyck path (gcd(a, b) = 1) runs from (0, 0) to (a, b) in unit north
and east steps while staying weakly above the diagonal y = (b/a) x.  Two
encodings are used:

* gap form: a tuple (x_0, ..., x_{a-1}) with sum b, where x_i is the number
  of north steps taken at x = i;
* step form: a string over '0' (north) and '1' (east) of length a + b.

All diagonal comparisons are the integer test a*y >= b*x, so no floating
point is involved anywhere.
"""

from itertools import accumulate, repeat
from operator import ge, mul

from .errors import _check, _check_budget
from .groups import GroupSpec, _check_shape, _integers
from .zerosum import _shift, _zero_sum_input, check_vector, cyclic_shift

_STEPS = bytes.maketrans(b"01\0\1", b"\0\1" b"01")


def gaps_to_word(gaps) -> str:
    """Step word of a gap vector: x_i north steps, then one east step, per column."""
    return "".join("0" * x + "1" for x in _integers(gaps, "gaps", 0))


def word_to_gaps(word: str) -> tuple[int, ...]:
    """Inverse of :func:`gaps_to_word`; requires the word to end on an east step."""
    if word and not set(word) <= {"0", "1"}:
        raise ValueError("step words use characters '0' and '1' only")
    if not word.endswith("1"):
        raise ValueError("gap form needs the final step to be an east step")
    return tuple(map(len, word[:-1].split("1")))


def is_dyck(a: int, b: int, path) -> bool:
    """Validity test for either encoding; str means step form, else gap form.

    Malformed inputs (wrong length or totals) raise; a well-formed path that
    dips below the diagonal returns False.  A step word is tested through its
    gaps, since a path that ends on a north step has dipped just before it.
    """
    _check_shape(a, b)
    if isinstance(path, str):
        if len(path) != a + b or not set(path) <= {"0", "1"}:
            raise ValueError(f"step word must have {a + b} steps over '0'/'1'")
        if path.count("1") != a:
            raise ValueError(f"step word must contain {a} east steps")
        return path.endswith("1") and _above(a, b, word_to_gaps(path))
    if len(gaps := _integers(path, "gaps", 0)) != a:
        raise ValueError(f"gap vector must have {a} entries")
    if sum(gaps) != b:
        raise ValueError(f"gaps must total {b}, got {sum(gaps)}")
    return _above(a, b, gaps)


def _above(a: int, b: int, gaps) -> bool:
    """:func:`is_dyck` of a well-formed gap vector: a*y >= b*x before each east step x < a."""
    return all(map(ge, map(mul, accumulate(gaps[:-1]), repeat(a)), range(b, a * b, b)))


def enum_dyck(a: int, b: int, limit: int | None = None) -> list[str]:
    """All (a, b)-Dyck paths as step words in lexicographic order ('0' < '1').

    Charged Cat(a, b) = C(a+b, a) / (a+b) against the enumeration budget
    before any table is built.  A split walk: tails[y] lists, in order, the
    completions of a prefix whose last step is east step `mid` at height y,
    so a path costs one concatenation in C once its prefix reaches `mid`.
    The tables start at east step lowest.index(b), after which a path runs
    north to b and then east, and grow back one level at a time until they
    hold more than Cat / 64 strings; each string completes a distinct path,
    so they stay bounded by the output.  Above `mid` a stack walk (no
    recursion) emits the smallest path through each prefix (north to b, then
    east) and pushes the prefixes that step east lower down.
    """
    from .counting import rational_catalan  # only here: a bijection needs no counting

    cat = rational_catalan(a, b)
    _check_budget(cat, limit)
    lowest = [-(-b * (x + 1) // a) for x in range(a)]  # east step x needs a*y >= b*(x+1)

    def heights(x):  # the heights of the prefixes whose last step is east step x
        return range(lowest[x - 1], b + 1) if x else (0,)

    mid = lowest.index(b)
    tails = {y: ["0" * (b - y) + "1" * (a - mid)] for y in heights(mid)}
    kept = len(tails)
    for x in range(mid - 1, -1, -1):  # north to some h, east, then a completion one level on
        tails = {
            y: [
                p + t
                for h in range(b, max(y, lowest[x]) - 1, -1)
                for p in ("0" * (h - y) + "1",)
                for t in tails[h]
            ]
            for y in heights(x)
        }
        kept += sum(map(len, tails.values()))
        mid = x
        if 64 * kept > cat:
            break
    out: list[str] = []
    stack = [""]
    while stack:
        word = stack.pop()
        x = word.count("1")
        y = len(word) - x
        if x == mid:
            out += map(word.__add__, tails[y])
            continue
        if y < lowest[x]:
            word += "0" * (lowest[x] - y)
            y = lowest[x]
        out.append(word + "0" * (b - y) + "1" * (a - x))
        stack += [word + "0" * j + "1" for j in range(b - y)]
    _check(len(out) == cat, "Dyck path count is Cat(a, b)", a=a, b=b)
    return out


def _cycle_lemma_start(steps) -> int:
    """Start of the unique rotation of a closed walk that never dips below 0.

    The steps must sum to 0 and their n prefix heights h_0 = 0,
    h_i = s_0 + ... + s_{i-1} (i < n) must have a unique minimum; rotating
    to start at its argmin gives the one rotation whose prefix heights all
    stay >= 0 (cycle lemma, Dvoretzky & Motzkin 1947).  Linear in n.
    """
    heights = list(accumulate(steps[:-1], initial=0))
    low = min(heights)
    _check(heights.count(low) == 1, "prefix-height minimum is unique", length=len(steps), low=low)
    return heights.index(low)


def sequence_to_dyck(group: GroupSpec, vec) -> tuple[tuple[int, ...], int]:
    """Rotate a zero-sum multiset into its unique Dyck gap vector.

    With n = |G| and mass m coprime to n, the scaled heights
    h_i = n * (x_0 + ... + x_{i-1}) - m * i for i = 0..n-1 are pairwise
    distinct; rotating left by the argmin gives the one rotation that is an
    (n, m)-Dyck path.  Linear in n + m.  Returns (gap vector, rotation amount).
    """
    vec, m = _zero_sum_input(group, vec)
    n = group.order
    _check_shape(n, m)
    lam = _cycle_lemma_start([n * x - m for x in vec])
    gaps = cyclic_shift(vec, lam)
    _check(_above(n, m, gaps), "cycle-lemma rotation is a Dyck path", order=n, mass=m, rotation=lam)
    return gaps, lam


def dyck_to_sequence(group: GroupSpec, gaps) -> tuple[tuple[int, ...], int]:
    """Rotate a Dyck gap vector into its unique zero-sum multiset.

    Inverse of :func:`sequence_to_dyck` by the staged congruence construction;
    linear in n + m.  Returns (vector, rotation amount).
    """
    gaps = check_vector(group, gaps)
    n, m = group.order, sum(gaps)
    _check_shape(n, m)
    if not _above(n, m, gaps):
        raise ValueError(f"{gaps} is not a valid ({n}, {m})-Dyck gap vector")
    shift, vec = _shift(group, gaps, m)
    return vec, shift


def subset_to_dyck(group: GroupSpec, bits) -> tuple[str, int]:
    """Rotate a zero-sum k-subset indicator into its unique Dyck step word.

    The indicator is read directly as a step word (element k-subsets of a
    group of order n give (k, n-k)-paths).  A north step raises k*y - (n-k)*x
    by k and an east step lowers it by n-k, so the Dyck rotation starts at
    the argmin of those heights.  Linear in n.  Returns (word, rotation amount).
    """
    bits, k = _zero_sum_input(group, bits, subset=True)
    n = group.order
    _check_shape(k, n - k)
    lam = _cycle_lemma_start([k - n * b for b in bits])
    word = bytes(cyclic_shift(bits, lam)).translate(_STEPS).decode()
    ok = word.endswith("1") and _above(k, n - k, word_to_gaps(word))
    _check(ok, "cycle-lemma rotation is a Dyck word", order=n, size=k, rotation=lam)
    return word, lam


def dyck_to_subset(group: GroupSpec, word: str) -> tuple[tuple[int, ...], int]:
    """Rotate a Dyck step word into its unique zero-sum subset indicator.

    Inverse of :func:`subset_to_dyck` by the staged congruence construction;
    linear in n.  Returns (indicator, rotation amount).
    """
    n = group.order
    if len(word) != n:
        raise ValueError(f"step word length {len(word)} must equal group order {n}")
    k = word.count("1")
    if not is_dyck(k, n - k, word):
        raise ValueError(f"{word!r} is not a valid ({k}, {n - k})-Dyck step word")
    shift, bits = _shift(group, tuple(word.encode().translate(_STEPS)), k)
    return bits, shift
