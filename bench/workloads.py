"""Seeded operation lists for the four benchmark workloads.

Nothing here imports zscomb.  Inputs are built with the benchmark's own
mixed-radix arithmetic, so the program under test receives only generated
data, and the same seed always yields the same list (see `digest`).

Each workload fixes its size profile (group orders, ranks, bounds) and lets
the seed choose only among inputs of equal cost: which factor split of a
given order and rank, which target, which random vectors.  That keeps the
work per round, and so every end-to-end metric, independent of the seed.

An operation is a JSON-able list whose first entry names its kind; groups
are lists of invariant factors.  `tiny=True` shrinks every size for the
self-test.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb, gcd, prod

WORKLOADS = ("cli-mix", "verify-sweep", "oracle-enum", "biject-scale")


# -- mixed-radix arithmetic, independent of zscomb.groups --------------------


def digits(fs, label):
    out = []
    for n_i in fs:
        out.append(label % n_i)
        label //= n_i
    return out


def from_digits(fs, ds):
    label = 0
    for n_i, a_i in zip(reversed(fs), reversed(ds)):
        label = label * n_i + a_i % n_i
    return label


def add(fs, g, h):
    return from_digits(fs, [a + b for a, b in zip(digits(fs, g), digits(fs, h))])


def negate(fs, g):
    return from_digits(fs, [-a for a in digits(fs, g)])


def vec_sum(fs, vec):
    """Group sum of a multiplicity vector, as a label."""
    acc = [0] * len(fs)
    for lab, mult in enumerate(vec):
        if mult:
            for i, a in enumerate(digits(fs, lab)):
                acc[i] += mult * a
    return from_digits(fs, acc)


def labels_sum(fs, labels):
    acc = 0
    for lab in labels:
        acc = add(fs, acc, lab)
    return acc


def to_vec(n, labels):
    vec = [0] * n
    for lab in labels:
        vec[lab] += 1
    return vec


def is_dyck_word(word):
    """Step word over '0' (north) and '1' (east) stays on or above the diagonal."""
    a = word.count("1")
    b = len(word) - a
    h = 0
    for c in word:
        h += -b if c == "1" else a
        if h < 0:
            return False
    return True


def is_dyck_gaps(gaps):
    """Gap vector (x_0, ..., x_{n-1}) of an (n, sum)-Dyck path."""
    n, m = len(gaps), sum(gaps)
    run = 0
    for i in range(1, n):
        run += gaps[i - 1]
        if n * run < m * i:
            return False
    return True


def _least_height_start(steps):
    """Start index of the cyclic rotation whose prefix heights stay >= 0."""
    h = best = start = 0
    for i, step in enumerate(steps[:-1]):
        h += step
        if h < best:
            best, start = h, i + 1
    return start


# -- random inputs ------------------------------------------------------------


def zero_sum_multiset(rng, fs, mass):
    n = prod(fs)
    labels = [rng.randrange(n) for _ in range(mass - 1)]
    labels.append(negate(fs, labels_sum(fs, labels)))
    return to_vec(n, labels)


def zero_sum_subset(rng, fs, k):
    """Random k-subset, then one element swapped so the sum is zero."""
    n = prod(fs)
    while True:
        chosen = rng.sample(range(n), k)
        s = labels_sum(fs, chosen)
        if s == 0:
            return to_vec(n, chosen)
        members = set(chosen)
        for i in rng.sample(range(k), k):
            y = add(fs, chosen[i], negate(fs, s))
            if y not in members:
                chosen[i] = y
                return to_vec(n, chosen)


def dyck_word(rng, n, k):
    """Random (k, n-k)-Dyck step word: a random word rotated by the cycle lemma."""
    bits = [0] * n
    for i in rng.sample(range(n), k):
        bits[i] = 1
    start = _least_height_start([-(n - k) if b else k for b in bits])
    return "".join(map(str, bits[start:] + bits[:start]))


def dyck_gaps(rng, n, m):
    """Random (n, m)-Dyck gap vector."""
    vec = to_vec(n, [rng.randrange(n) for _ in range(m)])
    steps = []
    for x in vec:
        steps.extend([n] * x)
        steps.append(-m)
    start = _least_height_start(steps)
    word = steps[start:] + steps[:start]
    gaps, run = [], 0
    for s in word:
        if s == n:
            run += 1
        else:
            gaps.append(run)
            run = 0
    return gaps


def necklace_word(rng, n, m):
    beads = ["R"] * n + ["B"] * m
    rng.shuffle(beads)
    return "".join(beads)


def pair_input(rng, fs, p, m):
    """Length-p multiset A and m-subset B over fs with sum(A) + sum(B) = 0."""
    n = prod(fs)
    subset = rng.sample(range(n), m)
    labels = [rng.randrange(n) for _ in range(p - 1)]
    labels.append(negate(fs, labels_sum(fs, labels + subset)))
    return to_vec(n, labels), to_vec(n, subset)


def coprime_near(n, x):
    """Smallest integer >= x that is coprime to n."""
    while gcd(n, x) != 1:
        x += 1
    return x


def _fmt(vec):
    return ",".join(map(str, vec))


def _gtext(fs):
    return _fmt(fs) or "1"


def _random_chain(rng, max_order):
    """A random invariant-factor chain of order <= max_order."""
    rank = rng.choice((1, 1, 2, 2, 3))
    while True:
        fs = [rng.randint(2, 6)]
        for _ in range(rank - 1):
            fs.append(fs[-1] * rng.randint(1, 3))
        if prod(fs) <= max_order:
            return fs


# -- workloads ----------------------------------------------------------------


def cli_mix(rng, tiny):
    """Argument vectors for `python -m zscomb.cli`, all six command families."""
    top = 16 if tiny else 100
    ops = []

    def cli(*argv):
        ops.append(["cli", [str(a) for a in argv]])

    g = _random_chain(rng, top)
    n = prod(g)
    cli("count", "sequences", "--group", _gtext(g), "--length", rng.randint(1, 60),
        "--target", rng.randrange(n))
    g = _random_chain(rng, top)
    n = prod(g)
    cli("count", "subsets", "--group", _gtext(g), "--size", rng.randint(1, n),
        "--target", rng.randrange(n))
    a = rng.randint(2, 60)
    cli("count", "catalan", "--a", a, "--b", coprime_near(a, rng.randint(2, 60)))
    q, m = rng.randint(1, 40), rng.randint(1, 40)
    g = [q + m]
    p = coprime_near(q + m, rng.randint(1, 40))
    cli("count", "pair-dim", "--p", p, "--q", q, "--m", m, "--group", _gtext(g))

    g = rng.choice(([12], [2, 6]) if tiny else ([16], [2, 8], [4, 4]))
    cli("enum", "sequences", "--group", _gtext(g), "--length", 3 if tiny else 5,
        "--target", rng.randrange(prod(g)))
    g = rng.choice(([12], [2, 6]) if tiny else ([24], [2, 12]))
    cli("enum", "subsets", "--group", _gtext(g), "--size", 3 if tiny else 4,
        "--target", rng.randrange(prod(g)))
    a, b = rng.choice(((5, 7), (7, 5)) if tiny else ((7, 11), (11, 7)))
    cli("enum", "dyck", "--a", a, "--b", b)
    g = rng.choice(([6], [2, 3]) if tiny else ([8], [2, 4]))
    cli("enum", "pairs", "--group", _gtext(g), "--p", 2, "--k", 2,
        "--target", rng.randrange(prod(g)))

    for _ in range(2):
        g = _random_chain(rng, top)
        n = prod(g)
        mass = coprime_near(n, rng.randint(1, 2 * n))
        vec = zero_sum_multiset(rng, g, mass)
        cli("biject", "seq-to-dyck", "--group", _gtext(g), "--vector", _fmt(vec))
        cli("biject", "dyck-to-seq", "--group", _gtext(g),
            "--gaps", _fmt(dyck_gaps(rng, n, mass)))
        k = coprime_near(n, rng.randint(1, max(1, n - 1)))
        if k >= n:
            k = 1
        bits = zero_sum_subset(rng, g, k)
        cli("biject", "subset-to-dyck", "--group", _gtext(g), "--subset", _fmt(bits))
        cli("biject", "complement", "--group", _gtext(g), "--subset", _fmt(bits))
        cli("biject", "translate-complement", "--group", _gtext(g), "--subset", _fmt(bits))
        cli("biject", "dyck-to-subset", "--group", _gtext(g), "--word", dyck_word(rng, n, k))
    g, h = rng.choice((([7], [5]), ([9], [2, 4])) if tiny else (([3, 9], [2, 2, 10]), ([5, 5], [2, 12])))
    vec = zero_sum_multiset(rng, g, prod(h))
    cli("biject", "reciprocity", "--group", _gtext(g), "--other", _gtext(h), "--vector", _fmt(vec))
    p, q, m = (4, 5, 2) if tiny else (40, 31, 20)
    g = [q + m]
    h = rng.choice(([p + m],) if tiny else ([60], [2, 30]))
    seq, bits = pair_input(rng, g, p, m)
    cli("biject", "pair", "--group", _gtext(g), "--other", _gtext(h),
        "--vector", _fmt(seq), "--subset", _fmt(bits))

    for _ in range(2):
        g = _random_chain(rng, top)
        side = 6 if tiny else 12
        cli("poincare", "table", "--group", _gtext(g), "--target", rng.randrange(prod(g)),
            "--max-s", side, "--max-t", side)
        g = rng.choice(([6], [2, 3]) if tiny else ([8], [2, 4], [2, 2, 2]))
        cli("poincare", "check", "--group", _gtext(g), "--target", rng.randrange(prod(g)),
            "--max-s", 3, "--max-t", 3)

    # The verifier and scan calls are the slowest sixth of the mix and cost
    # about the same, so op_p90_ms falls inside that group for every seed.
    cli("verify", "subset-reci", "--max-order", 12 if tiny else 48)
    primes = [2, 3, 5, 7]
    rng.shuffle(primes)
    cli("verify", "gcp", "--max-order", 24 if tiny else 200, "--primes", _fmt(primes))
    n, m = rng.choice(((2, 3), (3, 2)) if tiny else ((3, 4), (4, 3)))
    cli("verify", "cnr", "--n", n, "--m", m, "--r", 1 if tiny else 2)
    g = rng.choice(([6], [2, 3]) if tiny else ([12], [2, 6]))
    cli("verify", "series", "--group", _gtext(g), "--target", rng.randrange(prod(g)),
        "--max-s", 3, "--max-t", 3)

    for _ in range(4):
        cli("scan", "reciprocity", "--max-order", rng.randint(6, 8) if tiny else rng.randint(31, 33))
    return ops


def _chains(order, rank, base=1):
    """Every invariant-factor chain of this order and rank whose factors are multiples of base."""
    if rank == 1:
        return [[order]] if order >= 2 and order % base == 0 else []
    out = []
    for f in range(max(2, base), order + 1):
        if f % base == 0 and order % f == 0:
            out.extend([f] + rest for rest in _chains(order // f, rank - 1, f))
    return out


def _split(rng, order, rank):
    """A random invariant-factor chain of this order and rank (rank 1 if none exists)."""
    return rng.choice(_chains(order, rank) or [[order]])


def verify_sweep(rng, tiny):
    """Verifiers and tables at fixed bounds, with big-integer counts.

    The mix is shaped so that the latency percentiles fall inside groups of
    equal-cost calls: four heavy calls, then four equal big binomials (the
    90th percentile), then many coefficient tables (the median), then tiny
    divisor sums.
    """
    ops = [
        ["verify_subset_reciprocity", 24 if tiny else 256],
        ["reciprocity_scan", 16 if tiny else 120],
        ["verify_gcp", 64 if tiny else 2048, rng.sample([2, 3, 5, 7], 4)],
    ]
    big = 2**8 if tiny else 2**16
    ops.append(["count_subsets", [big], big // 2, rng.randrange(big)])
    for _ in range(4):
        # k is odd, so each count is a single huge binomial
        ops.append(["count_subsets", _split(rng, big // 2, rng.choice((1, 2))), big // 4 + 1,
                    rng.randrange(big // 2)])
    tables = ([2, 6], [2, 8], [4, 4]) if tiny else ([2, 24], [4, 12], [2, 2, 12], [2, 32], [4, 16], [8, 8])
    side = 8 if tiny else 56
    for i in range(44):
        g = tables[i % len(tables)]
        ops.append(["poincare_table", g, rng.randrange(prod(g)), side, side])
    # cnr triples whose candidate spaces are far above the oracle budget, so
    # the check stays in closed form.
    triples = []
    while len(triples) < 5:
        n, m = rng.randint(3, 9), rng.randint(3, 9)
        r = 1 if tiny else 2
        if gcd(n, m ** r) != gcd(n ** r, m):
            continue
        if not tiny and min(comb(n**r + m**r - 1, m**r), comb(m**r + n**r - 1, n**r)) < 10**6:
            continue
        triples.append(["cnr_reciprocity_check", n, m, r])
    ops.extend(triples)
    n = 257 if tiny else 4099
    ops.append(["count_sequences", [n], coprime_near(n, n + rng.randint(1, 64))])
    a = 101 if tiny else 3001
    ops.append(["rational_catalan", a, coprime_near(a, a + rng.randint(500, 600))])
    p, q, m = (60, 41, 20) if tiny else (2000, 1401, 600)
    ops.append(["pair_dimension", p, q, m, [q + m]])
    return ops


def oracle_enum(rng, tiny):
    """Brute oracles: first calls on a new group (add-table build) and repeats.

    Every round builds the tables of one order-512 group (split chosen by
    the seed) and of four cyclic groups of order about 256.  Those first
    calls are the slowest tenth of the mix, and the four near-equal ones
    hold the 90th percentile.
    """
    t = rng.randrange
    if tiny:
        a, quads, d, e, f = _split(rng, 16, 2), [[9], [10], [11], [12]], [2, 4], [2, 4], [6]
    else:
        a, quads, d, e, f = _split(rng, 512, 2), [[250], [252], [254], [256]], [4, 16], [4, 4], [2, 6]
    na = prod(a)
    ops = [
        ["enum_subsets", a, 1, t(na)],
        ["enum_subsets", a, 2, t(na)],
        ["enum_sequences", a, 2, t(na)],
        ["subsets_by_sum", a, 2],
    ]
    for g in quads:
        ops.append(["subsets_by_sum", g, 1])
        ops.append(["enum_sequences", g, 2, t(prod(g))])
    nd = prod(d)
    ops += [
        ["enum_sequences", d, 3, t(nd)],
        ["enum_subsets", d, 3, t(nd)],
        ["sequences_by_sum", d, 3],
        ["subsets_by_sum", d, 3],
        ["enum_pairs", e, 2, 3, t(prod(e))],
        ["series_cross_check", f, t(prod(f)), 4, 4],
        # one orientation each: (a, b) and (b, a) list the same number of
        # words at different cost
        ["enum_dyck", *((5, 7) if tiny else (11, 13))],
        ["enum_dyck", *((4, 7) if tiny else (10, 13))],
    ]
    return ops


def biject_scale(rng, tiny):
    """Zero-sum inputs for every bijection, |G| from about 300 to 3000.

    `bij` ops run the forward map and its inverse (two timed calls);
    `to_subset` and `to_sequence` time only the inverse on generated input.
    """
    ops = []
    tiers = ((31, 50), (101, 100), (301, 300)) if tiny else ((301, 300), (1001, 1000), (3001, 3000))
    for cyclic, multi in tiers:
        # multi-factor groups with one even factor, so translate_complement
        # takes its translation path
        for fs, full in (([cyclic], True), ([5, multi // 5], cyclic != tiers[-1][0])):
            n = prod(fs)
            m = coprime_near(n, n // 3)
            ops.append(["bij", "dyck_seq", fs, zero_sum_multiset(rng, fs, m)])
            bits = zero_sum_subset(rng, fs, m)
            ops.append(["bij", "complement", fs, bits])
            ops.append(["bij", "translate_complement", fs, bits])
            if full:
                ops.append(["bij", "dyck_subset", fs, zero_sum_subset(rng, fs, m)])
                ops.append(["bij", "necklace", fs, zero_sum_multiset(rng, fs, m)])
            else:
                # the quadratic forward maps run once per round, on the cyclic group
                ops.append(["to_subset", fs, dyck_word(rng, n, m)])
                ops.append(["to_sequence", fs, necklace_word(rng, n, m)])
    (s, _), (_, mid), (_, big) = tiers
    # Four more quadratic forward maps at |G| = mid, so that op_p90_ms falls
    # inside a band of calls of about equal cost (these, the two mid-tier
    # subset_to_dyck calls and the large pair map both ways) rather than on
    # the edge of a drop.
    for rank in (2, 2, 3, 3):
        fs = _split(rng, mid, rank)
        ops.append(["bij", "dyck_subset", fs, zero_sum_subset(rng, fs, coprime_near(mid, mid // 3))])
    h = _split(rng, mid, 2)
    ops.append(["bij", "reciprocity", [s], zero_sum_multiset(rng, [s], mid), h])
    g = _split(rng, big, 2)
    other = 1001 if not tiny else 301
    ops.append(["bij", "reciprocity", g, zero_sum_multiset(rng, g, other), [other]])
    for p, q, m in ((10, 7, 2), (30, 21, 10)) if tiny else ((100, 71, 30), (1000, 701, 300)):
        g = [q + m]
        h = _split(rng, p + m, 2)
        seq, bits = pair_input(rng, g, p, m)
        ops.append(["bij", "pair", g, seq, bits, h])
    return ops


GENERATORS = {
    "cli-mix": cli_mix,
    "verify-sweep": verify_sweep,
    "oracle-enum": oracle_enum,
    "biject-scale": biject_scale,
}


def build(workload, seed, tiny=False):
    """Operation list of a workload; the same (workload, seed) gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)


def digest(ops):
    """Short hash of an operation list, to show two runs measured the same inputs."""
    blob = json.dumps(ops, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
