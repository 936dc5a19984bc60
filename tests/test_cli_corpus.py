"""The CLI contract over a seeded corpus of about a thousand command lines.

Every leaf in `cli.COMMANDS` gets argument vectors built from its own flags:
mostly valid (zero-sum vectors, Dyck words and coprime sizes, made with the
mixed-radix arithmetic below, not with zscomb), with a fixed share of
malformed values, missing flags and broken preconditions.  Every call must
print exactly one JSON document and exit 0, 1 or 2; an exit 3 (a broken
internal check) or an escaped exception fails the test.  One SHA-256 over
all outputs pins them byte for byte.  argparse's own `UsageError` reasons are
left out of the digest, since its wording varies across Python versions; the
error type and the exit code stay in.
"""

import hashlib
import json
import random
from contextlib import redirect_stdout
from io import StringIO
from math import gcd, prod

from zscomb.cli import COMMANDS, REQUIRED, UsageError, _plain, build_parser, run

SEED, CALLS = 2019, 1000
DIGEST = "28581bed5b938811939fa227c5161e572535ad2ec319b1a6a86e732a132f2430"
BAD_VALUES = ("x", "2.5", "-3", "", "1,,2", "7,x")


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


def labels_sum(fs, labels):
    acc = [0] * len(fs)
    for lab in labels:
        acc = [a + d for a, d in zip(acc, digits(fs, lab))]
    return from_digits(fs, acc)


def negate(fs, g):
    return from_digits(fs, [-a for a in digits(fs, g)])


# -- inputs -------------------------------------------------------------------


def _chain(rng, max_order):
    """A random invariant-factor chain of order <= max_order (maybe trivial)."""
    while True:
        fs = [] if rng.random() < 0.05 else [rng.randint(2, 8)]
        for _ in range(rng.choice((0, 0, 1, 2)) if fs else 0):
            fs.append(fs[-1] * rng.randint(1, 2))
        if prod(fs) <= max_order:
            return fs


def _coprime(rng, n, lo, hi):
    """A random integer in [lo, hi] coprime to n, or lo if there is none."""
    choices = [x for x in range(lo, hi + 1) if gcd(x, n) == 1]
    return rng.choice(choices) if choices else lo


def _vec(n, labels):
    out = [0] * n
    for lab in labels:
        out[lab] += 1
    return out


def _zero_sum_multiset(rng, fs, mass):
    n = prod(fs)
    labels = [rng.randrange(n) for _ in range(mass - 1)]
    return _vec(n, labels + [negate(fs, labels_sum(fs, labels))])


def _zero_sum_subset(rng, fs, k):
    """A k-subset with sum zero, or some k-subset after a few tries."""
    n = prod(fs)
    for _ in range(50):
        chosen = rng.sample(range(n), k)
        if labels_sum(fs, chosen) == 0:
            break
    return _vec(n, chosen)


def _rotate_to_dyck(seq, steps):
    """seq rotated to start after the lowest prefix height of steps."""
    h = best = start = 0
    for i, step in enumerate(steps[:-1]):
        h += step
        if h < best:
            best, start = h, i + 1
    return seq[start:] + seq[:start]


def _text(values):
    return ",".join(map(str, values))


def _group(fs):
    return _text(fs) or "1"  # "1" names the trivial group


def _leaf_inputs(rng, name, fs):
    """Flag texts whose meaning depends on the leaf, valid by construction."""
    n = prod(fs)
    if name in ("seq-to-dyck", "dyck-to-seq"):
        vec = _zero_sum_multiset(rng, fs, _coprime(rng, n, 1, 2 * n))
        m = sum(vec)
        gaps = _rotate_to_dyck(vec, [n * x - m for x in vec])
        return {"--vector": _text(vec), "--gaps": _text(gaps)}
    if name in ("subset-to-dyck", "complement", "translate-complement", "dyck-to-subset"):
        if name == "translate-complement":
            k = rng.randint(1, max(1, n - 1))
        else:
            k = _coprime(rng, n, 1, max(1, n - 1))
        bits = _zero_sum_subset(rng, fs, min(k, n))
        k = sum(bits)
        word = "".join(map(str, _rotate_to_dyck(bits, [k - n * b for b in bits])))
        return {"--subset": _text(bits), "--word": word}
    if name == "reciprocity":
        other = _chain(rng, 12)
        while gcd(prod(other), n) != 1 and rng.random() < 0.9:
            other = _chain(rng, 12)
        vec = _zero_sum_multiset(rng, fs, prod(other))
        return {"--other": _group(other), "--vector": _text(vec)}
    if name == "pair":
        m = rng.randint(0, n)
        p = _coprime(rng, n, 1, 8)
        other = _chain(rng, 64)
        while prod(other) != p + m:
            other = [p + m] if rng.random() < 0.5 else _chain(rng, 64)
        subset = rng.sample(range(n), m)
        labels = [rng.randrange(n) for _ in range(p - 1)]
        labels.append(negate(fs, labels_sum(fs, labels + subset)))
        return {"--other": _group(other), "--vector": _text(_vec(n, labels)),
                "--subset": _text(_vec(n, subset))}
    if name == "pair-dim":
        m = rng.randint(0, n)
        return {"--q": str(n - m), "--m": str(m)}
    if name in ("catalan", "dyck"):
        a = rng.randint(1, 7 if name == "dyck" else 30)
        return {"--a": str(a), "--b": str(_coprime(rng, a, 1, 7 if name == "dyck" else 30))}
    return {}


def _value(rng, name, flag, fs, inputs, small):
    """One flag's text; `small` keeps enumerations and the series DP cheap."""
    if flag in inputs:
        return inputs[flag]
    n = prod(fs)
    table = {
        "--group": lambda: _group(fs),
        "--target": lambda: rng.randrange(n),
        "--limit": lambda: rng.choice((0, 3, 50, 100_000)),
        "--length": lambda: rng.randint(0, 3 if small else 40),
        "--size": lambda: rng.randint(0, n),
        "--p": lambda: rng.randint(0, 2 if small else 12),
        "--m": lambda: rng.randint(1, 4),
        "--n": lambda: rng.randint(1, 4),
        "--r": lambda: rng.randint(1, 2),
        "--k": lambda: rng.randint(0, 2),
        "--max-s": lambda: rng.randint(0, 4 if small else 8),
        "--max-t": lambda: rng.randint(0, 4 if small else 8),
        "--max-order": lambda: rng.randint(-1, {"gcp": 32, "subset-reci": 14}.get(name, 8)),
        "--primes": lambda: _text(rng.sample((2, 3, 4, 5, 7), rng.randint(1, 3))),
    }
    return str(table[flag]())


def _argv(rng, family, name, flags):
    small = family == "enum" or name in ("check", "series")
    fs = _chain(rng, 8 if small else 16)
    inputs = _leaf_inputs(rng, name, fs)
    argv = [family, name]
    for flag, _, default, _ in flags:
        if default is REQUIRED or rng.random() < 0.5:
            argv += [flag, _value(rng, name, flag, fs, inputs, small)]
    if rng.random() < 0.05:
        argv.append("--pretty")
    roll = rng.random()
    if roll < 0.06:  # a malformed value
        i = rng.randrange(3, len(argv), 2) if len(argv) > 3 else 1
        argv[i] = rng.choice(BAD_VALUES)
    elif roll < 0.09:  # a flag left out
        i = rng.randrange(2, len(argv), 2) if len(argv) > 3 else 1
        del argv[i : i + 2]
    elif roll < 0.1:  # a flag no leaf knows
        argv += ["--bogus", "1"]
    elif roll < 0.14 and "--vector" in argv:  # one more element: no longer zero-sum
        i = argv.index("--vector") + 1
        argv[i] = _text([int(argv[i].split(",")[0]) + 1, *argv[i].split(",")[1:]])
    return argv


def corpus():
    rng, out = random.Random(SEED), []
    for _ in range(CALLS):
        family, name, _, _, flags, _ = rng.choice(COMMANDS)
        out.append(_argv(rng, family, name, flags))
    return out


def corpus_digest():
    """Run the corpus through `cli.run`, checking each output; return the
    SHA-256 of all outputs and the exit codes seen per leaf."""
    digest, codes = hashlib.sha256(), {}
    for argv in corpus():
        with redirect_stdout(StringIO()) as buf:
            code = run(argv)
        out = buf.getvalue()
        assert code in (0, 1, 2), (argv, code, out)
        assert out.endswith("\n"), (argv, out)
        doc = json.loads(out)  # exactly one document, or this raises
        assert isinstance(doc, dict) and ("error" in doc) == (code == 2), (argv, code, out)
        if doc.get("error") == "UsageError":
            out = json.dumps({"error": "UsageError"}) + "\n"
        codes.setdefault(tuple(argv[:2]), set()).add(code)
        digest.update(json.dumps([argv, code]).encode() + b"\n" + out.encode())
    return digest.hexdigest(), codes


def test_every_call_prints_one_json_document_and_the_outputs_are_pinned(monkeypatch):
    monkeypatch.delenv("ZSCOMB_LIMIT", raising=False)
    digest, codes = corpus_digest()
    # the corpus reaches every leaf, and every leaf succeeds at least once
    assert {leaf for leaf, seen in codes.items() if 0 in seen} == {c[:2] for c in COMMANDS}
    assert digest == DIGEST


def _argparse_reads(parser, argv):
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return str(exc)
    target, dests, fields = args.leaf
    return target, [getattr(args, dest) for dest in dests], fields, args.pretty


def test_the_plain_path_reads_the_corpus_like_argparse():
    # on every corpus line `_plain` gives argparse's reading or declines; of
    # the lines argparse reads, it declines only those with a value that is
    # empty or starts with "-"
    parser, read = build_parser(), 0
    for argv in corpus():
        plain, parsed = _plain(argv), _argparse_reads(parser, argv)
        if plain is not None:
            assert plain == parsed, argv
            read += 1
        elif not isinstance(parsed, str):
            assert any(word[:1] in ("", "-") for word in argv[3::2]), argv
    assert read == 904
