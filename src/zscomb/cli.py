"""Command-line front end: every operation, JSON on stdout.

Grammar (flags live on the leaf subcommands):

    zscomb count    sequences|subsets|catalan|pair-dim ...
    zscomb enum     sequences|subsets|dyck|pairs ...
    zscomb biject   seq-to-dyck|dyck-to-seq|subset-to-dyck|dyck-to-subset|
                    reciprocity|complement|translate-complement|pair ...
    zscomb poincare table|check ...
    zscomb verify   subset-reci|gcp|cnr|series ...
    zscomb scan     reciprocity ...

Exit codes: 0 success, 1 a verification report contains failures, 2 usage
or precondition error, 3 an internal check failed (a broken invariant or an
inexact division; the JSON names it), 4 stdout was closed before the output
was written (the JSON error goes to stderr), 5 a size does not fit in memory
or in a machine index (MemoryError, OverflowError).  Counts are emitted as
decimal strings.  `--limit` (the enumeration budget) exists on the leaves
that enumerate; the ZSCOMB_LIMIT environment variable sets its default.

A plain line (family, leaf, `--flag value` pairs, maybe `--pretty`) is read
straight from COMMANDS; argparse is imported only for other lines: --help,
usage errors and spellings such as `--flag=value`.  Compact JSON comes from
json's C encoder (`_json`) without importing json; `--pretty` imports it.
"""

import atexit
import os
import sys

from .errors import EnumerationLimitError, ExactDivisionError, InvariantError, _check_budget
from .groups import GroupSpec, _decimal

try:  # the C encoder that json.dumps calls; an interpreter without it falls back to json
    from _json import encode_basestring_ascii, make_encoder
except ImportError:
    make_encoder = None


class UsageError(ValueError):
    """A malformed command line; the reason is argparse's message."""


def _vec(text):
    return tuple(int(part) for part in text.split(","))


def _limit(text):
    return _check_budget(0, int(text))


_group = GroupSpec.parse


# A flag is (name, type, default, help); REQUIRED as the default makes it required.
REQUIRED = object()


def _int(name, help_text=None, default=REQUIRED):
    return name, int, default, help_text


def _bounds(default=REQUIRED):
    return (
        _int("--max-s", "multiset-size bound", default),
        _int("--max-t", "subset-size bound", default),
    )


GROUP = ("--group", _group, REQUIRED, "invariant factors, e.g. 2,2,4 (empty or 1 = trivial)")
OTHER = ("--other", _group, REQUIRED, "other group's invariant factors")
TARGET = _int("--target", "target element label (default 0)", 0)
LIMIT = ("--limit", _limit, None, "enumeration budget (default: ZSCOMB_LIMIT or 10^7 candidates)")
LENGTH = _int("--length", "multiset size")
SIZE = _int("--size", "subset size")
A_B = (_int("--a"), _int("--b"))
SUBSET = ("--subset", _vec, REQUIRED, "indicator vector")
VECTOR = ("--vector", _vec, REQUIRED, "multiplicity vector over --group")

FAMILIES = {
    "count": "closed-form counts",
    "enum": "brute-force enumeration",
    "biject": "explicit bijections",
    "poincare": "bigraded coefficient tables",
    "verify": "exhaustive theorem verifiers",
    "scan": "data collection over group pairs",
}


# Every leaf: (family, name, help, public function name, flags in call order,
# result fields).  `run` resolves the name through the package's lazy table.
COMMANDS = (
    ("count", "sequences", "zero-sum multisets of a given size", "count_sequences",
     (GROUP, LENGTH, TARGET), ("count",)),
    ("count", "subsets", "zero-sum subsets of a given size", "count_subsets",
     (GROUP, SIZE, TARGET), ("count",)),
    ("count", "catalan", "rational Catalan number", "rational_catalan", A_B, ("count",)),
    ("count", "pair-dim", "(multiset, subset) pair count", "pair_dimension",
     (_int("--p", "multiset size"), _int("--q", "group order minus subset size"),
      _int("--m", "subset size"), GROUP), ("count",)),
    ("enum", "sequences", "list zero-sum multisets", "enum_sequences",
     (GROUP, LENGTH, TARGET, LIMIT), ()),
    ("enum", "subsets", "list zero-sum subsets", "enum_subsets",
     (GROUP, SIZE, TARGET, LIMIT), ()),
    ("enum", "dyck", "list (a,b)-Dyck paths as step words", "enum_dyck", (*A_B, LIMIT), ()),
    ("enum", "pairs", "list (multiset, subset) pairs", "enum_pairs",
     (GROUP, _int("--p", "multiset size"), _int("--k", "subset size"), TARGET, LIMIT),
     ("sequence", "subset")),
    ("biject", "seq-to-dyck", "zero-sum multiset to Dyck gap vector", "sequence_to_dyck",
     (GROUP, VECTOR), ("gaps", "rotation")),
    ("biject", "dyck-to-seq", "Dyck gap vector to zero-sum multiset", "dyck_to_sequence",
     (GROUP, ("--gaps", _vec, REQUIRED, "column-gap vector")), ("vector", "shift")),
    ("biject", "subset-to-dyck", "zero-sum subset to Dyck step word", "subset_to_dyck",
     (GROUP, SUBSET), ("word", "rotation")),
    ("biject", "dyck-to-subset", "Dyck step word to zero-sum subset", "dyck_to_subset",
     (GROUP, ("--word", str, REQUIRED, "0/1 step word")), ("subset", "shift")),
    ("biject", "reciprocity", "multisets over G to multisets over H",
     "reciprocity_bijection", (GROUP, OTHER, VECTOR), ("vector",)),
    ("biject", "complement", "k-subsets to (n-k)-subsets by rotation",
     "complement_bijection", (GROUP, SUBSET), ("subset", "shift")),
    ("biject", "translate-complement", "k-subsets to (n-k)-subsets by translation",
     "translate_complement_bijection", (GROUP, SUBSET), ("subset", "translation")),
    ("biject", "pair", "(multiset, subset) pairs over G to pairs over H",
     "pair_bijection", (GROUP, OTHER, VECTOR, SUBSET), ("sequence", "subset")),
    ("poincare", "table", "coefficient table through (max-s, max-t)", "poincare_table",
     (GROUP, TARGET, *_bounds()), ()),
    ("poincare", "check", "cross-check a table against direct expansion",
     "series_cross_check", (GROUP, TARGET, *_bounds()), ()),
    ("verify", "subset-reci", "subset-count symmetry predicate",
     "verify_subset_reciprocity", (_int("--max-order", default=16),), ()),
    ("verify", "gcp", "group vs prime-cyclic reciprocity predicate", "verify_gcp",
     (_int("--max-order", default=16),
      ("--primes", _vec, (2, 3, 5, 7), "comma-separated primes")), ()),
    ("verify", "cnr", "r-th power group reciprocity", "cnr_reciprocity_check",
     (_int("--n"), _int("--m"), _int("--r")), ()),
    ("verify", "series", "coefficient table vs direct expansion", "series_cross_check",
     (GROUP, TARGET, *_bounds(4)), ()),
    ("scan", "reciprocity", "tabulate reciprocity over all group pairs",
     "reciprocity_scan", (_int("--max-order", default=10),), ()),
)


def build_parser():
    """The argparse parser of every command."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    def reasoned(parse):
        """A flag type whose usage error is the parse's own ValueError message
        (argparse would only name the function: "invalid parse value")."""
        if parse in (int, str):
            return parse

        def flag_type(text: str):
            try:
                return parse(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return flag_type

    parser = _Parser(
        prog="zscomb",
        description="Zero-sum subset and multiset combinatorics over finite abelian groups.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    families = {
        family: top.add_parser(family, help=help_text).add_subparsers(
            dest="subcommand", required=True
        )
        for family, help_text in FAMILIES.items()
    }
    for family, name, help_text, target, flags, fields in COMMANDS:
        p = families[family].add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        dests = [
            p.add_argument(f, type=reasoned(t), default=d, required=d is REQUIRED, help=h).dest
            for f, t, d, h in flags
        ]
        p.set_defaults(leaf=(target, dests, fields))
    return parser


def _plain(argv):
    """(leaf function name, argument values, result fields, pretty) of a
    plain line, exactly as argparse reads it, else None.  A plain line is a
    family, one of its leaves, then that leaf's exact flags, each at most
    once and none required left out: `--pretty`, or a flag and a value that
    is not empty, does not start with "-" and parses by the flag's type."""
    leaf = next((c for c in COMMANDS if c[:2] == tuple(argv[:2])), None)
    if leaf is None:
        return None
    *_, target, flags, fields = leaf
    types = {f: t for f, t, _, _ in flags}
    words, given, pretty = list(argv[2:]), {}, False
    while words:
        flag = words.pop(0)
        if flag == "--pretty" and not pretty:
            pretty = True
        elif flag in types and flag not in given and words and words[0][:1] not in ("", "-"):
            given[flag] = words.pop(0)
        else:
            return None
    if any(d is REQUIRED and f not in given for f, _, d, _ in flags):
        return None
    try:  # in argv order, as argparse converts them
        values = {f: types[f](text) for f, text in given.items()}
    except (ValueError, TypeError):
        return None
    return target, [values.get(f, d) for f, _, d, _ in flags], fields, pretty


def _encode(value, fields=()):
    """JSON form of a result: counts become decimal strings, vectors are
    comma-joined, a listing becomes {"count", "items"}, and named fields
    split a tuple result into an object."""
    if isinstance(value, list):
        return {"count": _decimal(len(value)), "items": [_encode(item, fields) for item in value]}
    if fields:
        parts = value if len(fields) > 1 else (value,)
        return {field: _encode(part) for field, part in zip(fields, parts)}
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if hasattr(value, "to_json_dict"):  # a CoeffTable
        return value.to_json_dict()
    return value  # a step word or a verification report


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pretty = False
    try:
        parsed = _plain(argv)
        if parsed is None:
            args = build_parser().parse_args(argv)
            target, dests, fields = args.leaf
            parsed = target, [getattr(args, dest) for dest in dests], fields, args.pretty
        target, values, fields, pretty = parsed
        fn = getattr(sys.modules[__package__], target)
        payload = _encode(fn(*values), fields)
        code = 1 if isinstance(payload, dict) and payload.get("failures") else 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, EnumerationLimitError) as exc:
        payload, code = {"error": type(exc).__name__, "reason": str(exc)}, 2
        if isinstance(exc, EnumerationLimitError):
            payload.update(candidates=_decimal(exc.candidates), limit=_decimal(exc.limit))
    except (InvariantError, ExactDivisionError) as exc:
        payload, code = {"error": type(exc).__name__, "reason": str(exc)}, 3
        if isinstance(exc, InvariantError):
            payload.update(check=exc.check, context=exc.context)
    except (MemoryError, OverflowError) as exc:
        payload, code = {"error": type(exc).__name__, "reason": str(exc) or "out of memory"}, 5
    if make_encoder and not pretty:  # the bytes of json.dumps(payload, separators=(",", ":"))
        encode = make_encoder({}, None, encode_basestring_ascii, None, ":", ",", False, False, True)
        print("".join(encode(payload, 0)))
    else:
        import json
        print(json.dumps(payload, indent=2) if pretty else json.dumps(payload, separators=(",", ":")))
    return code


def main() -> None:
    # The process is ours: argv integers of any length parse (0: no limit).
    getattr(sys, "set_int_max_str_digits", int)(0)
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write('{"error":"BrokenPipeError","reason":"stdout was closed early"}\n')
        code = 4
    sys.exit(code)


def entry() -> None:
    """The process's entry: main, atexit handlers, flushed streams, then os._exit (no teardown)."""
    try:
        main()
    except SystemExit as exc:
        atexit._run_exitfuncs()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exc.code)


if __name__ == "__main__":
    entry()
