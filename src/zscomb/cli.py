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
inexact division; the JSON names it).  Counts are emitted as decimal
strings.  The ZSCOMB_LIMIT environment variable sets the default
enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    cnr_reciprocity_check,
    reciprocity_scan,
    verify_gcp,
    verify_subset_reciprocity,
)
from .brute import enum_pairs, enum_sequences, enum_subsets
from .counting import count_sequences, count_subsets, pair_dimension, rational_catalan
from .dyck import (
    dyck_to_sequence,
    dyck_to_subset,
    enum_dyck,
    sequence_to_dyck,
    subset_to_dyck,
)
from .errors import EnumerationLimitError, ExactDivisionError, InvariantError
from .groups import GroupSpec
from .necklaces import (
    complement_bijection,
    pair_bijection,
    reciprocity_bijection,
    translate_complement_bijection,
)
from .poincare import poincare_table, series_cross_check


def _vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer vector: {text!r}")


def _fmt(vec) -> str:
    return ",".join(str(x) for x in vec)


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, separators=(",", ":")))


# Each handler returns (payload, failed); failed drives exit code 1.


def _h_count_sequences(a):
    return {"count": str(count_sequences(a.group, a.length, a.target))}, False


def _h_count_subsets(a):
    return {"count": str(count_subsets(a.group, a.size, a.target))}, False


def _h_count_catalan(a):
    return {"count": str(rational_catalan(a.a, a.b))}, False


def _h_count_pair_dim(a):
    return {"count": str(pair_dimension(a.p, a.q, a.m, a.group))}, False


def _h_enum_sequences(a):
    items = enum_sequences(a.group, a.length, a.target, a.limit)
    return {"count": str(len(items)), "items": [_fmt(v) for v in items]}, False


def _h_enum_subsets(a):
    items = enum_subsets(a.group, a.size, a.target, a.limit)
    return {"count": str(len(items)), "items": [_fmt(v) for v in items]}, False


def _h_enum_dyck(a):
    items = enum_dyck(a.a, a.b, a.limit)
    return {"count": str(len(items)), "items": items}, False


def _h_enum_pairs(a):
    items = enum_pairs(a.group, a.p, a.k, a.target, a.limit)
    out = [{"sequence": _fmt(v), "subset": _fmt(b)} for v, b in items]
    return {"count": str(len(items)), "items": out}, False


def _h_seq_to_dyck(a):
    gaps, rotation = sequence_to_dyck(a.group, a.vector)
    return {"gaps": _fmt(gaps), "rotation": str(rotation)}, False


def _h_dyck_to_seq(a):
    vec, shift = dyck_to_sequence(a.group, a.gaps)
    return {"vector": _fmt(vec), "shift": str(shift)}, False


def _h_subset_to_dyck(a):
    word, rotation = subset_to_dyck(a.group, a.subset)
    return {"word": word, "rotation": str(rotation)}, False


def _h_dyck_to_subset(a):
    bits, shift = dyck_to_subset(a.group, a.word)
    return {"subset": _fmt(bits), "shift": str(shift)}, False


def _h_reciprocity(a):
    return {"vector": _fmt(reciprocity_bijection(a.group, a.other, a.vector))}, False


def _h_complement(a):
    bits, shift = complement_bijection(a.group, a.subset)
    return {"subset": _fmt(bits), "shift": str(shift)}, False


def _h_translate_complement(a):
    bits, x = translate_complement_bijection(a.group, a.subset)
    return {"subset": _fmt(bits), "translation": str(x)}, False


def _h_pair(a):
    u_vec, v_bits = pair_bijection(a.group, a.other, a.vector, a.subset)
    return {"sequence": _fmt(u_vec), "subset": _fmt(v_bits)}, False


def _h_poincare_table(a):
    table = poincare_table(a.group, a.target, a.max_s, a.max_t)
    return table.to_json_dict(), False


def _h_series_check(a):
    report = series_cross_check(a.group, a.target, a.max_s, a.max_t, a.limit)
    return report, bool(report["failures"])


def _h_verify_subset_reci(a):
    report = verify_subset_reciprocity(a.max_order)
    return report, bool(report["failures"])


def _h_verify_gcp(a):
    report = verify_gcp(a.max_order, tuple(a.primes))
    return report, bool(report["failures"])


def _h_verify_cnr(a):
    report = cnr_reciprocity_check(a.n, a.m, a.r)
    return report, bool(report["failures"])


def _h_scan(a):
    report = reciprocity_scan(a.max_order)
    return report, bool(report["failures"])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    common.add_argument(
        "--limit",
        type=int,
        default=None,
        help="enumeration budget (default: ZSCOMB_LIMIT or 10^7 candidates)",
    )

    parser = argparse.ArgumentParser(
        prog="zscomb",
        description="Zero-sum subset and multiset combinatorics over finite abelian groups.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def leaf(sub, name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    def group_arg(p, flag="--group", help_text="invariant factors, e.g. 2,2,4 (empty or 1 = trivial)"):
        p.add_argument(flag, type=GroupSpec.parse, required=True, help=help_text)

    def target_arg(p):
        p.add_argument("--target", type=int, default=0, help="target element label (default 0)")

    count = top.add_parser("count", help="closed-form counts").add_subparsers(
        dest="subcommand", required=True
    )
    p = leaf(count, "sequences", _h_count_sequences, "zero-sum multisets of a given size")
    group_arg(p)
    p.add_argument("--length", type=int, required=True, help="multiset size")
    target_arg(p)
    p = leaf(count, "subsets", _h_count_subsets, "zero-sum subsets of a given size")
    group_arg(p)
    p.add_argument("--size", type=int, required=True, help="subset size")
    target_arg(p)
    p = leaf(count, "catalan", _h_count_catalan, "rational Catalan number")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p = leaf(count, "pair-dim", _h_count_pair_dim, "(multiset, subset) pair count")
    p.add_argument("--p", type=int, required=True, help="multiset size")
    p.add_argument("--q", type=int, required=True, help="group order minus subset size")
    p.add_argument("--m", type=int, required=True, help="subset size")
    group_arg(p)

    enum = top.add_parser("enum", help="brute-force enumeration").add_subparsers(
        dest="subcommand", required=True
    )
    p = leaf(enum, "sequences", _h_enum_sequences, "list zero-sum multisets")
    group_arg(p)
    p.add_argument("--length", type=int, required=True)
    target_arg(p)
    p = leaf(enum, "subsets", _h_enum_subsets, "list zero-sum subsets")
    group_arg(p)
    p.add_argument("--size", type=int, required=True)
    target_arg(p)
    p = leaf(enum, "dyck", _h_enum_dyck, "list (a,b)-Dyck paths as step words")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p = leaf(enum, "pairs", _h_enum_pairs, "list (multiset, subset) pairs")
    group_arg(p)
    p.add_argument("--p", type=int, required=True, help="multiset size")
    p.add_argument("--k", type=int, required=True, help="subset size")
    target_arg(p)

    biject = top.add_parser("biject", help="explicit bijections").add_subparsers(
        dest="subcommand", required=True
    )
    p = leaf(biject, "seq-to-dyck", _h_seq_to_dyck, "zero-sum multiset to Dyck gap vector")
    group_arg(p)
    p.add_argument("--vector", type=_vec, required=True, help="multiplicity vector")
    p = leaf(biject, "dyck-to-seq", _h_dyck_to_seq, "Dyck gap vector to zero-sum multiset")
    group_arg(p)
    p.add_argument("--gaps", type=_vec, required=True, help="column-gap vector")
    p = leaf(biject, "subset-to-dyck", _h_subset_to_dyck, "zero-sum subset to Dyck step word")
    group_arg(p)
    p.add_argument("--subset", type=_vec, required=True, help="indicator vector")
    p = leaf(biject, "dyck-to-subset", _h_dyck_to_subset, "Dyck step word to zero-sum subset")
    group_arg(p)
    p.add_argument("--word", type=str, required=True, help="0/1 step word")
    p = leaf(biject, "reciprocity", _h_reciprocity, "multisets over G to multisets over H")
    group_arg(p)
    group_arg(p, "--other", "other group's invariant factors")
    p.add_argument("--vector", type=_vec, required=True, help="multiplicity vector over --group")
    p = leaf(biject, "complement", _h_complement, "k-subsets to (n-k)-subsets by rotation")
    group_arg(p)
    p.add_argument("--subset", type=_vec, required=True, help="indicator vector")
    p = leaf(
        biject,
        "translate-complement",
        _h_translate_complement,
        "k-subsets to (n-k)-subsets by translation",
    )
    group_arg(p)
    p.add_argument("--subset", type=_vec, required=True, help="indicator vector")
    p = leaf(biject, "pair", _h_pair, "(multiset, subset) pairs over G to pairs over H")
    group_arg(p)
    group_arg(p, "--other", "other group's invariant factors")
    p.add_argument("--vector", type=_vec, required=True, help="multiplicity vector over --group")
    p.add_argument("--subset", type=_vec, required=True, help="indicator vector over --group")

    poincare = top.add_parser("poincare", help="bigraded coefficient tables").add_subparsers(
        dest="subcommand", required=True
    )
    for name, handler, help_text in (
        ("table", _h_poincare_table, "coefficient table through (max-s, max-t)"),
        ("check", _h_series_check, "cross-check a table against enumeration"),
    ):
        p = leaf(poincare, name, handler, help_text)
        group_arg(p)
        target_arg(p)
        p.add_argument("--max-s", type=int, required=True, help="multiset-size bound")
        p.add_argument("--max-t", type=int, required=True, help="subset-size bound")

    verify = top.add_parser("verify", help="exhaustive theorem verifiers").add_subparsers(
        dest="subcommand", required=True
    )
    p = leaf(verify, "subset-reci", _h_verify_subset_reci, "subset-count symmetry predicate")
    p.add_argument("--max-order", type=int, default=16)
    p = leaf(verify, "gcp", _h_verify_gcp, "group vs prime-cyclic reciprocity predicate")
    p.add_argument("--max-order", type=int, default=16)
    p.add_argument("--primes", type=_vec, default=(2, 3, 5, 7), help="comma-separated primes")
    p = leaf(verify, "cnr", _h_verify_cnr, "r-th power group reciprocity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p = leaf(verify, "series", _h_series_check, "coefficient table vs enumeration")
    group_arg(p)
    target_arg(p)
    p.add_argument("--max-s", type=int, default=4, help="multiset-size bound")
    p.add_argument("--max-t", type=int, default=4, help="subset-size bound")

    scan = top.add_parser("scan", help="data collection over group pairs").add_subparsers(
        dest="subcommand", required=True
    )
    p = leaf(scan, "reciprocity", _h_scan, "tabulate reciprocity over all group pairs")
    p.add_argument("--max-order", type=int, default=10)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, failed = args.handler(args)
    except (ValueError, EnumerationLimitError) as exc:
        fields = {"error": type(exc).__name__, "reason": str(exc)}
        if isinstance(exc, EnumerationLimitError):
            fields.update(candidates=str(exc.candidates), limit=str(exc.limit))
        _emit(fields, args.pretty)
        return 2
    except InvariantError as exc:
        detail = {"check": exc.check, "context": exc.context}
        _emit({"error": "InvariantError", "reason": str(exc), **detail}, args.pretty)
        return 3
    except ExactDivisionError as exc:
        _emit({"error": "ExactDivisionError", "reason": str(exc)}, args.pretty)
        return 3
    _emit(payload, args.pretty)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
