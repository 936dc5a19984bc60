"""Run one round of operations: time each call, then check its output.

Every timed call is one operation.  Its output is checked right after the
call, outside the timed region:

* CLI stdout and exit code equal those of the in-process `run(argv)`;
* a listing's length equals the matching `count_*`, a histogram matches
  `count_*` at every sum;
* a bijection's inverse gives back the input, and outputs are zero-sum by
  `is_zero_sum_by_congruences`;
* verifier and cross-check reports have empty `failures`;
* closed-form counts agree with a second formula (an automorphism, the
  rational Catalan number, or the pair coefficient).

An operation that raises, or whose check fails, counts as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from math import comb, prod
from time import perf_counter

from cpuspeed import REFERENCE_S, reference
import tracer as tracing
import workloads as wl
from zscomb import analysis, brute, cli, counting, dyck, necklaces, poincare
from zscomb.groups import GroupSpec
from zscomb.zerosum import is_zero_sum_by_congruences

BENCH = os.path.dirname(os.path.abspath(__file__))

# Raw library entry points; in a traced round they are called through spans.
API = {
    name: getattr(module, name)
    for module, names in (
        (analysis, ("verify_subset_reciprocity", "verify_gcp", "reciprocity_scan", "cnr_reciprocity_check")),
        (counting, ("count_subsets", "count_sequences", "rational_catalan", "pair_dimension")),
        (brute, ("enum_subsets", "enum_sequences", "enum_pairs", "subsets_by_sum", "sequences_by_sum")),
        (poincare, ("poincare_table", "series_cross_check")),
        (dyck, ("enum_dyck", "sequence_to_dyck", "dyck_to_sequence", "subset_to_dyck", "dyck_to_subset")),
        (necklaces, ("sequence_to_necklace", "necklace_to_sequence", "complement_bijection",
                     "translate_complement_bijection", "reciprocity_bijection", "pair_bijection")),
    )
    for name in names
}


def perturb(value):
    """A deliberately wrong copy of an output, for the self-test of the checks."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if isinstance(value, Counter):
        out = Counter(value)
        out[next(iter(out), 0)] += 1
        return out
    if isinstance(value, dict):
        if "failures" in value:
            return {**value, "failures": [{"reason": "injected"}]}
        key = next(iter(value))
        return {**value, key: perturb(value[key])}
    if isinstance(value, (list, tuple)):
        # every entry moves, so a second perturbation can never undo the first
        return type(value)([perturb(x) for x in value] if value else [0])
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, coeffs=perturb(value.coeffs))
    raise TypeError(f"cannot perturb {type(value).__name__}")


def rotate(vec, shift):
    shift %= len(vec)
    return vec[shift:] + vec[:shift]


def is_rotation(a, b):
    return len(a) == len(b) and a in b + b


def necklace_of(vec):
    return "".join("R" + "B" * x for x in vec)


def zero_sum(group, vec):
    return is_zero_sum_by_congruences(group, vec)


def _sample(items):
    return [items[i] for i in sorted({0, len(items) // 2, len(items) - 1})] if items else []


class Round:
    """Times calls, collects verdicts, and keeps the failure notes."""

    def __init__(self, tracer, corrupt):
        self.tracer = tracer
        self.corrupt = corrupt
        self.times: list[float] = []
        self.refs: list[float] = []  # mean of the two references around each call
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._pending = False

    def call(self, fn, *args):
        self.attempted += 1
        self._pending = True
        ref = reference()
        if self.tracer is not None:
            self.tracer.begin(self.attempted)
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            self.times.append(perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.finish()
            self.refs.append((ref + reference()) / 2)
        return perturb(out) if self.corrupt else out

    def judge(self, ok, what):
        self._pending = False
        if not ok:
            self.failed += 1
            self.note(f"wrong output: {what}")

    def note(self, text):
        if len(self.notes) < 5:
            self.notes.append(text[:200])

    def case(self, label, execute, *args):
        """Run one executor; an exception fails the call in progress, or counts
        as one failed operation when it came before the first call."""
        before = self.attempted
        try:
            execute(self, *args)
        except Exception as exc:  # a failing operation is counted, not fatal
            if self.attempted == before:
                self.attempted += 1
                self.times.append(0.0)
                self.refs.append(REFERENCE_S)
                self._pending = True
            if self._pending:
                self.failed += 1
                self._pending = False
            self.note(f"{label}: {type(exc).__name__}: {exc}")


# -- verify-sweep ---------------------------------------------------------------


def ex_report(name):
    def execute(rd, api, *args):
        report = rd.call(api[name], *args)
        rd.judge(report["rows"] and not report["failures"], name)
    return execute


def ex_poincare_table(rd, api, fs, target, max_s, max_t):
    g = GroupSpec(tuple(fs))
    c = rd.call(api["poincare_table"], g, target, max_s, max_t).coeffs
    ok = len(c) == max_s + 1 and all(len(row) == max_t + 1 for row in c)
    ok = ok and all(c[0][k] == counting.count_subsets(g, k, target) for k in range(min(max_t, g.order) + 1))
    ok = ok and all(c[p][0] == counting.count_sequences(g, p, target) for p in range(max_s + 1))
    rd.judge(ok, f"poincare_table {fs}")


def ex_count_subsets(rd, api, fs, k, target):
    g = GroupSpec(tuple(fs))
    got = rd.call(api["count_subsets"], g, k, target)
    # multiplying labels by a unit is an automorphism, so it keeps the count
    unit = wl.coprime_near(g.exponent, 3)
    image = wl.from_digits(fs, [unit * a for a in wl.digits(fs, target)])
    rd.judge(got > 0 and got == counting.count_subsets(g, k, image), f"count_subsets {fs}")


def ex_count_sequences(rd, api, fs, m):
    got = rd.call(api["count_sequences"], GroupSpec(tuple(fs)), m, 0)
    rd.judge(got == counting.rational_catalan(prod(fs), m), f"count_sequences {fs}")


def ex_rational_catalan(rd, api, a, b):
    got = rd.call(api["rational_catalan"], a, b)
    rd.judge(got == counting.count_sequences(GroupSpec((a,)), b, 0), f"rational_catalan {a} {b}")


def ex_pair_dimension(rd, api, p, q, m, fs):
    g = GroupSpec(tuple(fs))
    got = rd.call(api["pair_dimension"], p, q, m, g)
    rd.judge(got == counting.count_pairs_coefficient(g, 0, p, m), f"pair_dimension {p} {q} {m}")


# -- oracle-enum ------------------------------------------------------------------


def ex_enum(name, count_name):
    def execute(rd, api, fs, size, target):
        g = GroupSpec(tuple(fs))
        items = rd.call(api[name], g, size, target)
        ok = len(items) == getattr(counting, count_name)(g, size, target) and len(set(items)) == len(items)
        ok = ok and all(len(v) == g.order and sum(v) == size for v in items)
        if name == "enum_subsets":
            ok = ok and all(max(v) <= 1 for v in items)
        ok = ok and all(wl.vec_sum(fs, v) == target for v in _sample(items))
        rd.judge(ok, f"{name} {fs} {size}")
    return execute


def ex_by_sum(name, count_name, space):
    def execute(rd, api, fs, size):
        g = GroupSpec(tuple(fs))
        hist = rd.call(api[name], g, size)
        count = getattr(counting, count_name)
        ok = set(hist) <= set(range(g.order)) and sum(hist.values()) == space(g.order, size)
        ok = ok and all(hist[s] == count(g, size, s) for s in range(g.order))
        rd.judge(ok, f"{name} {fs} {size}")
    return execute


def ex_enum_pairs(rd, api, fs, p, k, target):
    g = GroupSpec(tuple(fs))
    items = rd.call(api["enum_pairs"], g, p, k, target)
    ok = len(items) == counting.count_pairs_coefficient(g, target, p, k) and len(set(items)) == len(items)
    ok = ok and all(sum(v) == p and sum(b) == k and max(b) <= 1 for v, b in items)
    ok = ok and all(wl.add(fs, wl.vec_sum(fs, v), wl.vec_sum(fs, b)) == target for v, b in _sample(items))
    rd.judge(ok, f"enum_pairs {fs}")


def ex_series(rd, api, fs, target, max_s, max_t):
    report = rd.call(api["series_cross_check"], GroupSpec(tuple(fs)), target, max_s, max_t)
    rd.judge(report["rows"] and not report["failures"], f"series_cross_check {fs}")


def ex_enum_dyck(rd, api, a, b):
    words = rd.call(api["enum_dyck"], a, b)
    ok = len(words) == counting.rational_catalan(a, b)
    ok = ok and all(len(w) == a + b for w in words) and all(x < y for x, y in zip(words, words[1:]))
    ok = ok and all(w.count("1") == a and wl.is_dyck_word(w) for w in _sample(words))
    rd.judge(ok, f"enum_dyck {a} {b}")


# -- biject-scale -----------------------------------------------------------------


def bij_dyck_seq(rd, api, g, vec):
    gaps, lam = rd.call(api["sequence_to_dyck"], g, vec)
    rd.judge(gaps == rotate(vec, lam) and wl.is_dyck_gaps(gaps), "sequence_to_dyck")
    back, _ = rd.call(api["dyck_to_sequence"], g, gaps)
    rd.judge(back == vec and zero_sum(g, back), "dyck_to_sequence")


def bij_dyck_subset(rd, api, g, bits):
    word, lam = rd.call(api["subset_to_dyck"], g, bits)
    rd.judge(word == "".join(map(str, rotate(bits, lam))) and wl.is_dyck_word(word), "subset_to_dyck")
    back, _ = rd.call(api["dyck_to_subset"], g, word)
    rd.judge(back == bits and zero_sum(g, back), "dyck_to_subset")


def bij_necklace(rd, api, g, vec):
    word = rd.call(api["sequence_to_necklace"], g, vec)
    rd.judge(is_rotation(word, necklace_of(vec)), "sequence_to_necklace")
    back = rd.call(api["necklace_to_sequence"], g, word)
    rd.judge(back == vec and zero_sum(g, back), "necklace_to_sequence")


def bij_complement(rd, api, g, bits):
    comp, _ = rd.call(api["complement_bijection"], g, bits)
    rd.judge(sum(comp) == g.order - sum(bits) and max(comp) <= 1 and zero_sum(g, comp), "complement_bijection")
    back, _ = rd.call(api["complement_bijection"], g, comp)
    rd.judge(back == bits, "complement_bijection inverse")


def bij_translate_complement(rd, api, g, bits):
    fs = g.invariant_factors
    comp, x = rd.call(api["translate_complement_bijection"], g, bits)
    shifted = [0] * g.order
    for lab, b in enumerate(bits):
        if not b:
            shifted[wl.add(fs, lab, x)] = 1
    rd.judge(list(comp) == shifted and zero_sum(g, comp), "translate_complement_bijection")
    back, _ = rd.call(api["translate_complement_bijection"], g, comp)
    rd.judge(sum(back) == sum(bits) and max(back) <= 1 and zero_sum(g, back), "translate_complement_bijection again")


def bij_reciprocity(rd, api, g, vec, h):
    out = rd.call(api["reciprocity_bijection"], g, h, vec)
    rd.judge(len(out) == h.order and sum(out) == g.order and zero_sum(h, out), "reciprocity_bijection")
    back = rd.call(api["reciprocity_bijection"], h, g, out)
    rd.judge(back == vec, "reciprocity_bijection inverse")


def bij_pair(rd, api, g, seq, bits, h):
    fs = h.invariant_factors
    u, v = rd.call(api["pair_bijection"], g, h, seq, bits)
    ok = len(u) == len(v) == h.order and sum(v) == sum(bits) and sum(u) == g.order - sum(bits)
    rd.judge(ok and wl.add(fs, wl.vec_sum(fs, u), wl.vec_sum(fs, v)) == 0, "pair_bijection")
    back = rd.call(api["pair_bijection"], h, g, u, v)
    rd.judge(back == (seq, bits), "pair_bijection inverse")


BIJECTIONS = {
    "dyck_seq": bij_dyck_seq,
    "dyck_subset": bij_dyck_subset,
    "necklace": bij_necklace,
    "complement": bij_complement,
    "translate_complement": bij_translate_complement,
    "reciprocity": bij_reciprocity,
    "pair": bij_pair,
}


def ex_bij(rd, api, kind, fs, vec, *rest):
    extra = [tuple(rest[0])] if kind == "pair" else []
    others = [GroupSpec(tuple(r)) for r in rest[len(extra):]]
    BIJECTIONS[kind](rd, api, GroupSpec(tuple(fs)), tuple(vec), *extra, *others)


def ex_to_subset(rd, api, fs, word):
    g = GroupSpec(tuple(fs))
    bits, _ = rd.call(api["dyck_to_subset"], g, word)
    rd.judge(is_rotation("".join(map(str, bits)), word) and zero_sum(g, bits), "dyck_to_subset")


def ex_to_sequence(rd, api, fs, word):
    g = GroupSpec(tuple(fs))
    vec = rd.call(api["necklace_to_sequence"], g, word)
    rd.judge(is_rotation(necklace_of(vec), word) and zero_sum(g, vec), "necklace_to_sequence")


EXECUTORS = {
    "verify_subset_reciprocity": ex_report("verify_subset_reciprocity"),
    "verify_gcp": ex_report("verify_gcp"),
    "reciprocity_scan": ex_report("reciprocity_scan"),
    "cnr_reciprocity_check": ex_report("cnr_reciprocity_check"),
    "poincare_table": ex_poincare_table,
    "count_subsets": ex_count_subsets,
    "count_sequences": ex_count_sequences,
    "rational_catalan": ex_rational_catalan,
    "pair_dimension": ex_pair_dimension,
    "enum_subsets": ex_enum("enum_subsets", "count_subsets"),
    "enum_sequences": ex_enum("enum_sequences", "count_sequences"),
    "subsets_by_sum": ex_by_sum("subsets_by_sum", "count_subsets", comb),
    "sequences_by_sum": ex_by_sum("sequences_by_sum", "count_sequences", lambda n, m: comb(n + m - 1, m)),
    "enum_pairs": ex_enum_pairs,
    "series_cross_check": ex_series,
    "enum_dyck": ex_enum_dyck,
    "bij": ex_bij,
    "to_subset": ex_to_subset,
    "to_sequence": ex_to_sequence,
}


# -- cli-mix ----------------------------------------------------------------------


def in_process(argv):
    """Exit code and stdout of `run(argv)` in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def cli_ok(got, want):
    code, text = got
    if (code, text) != want or code != 0:
        return False
    payload = json.loads(text)
    if "items" in payload and int(payload["count"]) != len(payload["items"]):
        return False
    return not payload.get("failures")


# No desk-scale CLI call comes near this; a hung call fails instead of
# holding up the run.
CLI_TIMEOUT_S = 20


def _invoke(cmd, env):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def ex_cli(rd, argv, cmd, env, summaries):
    want = in_process(argv)
    code, out, err = rd.call(_invoke, cmd, env)
    rd.judge(cli_ok((code, out), want), "cli output differs from in-process run")
    if summaries is not None:
        summaries.append(json.loads(err.splitlines()[-1]))


def run_round(workload, ops, traced, corrupt, env) -> dict:
    """Run one workload's operation list once; tracing adds a span summary."""
    tracer = tracing.Tracer() if traced and workload != "cli-mix" else None
    rd = Round(tracer, corrupt)
    summaries = [] if traced else None
    if workload == "cli-mix":
        for i, (_, argv) in enumerate(ops):
            if traced:
                cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(i), *argv]
            else:
                cmd = [sys.executable, "-m", "zscomb.cli", *argv]
            rd.case(" ".join(argv), ex_cli, argv, cmd, env, summaries)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        api = dict(API)
        if tracer is not None:
            tracer.install()
            api = {name: tracer.entry(fn) for name, fn in api.items()}
        for op in ops:
            rd.case(op[0], EXECUTORS[op[0]], api, *op[1:])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            summaries.append(tracer.summary())
    out = {
        "times": rd.times,
        "refs": rd.refs,
        "rss_mb": rss_kb / 1024,
        "attempted": rd.attempted,
        "failed": rd.failed,
        "notes": rd.notes,
    }
    if traced:
        out["summary"] = tracing.merge(summaries)
    return out


def probe(cli_ops) -> dict:
    """Reference timings for the cli layer: parser build, in-process run over
    the cli mix, and the bare interpreter start."""
    parser_s = []
    for _ in range(20):
        t0 = perf_counter()
        cli.build_parser()
        parser_s.append(perf_counter() - t0)
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for _, argv in cli_ops:
            cli.run(argv)
    run_s = perf_counter() - t0
    floor_s = []
    for _ in range(5):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CLI_TIMEOUT_S)
        floor_s.append(perf_counter() - t0)
    return {
        "parser_s": statistics.median(parser_s),
        "run_s": run_s,
        "floor_s": statistics.median(floor_s),
    }
