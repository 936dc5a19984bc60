"""Spans recorded from outside the program, around calls between its modules.

`Tracer.install` rebinds, in every zscomb layer module, each public function
that module imported from another layer (for example
`zscomb.analysis.count_sequences` or `zscomb.dyck.zero_sum_shift`) to a
wrapper that records a span.  Calls inside one module are not spans; the
benchmark's own calls go through `Tracer.entry`.  The hot per-element
methods `GroupSpec.add` and `GroupSpec.coords` are only counted.

Spans are kept in memory (name, start, end, parent, operation id) and
reduced by `summary` when the round ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
import types
from array import array
from functools import _lru_cache_wrapper
from math import comb
from time import perf_counter

LAYERS = ("cli", "groups", "zerosum", "counting", "brute", "dyck", "necklaces", "poincare", "analysis")

# |G| at or above this counts as "large" for the per-element bijection costs.
LARGE_ORDER = 1000


def _layer(obj):
    module = getattr(obj, "__module__", None) or ""
    head, _, tail = module.partition(".")
    return tail if head == "zscomb" and tail in LAYERS else None


def _mass(x):
    if isinstance(x, str):
        return x.count("B") if "R" in x else x.count("1")
    return sum(x)


def _brute_candidates(name, args):
    """Size of the candidate space a brute call walks (what its budget is charged)."""
    n = args[0].order
    if name in ("enum_sequences", "sequences_by_sum"):
        return comb(n + args[1] - 1, args[1])
    if name in ("enum_subsets", "subsets_by_sum"):
        return comb(n, args[1])
    return comb(n + args[1] - 1, args[1]) * comb(n, args[2])  # enum_pairs


BRUTE_ORACLES = ("enum_sequences", "enum_subsets", "enum_pairs", "sequences_by_sum", "subsets_by_sum")


def _groups_in(report):
    if report["theorem"] == "cnr":
        return 2
    names = set()
    for row in report["rows"]:
        names.add(row.get("group"))
        names.add(row.get("other"))
    names.discard(None)
    return len(names)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.op_id = -1
        self.work: dict[str, float] = {}
        self._brute_seen: set = set()
        self._caches = ()
        self._cache_base = None

    # -- recording ----------------------------------------------------------

    def _count(self, key, k=1):
        self.work[key] = self.work.get(key, 0) + k

    def _span(self, fn, qualname, hook=None):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self._stack)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, out, end[idx] - start[idx])
            return out

        return wrapper

    def _counter(self, fn, key):
        def wrapper(*args):
            if self.active:
                self.work[key] = self.work.get(key, 0) + 1
            return fn(*args)

        return wrapper

    def _hook(self, layer, name):
        """Work counters recorded at a layer boundary, from arguments and result."""
        if layer == "brute" and name in BRUTE_ORACLES:
            def brute(args, out, dur):
                cold = args[0] not in self._brute_seen
                self._brute_seen.add(args[0])
                self._count("brute.candidates", _brute_candidates(name, args))
                self._count("brute.emitted", len(out))
                self._count("brute.cold_s" if cold else "brute.warm_s", dur)
            return brute
        if layer == "counting":
            def counting(args, out, dur):
                if isinstance(out, int):
                    bits = out.bit_length()
                    if bits > self.work.get("counting.result_bits_max", 0):
                        self.work["counting.result_bits_max"] = bits
            return counting
        if layer == "analysis" and (name.startswith("verify_") or name in ("reciprocity_scan", "cnr_reciprocity_check")):
            def analysis(args, out, dur):
                self._count("analysis.rows", len(out["rows"]))
                self._count("analysis.groups_scanned", _groups_in(out))
            return analysis
        if layer in ("dyck", "necklaces") and name != "enum_dyck":
            def per_elem(args, out, dur):
                if args and hasattr(args[0], "order"):
                    size = "large" if args[0].order >= LARGE_ORDER else "small"
                    self._count(f"{layer}.{size}_s", dur)
                    self._count(f"{layer}.{size}_elems", args[0].order + _mass(args[-2 if name == "pair_bijection" else -1]))
            return per_elem
        if layer == "zerosum" and name in ("zero_sum_shift", "target_sum_shift"):
            def shift(args, out, dur):
                self._count("zerosum.shift_s", dur)
                self._count("zerosum.shift_elems", args[0].order + sum(args[1]))
            return shift
        return None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every cross-module binding of a public zscomb function."""
        for layer in LAYERS:
            module = importlib.import_module(f"zscomb.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, (types.FunctionType, _lru_cache_wrapper)):
                    continue
                home = _layer(obj)
                if home is None or home == layer:
                    continue
                setattr(module, attr, self._span(obj, f"{home}.{attr}", self._hook(home, attr)))
        groups = importlib.import_module("zscomb.groups")
        spec = groups.GroupSpec
        spec.add = self._counter(spec.add, "groups.add_calls")
        spec.coords = self._counter(spec.coords, "groups.coords_calls")
        self._caches = (groups.factorize, groups.divisors, groups.mobius)

    def entry(self, fn):
        """Span wrapper for a call the benchmark makes into a layer."""
        home = _layer(fn)
        return self._span(fn, f"{home}.{fn.__name__}", self._hook(home, fn.__name__))

    def _cache_totals(self):
        infos = [c.cache_info() for c in self._caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def begin(self, op_id):
        self.op_id = op_id
        self._cache_base = self._cache_totals()
        self.active = True

    def finish(self):
        self.active = False
        hits, misses = self._cache_totals()
        self._count("groups.cache_hits", hits - self._cache_base[0])
        self._count("groups.cache_misses", misses - self._cache_base[1])

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the work counters; all additive
        except `*_max` entries, so summaries of several processes merge."""
        out = dict(self.work)
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        covered = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += dur[i]
        for i in range(n):
            qual = self.names[self.name[i]]
            layer = qual.partition(".")[0]
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + dur[i] - covered[i]
            if layer == "brute":
                out["brute.span_s"] = out.get("brute.span_s", 0.0) + dur[i]
            if qual == "poincare.poincare_table":
                out["poincare.table_s"] = out.get("poincare.table_s", 0.0) + dur[i]
            p = self.parent[i]
            if (qual in ("groups.character_sum", "groups.count_elements_of_order")
                    and p >= 0 and self.names[self.name[p]].startswith("counting.")):
                out["counting.divisor_terms"] = out.get("counting.divisor_terms", 0) + 1
        out["trace.spans"] = n
        return out


def merge(summaries) -> dict:
    out: dict[str, float] = {}
    for s in summaries:
        for key, value in s.items():
            if key.endswith("_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
