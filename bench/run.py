"""zscomb benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]

A run repeats rounds until `--seconds` have passed (and at least three
rounds and, untraced, 100 calls are in).  Each round is a fresh
interpreter (`worker.py`) that imports `zscomb.cli`, runs the workload's
seeded operation list once and checks every output; one process at a time,
no threads, so load comes from a single closed-loop client.

`--trace 0` reports the end-to-end metrics:

  setup_s      import time of `zscomb.cli` in a fresh interpreter, median
               over the rounds
  wall_s       time to complete the operation list, as the sum of each
               operation's median call time across the rounds
  op_p50_ms    per-operation latency, median of every call of the run
  op_p90_ms    per-operation latency, 90th percentile of every call
  peak_rss_mb  peak resident set of the round process (on cli-mix, of the
               largest CLI child), median over the rounds

The benchmark runs on shared machines whose CPU speed shifts with the
load of other guests, by up to about 1.8 times for minutes at a time.  So
every timed call is bracketed by a fixed reference loop and scaled to a
fixed reference speed (`cpuspeed.py`); every time above is a scaled time.
The human-readable lines give the CPU's median slowdown against that speed
(`cpu_slowdown`) and the unscaled `raw_wall_s`.  The percentiles pool
every call of the run (their number is printed as `op_samples`).  A run
goes on until every operation has at least three calls and, untraced, at
least 100 calls are in.

`--trace 1` alternates untraced and traced rounds and reports the
per-layer metrics of `LAYER_METRICS` (medians over traced rounds; their
times are unscaled span times) and the tracing overhead, traced minus
untraced `wall_s`.

Operations that fail or give wrong output are counted in `failed`; the
error rate is failed / attempted.  Any failure makes the exit code 1.
The last stdout line is the JSON result; the lines before it give the
environment (Python, nproc, platform, seed, input digest, -O flag).
`--all` runs every workload untraced and traced, prints everything and
writes the results to `--out` (default `bench-results.json`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import cpuspeed
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

MIN_ROUNDS = 3
MIN_SAMPLES = 100  # calls behind op_p50_ms and op_p90_ms
# A run starts no round after DEADLINE_S and kills any process still
# running at LIMIT_S, so it always ends inside 180 s.
DEADLINE_S = 140
LIMIT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# name, unit, end-to-end metric (and workload) it should move, workloads where it is bypassed
LAYER_METRICS = [
    ("cli.import_ms", "ms", "setup_s on every workload; op_p50_ms on cli-mix", "compute time of the in-process workloads"),
    ("cli.interp_floor_ms", "ms", "reference only: `python -c pass`", ""),
    ("cli.parser_ms", "ms", "setup_s on every workload; op_p50_ms on cli-mix", "compute time of the in-process workloads"),
    ("cli.run_ms", "ms", "op_p50_ms on cli-mix", "compute time of the in-process workloads"),
    ("groups.add_calls", "count", "wall_s on oracle-enum (add-table build)", ""),
    ("groups.coords_calls", "count", "wall_s on oracle-enum (add-table build)", ""),
    ("groups.self_ms", "ms", "wall_s on oracle-enum (add-table build)", ""),
    ("groups.cache_hit_ratio", "ratio", "wall_s on verify-sweep", ""),
    ("zerosum.calls", "count", "op_p90_ms and wall_s on biject-scale", "verify-sweep"),
    ("zerosum.self_ms", "ms", "op_p90_ms and wall_s on biject-scale", "verify-sweep"),
    ("zerosum.shift_us_per_elem", "us", "op_p90_ms and wall_s on biject-scale", "verify-sweep"),
    ("counting.calls", "count", "wall_s on verify-sweep", "biject-scale"),
    ("counting.self_ms", "ms", "wall_s on verify-sweep", "biject-scale"),
    ("counting.divisor_terms", "count", "wall_s on verify-sweep", "biject-scale"),
    ("counting.result_bits_max", "bits", "wall_s on verify-sweep", "biject-scale"),
    ("brute.candidates", "count", "wall_s and peak_rss_mb on oracle-enum", "verify-sweep, biject-scale"),
    ("brute.emitted", "count", "wall_s and peak_rss_mb on oracle-enum", "verify-sweep, biject-scale"),
    ("brute.yield_ratio", "ratio", "wall_s and peak_rss_mb on oracle-enum", "verify-sweep, biject-scale"),
    ("brute.candidates_per_s", "1/s", "wall_s and peak_rss_mb on oracle-enum", "verify-sweep, biject-scale"),
    ("brute.cold_ms", "ms", "wall_s and peak_rss_mb on oracle-enum", "verify-sweep, biject-scale"),
    ("brute.warm_ms", "ms", "wall_s and peak_rss_mb on oracle-enum", "verify-sweep, biject-scale"),
    *[
        (f"{layer}.{name}", unit, "op_p90_ms and wall_s on biject-scale", "verify-sweep, oracle-enum")
        for layer in ("dyck", "necklaces")
        for name, unit in (("calls", "count"), ("self_ms", "ms"), ("us_per_elem_small", "us"),
                           ("us_per_elem_large", "us"), ("growth", "ratio"))
    ],
    ("poincare.table_ms", "ms", "wall_s on verify-sweep", ""),
    ("poincare.self_ms", "ms", "wall_s on verify-sweep", ""),
    ("analysis.groups_scanned", "count", "wall_s on verify-sweep", ""),
    ("analysis.rows", "count", "wall_s on verify-sweep", ""),
    ("analysis.self_ms", "ms", "wall_s on verify-sweep", ""),
    ("trace.overhead_s", "s", "none: traced minus untraced wall_s", ""),
    ("trace.spans", "count", "none: spans recorded per traced round", ""),
]
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def child_env():
    """Environment of every process the benchmark starts: the checkout's
    source first on the path, and a fixed hash seed so that rounds differ
    only by what they measure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_group(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the whole group,
    so that no child of it outlives the run."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[1:3])} did not finish in time") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{' '.join(cmd[1:3])} failed:\n{err[-3000:]}")
    return out


def spawn(mode, workload, seed, tiny, corrupt, deadline):
    cmd = [sys.executable, WORKER, mode, workload, str(seed), str(int(tiny)), str(int(corrupt))]
    out = run_group(cmd, max(1.0, deadline - perf_counter()))
    return json.loads(out.splitlines()[-1])


def per_op(rounds):
    """Each operation's scaled call times across rounds (see cpuspeed.py)."""
    cols = zip(*(zip(r["times"], r["refs"]) for r in rounds))
    return [[cpuspeed.scaled(t, ref) for t, ref in col] for col in cols]


def list_time(rounds):
    """Time to complete the operation list: the sum of each operation's
    median scaled call time across rounds."""
    return sum(statistics.median(col) for col in per_op(rounds))


def pooled_calls(rounds):
    """Every scaled call time of the rounds, pooled."""
    return [t for col in per_op(rounds) for t in col]


def slowdown(rounds):
    """How much slower than REFERENCE_S the CPU ran: the median reference
    over REFERENCE_S."""
    return statistics.median(ref for r in rounds for ref in r["refs"]) / cpuspeed.REFERENCE_S


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(s: dict) -> dict:
    """Per-layer metrics of one traced round, from its span summary."""
    g = lambda key: s.get(key, 0)  # noqa: E731
    out = {
        "groups.add_calls": g("groups.add_calls"),
        "groups.coords_calls": g("groups.coords_calls"),
        "groups.self_ms": 1e3 * g("groups.self_s"),
        "groups.cache_hit_ratio": _ratio(g("groups.cache_hits"), g("groups.cache_hits") + g("groups.cache_misses")),
        "zerosum.calls": g("zerosum.calls"),
        "zerosum.self_ms": 1e3 * g("zerosum.self_s"),
        "zerosum.shift_us_per_elem": 1e6 * _ratio(g("zerosum.shift_s"), g("zerosum.shift_elems")),
        "counting.calls": g("counting.calls"),
        "counting.self_ms": 1e3 * g("counting.self_s"),
        "counting.divisor_terms": g("counting.divisor_terms"),
        "counting.result_bits_max": g("counting.result_bits_max"),
        "brute.candidates": g("brute.candidates"),
        "brute.emitted": g("brute.emitted"),
        "brute.yield_ratio": _ratio(g("brute.emitted"), g("brute.candidates")),
        "brute.candidates_per_s": _ratio(g("brute.candidates"), g("brute.span_s")),
        "brute.cold_ms": 1e3 * g("brute.cold_s"),
        "brute.warm_ms": 1e3 * g("brute.warm_s"),
        "poincare.table_ms": 1e3 * g("poincare.table_s"),
        "poincare.self_ms": 1e3 * g("poincare.self_s"),
        "analysis.groups_scanned": g("analysis.groups_scanned"),
        "analysis.rows": g("analysis.rows"),
        "analysis.self_ms": 1e3 * g("analysis.self_s"),
        "trace.spans": g("trace.spans"),
    }
    for layer in ("dyck", "necklaces"):
        small = 1e6 * _ratio(g(f"{layer}.small_s"), g(f"{layer}.small_elems"))
        large = 1e6 * _ratio(g(f"{layer}.large_s"), g(f"{layer}.large_elems"))
        out[f"{layer}.calls"] = g(f"{layer}.calls")
        out[f"{layer}.self_ms"] = 1e3 * g(f"{layer}.self_s")
        out[f"{layer}.us_per_elem_small"] = small
        out[f"{layer}.us_per_elem_large"] = large
        out[f"{layer}.growth"] = _ratio(large, small)
    return out


def measure(workload, seed, seconds, trace, tiny=False, corrupt=False) -> dict:
    """Run one workload for `seconds`; return metrics, counts and environment."""
    limit = perf_counter() + LIMIT_S
    # compile the bytecode before anything is timed
    run_group([sys.executable, "-c", "import zscomb.cli; print(1)"], LIMIT_S)
    probe = spawn("probe", workload, seed, tiny, corrupt, limit) if trace else None
    modes = ("plain", "traced") if trace else ("plain",)
    rounds = {mode: [] for mode in modes}
    durations = {mode: [] for mode in modes}
    start = perf_counter()
    i = 0
    while True:
        mode = modes[i % len(modes)]
        i += 1
        t0 = perf_counter()
        rounds[mode].append(spawn(mode, workload, seed, tiny, corrupt, limit))
        durations[mode].append(perf_counter() - t0)
        elapsed = perf_counter() - start
        samples = sum(len(r["times"]) for r in rounds["plain"])
        enough = all(len(rounds[m]) >= MIN_ROUNDS for m in modes) and (trace or samples >= MIN_SAMPLES)
        upcoming = durations[modes[i % len(modes)]]
        if elapsed > DEADLINE_S or (enough and elapsed + statistics.median(upcoming or [0]) > seconds):
            break

    every = [r for mode in modes for r in rounds[mode]]
    plain = rounds["plain"]
    times = pooled_calls(plain)
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    digests = {r["digest"] for r in every} | ({probe["digest"]} if probe else set())
    notes = [n for r in every for n in r["notes"]][:5]
    if len(digests) != 1:
        failed += 1
        notes.append(f"rounds measured different inputs: {sorted(digests)}")
    setup = statistics.median(cpuspeed.scaled(r["setup_s"], r["setup_ref"]) for r in every)
    if trace:
        if not rounds["traced"]:
            raise BenchError("no traced round finished before the deadline")
        per_round = [layer_values(r["summary"]) for r in rounds["traced"]]
        values = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
        values["cli.import_ms"] = 1e3 * setup
        values["cli.interp_floor_ms"] = 1e3 * probe["floor_s"]
        values["cli.parser_ms"] = 1e3 * probe["parser_s"]
        values["cli.run_ms"] = 1e3 * probe["run_s"]
        values["trace.overhead_s"] = list_time(rounds["traced"]) - list_time(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        deciles = statistics.quantiles(times, n=10)
        values = {
            "setup_s": setup,
            "wall_s": list_time(plain),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_p90_ms": 1e3 * deciles[8],
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {
        "workload": workload,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "rounds": {mode: len(rounds[mode]) for mode in modes},
        "op_samples": len(times),
        "cpu_slowdown": slowdown(plain),
        "raw_wall_s": sum(statistics.median(col) for col in zip(*(r["times"] for r in plain))),
        "notes": notes,
        "metrics": metrics,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seed": seed,
            "input_digest": digests.pop() if len(digests) == 1 else sorted(digests),
            "optimize": sys.flags.optimize,
            "tiny": tiny,
        },
    }


def report(result):
    """Human-readable lines for one measured run."""
    yield (f"workload {result['workload']} trace {result['trace']} rounds {result['rounds']} "
           f"op_samples {result['op_samples']} cpu_slowdown {result['cpu_slowdown']:.3f} "
           f"raw_wall_s {result['raw_wall_s']:.4f}")
    yield "env " + json.dumps(result["env"], sort_keys=True)
    for name, m in result["metrics"].items():
        yield f"{name} {m['value']} {m['unit']}"
    yield f"error_rate {result['error_rate']} ({result['failed']}/{result['attempted']})"
    for note in result["notes"]:
        yield f"failure: {note}"


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, "bench-results.json"), help="results file of --all")
    ap.add_argument("--tiny", action="store_true", help="self-test: tiny inputs")
    ap.add_argument("--corrupt", action="store_true", help="self-test: make every output wrong")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the package's own cross-checks are asserts",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "zscomb", "cli.py")):
        print(f"no zscomb source at {SRC}", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if not args.all:
            result = measure(args.workload, args.seed, seconds, args.trace, args.tiny, args.corrupt)
            for line in report(result):
                print(line)
            keys = ("correct", "attempted", "failed", "metrics")
            print(json.dumps({k: result[k] for k in keys}))
            return 0 if result["correct"] else 1
        results = []
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                result = measure(name, args.seed, seconds, trace, args.tiny, args.corrupt)
                for line in report(result):
                    print(line)
                results.append(result)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    layer_targets = {name: {"unit": unit, "moves": moves, "bypassed_on": bypassed}
                     for name, unit, moves, bypassed in LAYER_METRICS}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    with open(args.out, "w") as fh:
        json.dump({"workload_why": whys, "layer_targets": layer_targets, "runs": results}, fh, indent=1)
    print(f"wrote {args.out}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
