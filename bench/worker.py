"""One measured round of a workload, in a fresh interpreter.

    python3 bench/worker.py MODE WORKLOAD SEED TINY CORRUPT

MODE is `plain` (untraced round), `traced` (round with spans) or `probe`
(the cli-layer reference timings of a traced run).  TINY and CORRUPT are 0
or 1; CORRUPT replaces every output by a deliberately wrong copy before it
is checked, which the self-test uses to prove that every check can fail.

The worker pins itself, and so every CLI child it starts, to one CPU.
The first thing it times is the import of `zscomb.cli`: that is the set-up
time.  It then times each operation, checks each output outside the timed
region, and prints one JSON line for `run.py`.  Every timing comes with the
reference timed around it, to scale it by (see `cpuspeed.py`).
"""

import os
import sys
import time

import cpuspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def main():
    mode, workload, seed, tiny, corrupt = sys.argv[1:6]
    if sys.flags.optimize:
        print("worker refuses to run under python -O", file=sys.stderr)
        return 2
    cpuspeed.pin()
    sys.path.insert(0, SRC)
    ref = cpuspeed.reference()
    t0 = time.perf_counter()
    import zscomb.cli
    setup_s = time.perf_counter() - t0
    setup_ref = (ref + cpuspeed.reference()) / 2

    import json

    import execute
    import workloads
    from run import child_env

    if not os.path.abspath(zscomb.cli.__file__).startswith(SRC + os.sep):
        print(f"zscomb imported from {zscomb.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = workloads.build(workload, int(seed), tiny == "1")
    if mode == "probe":
        out = execute.probe(ops if workload == "cli-mix" else workloads.build("cli-mix", int(seed), tiny == "1"))
    else:
        out = execute.run_round(workload, ops, mode == "traced", corrupt == "1", child_env())
    out["setup_s"] = setup_s
    out["setup_ref"] = setup_ref
    out["digest"] = workloads.digest(ops)
    out["optimize"] = sys.flags.optimize
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
