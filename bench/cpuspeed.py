"""Timings scaled to a fixed CPU speed.

On a shared host a virtual CPU runs at a speed that shifts with the load
of other guests on its host core: in states that last from seconds to
many minutes, the same pure-Python work takes anywhere from 1 to about
1.8 times as long.  A raw timing therefore moves with the host as much as
with the program.

So every timed call is bracketed by a short fixed piece of pure-Python
work, the reference, timed right before and right after the call on the
CPU that runs it (the round process pins itself, and so every child it starts, to
one CPU).  A call's time is scaled by `REFERENCE_S` over the mean of its
two references: it reads as the time the call takes on a CPU that runs the
reference in `REFERENCE_S` seconds.  The raw times stay in the round
records, and `run.py` prints how fast the CPU ran (`cpu_slowdown`).

Nothing here imports zscomb: the worker times a reference before it
imports the program.
"""

import os
from time import perf_counter

REFERENCE_LOOPS = 10000
REFERENCE_ITEMS = 1500
REFERENCE_LABELS = 1400
# The reference's time on one core of a 2-vCPU x86-64 cloud VM at full
# speed (CPython 3.11), so scaled times read close to that machine's.
REFERENCE_S = 0.0016


def pin():
    """Pin this process, and the children it starts, to one CPU, so that
    each reference is timed on the CPU that runs the call it brackets."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: stay unpinned
        pass


def _digits(label):
    out = []
    for n in (3, 5, 7):
        out.append(label % n)
        label //= n
    return tuple(out)


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kinds the
    program does: an integer loop; tuples, a dict and a sort; mixed-radix
    digits through small function calls.  No single kind slows with the
    host's load the way every operation does (big-integer work hardly
    slows, call-heavy work slows most), so the reference mixes them."""
    t0 = perf_counter()
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    pairs = [(i * 7919 % 2003, i) for i in range(REFERENCE_ITEMS)]
    table = {}
    for k, v in pairs:
        table[k] = table.get(k, 0) + v
    pairs.sort()
    tuple(_digits(i) for i in range(REFERENCE_LABELS))
    return perf_counter() - t0


def scaled(seconds: float, ref: float) -> float:
    """A time taken while the reference took ref seconds, at REFERENCE_S."""
    return seconds * REFERENCE_S / ref
