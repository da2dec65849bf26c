"""The reference kernel: how fast is this machine *right now*?

The sandbox this benchmark runs on is a couple of cores of a shared host,
and the time the same Python work takes on it drifts by tens of per cent
in epochs that last longer than a run (README, "The calibrated clock").
No statistic of one run can average that away, so the timed run measures
the drift instead: between slices of load it times a fixed piece of work
— this kernel — and reports every duration on a clock that runs at the
kernel's pace, i.e. in seconds of a machine on which one kernel call
takes :data:`NOMINAL_MS`.

The kernel belongs to the benchmark and calls nothing of the program
under test, so no change to the program can move it.  It does what the
program's hot paths do — builds and indexes tuples, dicts and strings,
sorts, sums floats, and round-trips JSON — over a working set that fits
the L2 cache, so it slows down with the machine in about the proportion
the server does (measured: README).
"""

from __future__ import annotations

import gc
import json
import statistics
import time

__all__ = ["NOMINAL_MS", "SENSITIVITY", "kernel", "pace_ms", "slowdown"]

#: One kernel call on this sandbox when it is quiet.  Only a scale: it
#: makes calibrated seconds read like wall-clock seconds on a quiet box.
NOMINAL_MS = 0.62

#: The program slows down a little less than the kernel does: the kernel
#: lives in the core's private caches, which is what a busy neighbour
#: costs most, while the program also spends time on work a neighbour
#: costs less (walks of tables larger than any cache, waits).  Fitted
#: once over 100 runs of the four workloads — the spread of calibrated
#: throughput is smallest, and flat, between 0.8 and 0.9 (README).
SENSITIVITY = 0.85

#: Wall-clock budget of one pace sample.
SAMPLE_S = 0.08


def kernel(rows: int = 300) -> int:
    """A fixed amount of interpreter-bound, allocation-heavy work."""
    table = [
        (f"P{i:04d}", ("a", "b", "c")[i % 3], i * 0.37 % 1.0,
         {"k": i, "v": [i, i + 1]})
        for i in range(rows)
    ]
    groups: "dict[str, list]" = {}
    for row in table:
        groups.setdefault(row[1], []).append(row)
    total = 0.0
    for members in groups.values():
        members.sort(key=lambda row: row[2])
        total += sum(row[2] for row in members)
    decoded = json.loads(json.dumps([row[3] for row in table]))
    return len(decoded) + int(total)


def pace_ms(budget_s: float = SAMPLE_S) -> float:
    """Milliseconds per kernel call: the median of the calls that fit
    into *budget_s* (after one untimed call that warms the caches).

    The median, because it reads the *machine*: a call that was preempted
    — by the server's own background threads, which share this CPU, or by
    anything else — is an outlier and is ignored, so work the program
    does on the side is never mistaken for a slow machine and calibrated
    away.  The collector is off meanwhile: its passes over the caller's
    heap would be the caller's pace, not the machine's.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        kernel()
        clock = time.perf_counter
        calls = []
        started = ended = clock()
        while ended - started < budget_s:
            begun = ended
            kernel()
            ended = clock()
            calls.append(ended - begun)
        return statistics.median(calls) * 1000.0
    finally:
        if collecting:
            gc.enable()


def slowdown(before_ms: float, after_ms: float) -> float:
    """How much slower than on the nominal machine the *program* ran
    between two pace samples; a wall-clock duration ÷ this is its
    calibrated duration."""
    return ((before_ms + after_ms) / (2.0 * NOMINAL_MS)) ** SENSITIVITY
