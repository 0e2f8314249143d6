"""Arithmetic shared by the benchmark: percentiles, failure ratios, span self time.

Kept free of any import of the library so it can be tested on synthetic
inputs alone (see ``test_bench_arith.py``).
"""

from __future__ import annotations

import math
from statistics import median

def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    if n < 1:
        return 0
    return n - math.ceil(pct / 100.0 * n)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(math.ceil(pct / 100.0 * len(xs)), 1)
    return float(xs[rank - 1])


def failed_frac(outcomes) -> float:
    """Share of attempted tasks that failed.

    ``outcomes`` holds one entry per attempted task: ``None`` for a task
    that passed, or a short reason string for one that raised, exited
    non-zero, or failed its correctness check.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no tasks attempted")
    return sum(o is not None for o in outcomes) / len(outcomes)


PROBE_WINDOW = 3  # probes on each side of a task that set its host factor


def host_factors(probes, ref: float):
    """Per-task factors that rescale wall times to a reference host speed.

    ``probes`` holds n + 1 timings of a fixed probe for n tasks: probe j
    ran just before task j and probe j + 1 just after it.  Task j gets
    ``ref`` over the median of the up to ``2 * PROBE_WINDOW`` probes nearest
    to it, so one disturbed probe does not move the factor.
    """
    n = len(probes) - 1
    return [ref / median(probes[max(0, j + 1 - PROBE_WINDOW): j + 1 + PROBE_WINDOW])
            for j in range(n)]


def self_times(spans):
    """Self time of every span: its duration minus its direct children's.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent`` is
    the index of the enclosing span or ``None``.  Spans come from one
    thread and nest strictly, so children never overlap.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
