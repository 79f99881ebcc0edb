"""A fixed pure-Python probe of the machine's current speed.

The benchmark shares a few vCPUs of a host whose speed drifts: the same
pass of the same code takes from 2.0 to 3.4 s, in states that switch every
few tens of milliseconds and whose mix changes over minutes.  A
:class:`Meter` runs probe units between the items of a pass, outside their
timing, so the probe sees the same drift as the items around it; every
timing is then scaled to the probe's nominal speed.

The probe is combinatorics of the same kind as the library's (recursive
tuple building, big-integer products, dictionary counts, dominance scans)
but written here, so a change to ``howecorr`` cannot change it.  Nothing
is cached: every call does exactly the same work.
"""

from __future__ import annotations

import gc
import time
from math import factorial

# Seconds one unit takes on an Intel Xeon vCPU with Python 3.11 in the
# host's fast state.  Timings are reported at this speed.
NOMINAL_UNIT_S = 0.033
SHARE = 0.25  # probe time as a share of the item time it follows
EVERY_S = 0.1  # item time that triggers a probe


def _partitions(n: int, max_part: int) -> list:
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return out


def _degree(p: tuple) -> int:
    cols = [sum(1 for part in p if part > j) for j in range(p[0])] if p else []
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(p)) // hooks


def _dominated(x: list, y: list) -> bool:
    tx = ty = 0
    for u, v in zip(x, y):
        tx += u
        ty += v
        if tx > ty:
            return False
    return True


def unit() -> int:
    """One unit of fixed work; returns a checksum so none of it is idle."""
    n = 8
    labels = [
        (alpha, beta)
        for a in range(n, -1, -1)
        for alpha in _partitions(a, a)
        for beta in _partitions(n - a, n - a)
    ]
    flat = [
        [*alpha, *[0] * (n - len(alpha)), *beta, *[0] * (n - len(beta))]
        for alpha, beta in labels
    ]
    counts = {}
    for i, x in enumerate(flat):
        below = sum(1 for y in flat if _dominated(y, x))
        key = (labels[i][0][:1], below % 5)
        counts[key] = counts.get(key, 0) + _degree(labels[i][0]) * _degree(labels[i][1])
    return sum(counts.values())


def units(count: int) -> float:
    """Run ``count`` units with the collector off, so the heap of the
    process around the probe does not change its time; return the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(count):
            unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Probe units in proportion to the item time between them: once
    ``EVERY_S`` of item time has gone by, units for ``SHARE`` of it."""

    def __init__(self):
        self.pending = 0.0
        self.units = 0
        self.seconds = 0.0

    def after(self, item_seconds: float) -> None:
        self.pending += item_seconds
        if self.pending >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        count = max(1, round(SHARE * self.pending / NOMINAL_UNIT_S))
        self.pending = 0.0
        self.seconds += units(count)
        self.units += count

    def scale(self) -> float:
        """Nominal over measured probe speed: the factor that brings a
        time measured in this process to the nominal speed."""
        return NOMINAL_UNIT_S * self.units / self.seconds
