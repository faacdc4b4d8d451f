"""Host-speed correction and the order statistics the benchmark reports.

The host this benchmark was tuned on drifts by about 20% in CPU speed
over a few seconds, with no steal time reported and no hardware
counters to fall back on.  Every unit of timed work is therefore
bracketed by a fixed probe: an allocation-free pure-Python loop run with
the garbage collector disabled (the median of three short loops).  A unit's seconds are scaled by
``PROBE_REF_S / probe_now``, where ``probe_now`` is the mean of the
probes on either side of it, so a slow stretch of host time stretches
the probe and the unit alike and cancels out.  The probe's own time is
never part of a unit.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import List, Sequence, Tuple

#: Iterations of one probe loop (about 1 ms on the reference host).
PROBE_LOOPS = 20_000

#: Loops per probe; the probe is their median, so one loop that the
#: host preempts does not stand for the host's speed.
PROBE_REPEATS = 3

#: Probe time at reference host speed: the median probe on the 2-vCPU
#: host the bounds in BENCHMARK.json were tuned on.  Corrected seconds
#: are "seconds as that host would take them at its median speed".
PROBE_REF_S = 0.0010


def _loop(loops: int) -> float:
    started = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i & 7
    return time.perf_counter() - started


def probe(loops: int = PROBE_LOOPS, repeats: int = PROBE_REPEATS) -> float:
    """Seconds one fixed probe loop takes right now (median of
    ``repeats`` loops, run with the garbage collector disabled)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_loop(loops) for _ in range(repeats))
    finally:
        if enabled:
            gc.enable()


def correction(probe_before: float, probe_after: float,
               ref: float = PROBE_REF_S) -> float:
    """Factor that converts a unit's raw seconds to reference speed."""
    now = (probe_before + probe_after) / 2.0
    if now <= 0.0:
        raise ValueError("probe times must be positive")
    return ref / now


class HostClock:
    """Times a chain of units, each bracketed by probes.

    ``lap()`` ends the current unit, probes, and starts the next unit
    after the probe; the probe that ends one unit opens the next.
    Every lap returns ``(raw_s, factor)``; the clock keeps them all in
    :attr:`laps` and every probe time in :attr:`probes`.
    """

    def __init__(self, probe_fn=probe):
        self._probe = probe_fn
        self.laps: List[Tuple[float, float]] = []
        self.probes: List[float] = []
        self.restart()

    def restart(self) -> None:
        """Probe and start a new unit (after untimed work)."""
        self._last_probe = self._probe()
        self.probes.append(self._last_probe)
        self._started = time.perf_counter()

    def lap(self) -> Tuple[float, float]:
        raw = time.perf_counter() - self._started
        after = self._probe()
        self.probes.append(after)
        factor = correction(self._last_probe, after)
        self._last_probe = after
        self.laps.append((raw, factor))
        self._started = time.perf_counter()
        return raw, factor

    def raw_s(self) -> float:
        return sum(raw for raw, _ in self.laps)

    def corrected_s(self) -> float:
        return sum(raw * factor for raw, factor in self.laps)


# ----------------------------------------------------------------------
# Order statistics.
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile (an observed sample)."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values: Sequence[float], pct: float) -> int:
    """How many samples lie above the nearest-rank ``pct`` percentile's
    rank (the tail the percentile rests on)."""
    return len(values) - max(1, math.ceil(pct / 100.0 * len(values)))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's
    steadiness measure, via ``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
