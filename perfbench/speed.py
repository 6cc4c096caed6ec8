"""Host-speed probe: rescales measured wall times to a reference host speed.

The hosts this benchmark runs on are shared, and their speed drifts by
tens of percent over seconds to minutes while the program's work stays
the same.  A timing taken at one moment and another taken minutes later
therefore differ by more than any change worth detecting.  The benchmark
runs a fixed probe kernel -- interpreter loops and small numpy
operations, the mix the program itself runs -- right before every
``SlamShareServer.process_frame`` call and around each set-up, and
rescales every wall time by ``REFERENCE_PROBE_S / local probe time``.

The probe is the benchmark's own code, and it is timed on its second
pass, with its small working set back in cache, so that the program's
cache footprint does not move it: a program that gets faster still
reads faster.  A rescaled time reads as a wall time on a host running
at reference speed; the raw walls are printed beside them.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

_now = time.perf_counter

# The probe's median time in a tight loop on a 2-core x86-64 host
# (Python 3.11, numpy 2.4); rescaled times read as walls at that speed.
REFERENCE_PROBE_S = 2.3e-4
# Probes on each side of an event whose median gives its local speed.
HALF_WINDOW = 8

_rng = np.random.default_rng(0x5EED)
_MAT = _rng.standard_normal((24, 24))
_WORDS = _rng.integers(0, 2**63, size=(64, 4), dtype=np.uint64)
_POINTS = _rng.standard_normal((256, 3))


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(600):
        table[i & 31] = acc
        acc += (i * 0.5) % 7.0
    for _ in range(8):
        acc += float((_MAT @ _MAT).trace())
    x = np.bitwise_xor(_WORDS[:, None, :], _WORDS[None, :16, :])
    acc += float(np.count_nonzero(x & np.uint64(0xFF)))
    d = np.linalg.norm(_POINTS - _POINTS[7], axis=1)
    acc += float(np.sort(d)[:8].sum())
    return acc


class SpeedProbe:
    """Probe samples ``(start, duration)`` taken during one measured span."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []   # the timed second passes
        self.spent: List[float] = []       # both passes

    def sample(self) -> None:
        start = _now()
        _kernel()
        second = _now()
        _kernel()
        end = _now()
        self.starts.append(start)
        self.durations.append(end - second)
        self.spent.append(end - start)

    def sample_n(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    @property
    def total_s(self) -> float:
        return float(sum(self.spent))

    def factors(self) -> np.ndarray:
        """Per-probe ``REFERENCE_PROBE_S / local probe time`` (rolling median)."""
        d = np.asarray(self.durations, dtype=float)
        local = np.array([np.median(d[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
                          for i in range(len(d))])
        return REFERENCE_PROBE_S / local

    def factor(self) -> float:
        """One factor for the whole span: the median probe time's."""
        return REFERENCE_PROBE_S / float(np.median(self.durations))

    def rescale_events(self, events: Sequence[Tuple[float, float]]) -> List[float]:
        """Rescale ``(start, duration)`` events by the speed around each."""
        if not events:
            return []
        factors = self.factors()
        starts = np.asarray(self.starts)
        out = []
        for start, duration in events:
            i = min(max(int(np.searchsorted(starts, start, side="right")) - 1, 0),
                    len(factors) - 1)
            out.append(duration * float(factors[i]))
        return out

    def rescale_span(self, start: float, end: float) -> float:
        """Rescale the wall ``[start, end)`` less the probes inside it."""
        if not self.starts:
            raise ValueError("no probe samples in the span")
        factors = self.factors()
        edges = [start, *self.starts[1:], end]
        total = 0.0
        for i, factor in enumerate(factors):
            gap = edges[i + 1] - edges[i] - self.spent[i]
            total += max(gap, 0.0) * float(factor)
        return total
