"""Machine-speed probe and timings rescaled to a reference speed.

The benchmark runs on small shared VMs whose speed drifts: the same
code runs up to 1.6x slower for seconds to minutes at a time, with CPU
time moving together with wall time. A fixed pure-Python loop (the
probe) slows down with it. Every timing the benchmark reports is
therefore rescaled to the speed at which the probe takes
``REFERENCE_PROBE_MS``: a time measured while the probe takes twice as
long is halved. The probe shares nothing with the engine, so an engine
that does more or less work still reads slower or faster by the same
factor; only the host's drift cancels. Raw timings are kept beside the
rescaled ones in each result file.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence

# The probe's median on a 2-vCPU x86-64 VM under CPython 3.11 at that
# VM's usual speed; reported times are at this speed.
REFERENCE_PROBE_MS = 1.2
PROBE_LOOP = 3500
# Probes run at each set-up checkpoint.
CHECKPOINT_PROBES = 5


def probe_ms() -> float:
    """One run of a fixed pure-Python loop over ints and a dict, about
    1.2 ms. It allocates no object the garbage collector tracks, so it
    never triggers (or absorbs) a collection the engine's own
    allocations would cause.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for value in range(PROBE_LOOP):
        key = (value * 7919) % 1009
        total = (total + key * value) & 0xFFFFFF
        table[key] = table.get(key, 0) ^ total
    return (time.perf_counter() - started) * 1000.0


def speed_factor(probes: Sequence[float]) -> float:
    """Reference probe time over the median of ``probes`` (1 if none)."""
    probes = [probe for probe in probes if probe > 0]
    return REFERENCE_PROBE_MS / statistics.median(probes) if probes else 1.0


class Clock:
    """Times a multi-step job (a set-up) at the reference speed.

    ``lap(phase)`` ends a step: it runs a few probes, scales the step's
    raw seconds by the probes taken just before and just after it, and
    adds both to the totals. Probe time is never part of a step.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.phases: Dict[str, float] = {}
        self._before: List[float] = self._probes()
        self._started = time.perf_counter()

    @staticmethod
    def _probes() -> List[float]:
        return [probe_ms() for _ in range(CHECKPOINT_PROBES)]

    def lap(self, phase: Optional[str] = None) -> None:
        elapsed = time.perf_counter() - self._started
        after = self._probes()
        self.seconds += elapsed * speed_factor(self._before + after)
        self.raw_seconds += elapsed
        if phase is not None:
            self.phases[phase] = self.phases.get(phase, 0.0) + elapsed
        self._before = after
        self._started = time.perf_counter()
