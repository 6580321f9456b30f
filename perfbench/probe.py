"""Host-speed probe: a fixed stdlib-only reference loop, and the rule that
turns a raw host time into seconds on a reference-speed host.

Shared hosts switch between fast and slow modes, in episodes from tens of
milliseconds to tens of seconds, and CPU time follows wall time, so neither
min-of-N nor CPU time removes the swing.  The probe loop does the kinds of
work the program's hot path does (generator ``send``, tuple ``repr``,
BLAKE2b, dict churn) and imports nothing from ``repro``.

A unit of program work is timed by :meth:`Meter.measure`.  While the unit
runs, a wall-clock interval timer interrupts it every ``SAMPLE_INTERVAL_S``
and takes one probe; one more probe is taken on each side of the unit.  The
probes' own time is subtracted from the unit's raw time, and the remainder
is scaled by ``NOMINAL_PROBE_S * mean(1 / probe)``: the samples are uniform
in wall time, so this is the reference-host time of the work done.  Probes
run with the garbage collector paused, so they never pay for the program's
garbage, and no program code runs inside them, so a slower program always
shows in full.
"""

from __future__ import annotations

import gc
import hashlib
import signal
from time import perf_counter
from typing import Callable, List, Optional, Tuple, TypeVar

#: Probe time on the reference host (2-CPU x86-64 container, CPython 3.11,
#: in its fast mode).  Normalized times are "seconds on a host where one
#: probe takes this long"; the constant only sets the scale.
NOMINAL_PROBE_S = 0.00021

#: Iterations of the reference loop in one probe.
PROBE_ITERS = 150

#: Wall-clock period of the in-unit probe samples.  Host speed decorrelates
#: within ~10 ms, so the samples must be denser than that.
SAMPLE_INTERVAL_S = 0.0025

T = TypeVar("T")


def _accumulator():
    total = 0
    while True:
        total += yield total


def _kernel(iters: int) -> int:
    gen = _accumulator()
    next(gen)
    table = {}
    digest = hashlib.blake2b(digest_size=8)
    for i in range(iters):
        gen.send(i)
        key = repr((i & 63, "p%d" % (i & 7), (i, i >> 3)))
        digest.update(key.encode())
        table[key] = i
        if len(table) > 48:
            table.pop(next(iter(table)))
    return len(table) + digest.digest()[0]


def probe() -> float:
    """Seconds for one reference loop, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel(PROBE_ITERS)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Measurement:
    """One timed unit: wall seconds, probe seconds stolen from it, and the
    probe readings that set its scale."""

    __slots__ = ("wall", "stolen", "probes")

    def __init__(self, wall: float, stolen: float,
                 probes: List[float]) -> None:
        self.wall = wall
        self.stolen = stolen
        self.probes = probes

    @property
    def raw(self) -> float:
        """Host seconds of program work (probe time removed)."""
        return self.wall - self.stolen

    @property
    def scale(self) -> float:
        """Reference-host seconds per host second during the unit."""
        return NOMINAL_PROBE_S * sum(1.0 / p for p in self.probes) / len(
            self.probes)

    @property
    def norm(self) -> float:
        """Reference-host seconds of program work."""
        return self.raw * self.scale


class Meter:
    """Times units of work against the probe.  The probe taken after a unit
    also serves as the probe before the next one.

    ``on_sample(start, end)``, when given, is told the span of every in-unit
    probe, so a tracer can show probe time as its own span.
    """

    def __init__(self, on_sample: Optional[Callable[[float, float], None]]
                 = None) -> None:
        for __ in range(20):
            probe()  # warm the loop before the first real reading
        self.last_probe = probe()
        self.readings: List[float] = [self.last_probe]
        self.on_sample = on_sample
        self._samples: List[float] = []
        self._stolen = 0.0
        self._busy = False

    @property
    def stolen(self) -> float:
        """Probe seconds taken inside the unit being measured so far."""
        return self._stolen

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a slow probe is dropped
            return
        self._busy = True
        start = perf_counter()
        self._samples.append(probe())
        end = perf_counter()
        self._stolen += end - start
        if self.on_sample is not None:
            self.on_sample(start, end)
        self._busy = False

    def measure(self, fn: Callable[[], T]) -> Tuple[T, Measurement]:
        """Run ``fn`` once under the sampler.  A full collection runs
        before the timed call, so no unit pays for its predecessor's
        garbage."""
        before = self.last_probe
        self._samples = []
        self._stolen = 0.0
        gc.collect()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = probe()
        self.last_probe = after
        self.readings.extend(self._samples)
        self.readings.append(after)
        return result, Measurement(end - start, self._stolen,
                                   [before] + self._samples + [after])
