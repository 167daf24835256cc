"""Host-speed calibration: a frozen reference kernel timed around every unit.

The box this benchmark was built on (2 vCPU, shared host) runs the *same*
deterministic work 1.3-1.5x slower for stretches of seconds to minutes,
with ``process_time`` tracking ``perf_counter`` — the CPU itself slows
down, below the guest.  No estimator over repeats inside one run undoes an
epoch that outlasts the run, so host time is measured *relative to a
reference kernel* sampled right before and right after every timed call:

    calibrated seconds = raw seconds / (mean adjacent kernel seconds) x REFERENCE_S

The kernel is a miniature of what the simulator does all day — a heap of
``(time, prio, seq, callback, None)`` tuples, closures, dict traffic,
float arithmetic — and it is frozen here, outside ``src/``: a change to
the program cannot move it.  ``REFERENCE_S`` is the kernel's quiet-host
cost on the box the first baseline was taken on, so calibrated seconds
read as "seconds on that box at full speed".  On a 10-minute trace of one
repeated session the inter-quartile spread of 10 s window medians fell
from 27 % (raw) to 4.6 % (calibrated); for a numpy-heavy static tree
build, from 36 % to 6.9 %.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import NamedTuple

__all__ = ["REFERENCE_S", "Timing", "reference_kernel", "sample", "timed"]

#: quiet-host wall seconds of one :func:`reference_kernel` pass on the
#: baseline box (the fastest of ~2000 passes, 2026-09-28)
REFERENCE_S = 0.0181

_EVENTS = 12_000


def reference_kernel(events: int = _EVENTS) -> float:
    """One pass of the frozen mini event loop; returns its checksum."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    state: dict[int, float] = {}
    acc = [0.0]

    def make(i: int):
        def fire() -> None:
            acc[0] += state.get(i & 255, 0.0) * 0.5 + 1.0
            state[i & 255] = acc[0] % 7.0

        return fire

    for i in range(events):
        push(heap, ((i * 0.37) % 11.0, 0, i, make(i), None))
    while heap:
        pop(heap)[3]()
    return acc[0]


def sample() -> tuple[float, float]:
    """(wall, cpu) seconds of one kernel pass.

    The cyclic collector is paused for the pass: the kernel makes no
    cycles, but its allocations would otherwise trigger collections whose
    cost is the size of the *caller's* heap, not the speed of the host.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if gc_was_enabled:
            gc.enable()


class Timing(NamedTuple):
    """One timed call with the mean of its two adjacent kernel samples."""

    wall: float
    cpu: float
    ref_wall: float
    ref_cpu: float

    @property
    def wall_cal(self) -> float:
        return self.wall / self.ref_wall * REFERENCE_S

    @property
    def cpu_cal(self) -> float:
        return self.cpu / self.ref_cpu * REFERENCE_S


def timed(call, before: tuple[float, float]):
    """Run ``call()`` between two kernel samples.

    ``before`` is the kernel sample taken just ahead of the call (the
    previous call's trailing sample is reused, so a sequence of calls
    costs one kernel pass each).  Returns ``(result, Timing, after)``;
    an exception from ``call`` propagates with nothing recorded.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = call()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    after = sample()
    return (
        result,
        Timing(
            wall,
            cpu,
            (before[0] + after[0]) / 2.0,
            (before[1] + after[1]) / 2.0,
        ),
        after,
    )
