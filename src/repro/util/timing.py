"""Wall-clock instrumentation for the experiment harness.

One tiny primitive — :class:`Stopwatch` — behind the per-group build
times :func:`repro.harness.experiments.group_timings` reports.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Stopwatch() as sw:
    ...     do_work()
    >>> sw.elapsed  # seconds, float
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> float:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._start = None
        return self.elapsed
