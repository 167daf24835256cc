"""Event queue and simulation clock.

A deliberately small, deterministic discrete-event core:

* events are ``(time, priority, sequence)``-ordered, so simultaneous events
  fire in a stable, reproducible order (insertion order within a priority);
* cancellation is handled lazily with tombstones (O(1) cancel, amortized
  cleanup on pop), the standard idiom for heap-backed schedulers;
* the simulator never advances past an explicit horizon, which lets callers
  interleave simulation with measurement (``run_until``).

The heap holds plain ``(time, priority, seq, callback, event)`` tuples
rather than ordered event instances: tuple comparison is a single C-level
call, where object ordering goes through a Python-level ``__lt__`` — at
millions of push/pop comparisons per run the difference is measurable.
The :class:`Event` payload itself is slotted and never compared in this
mode (``seq`` is unique, so tuple comparison stops before reaching it).
Fire-and-forget callers that never cancel (the bulk of message
deliveries) can skip the Event allocation entirely via
:meth:`Simulator.schedule_fire_in`, which pushes ``event = None``.
A callback that will almost certainly be cancelled (a request timeout)
need not be queued at all: :meth:`Simulator.reserve_seq` holds its place
in the order and :meth:`Simulator.schedule_reserved` queues it under that
place once it is known to be needed.

``REPRO_INCREMENTAL_TREE=0`` (the PR-ablation baseline, read at
construction) restores the pre-optimization representation — Event
objects compared directly in the heap via :meth:`Event.__lt__` on the
same ``(time, priority, seq)`` key — so perf snapshots can measure what
the tuple layout buys.  Both layouts order events identically, so results
are bit-for-bit the same.

The engine knows nothing about networks or protocols; everything above it
talks in callbacks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from repro.util.envflags import incremental_tree_enabled


class Event:
    """A scheduled callback.  Ordered by (time, priority, seq) in the queue."""

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "label")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark this event so it is skipped when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        # Only exercised by the legacy (non-tuple) heap layout.
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, prio={self.priority}, seq={self.seq}{state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("b"))
    >>> _ = sim.schedule(1.0, lambda: fired.append("a"))
    >>> sim.run()
    2
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self._tuple_heap = incremental_tree_enabled()
        self._queue: list = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._events_scheduled = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Sequence numbers issued: every event queued, plus every place
        held by :meth:`reserve_seq` whether or not it was queued later."""
        return self._events_scheduled

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``.

        ``time`` must not precede the current clock.  Lower ``priority``
        values fire first among events at the same instant.
        """
        if time != time:  # NaN check without a function call per schedule
            raise ValueError("event time must not be NaN")
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        ev = Event(time, priority, next(self._seq), callback, label=label)
        self._push(time, priority, ev.seq, callback, ev)
        return ev

    def _push(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        event: Event,
    ) -> None:
        """Heap insertion for the :class:`Event`-carrying entry points
        (:meth:`schedule`, :meth:`schedule_cancellable_in`): tuple-vs-legacy
        layout dispatch plus the issued-seq counter.  The two hot-path
        entry points push their bare tuples themselves
        (:meth:`schedule_fire_in`, :meth:`schedule_reserved`).  Private to
        this module: :mod:`repro.sim.batched` mirrors the ``(time,
        priority, seq)`` order with its own counter and never calls in."""
        if self._tuple_heap:
            heapq.heappush(self._queue, (time, priority, seq, callback, event))
        else:
            heapq.heappush(self._queue, event)
        self._events_scheduled += 1

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` after ``delay`` time units (>= 0)."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, callback, priority=priority, label=label)

    def schedule_fire_in(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> None:
        """Schedule a fire-and-forget callback after ``delay`` time units.

        Hot-path variant of :meth:`schedule_in` for callers that never
        cancel: no :class:`Event` is allocated, the bare callback rides
        in the heap tuple.  Consumes a sequence number exactly like
        :meth:`schedule`, so event ordering is identical whichever entry
        point scheduled a given callback.  Falls back to
        :meth:`schedule_in` under the legacy (ablation) heap layout.
        """
        if not self._tuple_heap:
            self.schedule_in(delay, callback, priority=priority)
            return
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        if time != time:  # NaN check without a function call per schedule
            raise ValueError("event time must not be NaN")
        heapq.heappush(
            self._queue, (time, priority, next(self._seq), callback, None)
        )
        self._events_scheduled += 1

    def reserve_seq(self) -> int:
        """Issue the next sequence number without queueing anything.

        For a callback that is decided *now* but may never need to run (a
        request timeout whose reply is on its way): the caller holds its
        place in the ``(time, priority, seq)`` order and queues it later
        through :meth:`schedule_reserved` — or never.  Counted in
        :attr:`events_scheduled` (sequence numbers issued) either way, so
        the counter reads the same as if the event had been pushed and
        cancelled.
        """
        self._events_scheduled += 1
        return next(self._seq)

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        """Queue a fire-and-forget ``callback`` at absolute ``time``,
        priority 0, under a sequence number from :meth:`reserve_seq`.

        It fires exactly where an event scheduled at the reservation
        would have, provided it is queued before the clock reaches
        ``(time, 0, seq)``; a ``time`` already in the past is refused.
        Works on both heap layouts.
        """
        if time != time:  # NaN check without a function call per schedule
            raise ValueError("event time must not be NaN")
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        if self._tuple_heap:
            heapq.heappush(self._queue, (time, 0, seq, callback, None))
        else:
            heapq.heappush(self._queue, Event(time, 0, seq, callback))

    def schedule_cancellable_in(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule a cancellable callback after ``delay`` time units.

        Hot-path variant of :meth:`schedule_in` for callers that *do*
        cancel (the service clock's timers): same validation and
        sequence-number consumption, but one call layer instead of two and
        no label.
        Falls back to :meth:`schedule_in` under the legacy heap layout.
        """
        if not self._tuple_heap:
            return self.schedule_in(delay, callback, priority=priority)
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        if time != time:  # NaN check without a function call per schedule
            raise ValueError("event time must not be NaN")
        ev = Event(time, priority, next(self._seq), callback)
        self._push(time, priority, ev.seq, callback, ev)
        return ev

    def peek_time(self) -> float:
        """Time of the next live event, or +inf when the queue is drained."""
        self._drop_cancelled()
        if not self._queue:
            return math.inf
        head = self._queue[0]
        return head[0] if self._tuple_heap else head.time

    def _drop_cancelled(self) -> None:
        queue = self._queue
        if self._tuple_heap:
            while queue:
                ev = queue[0][4]
                if ev is None or not ev.cancelled:
                    break
                heapq.heappop(queue)
        else:
            while queue and queue[0].cancelled:
                heapq.heappop(queue)

    def _fire(self, ev: Event) -> None:
        self._now = ev.time
        self._events_processed += 1
        ev.callback()

    def _fire_next(self) -> None:
        """Pop and run the head entry (caller guarantees one is live)."""
        entry = heapq.heappop(self._queue)
        if self._tuple_heap:
            self._now = entry[0]
            self._events_processed += 1
            entry[3]()
        else:
            self._now = entry.time
            self._events_processed += 1
            entry.callback()

    def step(self) -> bool:
        """Run the next live event.  Returns False when none remain."""
        self._drop_cancelled()
        if not self._queue:
            return False
        self._fire_next()
        return True

    def run(self, *, max_events: int | None = None) -> int:
        """Run until the queue drains (or ``max_events``).  Returns count run."""
        count = 0
        while True:
            self._drop_cancelled()
            if not self._queue:
                break
            self._fire_next()
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def run_until(self, horizon: float, *, max_events: int | None = None) -> int:
        """Run all events with time <= ``horizon``, then set clock to horizon.

        Events scheduled exactly at the horizon do fire.  The clock ends at
        ``horizon`` even if the queue drained earlier, so measurement code
        can rely on ``sim.now``.
        """
        if horizon < self._now:
            raise ValueError(
                f"horizon {horizon} precedes current time {self._now}"
            )
        count = 0
        if self._tuple_heap:
            # Pop-first loop: popping and inspecting the entry once beats
            # peeking the head (two subscripts) and popping it again.  An
            # entry past the horizon is pushed back — once per call, not
            # per event.
            queue = self._queue
            pop = heapq.heappop
            while queue:
                entry = pop(queue)
                if entry[0] > horizon:
                    heapq.heappush(queue, entry)
                    break
                ev = entry[4]
                if ev is not None and ev.cancelled:
                    continue
                self._now = entry[0]
                self._events_processed += 1
                entry[3]()
                count += 1
                if max_events is not None and count >= max_events:
                    return count
        else:
            queue = self._queue
            while True:
                while queue and queue[0].cancelled:
                    heapq.heappop(queue)
                if not queue or queue[0].time > horizon:
                    break
                self._fire(heapq.heappop(queue))
                count += 1
                if max_events is not None and count >= max_events:
                    return count
        self._now = horizon
        return count
