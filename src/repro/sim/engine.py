"""Event queue and simulation clock.

A deliberately small, deterministic discrete-event core:

* events are ``(time, priority, sequence)``-ordered, so simultaneous events
  fire in a stable, reproducible order (insertion order within a priority);
* cancellation is handled lazily with tombstones (O(1) cancel, amortized
  cleanup on pop), the standard idiom for heap-backed schedulers;
* the simulator never advances past an explicit horizon, which lets callers
  interleave simulation with measurement (``run_until``);
* a client that must react between events (the service runtime) runs
  bursts with ``run_burst``: the same inlined loop, stopped by a halt
  flag instead of a horizon.

The heap holds plain ``(time, priority, seq, callback, event)`` tuples
rather than ordered event instances: tuple comparison is a single C-level
call, where object ordering goes through a Python-level ``__lt__`` — at
millions of push/pop comparisons per run the difference is measurable.
The :class:`Event` payload itself is slotted and never compared (``seq``
is unique, so tuple comparison stops before reaching it).
Fire-and-forget callers that never cancel (the bulk of message
deliveries) can skip the Event allocation entirely via
:meth:`Simulator.schedule_fire_in`, which pushes ``event = None``.
A callback that will almost certainly be cancelled (a request timeout)
need not be queued at all: :meth:`Simulator.reserve_seq` holds its place
in the order and :meth:`Simulator.schedule_reserved` queues it under that
place once it is known to be needed.

The clock, :attr:`Simulator.now`, is a plain attribute only the run loops
write (the runtime reads it on every message leg).  One integer numbers
events; it is also :attr:`Simulator.events_scheduled`.  Inputs that would
break run control or the event order are a ``ValueError`` naming the
parameter, raised before anything fires or moves.

The engine knows nothing about networks or protocols; everything above it
talks in callbacks.
"""

from __future__ import annotations

import heapq
import math
from numbers import Integral
from typing import Callable

from repro.util.validation import check_count


def _check_priority(priority) -> None:
    """Refuse a priority that would not order like an integer (NaN, a
    string) or that hides a flag (a bool).  Callers skip the call for the
    default priority 0."""
    if isinstance(priority, bool) or not isinstance(priority, Integral):
        raise ValueError(f"priority must be an integer, got {priority!r}")


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
        self._queue: list = []
        #: Current simulation time; read-only, written by the run loops.
        self.now = 0.0
        self._next_seq = 0  # the next sequence number, and the count issued
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Sequence numbers issued: every event queued, plus every place
        held by :meth:`reserve_seq` whether or not it was queued later."""
        return self._next_seq

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
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        if priority:
            _check_priority(priority)
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, priority, seq, callback, label=label)
        heapq.heappush(self._queue, (time, priority, seq, callback, ev))
        return ev

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` after ``delay`` time units (>= 0).

        Validates and pushes itself rather than calling :meth:`schedule`:
        the service runtime arms and cancels one of these per timer.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        time = self.now + delay
        if time != time:  # NaN check without a function call per schedule
            raise ValueError("event time must not be NaN")
        if priority:
            _check_priority(priority)
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, priority, seq, callback, label=label)
        heapq.heappush(self._queue, (time, priority, seq, callback, ev))
        return ev

    def schedule_fire_in(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> None:
        """Schedule a fire-and-forget callback after ``delay`` time units.

        Hot-path variant of :meth:`schedule_in` for callers that never
        cancel: no :class:`Event` is allocated, the bare callback rides
        in the heap tuple.  Consumes a sequence number exactly like
        :meth:`schedule`, so event ordering is identical whichever entry
        point scheduled a given callback.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        time = self.now + delay
        if time != time:  # NaN check without a function call per schedule
            raise ValueError("event time must not be NaN")
        if priority:
            _check_priority(priority)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (time, priority, seq, callback, None))

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
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        """Queue a fire-and-forget ``callback`` at absolute ``time``,
        priority 0, under a sequence number from :meth:`reserve_seq`.

        It fires exactly where an event scheduled at the reservation
        would have, provided it is queued before the clock reaches
        ``(time, 0, seq)``; a ``time`` already in the past is refused, and
        so is a ``seq`` never issued.
        """
        if time != time:  # NaN check without a function call per schedule
            raise ValueError("event time must not be NaN")
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        if not 0 <= seq < self._next_seq:
            raise ValueError(f"seq {seq!r} was never issued by reserve_seq")
        heapq.heappush(self._queue, (time, 0, seq, callback, None))

    def peek_time(self) -> float:
        """Time of the next live event, or +inf when the queue is drained."""
        self._drop_cancelled()
        if not self._queue:
            return math.inf
        return self._queue[0][0]

    def _drop_cancelled(self) -> None:
        queue = self._queue
        while queue:
            ev = queue[0][4]
            if ev is None or not ev.cancelled:
                break
            heapq.heappop(queue)

    def _fire_next(self) -> None:
        """Pop and run the head entry (caller guarantees one is live)."""
        entry = heapq.heappop(self._queue)
        self.now = entry[0]
        self._events_processed += 1
        entry[3]()

    def step(self) -> bool:
        """Run the next live event.  Returns False when none remain."""
        self._drop_cancelled()
        if not self._queue:
            return False
        self._fire_next()
        return True

    def run(self, *, max_events: int | None = None) -> int:
        """Run until the queue drains (or ``max_events``).  Returns count run."""
        if max_events is not None:
            max_events = check_count("max_events", max_events, 0)
        count = 0
        while count != max_events:
            self._drop_cancelled()
            if not self._queue:
                break
            self._fire_next()
            count += 1
        return count

    def run_until(self, horizon: float, *, max_events: int | None = None) -> int:
        """Run all events with time <= ``horizon``, then set clock to horizon.

        Events scheduled exactly at the horizon do fire.  The clock ends at
        ``horizon`` even if the queue drained earlier, so measurement code
        can rely on ``sim.now`` — unless ``max_events`` stopped the run
        first, which leaves the clock at the last event fired.
        """
        if horizon != horizon:
            raise ValueError("horizon must not be NaN")
        if horizon < self.now:
            raise ValueError(
                f"horizon {horizon} precedes current time {self.now}"
            )
        if max_events is not None:
            max_events = check_count("max_events", max_events, 0)
            if max_events == 0:
                return 0
        count = 0
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
            self.now = entry[0]
            self._events_processed += 1
            entry[3]()
            count += 1
            if count == max_events:
                return count
        self.now = horizon
        return count

    def run_burst(self, flag) -> int:
        """Run events until one sets ``flag.halt``, or no live event remains.

        ``run_until``'s loop with a different stop test: ``flag`` is any
        object with a ``halt`` attribute, read after every event — the
        service runtime, which halts a burst when an event wakes one of
        its reactions or a drain is requested.  Returns the number of
        events fired; an empty (or all-tombstone) queue returns 0 and
        leaves the clock where it was.
        """
        queue = self._queue
        pop = heapq.heappop
        count = 0
        while queue:
            entry = pop(queue)
            ev = entry[4]
            if ev is not None and ev.cancelled:
                continue
            self.now = entry[0]
            self._events_processed += 1
            count += 1
            entry[3]()
            if flag.halt:
                break
        return count
