"""Asyncio-awaitable timers backed by the discrete-event simulator.

The service's coroutines never touch the wall clock: every ``sleep`` and
every timeout registers a cancellable event on the session's
:class:`~repro.sim.engine.Simulator` and suspends on an asyncio future
the event resolves.  A timer firing is a simulator→asyncio *crossing*,
so :meth:`VirtualClock._fire` bumps the shared pulse: that is what ends
the driver's synchronous burst of simulator events and makes it yield
to the loop (see :mod:`repro.service.runtime`).  Awaiting
``clock.sleep(5)`` therefore costs zero wall time and — more
importantly — always resumes at exactly the same point in the
deterministic event order.

Every wakeup the clock hands out is *one hop*: the future a coroutine
awaits is resolved directly by the simulator event (or the completer)
that ends the wait, so the task runs on the very next loop pass.  That
is what lets the driver call the loop quiescent after a single clean
pass.  :meth:`VirtualClock.wait_for` is the case that needs care: its
one awaited future is the timeout timer itself, and the completion's
owner resolves it through :meth:`VirtualClock.resolve` instead of
``fut.set_result`` — never through ``asyncio.wait``, whose internal
done-callback is a second, bump-free hop.

:meth:`VirtualClock.jump` is the ``clock-jump`` chaos arm: it resolves
every pending timer *now*, modelling a monotonic clock that leapt past
all deadlines.  Join-timeout races lose spuriously, producers fire early
— and the run must still end with a legal tree and deterministic
metrics, which is precisely what the chaos tests pin.
"""

from __future__ import annotations

import asyncio

from repro.service.bus import Pulse
from repro.sim.engine import Event, Simulator
from repro.util.validation import check_non_negative

__all__ = ["VirtualClock"]


class VirtualClock:
    """Virtual-time sleeps and timeouts for service coroutines."""

    def __init__(self, sim: Simulator, pulse: Pulse) -> None:
        self.sim = sim
        self.pulse = pulse
        #: pending timers in registration order: asyncio Future -> sim Event
        self._timers: dict[asyncio.Future, Event] = {}
        #: completion future -> the timer its parked :meth:`wait_for` awaits
        self._waits: dict[asyncio.Future, asyncio.Future] = {}

    @property
    def now(self) -> float:
        """Current virtual time (the simulator clock)."""
        return self.sim.now

    @property
    def pending_timers(self) -> int:
        return len(self._timers)

    def _arm(self, delay_s: float) -> asyncio.Future:
        """Register a timer; the returned future resolves when it fires.

        ``delay_s`` must be >= 0 and not NaN (``+inf`` never fires): the
        engine's ``schedule_in`` contract, refused here with a typed error
        rather than clamped.
        """
        delay_s = check_non_negative("delay_s", delay_s)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._timers[fut] = self.sim.schedule_in(delay_s, lambda: self._fire(fut))
        self.pulse.bump()
        return fut

    def _fire(self, fut: asyncio.Future) -> None:
        if self._timers.pop(fut, None) is None:
            return
        if not fut.done():
            fut.set_result(None)
            self.pulse.bump()

    def _disarm(self, fut: asyncio.Future) -> None:
        """Cancel the timer behind ``fut`` (sim event tombstoned)."""
        event = self._timers.pop(fut, None)
        if event is not None:
            event.cancel()

    async def sleep(self, delay_s: float) -> None:
        """Suspend for ``delay_s`` virtual seconds (>= 0)."""
        await self._arm(delay_s)

    async def wait_for(self, fut: asyncio.Future, timeout_s: float) -> bool:
        """Await ``fut`` for up to ``timeout_s`` virtual seconds.

        Returns ``True`` if ``fut`` completed, ``False`` on timeout.
        ``fut`` is a *completion*: whoever completes it must call
        :meth:`resolve`, which wakes this wait in the same simulator event
        and tombstones its timer; a timer that fires first wakes it
        instead.  Either way the coroutine awaits one future, resolved
        directly — a single loop hop.  ``fut`` is *not* cancelled on
        timeout: the service's join waits re-arm against the same future
        on retry, because the underlying protocol operation is still in
        flight, and a completion that landed meanwhile is returned at once.
        """
        if fut.done():
            return True
        timer = self._arm(timeout_s)
        self._waits[fut] = timer
        try:
            await timer
        finally:
            self._waits.pop(fut, None)
            if not timer.done():
                self._disarm(timer)
                timer.cancel()
        return fut.done()

    def resolve(self, fut: asyncio.Future, result=None) -> None:
        """Complete ``fut`` and wake the :meth:`wait_for` parked on it.

        The wait's timer is disarmed (its simulator event tombstoned) and
        resolved here, so the waiting task runs on the next loop pass.
        With no wait parked, ``fut`` just holds the result for the next
        one.  Bumps the pulse: a completion is a crossing.
        """
        fut.set_result(result)
        timer = self._waits.pop(fut, None)
        if timer is not None and not timer.done():
            self._disarm(timer)
            timer.set_result(None)
        self.pulse.bump()

    def jump(self) -> int:
        """Chaos: fire every pending timer immediately.  Returns the count.

        Events are resolved in registration order (``_timers`` is
        insertion-ordered), which keeps the post-jump wakeup sequence
        deterministic.
        """
        fired = 0
        timers, self._timers = self._timers, {}
        for fut, event in timers.items():
            event.cancel()
            if not fut.done():
                fut.set_result(None)
                self.pulse.bump()
                fired += 1
        return fired
