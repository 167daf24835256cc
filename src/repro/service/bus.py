"""Bounded in-process event bus with explicit overflow policy.

One :class:`EventBus` connects the service's workload producer to its
join workers (and any other topic a component cares to declare).  Design
constraints, in order:

1. **Determinism** — every state transition bumps the runtime's shared
   :class:`Pulse`.  That is the driver's whole contract with the bus:
   while the pulse moves the asyncio loop still has progress to make and
   no simulator event may fire; and a gate reopened *by* a simulator
   event (:meth:`EventBus.resume` after a chaos stall) is a
   simulator→asyncio crossing whose bump ends the driver's synchronous
   burst.  ``asyncio.Queue`` wakes waiters FIFO, so consumer scheduling
   is reproducible.
2. **Explicit overflow** — a topic declares what happens when it is full:
   ``"reject"`` raises :class:`BusOverflow` at the publisher (admission
   control: the join queue's high-water mark turns arrivals away loudly),
   ``"block"`` applies backpressure (the publisher awaits space).
   Silent dropping is deliberately not on the menu.
3. **Stallable** — each topic carries a consumer gate so chaos can freeze
   delivery (``bus-stall``) without touching queue contents; the health
   probe reads :meth:`EventBus.stalled` and must flip while the gate is
   down.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

__all__ = ["BusOverflow", "EventBus", "Pulse", "TopicStats"]


class Pulse:
    """A shared activity counter: the driver's only view of asyncio.

    Every component that makes asyncio-visible progress (publish, deliver,
    timer arm/fire, gate change, join completion, worker exit) calls
    :meth:`bump`.  The driver reads the count two ways: it keeps yielding
    to the loop until one pass leaves the count unmoved (quiescence), and
    it then runs simulator events in one burst
    (:meth:`~repro.sim.engine.Simulator.run_burst`) until the count moves
    again — a simulator event resolved an asyncio future — and only then
    yields.  One unmoved pass means quiescent only because every wakeup
    is a single hop: the bump and the resolved future come from the same
    call, so no task can become runnable through a callback that bumps
    nothing.  The count itself is deterministic, which makes the driver's
    interleaving deterministic.

    ``halt`` ends a burst *without* moving the count: a drain request
    must stop the simulator, but one that lands while the driver
    quiesces (a signal) must not read as asyncio progress and cost the
    quiescence wait another loop pass.
    """

    __slots__ = ("count", "halt")

    def __init__(self) -> None:
        self.count = 0
        self.halt = False

    def bump(self) -> None:
        self.count += 1


class BusOverflow(RuntimeError):
    """Publish rejected: the topic is at its high-water mark."""

    def __init__(self, topic: str, maxsize: int):
        self.topic = topic
        self.maxsize = maxsize
        super().__init__(
            f"topic {topic!r} is at its high-water mark ({maxsize}); "
            "publish rejected by admission control"
        )


@dataclass
class TopicStats:
    """Counters one topic accumulates over a run (all deterministic)."""

    published: int = 0
    delivered: int = 0
    rejected: int = 0
    max_depth: int = 0


@dataclass
class _Topic:
    queue: asyncio.Queue
    policy: str
    gate: asyncio.Event
    stats: TopicStats = field(default_factory=TopicStats)


class EventBus:
    """Named bounded topics over ``asyncio.Queue``, with stall gates."""

    POLICIES = ("block", "reject")

    def __init__(self, pulse: Pulse | None = None) -> None:
        self.pulse = pulse or Pulse()
        self._topics: dict[str, _Topic] = {}

    def declare(self, name: str, *, maxsize: int, policy: str = "block") -> None:
        """Create topic ``name`` with a bounded queue and overflow policy."""
        if name in self._topics:
            raise ValueError(f"topic {name!r} already declared")
        if maxsize < 1:
            raise ValueError(f"topic {name!r} maxsize must be >= 1, got {maxsize}")
        if policy not in self.POLICIES:
            raise ValueError(
                f"topic {name!r} policy must be one of {self.POLICIES}, "
                f"got {policy!r}"
            )
        gate = asyncio.Event()
        gate.set()
        self._topics[name] = _Topic(
            queue=asyncio.Queue(maxsize=maxsize), policy=policy, gate=gate
        )

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise KeyError(f"unknown topic {name!r}") from None

    async def publish(self, name: str, item) -> None:
        """Enqueue ``item`` under the topic's overflow policy.

        ``"reject"`` raises :class:`BusOverflow` when full (the rejection
        is counted either way); ``"block"`` awaits space — backpressure
        propagates to the publisher.
        """
        topic = self._topic(name)
        if topic.policy == "reject":
            if topic.queue.full():
                topic.stats.rejected += 1
                self.pulse.bump()
                raise BusOverflow(name, topic.queue.maxsize)
            topic.queue.put_nowait(item)
        else:
            await topic.queue.put(item)
        topic.stats.published += 1
        depth = topic.queue.qsize()
        if depth > topic.stats.max_depth:
            topic.stats.max_depth = depth
        self.pulse.bump()

    async def publish_forced(self, name: str, item) -> None:
        """Enqueue a control message, bypassing the overflow policy.

        Used for worker-shutdown sentinels: they must get through even on
        a ``"reject"`` topic, so this always applies backpressure instead.
        """
        topic = self._topic(name)
        await topic.queue.put(item)
        topic.stats.published += 1
        self.pulse.bump()

    async def get(self, name: str):
        """Dequeue the next item, honouring the topic's stall gate.

        The gate is checked before blocking on the queue: a stall stops
        *new* gets from starting, while a get already parked inside
        ``queue.get`` when the gate drops still completes with the next
        published item (matching a real bus, where an in-flight delivery
        cannot be recalled).
        """
        topic = self._topic(name)
        await topic.gate.wait()
        item = await topic.queue.get()
        topic.stats.delivered += 1
        self.pulse.bump()
        return item

    def depth(self, name: str) -> int:
        return self._topic(name).queue.qsize()

    def stats(self, name: str) -> TopicStats:
        return self._topic(name).stats

    def stall(self, name: str) -> None:
        """Close the consumer gate: deliveries stop, depth builds."""
        self._topic(name).gate.clear()
        self.pulse.bump()

    def resume(self, name: str) -> None:
        """Reopen the consumer gate."""
        self._topic(name).gate.set()
        self.pulse.bump()

    def stalled(self) -> list[str]:
        """Topics whose consumer gate is currently closed (sorted)."""
        return sorted(n for n, t in self._topics.items() if not t.gate.is_set())
