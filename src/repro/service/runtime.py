"""The live service runtime: open-loop join/leave traffic on a VDM tree.

Architecture (one :class:`ServiceRuntime` = one live run):

* the **workload producer** admits pre-materialized session arrivals
  (:mod:`repro.service.workload`) onto the ``"joins"`` bus topic, whose
  bounded queue with ``"reject"`` overflow *is* the admission controller
  — at the high-water mark arrivals are turned away and counted;
* ``join_workers`` **worker coroutines** drain the topic and serve each
  join under the robustness envelope: a per-attempt virtual-time timeout,
  bounded retries with decorrelated jitter
  (:class:`repro.util.retry.RetryPolicy`), and a deterministic abandon
  path when attempts run out;
* the **driver** interleaves the asyncio loop with the discrete-event
  simulator under one invariant: *every simulator→asyncio crossing bumps
  the shared pulse* (a timer firing, a join completing, a bus gate
  reopening).  It yields to asyncio until one loop pass goes by without a
  bump (quiescence: every task is parked on a future only the simulator
  can resolve).  One clean pass suffices because every wakeup the driver
  quiesces over is a *single hop* — a task parks on one future that the
  crossing resolves directly (:meth:`VirtualClock.wait_for` and
  :meth:`VirtualClock.resolve`; the orchestrator awaits its workers one
  by one, never through ``gather``).  It then runs one burst inside the
  engine's own event loop
  (``Simulator.run_burst``) that stops right after the pulse moves — an
  event crossed into asyncio — or a drain raises the pulse's halt flag,
  and only then yields again.  Events that stay inside the simulator (the
  protocol's own messages, by far the most) cost no loop pass and no
  per-event call into the driver.  Asyncio's ready queue
  is FIFO and every await in the service sleeps on the simulator, so the
  interleaving — and therefore the whole run — is a pure function of
  the config.  ``_finished`` is set *before* the orchestrator tears its
  tasks down (cancellation takes loop passes and bumps nothing), so no
  simulator event fires once the run is over;
* **health probes** (bus gates, tree legality + orphan set, admission
  depth) run on a virtual-time cadence and integrate time-in-degraded;
  the tree probe reads the :class:`RecoveryTracker`'s maintained
  legality answer, not a full registry scan;
* **chaos** (:class:`repro.harness.chaos.ServiceChaosRule`) strikes at
  fixed virtual times: agent crashes go through the session fault arm
  (:class:`repro.sim.faults.FaultInjector`), bus stalls close consumer
  gates, clock jumps fire every pending timer;
* **graceful drain** (:meth:`ServiceRuntime.request_drain`, wired to
  SIGTERM by the CLI): admissions stop, already-admitted joins finish,
  and every completed outcome is already durable in the run journal.

Determinism and resume: a run *journals each arrival's outcome* under
``(("ch8_service_run", scenario), arrival_index, seed, recipe)`` via the
active :mod:`repro.harness.journal` context.  Because the live tree is
history-dependent, a resumed run **re-executes from virtual time zero**
rather than skipping journaled work — the journal is the determinism
witness: every recomputed outcome is compared against its journaled
entry and a mismatch raises :class:`ServiceDeterminismError`.  The
corollary the drain tests pin: SIGTERM anywhere mid-run followed by
``--resume`` yields final metrics byte-identical to an uninterrupted
run.

The invariant checker stays armed (``mode="raise"``) on the live tree
for the entire run, chaos included.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import time
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import partial

from repro.factories import vdm
from repro.harness.chaos import ServiceChaosRule, load_service_plan
from repro.harness.journal import active as journal_active
from repro.metrics.collectors import RecoveryTracker, latency_percentile
from repro.protocols.base import ProtocolRuntime
from repro.service.bus import BusOverflow, EventBus, Pulse
from repro.service.clock import VirtualClock
from repro.service.health import HealthMonitor
from repro.service.workload import SCENARIOS, SessionArrival, build_workload
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.invariants import InvariantChecker
from repro.sim.session import draw_degree
from repro.util.artifacts import artifact_key
from repro.util.retry import RetryPolicy
from repro.util.rngtools import spawn_rng
from repro.util.validation import (
    check_fields, check_finite, check_non_negative, checked, count, non_negative,
    one_of, pair, positive, rng_seed,
)

__all__ = [
    "DriverStats",
    "ServiceConfig",
    "ServiceDeterminismError",
    "ServiceRuntime",
    "run_service",
]

JOINS_TOPIC = "joins"


class ServiceDeterminismError(RuntimeError):
    """A recomputed outcome disagreed with its journaled witness entry."""


def _depth(name: str, value) -> float:
    """A diurnal modulation depth in [0, 1): at 1 the trough rate is zero."""
    if non_negative(name, value) >= 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value!r}")
    return value


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of one live service run (all JSON-natural).

    Every real is finite: an infinite horizon or rate never ends the
    workload loops, a NaN burst start drops the burst.
    """

    scenario: str = checked(one_of(*SCENARIOS), "poisson")
    duration_s: float = checked(positive, 600.0)
    seed: int = checked(rng_seed, 0)
    #: hosts in the default substrate (ignored when an underlay is passed)
    n_hosts: int = checked(count(2), 64)
    #: baseline session-arrival rate
    arrival_rate_hz: float = checked(positive, 0.2)
    #: mean session lifetime (exponential)
    hold_s: float = checked(positive, 120.0)
    #: member degree limits, drawn uniformly from [lo, hi] (paper setup)
    degree: tuple[int, int] = checked(pair(count()), (2, 5))
    #: protocol-level per-request timeout (ms), as in batch sessions
    timeout_ms: float = checked(positive, 3000.0)
    #: control-plane deadline on one join wait (virtual seconds)
    join_timeout_s: float = checked(positive, 8.0)
    #: join-queue high-water mark: arrivals beyond this depth are rejected
    join_queue_hwm: int = checked(count(), 8)
    #: concurrent join-serving workers
    join_workers: int = checked(count(), 2)
    #: health-probe cadence (virtual seconds)
    probe_period_s: float = checked(positive, 5.0)
    #: stream chunk rate (chunks/s) for join-to-first-chunk latency
    chunk_rate: float = checked(positive, 10.0)
    # flash-crowd shape (used by scenario == "flash")
    burst_at_s: float = checked(non_negative, 0.0)
    burst_rate_hz: float = checked(non_negative, 0.0)
    burst_duration_s: float = checked(non_negative, 0.0)
    # diurnal shape (used by scenario == "diurnal")
    diurnal_period_s: float = checked(non_negative, 0.0)
    diurnal_depth: float = checked(_depth, 0.8)
    #: control-plane retry policy for join attempts
    retry: RetryPolicy = RetryPolicy(max_attempts=3, backoff_base_s=0.5,
                                     backoff_cap_s=10.0)

    __post_init__ = check_fields


@dataclass
class DriverStats:
    """Counters of the driver's simulator/asyncio interleave.

    Deterministic per config (they count loop passes and events, never
    time), but deliberately *not* part of the ``repro-service-metrics/1``
    report: they describe how the run was driven, not what it computed.
    """

    #: simulator events the driver fired (``run()``'s synchronous tail to
    #: the horizon is not counted)
    sim_events: int = 0
    #: ``Simulator.run_burst`` calls: runs of events between two yields
    #: to asyncio
    bursts: int = 0
    #: ``asyncio.sleep(0)`` loop passes spent waiting for quiescence
    loop_yields: int = 0
    #: most events fired without a simulator→asyncio crossing
    longest_burst: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class ServiceRuntime:
    """One live service run over a simulated underlay."""

    def __init__(
        self,
        config: ServiceConfig,
        underlay=None,
        *,
        chaos_plan: tuple[ServiceChaosRule, ...] | None = None,
        journal_outcomes: bool = True,
        pace_s: float = 0.0,
    ) -> None:
        self.config = config
        if underlay is None:
            from repro.harness.substrates import build_transit_stub_underlay

            underlay = build_transit_stub_underlay(
                n_hosts=config.n_hosts, seed=config.seed
            )
        self.underlay = underlay
        self.chaos_plan = (
            load_service_plan() if chaos_plan is None else tuple(chaos_plan)
        )
        self._journal_outcomes = journal_outcomes
        self._pace_s = check_finite("pace_s", check_non_negative("pace_s", pace_s))

        hosts = sorted(int(h) for h in underlay.hosts)
        if len(hosts) < 2:
            raise ValueError("underlay must have at least 2 hosts")
        src_rng = spawn_rng(config.seed, "service", "source")
        self.source = int(hosts[int(src_rng.integers(len(hosts)))])

        self.pulse = Pulse()
        self.sim = Simulator()
        self.clock = VirtualClock(self.sim, self.pulse)
        self.env = ProtocolRuntime(
            self.sim, underlay, self.source, timeout_ms=config.timeout_ms
        )
        self._factory = vdm()
        self.checker = InvariantChecker(self.env, mode="raise")
        # The fault arm is always installed: manual chaos crashes go
        # through the same crash/detect path as batch fault plans, and a
        # noop plan injects nothing on its own — being message-inert, it
        # also leaves tell/request on the tuple fast path.
        self.injector = FaultInjector(
            FaultPlan(name="service-chaos", seed=config.seed), self.env
        )
        self.recovery = RecoveryTracker(self.env)
        self.env.tree.add_listener(self._on_tree_event)

        self._degree_rng = spawn_rng(config.seed, "service", "degrees")
        self._admit_rng = spawn_rng(config.seed, "service", "admit")
        self._schedule = build_workload(
            config.scenario,
            seed=config.seed,
            duration_s=config.duration_s,
            rate_hz=config.arrival_rate_hz,
            hold_s=config.hold_s,
            burst_at_s=config.burst_at_s,
            burst_rate_hz=config.burst_rate_hz,
            burst_duration_s=config.burst_duration_s,
            diurnal_period_s=config.diurnal_period_s,
            diurnal_depth=config.diurnal_depth,
        )
        self._journal_key = ("ch8_service_run", config.scenario)
        self._recipe = artifact_key(
            {
                "kind": "service-run/1",
                "config": config,
                "chaos": [dataclasses.asdict(r) for r in self.chaos_plan],
            }
        )

        # live state
        #: hosts no arrival holds, sorted (admission draws an index into it)
        self._free: list[int] = [h for h in hosts if h != self.source]
        #: host -> index of the arrival holding it, from admission until
        #: that arrival's member has left the tree
        self._holder: dict[int, int] = {}
        #: held hosts whose holder is still in the join queue (no agent yet)
        self._queued: set[int] = set()
        self._waiters: dict[int, asyncio.Future] = {}
        self._abandoned: set[int] = set()
        self._outcomes: dict[int, dict] = {}
        self.counters: Counter[str] = Counter()
        self.driver = DriverStats()
        self.bus = EventBus(self.pulse)
        self.health = HealthMonitor(
            self.clock,
            {
                "bus": lambda: not self.bus.stalled(),
                "tree": lambda: not self.recovery.orphans
                and self.recovery.tree_is_legal(),
                "admission": lambda: self.bus.depth(JOINS_TOPIC)
                < config.join_queue_hwm,
            },
            period_s=config.probe_period_s,
        )

        # run-state flags
        self._ran = False
        self._finished = False
        self._drain_requested = False
        self._draining = False
        self._drain_fut: asyncio.Future | None = None
        self._orchestrator: asyncio.Task | None = None
        self.drained = False
        self.drain_time_s: float | None = None

        for rule in self.chaos_plan:
            if rule.action == "bus-stall" and rule.topic != JOINS_TOPIC:
                raise ValueError(
                    f"bus-stall rule targets unknown topic {rule.topic!r}"
                )

        self._install_join_watch()
        self._register_source()

    # -- setup ----------------------------------------------------------------

    def _register_source(self) -> None:
        degree = draw_degree(self.config.degree, self._degree_rng)
        agent = self._factory(
            self.source,
            self.env,
            degree_limit=degree,
            rng=partial(spawn_rng, self.config.seed, "agent", self.source),
        )
        self.env.register(agent)

    def _install_join_watch(self) -> None:
        """Wrap the runtime's join-record sink to resolve worker waits."""
        env = self.env
        orig = env.record_join

        def record_join(rec):
            orig(rec)
            if rec.kind != "join":
                return
            fut = self._waiters.get(rec.node)
            if fut is not None:
                if not fut.done():
                    self._waiters.pop(rec.node, None)
                    self.clock.resolve(fut, rec)
            elif rec.succeeded and rec.node in self._abandoned:
                # A join the control plane gave up on completed late:
                # honour the abandonment by leaving immediately.
                self._abandoned.discard(rec.node)
                self.counters["late_attach_leaves"] += 1
                self.sim.schedule_in(
                    0.0,
                    lambda n=rec.node, a=self._holder.get(rec.node): (
                        self._do_leave(n, a)
                    ),
                    label="svc-abandon-leave",
                )

        env.record_join = record_join

    def _release(self, node: int) -> None:
        """Return ``node`` to the free pool (idempotent)."""
        if self._holder.pop(node, None) is not None:
            insort(self._free, node)

    def _on_tree_event(
        self, kind: str, node: int, parent: int | None, t: float
    ) -> None:
        # A depart while the host's holder is still in the join queue is a
        # previous tenant's — crash detection can purge a member seconds
        # after it left — and must not free the new holder's reservation.
        if kind == "depart" and node not in self._queued:
            self._release(node)

    # -- drain ----------------------------------------------------------------

    def request_drain(self) -> None:
        """Ask the run to drain: stop admissions, finish in-flight joins.

        Signal-handler-safe (sets two flags: the one the driver polls
        between bursts, and the pulse's halt flag that ends a running
        burst after the current event); idempotent.
        """
        self._drain_requested = True
        if not self._draining:
            self.pulse.halt = True

    def _begin_drain(self) -> None:
        self._draining = True
        self.pulse.halt = False
        self.drained = True
        self.drain_time_s = self.sim.now
        self.clock.resolve(self._drain_fut)

    # -- membership actions ----------------------------------------------------

    def _do_leave(self, node: int, arrival_index: int) -> None:
        """End the membership arrival ``arrival_index`` holds on ``node``."""
        if self._holder.get(node) != arrival_index:
            return  # that tenant is gone already (crashed and detected)
        if self.env.is_alive(node):
            self.env.agents[node].leave()
        self._release(node)

    # -- the asyncio side ------------------------------------------------------

    async def _quiesce(self) -> None:
        """Yield to the loop until one pass goes by without a bump.

        Every wakeup in the service is a single hop: a task parks on one
        future that whatever ends the wait resolves directly (a timer, a
        :meth:`VirtualClock.resolve`, a queue or gate waiter, a task it
        awaits).  A task that runs either bumps or parks, so a pass that
        bumped nothing ran no task that could have scheduled another, and
        the ready queue is empty.  A bump-free hop (``asyncio.wait``,
        ``gather``, ``wait_for`` or ``shield``, each of which wakes its
        caller from a done-callback) on any path the driver quiesces over
        would break this.
        """
        stats, pulse = self.driver, self.pulse
        while True:
            before = pulse.count
            await asyncio.sleep(0)
            stats.loop_yields += 1
            if pulse.count == before:
                return

    async def _drive(self) -> None:
        """Alternate asyncio quiescence with bursts of simulator events.

        Once asyncio is quiescent (:meth:`_quiesce`: one pass without a
        bump, so the ready queue is empty) nothing on its side can change
        until a simulator event resolves a future — and every such
        crossing bumps the pulse — so the driver hands the simulator one
        burst (:meth:`~repro.sim.engine.Simulator.run_burst`), which stops right
        after the event that bumped the pulse or raised its halt flag (a
        drain request), and only then pays for another round trip through
        the loop.  Pacing (``pace_s``) sleeps once per burst, for the
        virtual time the burst covered.
        """
        sim, pulse, stats = self.sim, self.pulse, self.driver
        pace = self._pace_s
        while not self._finished:
            await self._quiesce()
            if self._finished:
                break
            if self._drain_requested and not self._draining:
                self._begin_drain()
                continue
            mark = pulse.count
            before = sim.now
            burst = sim.run_burst(pulse)
            if pulse.count == mark and not pulse.halt:
                raise RuntimeError(
                    "service runtime stalled: asyncio is quiescent, the "
                    "event queue is empty, and the run is not finished"
                )
            if pace > 0:
                wall = (sim.now - before) * pace
                if wall > 0:
                    time.sleep(min(wall, 0.25))
            stats.sim_events += burst
            stats.bursts += 1
            if burst > stats.longest_burst:
                stats.longest_burst = burst

    async def _produce(self) -> None:
        cfg = self.config
        for arrival in self._schedule:
            while not self._draining and self.clock.now < arrival.time:
                if await self.clock.wait_for(
                    self._drain_fut, arrival.time - self.clock.now
                ):
                    return
            if self._draining:
                return
            await self._admit(arrival)
        # Tail: keep the run (health probes, leaves) going to the horizon.
        while not self._draining and self.clock.now < cfg.duration_s:
            if await self.clock.wait_for(
                self._drain_fut, cfg.duration_s - self.clock.now
            ):
                return

    def _rejected_outcome(self, arrival: SessionArrival, reason: str) -> dict:
        return {
            "admitted": False,
            "arrival_s": arrival.time,
            "attached_s": None,
            "attempts": 0,
            "first_chunk_latency_s": None,
            "node": None,
            "reject_reason": reason,
            "succeeded": False,
            "timeouts": 0,
        }

    async def _admit(self, arrival: SessionArrival) -> None:
        free = self._free
        if not free:
            self.counters["rejected_capacity"] += 1
            self._record_outcome(
                arrival.index, self._rejected_outcome(arrival, "no-free-host")
            )
            return
        # The reservation is the arrival's from before a worker can see it.
        node = free.pop(int(self._admit_rng.integers(len(free))))
        self._holder[node] = arrival.index
        self._queued.add(node)
        degree = draw_degree(self.config.degree, self._degree_rng)
        try:
            await self.bus.publish(JOINS_TOPIC, (arrival, node, degree))
        except BusOverflow:
            self._queued.discard(node)
            self._release(node)
            self.counters["rejected_backpressure"] += 1
            self._record_outcome(
                arrival.index, self._rejected_outcome(arrival, "high-water-mark")
            )

    async def _worker(self) -> None:
        while True:
            item = await self.bus.get(JOINS_TOPIC)
            if item is None:
                self.pulse.bump()
                return
            arrival, node, degree = item
            await self._serve_join(arrival, node, degree)
            self.pulse.bump()

    async def _serve_join(
        self, arrival: SessionArrival, node: int, degree: int
    ) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._waiters[node] = fut
        agent = self._factory(
            node,
            self.env,
            degree_limit=degree,
            rng=partial(spawn_rng, cfg.seed, "agent", node, arrival.index),
        )
        self.env.register(agent)
        self._queued.discard(node)
        agent.start_join()

        attempts = 0
        timeouts = 0
        prev_sleep = 0.0
        policy = cfg.retry
        outcome_rec = None
        while True:
            attempts += 1
            completed = await self.clock.wait_for(fut, cfg.join_timeout_s)
            if completed:
                rec = fut.result()
                if rec.succeeded:
                    outcome_rec = rec
                    break
                # Protocol gave up (restarts exhausted): control-plane
                # retry re-issues the join after a jittered backoff.
                if not policy.should_retry(attempts):
                    break
                self.counters["retries"] += 1
                sleep = policy.backoff_s(
                    self._journal_key,
                    arrival.index,
                    cfg.seed,
                    attempts,
                    prev_sleep=prev_sleep,
                )
                prev_sleep = sleep or prev_sleep
                if sleep > 0:
                    await self.clock.sleep(sleep)
                fut = loop.create_future()
                self._waiters[node] = fut
                agent.start_join()
            else:
                timeouts += 1
                self.counters["join_timeouts"] += 1
                if not policy.should_retry(attempts):
                    break
                # The protocol operation is still in flight: back off,
                # then re-arm the wait against the same completion.
                self.counters["retries"] += 1
                sleep = policy.backoff_s(
                    self._journal_key,
                    arrival.index,
                    cfg.seed,
                    attempts,
                    prev_sleep=prev_sleep,
                )
                prev_sleep = sleep or prev_sleep
                if sleep > 0:
                    await self.clock.sleep(sleep)

        succeeded = outcome_rec is not None
        attached_s = None
        latency = None
        if succeeded:
            attached_s = outcome_rec.completed_at
            latency = self._first_chunk_latency(node, arrival, attached_s)
            self.sim.schedule_in(
                arrival.hold_s,
                lambda n=node, a=arrival.index: self._do_leave(n, a),
                label="svc-leave",
            )
        else:
            self._waiters.pop(node, None)
            self._abandoned.add(node)
            self.counters["failed_joins"] += 1
        self._record_outcome(
            arrival.index,
            {
                "admitted": True,
                "arrival_s": arrival.time,
                "attached_s": attached_s,
                "attempts": attempts,
                "first_chunk_latency_s": latency,
                "node": node,
                "reject_reason": None,
                "succeeded": succeeded,
                "timeouts": timeouts,
            },
        )

    def _first_chunk_latency(
        self, node: int, arrival: SessionArrival, attached_s: float
    ) -> float | None:
        """Arrival-to-first-chunk: queue wait + join + chunk epoch + path delay.

        The source emits chunk ``k`` at ``k / chunk_rate``; the first
        chunk a member can receive is the first epoch at or after its
        attach instant, delivered after the summed underlay delay of its
        overlay path.  ``None`` when the node is not reachable at attach
        time (it attached under a crashed ancestor) — excluded from the
        latency SLO rather than faked.
        """
        rate = self.config.chunk_rate
        epoch = math.ceil(attached_s * rate - 1e-9) / rate
        try:
            path = self.env.tree.path_to_source(node)
        except ValueError:
            return None
        delay_ms = sum(
            self.underlay.delay_ms(child, parent)
            for child, parent in zip(path, path[1:])
        )
        return (epoch + delay_ms / 1000.0) - arrival.time

    async def _run_chaos(self) -> None:
        for rule in self.chaos_plan:
            if rule.at_s > self.clock.now:
                await self.clock.sleep(rule.at_s - self.clock.now)
            if rule.action == "agent-crash":
                candidates = sorted(
                    n
                    for n in self.env.tree.attached_nodes()
                    if n != self.source and self.env.is_alive(n)
                )
                if not candidates:
                    self.counters["chaos_crash_skipped"] += 1
                    continue
                node = candidates[rule.node_index % len(candidates)]
                self.counters["chaos_agent_crashes"] += 1
                self.injector.crash(node)
                self.pulse.bump()
            elif rule.action == "bus-stall":
                self.counters["chaos_bus_stalls"] += 1
                self.bus.stall(rule.topic)
                self.sim.schedule_in(
                    rule.duration_s,
                    lambda t=rule.topic: self.bus.resume(t),
                    label="svc-bus-resume",
                )
            else:  # clock-jump
                self.counters["chaos_clock_jumps"] += 1
                self.counters["chaos_jumped_timers"] += self.clock.jump()

    # -- journaling ------------------------------------------------------------

    def _record_outcome(self, index: int, outcome: dict) -> None:
        self._outcomes[index] = outcome
        if not self._journal_outcomes:
            return
        ctx = journal_active()
        if ctx is None:
            return
        ctx.note_recipe(self._journal_key, self._recipe)
        hit = ctx.journal.lookup(
            self._journal_key, index, self.config.seed, self._recipe
        )
        if ctx.journal.is_miss(hit):
            ctx.journal.record(
                self._journal_key, index, self.config.seed, self._recipe, outcome
            )
        elif hit != outcome:
            raise ServiceDeterminismError(
                f"arrival {index} of scenario {self.config.scenario!r} "
                f"recomputed to {outcome!r} but the journal witnessed "
                f"{hit!r}; the run is not deterministic (or the journal "
                "belongs to a different config)"
            )

    # -- orchestration ---------------------------------------------------------

    def _finish(self) -> None:
        """Mark the run over; the driver fires no event after this."""
        self._finished = True
        self.pulse.bump()

    async def _supervise(self, coro) -> None:
        """Run one service task; if it dies, end the run now.

        Without this a dead worker is only noticed when the orchestrator
        awaits it after the horizon, the run having limped on short-handed.
        """
        try:
            await coro
        except asyncio.CancelledError:
            raise
        except BaseException:
            self._finish()
            self._orchestrator.cancel()
            raise

    async def _main(self) -> None:
        self._orchestrator = asyncio.current_task()
        loop = asyncio.get_running_loop()
        self._drain_fut = loop.create_future()
        self.bus.declare(
            JOINS_TOPIC, maxsize=self.config.join_queue_hwm, policy="reject"
        )

        def spawn(coro) -> asyncio.Task:
            return asyncio.create_task(self._supervise(coro))

        driver = spawn(self._drive())
        workers = [spawn(self._worker()) for _ in range(self.config.join_workers)]
        background = [
            spawn(self.health.run(lambda: self._finished)),
            spawn(self._run_chaos()),
        ]
        try:
            await self._produce()
            for _ in workers:
                await self.bus.publish_forced(JOINS_TOPIC, None)
            # One by one: awaiting a task is a single hop, while gather's
            # done-callbacks are bump-free hops the driver would read as
            # quiescence and fire events through.
            for worker in workers:
                await worker
        finally:
            # _finished first: cancelling tasks takes loop passes that bump
            # no pulse, which the driver would read as quiescence.  The
            # teardown gather below is safe: no burst runs after this.
            self._finish()
            for task in (*workers, *background):
                task.cancel()
            results = await asyncio.gather(
                driver, *workers, *background, return_exceptions=True
            )
            for result in results:
                if isinstance(result, BaseException) and not isinstance(
                    result, asyncio.CancelledError
                ):
                    raise result

    def run(self) -> dict:
        """Execute the run to completion (or drain) and return its metrics."""
        if self._ran:
            raise RuntimeError("a ServiceRuntime can only run once")
        self._ran = True
        asyncio.run(self._main())
        # Settle the tail of the virtual horizon (leaves, crash detection)
        # — pure simulator work; every asyncio future is already resolved.
        if not self.drained and self.sim.now < self.config.duration_s:
            self.sim.run_until(self.config.duration_s)
        self.health.probe_once()
        self.health.finish()
        self.checker.verify_all()
        return self.report()

    # -- reporting -------------------------------------------------------------

    def report(self) -> dict:
        """SLO metrics of the (finished) run, JSON-natural and sortable."""
        outcomes = [self._outcomes[i] for i in sorted(self._outcomes)]
        admitted = [o for o in outcomes if o["admitted"]]
        succeeded = [o for o in admitted if o["succeeded"]]
        latencies = [
            o["first_chunk_latency_s"]
            for o in succeeded
            if o["first_chunk_latency_s"] is not None
        ]
        stats = self.bus.stats(JOINS_TOPIC)
        return {
            "schema": "repro-service-metrics/1",
            "scenario": self.config.scenario,
            "seed": self.config.seed,
            "duration_s": self.config.duration_s,
            "drained": self.drained,
            "drain_time_s": self.drain_time_s,
            "arrivals": len(outcomes),
            "admitted": len(admitted),
            "rejected": len(outcomes) - len(admitted),
            "succeeded": len(succeeded),
            "failed": len(admitted) - len(succeeded),
            "retries": self.counters["retries"],
            "join_timeouts": self.counters["join_timeouts"],
            "late_attach_leaves": self.counters["late_attach_leaves"],
            "p50_first_chunk_s": latency_percentile(latencies, 50.0),
            "p99_first_chunk_s": latency_percentile(latencies, 99.0),
            "time_in_degraded_s": self.health.time_in_degraded_s,
            "probe_ticks": self.health.probe_ticks,
            "health_transitions": [
                t.as_dict() for t in self.health.transitions
            ],
            "invariant_violations": len(self.checker.violations),
            "recovery_episodes": len(self.recovery.recovery_times),
            "chaos": {
                "agent_crashes": self.counters["chaos_agent_crashes"],
                "bus_stalls": self.counters["chaos_bus_stalls"],
                "clock_jumps": self.counters["chaos_clock_jumps"],
                "crash_skipped": self.counters["chaos_crash_skipped"],
            },
            "bus": {
                "delivered": stats.delivered,
                "max_depth": stats.max_depth,
                "published": stats.published,
                "rejected": stats.rejected,
            },
            "final_members": len(self.env.tree.members()),
            "final_attached": len(self.env.tree.attached_nodes()),
        }

    def metrics_json(self) -> str:
        """Canonical rendering of :meth:`report` (byte-comparable)."""
        return json.dumps(self.report(), sort_keys=True, indent=1) + "\n"


def run_service(
    config: ServiceConfig,
    underlay=None,
    *,
    chaos_plan: tuple[ServiceChaosRule, ...] | None = None,
    journal_outcomes: bool = False,
) -> dict:
    """Run one service session synchronously and return its metrics dict.

    The library/sweep entry point: outcome journaling is off by default so
    a ch8 sweep replication journals one metrics dict per rep (via
    ``run_replications``) rather than hundreds of per-arrival entries;
    the CLI turns it on for drain/resume.
    """
    return ServiceRuntime(
        config,
        underlay,
        chaos_plan=chaos_plan,
        journal_outcomes=journal_outcomes,
    ).run()
