"""End-to-end multicast session orchestration.

A :class:`MulticastSession` reproduces the paper's experimental procedure
(Section 3.6.2):

1. a source is chosen and stays alive throughout;
2. ``n_nodes`` randomly chosen hosts join during an initial join phase
   (the paper gives 2 000 s of a 10 000 s run);
3. churn then proceeds in fixed slots: per slot, ``churn_rate * n_nodes``
   members leave and as many fresh hosts join, the tree gets a settle
   period, and a measurement snapshot is taken;
4. at the end, per-node join/reconnect records and per-slot measurements
   are folded into a :class:`SessionResult`.

The same class drives the Chapter 4 time-series runs (no churn, measure
every interval while nodes keep joining) and the Chapter 5 emulation, whose
PlanetLab controller replays a scenario through :meth:`MulticastSession.join`
and :meth:`MulticastSession.leave` instead of :meth:`MulticastSession.run`.
Steps 1-3 are drawn once, by :func:`session_schedule`, for this session and
the batched emulator (:mod:`repro.sim.batched`) alike.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro.metrics.collectors import RecoveryTracker, collect_tree_metrics
from repro.metrics.report import MeasurementRecord
from repro.protocols.base import JoinRecord, OverlayAgent, ProtocolRuntime
from repro.protocols.failover import FailoverManager
from repro.sim.churn import SlottedChurnModel
from repro.sim.delivery import DeliveryAccountant
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan, resolve_fault_plan
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.network import Underlay
from repro.util.rngtools import spawn_rng
from repro.util.validation import (
    check_fields, checked, count, degree_spec, non_negative, one_of, optional,
    positive, probability, rng_seed,
)

__all__ = [
    "SessionConfig",
    "SessionResult",
    "SessionSchedule",
    "MulticastSession",
    "draw_degree",
    "paused_gc",
    "register_agent",
    "session_schedule",
    "take_measurement",
]

AgentFactory = Callable[..., OverlayAgent]
MetricFactory = Callable[[Underlay], Callable[[int, int], float]]

DegreeSpec = int | float | tuple[int, int] | Callable[[np.random.Generator], int]


def draw_degree(spec: DegreeSpec, rng: np.random.Generator) -> int:
    """Draw one node's degree limit from a degree specification.

    * ``int`` — constant limit;
    * ``(lo, hi)`` — uniform integer in [lo, hi] (the paper's Chapter 3
      setup draws limits from 2..5);
    * ``float`` — *average* degree: a mix of ``floor`` and ``ceil`` values
      hitting that mean (how the paper's fractional sweep points such as
      an average degree of 1.25 must be realized);
    * callable — custom draw.
    """
    if callable(spec):
        value = int(spec(rng))
    elif isinstance(spec, tuple):
        lo, hi = spec
        if not (1 <= lo <= hi):
            raise ValueError(f"bad degree range {spec}")
        value = int(rng.integers(lo, hi + 1))
    elif isinstance(spec, bool):  # bool is an int subclass; reject it
        raise TypeError("degree spec cannot be a bool")
    elif isinstance(spec, int):
        value = spec
    elif isinstance(spec, float):
        if spec < 1.0:
            raise ValueError(f"average degree must be >= 1, got {spec}")
        base = int(spec)
        frac = spec - base
        value = base + (1 if rng.random() < frac else 0)
    else:
        raise TypeError(f"unsupported degree spec {spec!r}")
    if value < 1:
        raise ValueError(f"drawn degree {value} < 1 from spec {spec!r}")
    return value


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause cyclic GC around a session's event loop (both engines).

    Collections mid-run rescan the long-lived tree state that millions of
    short-lived events and closures promote, for ~6% of wall time; their
    timing cannot affect results.  The deferred garbage goes at the next
    natural collection.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def register_agent(
    env: ProtocolRuntime,
    factory: AgentFactory,
    node: int,
    degree: int,
    seed: int,
    *key: object,
) -> OverlayAgent:
    """Build ``node``'s agent and register it with ``env``.

    The agent gets its stream's key path, not the stream
    (``OverlayAgent.rng``): most agents never draw.  ``key`` tells a
    node's incarnations apart, so a rejoin does not replay the draws of
    its earlier agent.
    """
    agent = factory(
        node,
        env,
        degree_limit=degree,
        rng=partial(spawn_rng, seed, "agent", node, *key),
    )
    env.register(agent)
    return agent


def take_measurement(
    accountant: DeliveryAccountant,
    records: list[MeasurementRecord],
    now: float,
    control_now: int,
) -> None:
    """Append one measurement: the accountant's tree now, and the window
    since the last of ``records`` (or since time zero).

    ``control_now`` is the session's cumulative control-message count; its
    rise over the last record's is the numerator of the window's overhead
    (eq. 3.6).  Both engines (this module's and :mod:`repro.sim.batched`)
    record through here.
    """
    last = records[-1] if records else None
    since = last.time if last else 0.0
    control_since = last.cumulative_control_messages if last else 0
    tree = accountant.tree
    window = accountant.window_snapshot(since, now)
    data_msgs = window.data_messages
    metrics = collect_tree_metrics(tree, accountant.underlay, accountant.link_usage)
    records.append(MeasurementRecord(
        time=now,
        n_members=len(tree.parent),
        n_reachable=len(tree.attached_nodes()),
        stress=metrics.stress,
        stretch=metrics.stretch,
        hopcount=metrics.hopcount,
        usage=metrics.usage,
        window_loss=window.loss_rate,
        window_mean_node_loss=window.mean_node_loss,
        window_overhead=(
            (control_now - control_since) / data_msgs if data_msgs > 0 else 0.0
        ),
        cumulative_control_messages=control_now,
    ))


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one multicast session run."""

    n_nodes: int = checked(count(), 200)
    degree: DegreeSpec = checked(degree_spec, (2, 5))
    # Finite as well as positive: an infinite horizon, slot, rate or
    # timeout hangs the scheduling loops or turns the loss into NaN.
    join_phase_s: float = checked(positive, 2000.0)
    total_s: float = checked(positive, 10000.0)
    slot_s: float = checked(positive, 400.0)
    settle_s: float = checked(non_negative, 100.0)
    churn_rate: float = checked(probability, 0.0)
    chunk_rate: float = checked(positive, 10.0)
    timeout_ms: float = checked(positive, 3000.0)
    seed: int = checked(rng_seed, 0)
    source_host: int | None = checked(optional(count(0)), None)
    source_degree: int | None = checked(optional(count()), None)
    #: measurement cadence during the join phase (Chapter 4's time series);
    #: ``None`` means measure only at churn-slot boundaries.
    join_measure_interval_s: float | None = checked(optional(positive), None)
    #: override the agents' own refinement period; ``None`` keeps each
    #: protocol row's ``refine_period_s``.
    refine_period_s: float | None = checked(optional(positive), None)
    #: lognormal sigma on every distance measurement (testbed probe noise;
    #: keep 0 for the NS-2-style runs, nonzero for PlanetLab emulation).
    measurement_noise_sigma: float = checked(non_negative, 0.0)
    #: fault schedule: a :class:`~repro.sim.faults.FaultPlan`, a preset
    #: name from :data:`~repro.sim.faults.FAULT_PRESETS`, or ``None``.
    faults: "FaultPlan | str | None" = None
    #: orphan recovery strategy: ``"reactive"`` is the paper's rejoin
    #: round-trip (the oracle path); ``"precomputed"`` arms the
    #: :class:`~repro.protocols.failover.FailoverManager` so orphans
    #: switch to their precomputed backup parent locally.
    failover: str = checked(one_of("reactive", "precomputed"), "reactive")
    #: invariant checking: ``"raise"`` fails the run at the first broken
    #: tree invariant, ``"record"`` collects violations into the result,
    #: ``"off"`` disables the checker entirely.
    invariant_mode: str = checked(one_of("raise", "record", "off"), "raise")
    #: full structural sweep cadence (mutations between sweeps) for the
    #: invariant checker; ``None`` keeps the checker's default.  Localized
    #: per-mutation checks always run regardless.
    invariant_sweep_every: int | None = checked(optional(count()), None)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.total_s < self.join_phase_s:
            raise ValueError("total_s must cover the join phase")
        if self.settle_s >= self.slot_s:
            raise ValueError("settle_s must be shorter than slot_s")
        resolve_fault_plan(self.faults)  # fail fast on unknown preset names


@dataclass(frozen=True)
class SessionSchedule:
    """The paper procedure of one session, drawn before it runs."""

    source: int
    #: every host but the source
    pool: frozenset[int]
    #: ``(time, priority, kind, node)`` in scheduling order: the initial
    #: ``"join"``s, the join-phase ``"measure"``s, then each churn ``"slot"``
    #: and the ``"measure"`` that closes it (``node`` only on a join).
    entries: list[tuple[float, int, str, int | None]]


def session_schedule(cfg: SessionConfig, hosts: list[int]) -> SessionSchedule:
    """Draw the source, the initial joins and the measurement and slot
    instants of a session over ``hosts`` from its ``membership`` stream."""
    if len(hosts) < cfg.n_nodes + 1:
        raise ValueError(
            f"underlay has {len(hosts)} hosts; need at least "
            f"{cfg.n_nodes + 1} (members + source)"
        )
    rng = spawn_rng(cfg.seed, "membership")
    if cfg.source_host is not None:
        if cfg.source_host not in hosts:
            raise KeyError(f"unknown host {cfg.source_host!r}")
        source = cfg.source_host
    else:
        source = int(hosts[int(rng.integers(len(hosts)))])
    pool = frozenset(hosts) - {source}

    # Initial joiners: spread over the first 90% of the join phase so
    # the tree is quiet when the churn phase starts.
    pool_arr = sorted(pool)
    initial = rng.choice(pool_arr, size=cfg.n_nodes, replace=False)
    times = np.sort(rng.uniform(0.0, 0.9 * cfg.join_phase_s, size=cfg.n_nodes))
    entries = [(float(t), 0, "join", int(node)) for node, t in zip(initial, times)]

    # Optional join-phase measurement cadence (Chapter 4 time series).
    if cfg.join_measure_interval_s is not None:
        t = cfg.join_measure_interval_s
        while t <= cfg.join_phase_s:
            entries.append((t, 10, "measure", None))
            t += cfg.join_measure_interval_s

    # Churn slots, each closed by a measurement.
    slot_start = cfg.join_phase_s
    while slot_start + cfg.slot_s <= cfg.total_s + 1e-9:
        entries.append((slot_start, 5, "slot", None))
        entries.append((slot_start + cfg.slot_s, 10, "measure", None))
        slot_start += cfg.slot_s
    return SessionSchedule(source, pool, entries)


@dataclass
class SessionResult:
    """Everything a finished session produced."""

    config: SessionConfig
    records: list[MeasurementRecord]
    join_records: list[JoinRecord]
    runtime: ProtocolRuntime
    accountant: DeliveryAccountant
    #: invariant violations observed during the run (empty unless
    #: ``invariant_mode="record"`` collected some — in ``"raise"`` mode the
    #: first one aborts the run before a result exists).
    violations: list[InvariantViolation] = field(default_factory=list)
    #: injected-fault tally by kind (empty when no fault plan was active).
    fault_counts: dict[str, int] = field(default_factory=dict)
    #: damage-episode durations (first orphan -> legal tree again), only
    #: collected when faults or precomputed failover were in play.
    recovery_times: list[float] = field(default_factory=list)
    #: ``switch``/``fallback`` tally from the failover manager (empty on
    #: reactive runs).
    failover_counts: dict[str, int] = field(default_factory=dict)

    # -- join/reconnect timing ----------------------------------------------------

    def durations(self, kind: str, *, succeeded: bool = True) -> list[float]:
        """Durations (seconds) of join attempts of the given kind."""
        return [
            r.duration
            for r in self.join_records
            if r.kind == kind and r.succeeded == succeeded
        ]

    def startup_times(self) -> list[float]:
        return self.durations("join")

    def reconnection_times(self) -> list[float]:
        return self.durations("reconnect")

    # -- measurement aggregation ------------------------------------------------------

    def churn_phase_records(self) -> list[MeasurementRecord]:
        """Measurements taken at churn-slot boundaries (after the join phase)."""
        return [r for r in self.records if r.time > self.config.join_phase_s]

    def steady_records(self) -> list[MeasurementRecord]:
        """Churn-phase records if any, else every record (no-churn runs)."""
        churn = self.churn_phase_records()
        return churn if churn else list(self.records)

    def mean_metric(self, extract: Callable[[MeasurementRecord], float]) -> float:
        """Average an extracted scalar over the steady-phase measurements."""
        records = self.steady_records()
        if not records:
            raise ValueError("session produced no measurements")
        return sum(extract(r) for r in records) / len(records)

    @property
    def final(self) -> MeasurementRecord:
        if not self.records:
            raise ValueError("session produced no measurements")
        return self.records[-1]


class MulticastSession:
    """One simulated multicast session (one replication of an experiment)."""

    def __init__(
        self,
        underlay: Underlay,
        agent_factory: AgentFactory,
        config: SessionConfig,
        *,
        metric_factory: MetricFactory | None = None,
    ) -> None:
        self.underlay = underlay
        self.agent_factory = agent_factory
        self.config = config
        self.schedule = session_schedule(config, list(underlay.hosts))
        self.source = self.schedule.source
        self._rng_degrees = spawn_rng(config.seed, "degrees")
        self.sim = Simulator()
        metric = metric_factory(underlay) if metric_factory else None
        self.env = ProtocolRuntime(
            self.sim,
            underlay,
            self.source,
            metric=metric,
            timeout_ms=config.timeout_ms,
            measurement_noise_sigma=config.measurement_noise_sigma,
            noise_rng=spawn_rng(config.seed, "noise"),
        )
        self.accountant = DeliveryAccountant(
            self.env.tree, underlay, chunk_rate=config.chunk_rate
        )
        self._active: set[int] = set()
        # Listener order matters: the accountant (already subscribed) sees
        # each mutation first, then the checker validates it, then the
        # injector's failure detectors react to it.
        self.checker: InvariantChecker | None = None
        if config.invariant_mode != "off":
            self.checker = InvariantChecker(
                self.env,
                mode=config.invariant_mode,
                full_sweep_every=config.invariant_sweep_every,
            )
        plan = resolve_fault_plan(config.faults)
        self._injector: FaultInjector | None = None
        if plan is not None and not plan.is_noop():
            self._injector = FaultInjector(
                plan, self.env, on_crash=self._active.discard
            )
        # The failover manager subscribes after the injector so its backup
        # refreshes observe every mutation the injector commits; the
        # recovery tracker comes last so its legality probe sees the final
        # post-mutation state.
        self._failover: FailoverManager | None = None
        if config.failover == "precomputed":
            self._failover = FailoverManager(self.env)
        self._recovery: RecoveryTracker | None = None
        if self._injector is not None or self._failover is not None:
            self._recovery = RecoveryTracker(self.env)
        self._records: list[MeasurementRecord] = []
        self._churn = SlottedChurnModel.from_config(config)
        degree = config.source_degree
        if degree is None:
            degree = draw_degree(config.degree, self._rng_degrees)
        register_agent(self.env, agent_factory, self.source, degree, config.seed)

    # -- membership actions -------------------------------------------------------------

    def join(self, node: int) -> None:
        """Connect ``node`` now; a no-op for the source or a member."""
        if node in self._active or node == self.source:
            return
        agent = register_agent(
            self.env,
            self.agent_factory,
            node,
            draw_degree(self.config.degree, self._rng_degrees),
            self.config.seed,
            self.sim.events_processed,
        )
        self._active.add(node)
        agent.start_join()
        period = self.config.refine_period_s
        if period is None:
            period = agent.protocol.refine_period_s
        if period is not None:
            agent.start_refinement(
                period, jitter_rng=spawn_rng(self.config.seed, "refine", node)
            )
        if self._injector is not None:
            self._injector.after_join(node)

    def leave(self, node: int) -> None:
        """Disconnect member ``node`` now; a no-op for a non-member."""
        if node not in self._active:
            return
        agent = self.env.agents.get(node)
        if agent is None or not self.env.is_alive(node):
            self._active.discard(node)
            return
        if self._injector is not None and self._injector.crash_instead_of_leave():
            # Silent crash: no goodbye protocol; the injector's failure
            # detection (and its on_crash callback) takes it from here.
            self._injector.crash(node)
        else:
            self._active.discard(node)
            agent.leave()

    # -- measurement ----------------------------------------------------------------------

    def _measure(self) -> None:
        control_now = self.env.total_control_messages
        take_measurement(self.accountant, self._records, self.sim.now, control_now)

    # -- run -------------------------------------------------------------------------------

    def run(self) -> SessionResult:
        cfg = self.config
        for time, priority, kind, node in self.schedule.entries:
            if kind == "join":
                callback = partial(self.join, node)
            elif kind == "slot":
                callback = partial(self._run_slot, time)
            else:
                callback = self._measure
            self.sim.schedule(time, callback, priority=priority, label=kind)

        with paused_gc():
            self.sim.run_until(cfg.total_s)
        if not self._records or self._records[-1].time < cfg.total_s:
            self._measure()
        violations: list[InvariantViolation] = []
        if self.checker is not None:
            self.checker.verify_all()
            violations = list(self.checker.violations)
        fault_counts: dict[str, int] = {}
        if self._injector is not None:
            fault_counts = dict(self._injector.counts)
        recovery_times: list[float] = []
        if self._recovery is not None:
            recovery_times = list(self._recovery.recovery_times)
        failover_counts: dict[str, int] = {}
        if self._failover is not None:
            failover_counts = dict(self._failover.counts)
        return SessionResult(
            config=cfg,
            records=self._records,
            join_records=list(self.env.join_records),
            runtime=self.env,
            accountant=self.accountant,
            violations=violations,
            fault_counts=fault_counts,
            recovery_times=recovery_times,
            failover_counts=failover_counts,
        )

    def _run_slot(self, slot_start: float) -> None:
        active = self._active.intersection(self.env.alive_nodes())
        inactive = self.schedule.pool - self._active
        events = self._churn.plan_slot(slot_start, active, inactive)
        for ev in events:
            command = self.join if ev.action == "join" else self.leave
            self.sim.schedule(
                ev.time, partial(command, ev.node), label=f"churn-{ev.action}"
            )
