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
every interval while nodes keep joining) and, underneath the PlanetLab
controller, the Chapter 5 emulation.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
    "MulticastSession",
    "draw_degree",
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


def take_measurement(
    accountant: DeliveryAccountant,
    since: float,
    now: float,
    control_since: int,
    control_now: int,
) -> MeasurementRecord:
    """One measurement: the accountant's tree now, and the window since.

    ``control_since`` and ``control_now`` are the session's cumulative
    control-message counts at the two instants; their difference is the
    numerator of the window's overhead (eq. 3.6).  Both session engines
    (this module's and :mod:`repro.sim.batched`) record through here.
    """
    tree = accountant.tree
    window = accountant.window_snapshot(since, now)
    data_msgs = window.data_messages
    metrics = collect_tree_metrics(tree, accountant.underlay, accountant.link_usage)
    return MeasurementRecord(
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
    )


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
        hosts = list(underlay.hosts)
        if len(hosts) < config.n_nodes + 1:
            raise ValueError(
                f"underlay has {len(hosts)} hosts; need at least "
                f"{config.n_nodes + 1} (members + source)"
            )
        self._rng_membership = spawn_rng(config.seed, "membership")
        self._rng_degrees = spawn_rng(config.seed, "degrees")
        if config.source_host is not None:
            underlay.validate_host(config.source_host)
            self.source = config.source_host
        else:
            self.source = int(
                hosts[int(self._rng_membership.integers(len(hosts)))]
            )
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
        self._pool = [h for h in hosts if h != self.source]
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
        self._last_measure_time = 0.0
        self._last_control_count = 0
        self._churn = SlottedChurnModel.from_config(config)
        self._register_source()

    # -- setup --------------------------------------------------------------------

    def _register_source(self) -> None:
        cfg = self.config
        degree = cfg.source_degree
        if degree is None:
            degree = draw_degree(cfg.degree, self._rng_degrees)
        agent = self.agent_factory(
            self.source,
            self.env,
            degree_limit=degree,
            rng=partial(spawn_rng, cfg.seed, "agent", self.source),
        )
        self.env.register(agent)

    # -- membership actions -------------------------------------------------------------

    def _do_join(self, node: int) -> None:
        if node in self._active or node == self.source:
            return
        degree = draw_degree(self.config.degree, self._rng_degrees)
        agent = self.agent_factory(
            node,
            self.env,
            degree_limit=degree,
            # The stream's key path, not the stream (OverlayAgent.rng):
            # most agents never draw.
            rng=partial(
                spawn_rng, self.config.seed, "agent", node, self.sim.events_processed
            ),
        )
        self.env.register(agent)
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

    def _do_leave(self, node: int) -> None:
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
        now = self.sim.now
        control_now = self.env.total_control_messages
        self._records.append(
            take_measurement(
                self.accountant,
                self._last_measure_time,
                now,
                self._last_control_count,
                control_now,
            )
        )
        self._last_measure_time = now
        self._last_control_count = control_now

    # -- run -------------------------------------------------------------------------------

    def run(self) -> SessionResult:
        cfg = self.config
        rng = self._rng_membership

        # Initial joiners: spread over the first 90% of the join phase so
        # the tree is quiet when the churn phase starts.
        pool_arr = sorted(self._pool)
        initial = rng.choice(pool_arr, size=cfg.n_nodes, replace=False)
        join_window = 0.9 * cfg.join_phase_s
        times = np.sort(rng.uniform(0.0, join_window, size=cfg.n_nodes))
        for node, t in zip(initial, times):
            self.sim.schedule(
                float(t), lambda n=int(node): self._do_join(n), label="join"
            )

        # Optional join-phase measurement cadence (Chapter 4 time series).
        if cfg.join_measure_interval_s is not None:
            t = cfg.join_measure_interval_s
            while t <= cfg.join_phase_s:
                self.sim.schedule(t, self._measure, priority=10, label="measure")
                t += cfg.join_measure_interval_s

        # Churn slots.
        slot_start = cfg.join_phase_s
        while slot_start + cfg.slot_s <= cfg.total_s + 1e-9:
            self.sim.schedule(
                slot_start,
                lambda t=slot_start: self._run_slot(t),
                priority=5,
                label="slot",
            )
            self.sim.schedule(
                slot_start + cfg.slot_s,
                self._measure,
                priority=10,
                label="measure",
            )
            slot_start += cfg.slot_s

        # Cyclic-GC pause for the duration of the event loop.  A session
        # allocates millions of short-lived events and closures; generational
        # collections mid-run repeatedly rescan the long-lived tree state they
        # promote, for ~6% of wall time.  Collection timing cannot affect
        # simulation results, so pausing is observationally free; the prior
        # GC state is restored on exit and the deferred garbage is reclaimed
        # by the next natural collection.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run_until(cfg.total_s)
        finally:
            if gc_was_enabled:
                gc.enable()
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
        active = sorted(self._active & set(self.env.alive_nodes()))
        inactive = sorted(set(self._pool) - self._active)
        events = self._churn.plan_slot(slot_start, active, inactive)
        for ev in events:
            if ev.action == "join":
                self.sim.schedule(
                    ev.time, lambda n=ev.node: self._do_join(n), label="churn-join"
                )
            else:
                self.sim.schedule(
                    ev.time, lambda n=ev.node: self._do_leave(n), label="churn-leave"
                )
