"""Deterministic fault injection for protocol sessions.

The paper's evaluation only exercises the slotted leave/join process; the
protocol agents never see a lost message, a delayed reply, or a peer that
dies without saying goodbye.  This module supplies those adversities as a
*seeded, reproducible* layer between the runtime and the agents:

* :class:`FaultPlan` — a declarative, serializable description of a fault
  schedule.  Every stochastic choice the injector makes derives from
  ``plan.seed`` through the usual :func:`~repro.util.rngtools.spawn_rng`
  key paths, so a plan replays bit-identically and can be pinned as a
  JSON test fixture.
* :class:`FaultInjector` — the active layer.  It hooks
  :meth:`~repro.protocols.base.ProtocolRuntime.tell` /
  :meth:`~repro.protocols.base.ProtocolRuntime.request` deliveries
  (drop, duplication, extra delay jitter, reply loss) and the session's
  churn path (crash-without-goodbye, crash mid-join-handshake, transient
  node freezes).

Failure *detection* also lives here.  Graceful leaves announce themselves
with ``LeaveNotice`` control messages, but a crashed node is silent; in a
deployed system its neighbours notice because the data stream stops.  The
injector emulates exactly that stream watchdog: ``detect_delay_s`` after a
crash the dead node is removed from the ground-truth tree, its parent
reclaims the child slot, and its children begin the protocol's own
reconnection procedure (:meth:`OverlayAgent.on_parent_lost`).  An orphan
watchdog re-arms until every dangling subtree has actually recovered, so
recovery time is bounded by protocol behaviour, not by lost notifications.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

from repro.util.rngtools import spawn_rng
from repro.util.validation import (
    check_count, check_fields, checked, count, non_negative, optional, positive,
    probability, rng_seed, string,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.protocols.base import ProtocolRuntime
    from repro.protocols.messages import Message

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "UnsupportedFaultPlan",
    "FAULT_PRESETS",
    "CORRELATED_PRESETS",
    "resolve_fault_plan",
]


class UnsupportedFaultPlan(RuntimeError):
    """A fault plan requires capabilities the session's substrate lacks.

    Raised at injector construction (never mid-run) when a correlated
    plan needs underlay domain membership — a transit-domain outage or a
    partition — but the underlay cannot answer
    :meth:`~repro.sim.network.Underlay.host_domain` for its hosts (e.g. a
    :class:`~repro.sim.network.MatrixUnderlay` has no router topology at
    all).  Conformance tests assert this exact type so unsupported
    combinations fail loudly instead of silently skipping the fault.
    """


def _domain_ids(name: str, value) -> tuple[int, ...]:
    """A tuple of transit-domain ids (whole numbers >= 0)."""
    if not isinstance(value, tuple):
        raise ValueError(f"{name} must be a tuple of domain ids, got {value!r}")
    for domain in value:
        check_count(name, domain, 0)
    return value


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of one fault schedule.

    All probabilities are per-opportunity: per message leg for the message
    faults, per leave for ``crash_fraction``, per join for the mid-join
    crash and freeze faults.  The plan itself is pure data — the injector
    derives every concrete fault time from ``seed``, so two runs of the
    same plan against the same session produce the same schedule.
    """

    name: str = checked(string, "none")
    seed: int = checked(rng_seed, 0)

    # -- message plane -------------------------------------------------------
    #: probability any control-message leg (tell, request, reply) is lost
    drop_rate: float = checked(probability, 0.0)
    #: probability a delivered leg arrives twice (network duplication)
    duplicate_rate: float = checked(probability, 0.0)
    #: extra uniform [0, jitter_ms] delay added to every delivered leg
    jitter_ms: float = checked(non_negative, 0.0)
    #: extra loss applied to reply legs only (asymmetric-path loss: the
    #: target processed the request, the requester never learns)
    reply_loss_rate: float = checked(probability, 0.0)

    # -- churn plane ---------------------------------------------------------
    #: fraction of scheduled leaves converted into crash-without-goodbye
    crash_fraction: float = checked(probability, 0.0)
    #: probability a fresh joiner crashes during its join handshake
    midjoin_crash_rate: float = checked(probability, 0.0)
    #: the mid-join crash lands uniformly within this window after join start
    midjoin_crash_window_s: float = checked(positive, 10.0)
    #: probability a joiner suffers one transient freeze during its life
    freeze_rate: float = checked(probability, 0.0)
    #: the freeze starts uniformly within this window after join start
    freeze_delay_s: float = checked(positive, 200.0)
    #: how long a frozen node stays unresponsive
    freeze_duration_s: float = checked(positive, 30.0)

    # -- correlated plane ----------------------------------------------------
    #: transit domain whose members all crash at ``domain_outage_at_s``
    #: (whole-domain outage; requires an underlay with domain membership)
    domain_outage_domain: int | None = checked(optional(count(0)), None)
    #: when the domain outage strikes (``None`` disables it)
    domain_outage_at_s: float | None = checked(optional(non_negative), None)
    #: transit domains forming one side of a network partition; every
    #: cross-side message leg is lost while the partition is up
    partition_domains: tuple[int, ...] = checked(_domain_ids, ())
    #: when the partition starts / heals (both required to enable it)
    partition_at_s: float | None = checked(optional(non_negative), None)
    partition_heal_s: float | None = checked(optional(non_negative), None)
    #: start of a correlated loss burst (``None`` disables it)
    burst_at_s: float | None = checked(optional(non_negative), None)
    #: how long the burst lasts
    burst_duration_s: float = checked(positive, 30.0)
    #: per-leg drop probability while the burst is up
    burst_loss_rate: float = checked(probability, 0.0)

    # -- detection -----------------------------------------------------------
    #: stream-outage detection latency (crash departure + orphan watchdog)
    detect_delay_s: float = checked(positive, 4.0)
    #: stop injecting new faults after this simulation time (``None`` =
    #: faults for the whole run); detection/recovery keeps running, which
    #: gives conformance tests a fault-free tail to recover in
    active_until_s: float | None = checked(optional(non_negative), None)

    def __post_init__(self) -> None:
        check_fields(self)
        if (self.domain_outage_domain is None) != (self.domain_outage_at_s is None):
            raise ValueError(
                "domain_outage_domain and domain_outage_at_s must be set together"
            )
        partition_knobs = (
            bool(self.partition_domains),
            self.partition_at_s is not None,
            self.partition_heal_s is not None,
        )
        if any(partition_knobs) and not all(partition_knobs):
            raise ValueError(
                "partition_domains, partition_at_s and partition_heal_s "
                "must be set together"
            )
        if self.partition_at_s is not None:
            if self.partition_heal_s <= self.partition_at_s:
                raise ValueError(
                    "partition_heal_s must be strictly after partition_at_s"
                )

    def message_windows(self) -> tuple[tuple[float, float], ...]:
        """Closed virtual-time intervals in which a message leg can be touched.

        Derived from the plan alone, merged and sorted.  At any instant
        strictly outside all of them :meth:`FaultInjector.delivery_delays`
        returns ``(base_delay,)`` for every leg and draws nothing from
        its RNG, so the runtime may deliver without asking it:

        * an always-on rate (drop, duplicate, jitter, reply loss) can act
          from ``0`` until ``active_until_s`` (for ever when that is
          ``None``);
        * a partition from ``partition_at_s`` to ``partition_heal_s`` —
          both ends included, so a leg sharing its instant with the
          partition or heal event is judged by the injector's own flag,
          whichever of the two the engine fires first;
        * a loss burst from ``burst_at_s`` until it ends or the plan goes
          inactive, whichever comes first.
        """
        until = math.inf if self.active_until_s is None else self.active_until_s
        spans = []
        if (
            self.drop_rate
            or self.duplicate_rate
            or self.jitter_ms
            or self.reply_loss_rate
        ):
            spans.append((0.0, until))
        if self.partition_at_s is not None:
            spans.append((self.partition_at_s, self.partition_heal_s))
        if self.burst_at_s is not None and self.burst_loss_rate > 0.0:
            spans.append(
                (self.burst_at_s, min(self.burst_at_s + self.burst_duration_s, until))
            )
        merged: list[tuple[float, float]] = []
        for lo, hi in sorted(spans):
            if lo > hi:
                continue  # a burst that starts after the plan went inactive
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return tuple(merged)

    def touches_messages(self) -> bool:
        """Whether this plan can ever drop, duplicate or delay a message leg.

        A plan with no :meth:`message_windows` (crashes, freezes and
        domain outages only — and the noop plan) is *message-inert*: the
        injector leaves the runtime's per-message hook uninstalled.
        """
        return bool(self.message_windows())

    def is_noop(self) -> bool:
        """Whether this plan injects no faults at all."""
        return not (
            self.touches_messages()
            or self.crash_fraction
            or self.midjoin_crash_rate
            or self.freeze_rate
            or self.domain_outage_at_s is not None
        )

    def needs_domains(self) -> bool:
        """Whether this plan requires underlay domain membership."""
        return self.domain_outage_at_s is not None or self.partition_at_s is not None

    # -- serialization (test fixtures) --------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["partition_domains"] = list(self.partition_domains)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        data = dict(data)
        if "partition_domains" in data:
            data["partition_domains"] = tuple(data["partition_domains"])
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or detection action), for traces and reports."""

    time: float
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"t={self.time:.3f} {self.kind}: {self.detail}"


#: named plans the harness exposes through ``--faults``; the conformance
#: suite sweeps every fault-bearing entry against every protocol.
FAULT_PRESETS: dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "lossy": FaultPlan(name="lossy", seed=101, drop_rate=0.05),
    "jittery": FaultPlan(
        name="jittery", seed=102, jitter_ms=250.0, duplicate_rate=0.05
    ),
    "reply-loss": FaultPlan(name="reply-loss", seed=103, reply_loss_rate=0.10),
    "crashy": FaultPlan(
        name="crashy", seed=104, crash_fraction=0.5, midjoin_crash_rate=0.15
    ),
    "freezer": FaultPlan(
        name="freezer",
        seed=105,
        freeze_rate=0.3,
        freeze_delay_s=120.0,
        freeze_duration_s=20.0,
    ),
    "chaos": FaultPlan(
        name="chaos",
        seed=106,
        drop_rate=0.03,
        duplicate_rate=0.03,
        jitter_ms=150.0,
        reply_loss_rate=0.05,
        crash_fraction=0.3,
        midjoin_crash_rate=0.10,
        freeze_rate=0.15,
        freeze_duration_s=15.0,
    ),
    # correlated scenarios: whole-transit-domain outage, network
    # partition + heal, and a correlated loss burst — the failure classes
    # the paper never evaluated.
    "domain-outage": FaultPlan(
        name="domain-outage",
        seed=107,
        domain_outage_domain=1,
        domain_outage_at_s=800.0,
    ),
    "partition": FaultPlan(
        name="partition",
        seed=108,
        partition_domains=(1,),
        partition_at_s=700.0,
        partition_heal_s=1000.0,
    ),
    "burst-loss": FaultPlan(
        name="burst-loss",
        seed=109,
        burst_at_s=600.0,
        burst_duration_s=120.0,
        burst_loss_rate=0.6,
    ),
}

#: the correlated scenario family swept by the ``ch6_failover`` chapter
CORRELATED_PRESETS: tuple[str, ...] = ("domain-outage", "partition", "burst-loss")


def resolve_fault_plan(plan: "FaultPlan | str | None") -> "FaultPlan | None":
    """Coerce a plan spec (name, plan object, or ``None``) into a plan."""
    if plan is None or isinstance(plan, FaultPlan):
        return plan
    try:
        return FAULT_PRESETS[plan]
    except KeyError:
        raise KeyError(
            f"unknown fault plan {plan!r}; choose from {sorted(FAULT_PRESETS)}"
        ) from None


class FaultInjector:
    """Executes a :class:`FaultPlan` against one session's runtime.

    Construction installs the injector as ``env.faults`` — and, only when
    the plan :meth:`~FaultPlan.touches_messages`, as ``env.message_faults``
    (the runtime's per-message delivery hook) — and subscribes to the tree
    registry so crashes committed late (a connection request already in
    flight when the sender died) and orphans created by lost leave notices
    are still detected.  :attr:`message_windows` publishes the plan's
    :meth:`~FaultPlan.message_windows`; the runtime hands
    :meth:`delivery_delays` only the legs that fall inside one.

    The session drives the churn-plane faults through
    :meth:`crash_instead_of_leave` and :meth:`after_join`.
    """

    #: kept fault events (a trace tail, not a full history)
    LOG_LEN = 4096

    def __init__(
        self,
        plan: FaultPlan,
        env: "ProtocolRuntime",
        *,
        on_crash: Callable[[int], None] | None = None,
    ) -> None:
        self.plan = plan
        self.env = env
        self.on_crash = on_crash
        self.message_windows = plan.message_windows()
        self._rng_msg = spawn_rng(plan.seed, "faults", "msg")
        # The message stream is read through a block buffer, like the
        # runtime's measurement noise: ``random()`` and ``uniform(0, j)``
        # each consume exactly one double of the stream, so serving both
        # from ``random(256)`` blocks is bit-for-bit the per-call sequence.
        self._msg_buf: list[float] = []
        self._msg_pos = 0
        self._rng_life = spawn_rng(plan.seed, "faults", "life")
        self.log: deque[FaultEvent] = deque(maxlen=self.LOG_LEN)
        self.counts: Counter[str] = Counter()
        # Dedupe state: one pending crash-detection per dead node and one
        # re-arming watchdog chain per orphan.  Without these, a node that
        # dies and is re-attached (or re-orphaned) in the same detection
        # window spawns a second independent chain, double-counting
        # detection work and outage bookkeeping downstream.
        self._pending_detect: set[int] = set()
        self._armed_watchdog: set[int] = set()
        self._partitioned = False
        self._partition_set = frozenset(plan.partition_domains)
        self._domains: dict[int, int] = {}
        if plan.needs_domains():
            self._domains = self._resolve_domains()
        env.faults = self
        if self.message_windows:
            env.message_faults = self
        env.tree.add_listener(self._on_tree_event)
        self._schedule_correlated()

    def _resolve_domains(self) -> dict[int, int]:
        """Map every underlay host to its transit domain, or raise."""
        underlay = self.env.underlay
        domains: dict[int, int] = {}
        for host in underlay.hosts:
            domain = underlay.host_domain(host)
            if domain is None:
                raise UnsupportedFaultPlan(
                    f"fault plan {self.plan.name!r} needs transit-domain "
                    f"membership, but the underlay cannot place host {host} "
                    "in a domain (matrix substrates have no router topology)"
                )
            domains[host] = domain
        plan = self.plan
        known = set(domains.values())
        wanted = set(plan.partition_domains)
        if plan.domain_outage_domain is not None:
            wanted.add(plan.domain_outage_domain)
        missing = sorted(wanted - known)
        if missing:
            raise UnsupportedFaultPlan(
                f"fault plan {self.plan.name!r} references transit "
                f"domain(s) {missing} but the underlay only has {sorted(known)}"
            )
        return domains

    def _schedule_correlated(self) -> None:
        """Arm the absolute-time correlated events of the plan."""
        plan = self.plan
        sim = self.env.sim
        if plan.domain_outage_at_s is not None:
            sim.schedule(
                plan.domain_outage_at_s,
                self._domain_outage,
                label="fault-domain-outage",
            )
        if plan.partition_at_s is not None:
            sim.schedule(
                plan.partition_at_s, self._partition_start, label="fault-partition"
            )
            sim.schedule(
                plan.partition_heal_s,
                self._partition_heal,
                label="fault-partition-heal",
            )

    # -- plumbing -------------------------------------------------------------

    def _active(self) -> bool:
        until = self.plan.active_until_s
        return until is None or self.env.sim.now < until

    def _log(self, kind: str, detail: str) -> None:
        self.counts[kind] += 1
        self.log.append(FaultEvent(self.env.sim.now, kind, detail))

    # -- message plane (called by ProtocolRuntime) ----------------------------

    def delivery_delays(
        self,
        src: int,
        dst: int,
        msg: "Message",
        base_delay: float,
        *,
        leg: str,
    ) -> tuple[float, ...]:
        """Delivery times for one message leg; empty means the leg is lost."""
        plan = self.plan
        # Partition loss is structural, not stochastic: it applies to every
        # cross-side leg for as long as the partition is up, regardless of
        # the plan's active window (the heal event ends it).
        if self._partitioned and self._side(src) != self._side(dst):
            self._log_leg("partition-drop", leg, msg, src, dst)
            return ()
        if not self._active():
            return (base_delay,)
        draw = self._draw
        if self._burst_active() and draw() < plan.burst_loss_rate:
            self._log_leg("burst-drop", leg, msg, src, dst)
            return ()
        if plan.drop_rate > 0.0 and draw() < plan.drop_rate:
            self._log_leg("drop", leg, msg, src, dst)
            return ()
        if (
            leg == "reply"
            and plan.reply_loss_rate > 0.0
            and draw() < plan.reply_loss_rate
        ):
            self._log_leg("reply-loss", leg, msg, src, dst)
            return ()
        delays = [base_delay + self._jitter()]
        if plan.duplicate_rate > 0.0 and draw() < plan.duplicate_rate:
            self._log_leg("duplicate", leg, msg, src, dst)
            delays.append(base_delay + self._jitter())
        return tuple(delays)

    def _draw(self) -> float:
        """The next double of the message stream, in stream order."""
        pos = self._msg_pos
        if pos == len(self._msg_buf):
            self._msg_buf = self._rng_msg.random(256).tolist()
            pos = 0
        self._msg_pos = pos + 1
        return self._msg_buf[pos]

    def _log_leg(self, kind: str, leg: str, msg: "Message", src: int, dst: int) -> None:
        # Formats the label only on the rare faulted leg, never per message.
        self._log(kind, f"{leg} {type(msg).__name__} {src}->{dst}")

    def _jitter(self) -> float:
        if self.plan.jitter_ms <= 0.0:
            return 0.0
        # ``Generator.uniform(0.0, j)`` is ``0.0 + j * next_double``.
        return (0.0 + self.plan.jitter_ms * self._draw()) / 1000.0

    def _burst_active(self) -> bool:
        plan = self.plan
        if plan.burst_at_s is None or plan.burst_loss_rate <= 0.0:
            return False
        now = self.env.sim.now
        return plan.burst_at_s <= now < plan.burst_at_s + plan.burst_duration_s

    # -- correlated plane -----------------------------------------------------

    def _side(self, host: int) -> bool:
        """Which side of the configured partition ``host`` lives on."""
        return self._domains.get(host) in self._partition_set

    def is_partitioned(self, a: int, b: int) -> bool:
        """Whether hosts ``a`` and ``b`` currently cannot exchange messages."""
        return self._partitioned and self._side(a) != self._side(b)

    def _domain_outage(self) -> None:
        """Crash every live member attached to the plan's transit domain."""
        env = self.env
        domain = self.plan.domain_outage_domain
        victims = [
            node
            for node in sorted(env.agents)
            if node != env.source
            and env.is_alive(node)
            and self._domains.get(node) == domain
        ]
        self._log("domain-outage", f"domain {domain}: {len(victims)} nodes")
        for node in victims:
            self.crash(node)

    def _partition_start(self) -> None:
        """Raise the partition and sever every cross-side tree edge.

        The tree edges are cut immediately (the data stream over them is
        dead from this instant), emitting orphan events that arm the
        watchdog, so recovery runs through the protocol's own
        reconnection machinery — which itself cannot cross the partition.
        """
        env = self.env
        tree = env.tree
        self._partitioned = True
        cross = sorted(
            child
            for child, parent in tree.parent.items()
            if parent is not None and self._side(child) != self._side(parent)
        )
        self._log("partition", f"domains {sorted(self._partition_set)}, "
                               f"{len(cross)} tree edges severed")
        for child in cross:
            parent = tree.parent.get(child)
            if parent is None:
                continue
            tree.sever(child, env.sim.now)
            parent_agent = env.agents.get(parent)
            if parent_agent is not None:
                parent_agent.children.pop(child, None)
            child_agent = env.agents.get(child)
            if (
                child_agent is not None
                and env.is_alive(child)
                and child_agent.parent == parent
            ):
                child_agent.parent = None
                child_agent.on_parent_lost()

    def _partition_heal(self) -> None:
        self._partitioned = False
        self._log("partition-heal", f"domains {sorted(self._partition_set)}")

    # -- churn plane (called by the session) ----------------------------------

    def crash_instead_of_leave(self) -> bool:
        """Whether the next scheduled leave becomes a silent crash."""
        return (
            self._active()
            and self.plan.crash_fraction > 0.0
            and self._rng_life.random() < self.plan.crash_fraction
        )

    def after_join(self, node: int) -> None:
        """Arm per-node lifecycle faults when ``node`` starts joining."""
        if not self._active():
            return
        plan = self.plan
        rng = self._rng_life
        sim = self.env.sim
        if plan.midjoin_crash_rate > 0.0 and rng.random() < plan.midjoin_crash_rate:
            delay = float(rng.uniform(0.0, plan.midjoin_crash_window_s))
            sim.schedule_in(
                delay, lambda: self._midjoin_crash(node), label="fault-midjoin"
            )
        if plan.freeze_rate > 0.0 and rng.random() < plan.freeze_rate:
            delay = float(rng.uniform(0.0, plan.freeze_delay_s))
            sim.schedule_in(delay, lambda: self._freeze(node), label="fault-freeze")

    # -- crashes --------------------------------------------------------------

    def crash(self, node: int) -> None:
        """Kill ``node`` without any goodbye protocol.

        The node goes dark immediately; the registry keeps its (now stale)
        edges until stream-outage detection fires ``detect_delay_s`` later.
        """
        env = self.env
        if node == env.source or not env.is_alive(node):
            return
        agent = env.agents.get(node)
        if agent is not None:
            agent.cancel_active_process()
            agent.stop_refinement()
        env.mark_dead(node)
        self._log("crash", str(node))
        if self.on_crash is not None:
            self.on_crash(node)
        self._schedule_detect(node)

    def _schedule_detect(self, node: int) -> None:
        """Schedule crash detection once per dead node.

        Both the crash itself and late tree commits (a request already in
        flight when the sender died) funnel through here; the pending set
        guarantees a node that dies and is re-attached inside one
        detection window is detected exactly once, not once per trigger.
        """
        if node in self._pending_detect:
            return
        self._pending_detect.add(node)
        self.env.sim.schedule_in(
            self.plan.detect_delay_s,
            lambda: self._detect_crash(node),
            label="fault-detect",
        )

    def _midjoin_crash(self, node: int) -> None:
        if self.env.is_alive(node):
            self._log("midjoin-crash", str(node))
            self.crash(node)

    def _detect_crash(self, node: int) -> None:
        """Stream-outage detection: purge a dead node from the tree and
        hand its children to the protocol's reconnection logic."""
        env = self.env
        tree = env.tree
        self._pending_detect.discard(node)
        if env.is_alive(node) or not tree.is_present(node):
            return
        parent = tree.parent.get(node)
        children = sorted(tree.children.get(node, ()))
        tree.depart(node, env.sim.now)
        self._log(
            "detect-depart", f"{node} (parent {parent}, {len(children)} orphans)"
        )
        if parent is not None and env.is_alive(parent):
            parent_agent = env.agents.get(parent)
            if parent_agent is not None:
                parent_agent.children.pop(node, None)
        for child in children:
            child_agent = env.agents.get(child)
            if (
                child_agent is not None
                and env.is_alive(child)
                and child_agent.parent == node
            ):
                child_agent.parent = None
                child_agent.on_parent_lost()

    # -- freezes --------------------------------------------------------------

    def _freeze(self, node: int) -> None:
        env = self.env
        if not env.is_alive(node):
            return
        env.freeze(node)
        self._log("freeze", str(node))
        env.sim.schedule_in(
            self.plan.freeze_duration_s, lambda: self._thaw(node), label="fault-thaw"
        )

    def _thaw(self, node: int) -> None:
        self.env.thaw(node)
        if self.env.is_alive(node):
            self._log("thaw", str(node))

    # -- detection via tree events --------------------------------------------

    def _on_tree_event(
        self, kind: str, node: int, parent: int | None, time: float
    ) -> None:
        if kind in ("attach", "reparent") and not self.env.is_alive(node):
            # A crashed node's connection request was already in flight and
            # committed after its death — detect that edge too.
            self._schedule_detect(node)
        elif kind == "orphan":
            self._arm_watchdog(node)

    def _arm_watchdog(self, node: int) -> None:
        """Start the orphan watchdog chain for ``node`` — at most one.

        Repeated orphan events inside one detection window (a node whose
        parent dies, reconnects, and is immediately re-orphaned by a
        second fault) must not stack independent re-arming chains: each
        chain would re-trigger reconnection on its own cadence and
        double-count recovery work.
        """
        if node in self._armed_watchdog:
            return
        self._armed_watchdog.add(node)
        self._rearm_watchdog(node)

    def _rearm_watchdog(self, node: int) -> None:
        self.env.sim.schedule_in(
            self.plan.detect_delay_s,
            lambda: self._watchdog_check(node),
            label="fault-watchdog",
        )

    def _watchdog_check(self, node: int) -> None:
        """Re-trigger reconnection until an orphan actually recovers.

        Covers dropped ``LeaveNotice`` messages (the child never learned
        its parent left) and reconnect attempts that exhausted their
        restarts mid-fault-storm.
        """
        env = self.env
        if not env.is_alive(node) or not env.tree.is_orphan(node):
            self._armed_watchdog.discard(node)
            return
        agent = env.agents.get(node)
        if agent is None:
            self._armed_watchdog.discard(node)
            return
        if agent.active_process is None:
            self._log("watchdog-reconnect", str(node))
            agent.parent = None
            agent.on_parent_lost()
        self._rearm_watchdog(node)
