"""Maintained answers off the registry's listener stream, from any state.

:meth:`RecoveryTracker.tree_is_legal` keeps the set of parents that may be
over their degree limit instead of rescanning the registry; episode close
and the service's ``"tree"`` health probe read it.  A
:class:`~repro.sim.delivery.DeliveryAccountant` settles the physical-link
multiset of the reachable tree when it is read and serves forward
measurement windows from a fused pass with cursors and dormant/steady
flags.

A hypothesis state machine drives random mutations through a runtime —
every placing mutation of the registry, cuts, departures, and
re-registration of a present node under a new degree limit — and after
every step requires the maintained legality to equal
:func:`repro.sim.invariants.tree_is_legal`, the episode log to equal a
tracker that runs the scan itself, and the lossy accountant's link
multiset to equal a walk over the reachable edges.  Its ``measure`` rule
requires a window snapshot of both accountants (one on a loss-free, one on
a lossy underlay), forward or reaching back before the last one, to equal
the separate queries bit for bit, and the loss-free accountant's multiset,
settled only there, to equal the walk.  It also offers the mutations the
registry must refuse (self-attach, cycles, adopting a non-child) and
requires a ``ValueError`` with the state untouched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.metrics.collectors import RecoveryTracker
from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.sim.delivery import DeliveryAccountant
from repro.sim.engine import Simulator
from repro.sim.invariants import tree_is_legal
from repro.sim.network import MatrixUnderlay

from tests import oracles
from tests.helpers import line_matrix

HOSTS = list(range(8))
SOURCE = 0
#: hosts with an agent from the start; the rest get one only by ``register``
REGISTERED = HOSTS[:6]
LIMITS = st.integers(1, 3)


def _bits(*values: float) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


class ScanningTracker(RecoveryTracker):
    """The episode logic unchanged, legality by the full registry scan."""

    def tree_is_legal(self) -> bool:
        return tree_is_legal(self.env)


def _snapshot(env: ProtocolRuntime) -> tuple:
    tree = env.tree
    return (
        dict(tree.parent),
        {p: set(kids) for p, kids in tree.children.items()},
        set(tree._reachable),
        dict(tree._depth),
    )


class MaintainedLegality(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        rtt = line_matrix([10.0 * h for h in HOSTS])
        underlay = MatrixUnderlay(rtt)
        self.env = ProtocolRuntime(Simulator(), underlay, source=SOURCE)
        self.tracker = RecoveryTracker(self.env)
        self.scanning = ScanningTracker(self.env)
        loss = np.full(rtt.shape, 0.03)
        np.fill_diagonal(loss, 0.0)
        self.accountants = [
            DeliveryAccountant(self.tree, underlay),
            DeliveryAccountant(self.tree, MatrixUnderlay(rtt, loss=loss)),
        ]
        #: the end of the last forward measurement window
        self.measured_to = 0.0
        self.t = 0.0
        for host in REGISTERED:
            self.env.register(OverlayAgent(host, self.env, degree_limit=2))

    # -- helpers ------------------------------------------------------------

    @property
    def tree(self):
        return self.env.tree

    def _tick(self) -> float:
        # Inexact steps: a segment reopened inside a window then splits
        # its coverage into sums that can round differently from one span.
        self.t += 0.1
        return self.t

    def _members(self) -> list[int]:
        return sorted(self.tree.parent)

    def _attached(self) -> list[int]:
        return [n for n in self._members() if n != SOURCE and self.tree.is_attached(n)]

    def _hosts_for(self, node: int) -> list[int]:
        """Present nodes ``node`` may legally be placed under."""
        return [
            p for p in self._members()
            if p != node and not self.tree.is_descendant(p, node)
        ]

    def _refused(self, mutate) -> None:
        before = _snapshot(self.env)
        answer = self.tracker.tree_is_legal()
        with pytest.raises(ValueError):
            mutate()
        assert _snapshot(self.env) == before
        assert self.tracker.tree_is_legal() == answer

    # -- legal mutations ----------------------------------------------------

    @rule(data=st.data())
    def attach(self, data):
        candidates = [
            n for n in HOSTS if n != SOURCE and not self.tree.is_attached(n)
        ]
        if not candidates:
            return
        node = data.draw(st.sampled_from(candidates))
        parent = data.draw(st.sampled_from(self._hosts_for(node)))
        self.tree.attach(node, parent, self._tick())

    @precondition(lambda self: self._attached())
    @rule(data=st.data())
    def reparent(self, data):
        node = data.draw(st.sampled_from(self._attached()))
        parent = data.draw(st.sampled_from(self._hosts_for(node)))
        self.tree.reparent(node, parent, self._tick())

    @rule(data=st.data())
    def insert(self, data):
        node = data.draw(st.sampled_from(HOSTS[1:]))
        parent = data.draw(st.sampled_from(self._hosts_for(node)))
        kids = sorted(self.tree.children[parent] - {node})
        adopt = data.draw(st.lists(st.sampled_from(kids), unique=True)) if kids else []
        self.tree.insert(node, parent, tuple(adopt), self._tick())

    @precondition(lambda self: self._attached())
    @rule(data=st.data())
    def sever(self, data):
        self.tree.sever(data.draw(st.sampled_from(self._attached())), self._tick())

    @precondition(lambda self: len(self.tree.parent) > 1)
    @rule(data=st.data())
    def depart(self, data):
        node = data.draw(st.sampled_from(self._members()[1:]))
        self.tree.depart(node, self._tick())

    @rule(node=st.sampled_from(HOSTS), limit=LIMITS)
    def register(self, node, limit):
        # A crashed member still in the tree comes back under a new agent
        # (and a new, often smaller, degree limit) — or a host that never
        # had an agent gets its first one while already holding children.
        self.env.mark_dead(node)
        self.env.register(OverlayAgent(node, self.env, degree_limit=limit))

    @rule(back=st.booleans())
    def measure(self, back):
        w0 = self.measured_to / 2 if back else self.measured_to
        w1 = self.t
        forward = w0 >= self.measured_to
        for acc in self.accountants:
            # The separate queries first: the fused pass memoizes its
            # totals, and they must not be read back as the reference.
            separate = _bits(
                oracles.loss_rate(acc, w0, w1),
                oracles.mean_node_loss(acc, w0, w1),
                acc.data_messages(w0, w1),
            )
            if not forward:
                # The fused pass serves forward windows only.
                with pytest.raises(ValueError, match="before the end"):
                    acc.window_snapshot(w0, w1)
                continue
            snap = acc.window_snapshot(w0, w1)
            assert _bits(
                snap.loss_rate, snap.mean_node_loss, snap.data_messages
            ) == separate
        if forward:
            self.measured_to = w1
        # The loss-free accountant's multiset is read only here, so marks
        # pile up across many mutations before a settle, as in a session.
        acc = self.accountants[0]
        assert dict(acc.link_usage) == dict(oracles.link_usage(self.tree, acc.underlay))

    # -- refused mutations --------------------------------------------------

    @rule(node=st.sampled_from(HOSTS[1:]))
    def self_attach(self, node):
        if self.tree.is_attached(node):
            self._refused(lambda: self.tree.reparent(node, node, self._tick()))
        elif self.tree.is_present(node):
            self._refused(lambda: self.tree.attach(node, node, self._tick()))
        self._refused(lambda: self.tree.insert(node, node, (), self._tick()))

    @rule(data=st.data())
    def cycle(self, data):
        pairs = [
            (n, d)
            for n in self._members()[1:]
            for d in self._members()
            if self.tree.is_descendant(d, n)
        ]
        if not pairs:
            return
        node, below = data.draw(st.sampled_from(pairs))
        if self.tree.is_attached(node):
            self._refused(lambda: self.tree.reparent(node, below, self._tick()))
        else:
            self._refused(lambda: self.tree.attach(node, below, self._tick()))
        self._refused(lambda: self.tree.insert(node, below, (), self._tick()))

    @rule(data=st.data())
    def adopt_non_child(self, data):
        node = data.draw(st.sampled_from(HOSTS[1:]))
        parent = data.draw(st.sampled_from(self._hosts_for(node)))
        strangers = [
            h for h in HOSTS
            if h != node and self.tree.parent.get(h) != parent
        ]
        stranger = data.draw(st.sampled_from(strangers))
        self._refused(
            lambda: self.tree.insert(node, parent, (stranger,), self._tick())
        )

    @rule()
    def move_the_source(self):
        self._refused(lambda: self.tree.depart(SOURCE, self._tick()))
        self._refused(lambda: self.tree.sever(SOURCE, self._tick()))

    # -- the claim ------------------------------------------------------------

    @invariant()
    def maintained_answer_is_the_scan(self):
        assert self.tracker.tree_is_legal() == tree_is_legal(self.env)
        assert self.tracker.recovery_times == self.scanning.recovery_times
        assert self.tracker.orphans == self.scanning.orphans
        acc = self.accountants[1]  # the lossy one settles every step
        assert dict(acc.link_usage) == dict(oracles.link_usage(self.tree, acc.underlay))


MaintainedLegality.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestMaintainedLegality = MaintainedLegality.TestCase


def test_state_machine_reaches_illegal_trees():
    """The degree bound really fails along the way (the claim is not
    vacuously about always-legal trees), and recovers."""
    underlay = MatrixUnderlay(line_matrix([10.0 * h for h in HOSTS]))
    env = ProtocolRuntime(Simulator(), underlay, source=SOURCE)
    tracker = RecoveryTracker(env)
    for host in REGISTERED:
        env.register(OverlayAgent(host, env, degree_limit=2))
    for node in (1, 2, 3):
        env.tree.attach(node, SOURCE, float(node))
    assert not tracker.tree_is_legal() and not tree_is_legal(env)
    env.tree.reparent(3, 1, 4.0)
    assert tracker.tree_is_legal() and tree_is_legal(env)
    env.mark_dead(1)
    env.register(OverlayAgent(1, env, degree_limit=1))
    env.tree.attach(4, 1, 5.0)
    assert not tracker.tree_is_legal() and not tree_is_legal(env)
    env.tree.depart(4, 6.0)
    assert tracker.tree_is_legal() and tree_is_legal(env)
    # a limit lowered by registration alone, with no tree event
    env.mark_dead(SOURCE)
    env.register(OverlayAgent(SOURCE, env, degree_limit=1))
    assert not tracker.tree_is_legal() and not tree_is_legal(env)


def test_rejoin_that_adopts_past_the_limit_is_illegal():
    """An orphan that kept its children and adopts one more as it rejoins
    is over its limit at its own ``attach`` event, before the adoptee's
    ``reparent`` names it: no episode may close there."""
    underlay = MatrixUnderlay(line_matrix([10.0 * h for h in HOSTS]))
    env = ProtocolRuntime(Simulator(), underlay, source=SOURCE)
    tracker = RecoveryTracker(env)
    for host in REGISTERED:
        env.register(OverlayAgent(host, env, degree_limit=2))
    tree = env.tree
    tree.attach(1, SOURCE, 1.0)
    tree.attach(2, 1, 2.0)
    tree.sever(1, 3.0)  # the episode opens
    tree.attach(3, SOURCE, 4.0)
    tree.attach(4, 1, 5.0)
    assert tracker.tree_is_legal()  # the query prunes every suspect
    legal_at = []
    tree.add_listener(lambda *_: legal_at.append(tracker.tree_is_legal()))
    tree.insert(1, SOURCE, (3,), 6.0)  # 1 now holds 2, 4 and 3
    assert legal_at == [False, False] and not tree_is_legal(env)
    assert tracker.recovery_times == []
