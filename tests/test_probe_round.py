"""The message driver's probe round, driven directly.

A join iteration asks a pivot for its children — ``(child, distance)``
pairs — and then probes each candidate child in parallel; every probe
reply is both the RTT measurement and the child's own free degree.  The
round (``JoinProcess._probe_children`` and its ``_ProbeRound``) files
each child once, by whichever of its reply or its timeout lands first,
and hands the round to the row's decision after the last of them.

These tests start a round by hand on a wired tree: the pivot's real
``InfoResponse`` goes straight into ``_probe_children``, the probes go
out through ``ProtocolRuntime.request`` (under a fault plan where the
test needs one), and the row's ``decide`` is a spy that records every
call and attaches at the pivot.
"""

import itertools

import pytest

from repro.core.join import Attach
from repro.protocols import base
from repro.protocols.base import JoinProcess, OverlayAgent, ProtocolRuntime
from repro.protocols.messages import ChildInfo, InfoResponse
from repro.protocols.table import protocol_spec
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import MatrixUnderlay

from tests.helpers import line_matrix

SOURCE = 0


def _wired(positions, children, *, timeout_ms=500.0, joiner=None):
    """A runtime over a line underlay whose tree is ``children`` (parent ->
    its children), committed without messages; the joiner (default: the
    last host) carries a spy row.  Returns (sim, env, agents, decisions)."""
    sim = Simulator()
    env = ProtocolRuntime(
        sim, MatrixUnderlay(line_matrix(positions)), SOURCE, timeout_ms=timeout_ms
    )
    decisions = []

    def spy(row, agent, pivot, dist_to_pivot, info, probes):
        decisions.append((sim.now, pivot, dict(probes)))
        return Attach(pivot)

    joiner = len(positions) - 1 if joiner is None else joiner
    agents = {}
    for host in range(len(positions)):
        row = protocol_spec("vdm")
        if host == joiner:
            row = row._replace(decide=spy)
        agents[host] = OverlayAgent(host, env, degree_limit=4, protocol=row)
        env.register(agents[host])
    for parent, kids in children.items():
        for child in kids:
            env.tree.attach(child, parent, 0.0)
            agents[child].parent = parent
            agents[parent].children[child] = env.virtual_distance(parent, child)
    return sim, env, agents, decisions


def _start_round(env, agents, joiner, pivot):
    """Open a join attempt of ``joiner`` and hand it the pivot's answer."""
    agent = agents[joiner]
    process = JoinProcess(joiner, agent, SOURCE, "join", env.sim.now)
    agent.active_process = process
    info = agents[pivot].handle_request(joiner, base._INFO_WITH_CHILDREN)
    assert process.ask(pivot) == pivot
    process._probe_children(info)
    return process


def _watch_replies(monkeypatch, sim):
    """Record (time, child) of every probe reply the round is handed."""
    landed = []
    reply = base._ProbeRound.reply

    def watch(self, answer):
        landed.append((sim.now, answer.node_id))
        reply(self, answer)

    monkeypatch.setattr(base._ProbeRound, "reply", watch)
    return landed


class TestProbeRound:
    def test_duplicated_probe_replies_file_one_decision(self, monkeypatch):
        # Source 0 with children 1 and 2; host 3 joins at the source.
        sim, env, agents, decisions = _wired([0.0, 40.0, 80.0, 10.0], {0: (1, 2)})
        injector = FaultInjector(FaultPlan(seed=3, duplicate_rate=1.0), env)
        landed = _watch_replies(monkeypatch, sim)
        _start_round(env, agents, 3, SOURCE)
        sim.run()
        # Every leg went twice: each child answered both copies of its
        # probe, and each answer arrived twice.
        assert injector.counts["duplicate"] > 0
        assert env.message_counts["InfoResponse"] == 4
        assert sorted(child for _, child in landed) == [1] * 4 + [2] * 4
        assert len(decisions) == 1
        _, pivot, probes = decisions[0]
        assert pivot == SOURCE and sorted(probes) == [1, 2]
        records = [r for r in env.join_records if r.node == 3]
        assert len(records) == 1 and records[0].succeeded
        assert env.tree.parent[3] == SOURCE

    def test_reply_after_its_timeout_is_ignored(self, monkeypatch):
        # Child 2 sits 600 ms of RTT from the joiner: its reply lands at
        # 0.6 s, the probe times out at 0.5 s, and the round decides
        # without it.  The attach to the source (200 ms of RTT) is still
        # in flight when the late reply lands.
        sim, env, agents, decisions = _wired(
            [0.0, 250.0, 800.0, 200.0], {0: (1, 2)}, timeout_ms=500.0
        )
        landed = _watch_replies(monkeypatch, sim)
        _start_round(env, agents, 3, SOURCE)
        sim.run()
        assert landed[-1] == (pytest.approx(0.6), 2)  # the late reply did land
        assert len(decisions) == 1
        decided_at, _, probes = decisions[0]
        assert decided_at == pytest.approx(0.5)
        assert sorted(probes) == [1]
        (record,) = [r for r in env.join_records if r.node == 3]
        assert record.succeeded and record.completed_at == pytest.approx(0.7)

    def test_cancelled_round_decides_nothing(self, monkeypatch):
        sim, env, agents, decisions = _wired([0.0, 40.0, 80.0, 10.0], {0: (1, 2)})
        landed = _watch_replies(monkeypatch, sim)
        process = _start_round(env, agents, 3, SOURCE)
        sim.run_until(0.05)  # child 1 (30 ms RTT) has answered, 2 (70 ms) not
        assert [child for _, child in landed] == [1]
        agents[3].cancel_active_process()
        sim.run()
        assert [child for _, child in landed] == [1, 2]
        assert process.cancelled and not process.finished
        assert decisions == []
        assert env.join_records == []
        assert 3 not in env.tree.parent

    def test_free_degree_comes_from_the_probe_reply(self):
        # Child 1 fills a slot after the pivot answered and before its
        # probe arrives; the decision sees the child's reply, not a stale
        # count, and the pivot's own distance to each child.
        sim, env, agents, decisions = _wired(
            [0.0, 40.0, 80.0, 10.0, 45.0], {0: (1, 2)}, joiner=3
        )
        info = agents[SOURCE].handle_request(3, base._INFO_WITH_CHILDREN)
        assert info.children == ((1, 40.0), (2, 80.0))
        _start_round(env, agents, 3, SOURCE)
        env.tree.attach(4, 1, 0.0)
        agents[1].children[4] = env.virtual_distance(1, 4)
        agents[4].parent = 1
        sim.run()
        ((_, _, probes),) = decisions
        assert probes[1] == (30.0, ChildInfo(1, 40.0, 3))
        assert probes[2] == (70.0, ChildInfo(2, 80.0, 4))

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_each_child_is_filed_once_by_its_first_terminal(self, order):
        """The round's callbacks in any order — child 1's reply twice and
        its timeout, child 2's timeout — decide once, when the second
        child is first filed, with child 1 probed iff its reply came
        before its timeout; anything after the decision is inert."""
        sim, env, agents, decisions = _wired([0.0, 40.0, 80.0, 10.0], {0: (1, 2)})
        sent = []
        env.request = lambda src, dst, msg, on_reply, on_timeout: sent.append(
            (dst, on_reply, on_timeout)
        )
        _start_round(env, agents, 3, SOURCE)
        (c1, reply, timeout1), (c2, _, timeout2) = sent
        assert (c1, c2) == (1, 2)
        answer = InfoResponse(1, 4, SOURCE)
        steps = [
            (1, "reply", lambda: reply(answer)),
            (1, "reply", lambda: reply(answer)),
            (1, "timeout", timeout1),
            (2, "timeout", timeout2),
        ]
        first = {}
        for step in order:
            child, kind, fire = steps[step]
            fire()
            first.setdefault(child, kind)
            assert len(decisions) == (1 if len(first) == 2 else 0)
        for _, _, fire in steps:
            fire()
        assert len(decisions) == 1
        _, _, probes = decisions[0]
        assert sorted(probes) == ([1] if first[1] == "reply" else [])
