"""Tests for the always-on invariant checker (repro.sim.invariants)."""

import pytest

from repro.factories import vdm
from repro.harness.substrates import build_transit_stub_underlay
from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.network import MatrixUnderlay
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.transit_stub import TransitStubConfig

from tests.helpers import line_matrix


def _make_env(n_hosts=5, degree_limit=4):
    sim = Simulator()
    underlay = MatrixUnderlay(line_matrix([10.0 * i for i in range(n_hosts)]))
    env = ProtocolRuntime(sim, underlay, source=0)
    make = vdm()
    for node in range(n_hosts):
        env.register(make(node, env, degree_limit=degree_limit))
    return sim, env


class TestCleanOperation:
    def test_normal_mutations_pass(self):
        _, env = _make_env()
        checker = InvariantChecker(env)
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.reparent(2, 0, 3.0)
        tree.depart(1, 4.0)
        tree.insert(3, 0, (2,), 5.0)
        checker.verify_all()
        assert checker.violations == []
        assert checker.checks_run >= 6  # one sweep per mutation + final

    def test_orphan_state_is_legal(self):
        _, env = _make_env()
        checker = InvariantChecker(env)
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.depart(1, 3.0)  # 2 becomes a legal orphan
        checker.verify_all()
        assert checker.violations == []

    def test_invalid_mode_rejected(self):
        _, env = _make_env()
        with pytest.raises(ValueError, match="mode"):
            InvariantChecker(env, mode="explode")


class TestCorruptionDetection:
    """Hand-corrupt the registry and confirm each invariant fires."""

    def test_dangling_parent(self):
        _, env = _make_env()
        checker = InvariantChecker(env, mode="record")
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        # simulate a buggy depart that forgets to orphan the child
        del tree.parent[1]
        del tree.children[1]
        tree.children[0].discard(1)
        checker.check_tree()
        names = {v.invariant for v in checker.violations}
        assert "dangling-parent" in names

    def test_parent_cycle(self):
        _, env = _make_env()
        checker = InvariantChecker(env, mode="record")
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.parent[1] = 2  # 1 <-> 2 cycle, bypassing reparent's guard
        tree.children[0].discard(1)
        tree.children[2].add(1)
        checker.check_tree()
        names = {v.invariant for v in checker.violations}
        assert "acyclicity" in names

    def test_edge_asymmetry_both_directions(self):
        _, env = _make_env()
        checker = InvariantChecker(env, mode="record")
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.children[0].discard(1)  # parent[1]=0 but 1 not in children[0]
        tree.children.setdefault(2, set())
        tree.parent[2] = None
        tree.children[2].add(3)  # children list a node with no parent entry
        tree.parent.setdefault(3, None)
        checker.check_tree()
        names = {v.invariant for v in checker.violations}
        assert "edge-symmetry" in names

    def test_source_displaced(self):
        _, env = _make_env()
        checker = InvariantChecker(env, mode="record")
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.parent[0] = 1
        checker.check_tree()
        names = {v.invariant for v in checker.violations}
        assert "source-root" in names

    def test_degree_bound(self):
        _, env = _make_env(n_hosts=6, degree_limit=2)
        checker = InvariantChecker(env, mode="record")
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        tree.attach(3, 0, 3.0)  # third child of a degree-2 node
        names = {v.invariant for v in checker.violations}
        assert "degree-bound" in names

    def test_raise_mode_aborts_at_first_violation(self):
        _, env = _make_env(n_hosts=6, degree_limit=2)
        InvariantChecker(env, mode="raise")
        tree = env.tree
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        with pytest.raises(InvariantViolation) as exc_info:
            tree.attach(3, 0, 3.0)
        violation = exc_info.value
        assert violation.invariant == "degree-bound"
        assert violation.node == 0
        assert violation.time == 3.0
        # the trace shows the mutations that led here
        kinds = [event.kind for event in violation.trace]
        assert kinds == ["attach", "attach", "attach"]
        assert "degree-bound" in str(violation)
        assert "attach" in str(violation)


class TestJoinRecords:
    def test_consistent_records_pass(self):
        _, env = _make_env()
        checker = InvariantChecker(env)
        from repro.protocols.base import JoinRecord

        env.record_join(
            JoinRecord(
                node=1,
                kind="join",
                started_at=1.0,
                completed_at=2.0,
                succeeded=True,
                iterations=2,
            )
        )
        checker.check_join_records()
        assert checker.violations == []

    @pytest.mark.parametrize(
        "kwargs, invariant",
        [
            ({"completed_at": 0.5}, "join-record"),  # negative duration
            ({"iterations": 0}, "join-record"),
            ({"kind": "teleport"}, "join-record"),
        ],
    )
    def test_bad_records_flagged(self, kwargs, invariant):
        _, env = _make_env()
        checker = InvariantChecker(env, mode="record")
        from repro.protocols.base import JoinRecord

        base = dict(
            node=1,
            kind="join",
            started_at=1.0,
            completed_at=2.0,
            succeeded=True,
            iterations=2,
        )
        base.update(kwargs)
        env.join_records.append(JoinRecord(**base))
        checker.check_join_records()
        assert {v.invariant for v in checker.violations} == {invariant}


class _OverAcceptingVDM(OverlayAgent):
    """Deliberately broken VDM agent: lies about its free capacity, so it
    accepts children past its degree limit."""

    @property
    def free_degree(self) -> int:
        return 99


def _over_accepting_factory(node_id, env, *, degree_limit, rng=None):
    return _OverAcceptingVDM(node_id, env, degree_limit=degree_limit, rng=rng)


class TestBrokenProtocolVariant:
    """Acceptance criterion: a deliberately broken protocol makes the
    always-on checker fire with an actionable event trace."""

    def _config(self, invariant_mode):
        return SessionConfig(
            n_nodes=12,
            degree=2,  # tight limit, so over-acceptance trips fast
            join_phase_s=400.0,
            total_s=800.0,
            slot_s=200.0,
            settle_s=50.0,
            churn_rate=0.0,
            seed=11,
            invariant_mode=invariant_mode,
        )

    def _underlay(self):
        return build_transit_stub_underlay(
            n_hosts=40,
            seed=7,
            ts_config=TransitStubConfig(
                total_nodes=100,
                transit_domains=2,
                transit_nodes_per_domain=3,
                stub_domains_per_transit=2,
            ),
        )

    def test_checker_fires_with_actionable_trace(self):
        session = MulticastSession(
            self._underlay(), _over_accepting_factory, self._config("raise")
        )
        with pytest.raises(InvariantViolation) as exc_info:
            session.run()
        violation = exc_info.value
        assert violation.invariant == "degree-bound"
        assert violation.trace, "violation must carry the event trace"
        # the trace's final event is the attach that broke the bound, and
        # the offending node is that attach's parent
        last = violation.trace[-1]
        assert last.kind in ("attach", "reparent")
        assert last.parent == violation.node
        message = str(violation)
        assert "degree-bound" in message
        assert "last" in message and "tree events" in message

    def test_record_mode_collects_instead_of_raising(self):
        session = MulticastSession(
            self._underlay(), _over_accepting_factory, self._config("record")
        )
        result = session.run()
        assert result.violations
        assert any(v.invariant == "degree-bound" for v in result.violations)

    def test_off_mode_disables_checking(self):
        session = MulticastSession(
            self._underlay(), _over_accepting_factory, self._config("off")
        )
        result = session.run()  # broken tree, but nobody looks
        assert result.violations == []

    def test_same_session_with_correct_protocol_is_clean(self):
        session = MulticastSession(self._underlay(), vdm(), self._config("raise"))
        result = session.run()
        assert result.violations == []
