"""Validation tests for the control-message vocabulary."""

import dataclasses

import pytest

from repro import factories
from repro.protocols import base, failover
from repro.protocols.base import ProtocolRuntime
from repro.protocols.messages import (
    ChildInfo,
    ChildRemove,
    ConnRequest,
    ConnResponse,
    FailoverAttach,
    GrandparentChange,
    InfoRequest,
    InfoResponse,
    LeaveNotice,
    ParentChange,
)
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay
from repro.sim.session import MulticastSession, SessionConfig

from tests.helpers import line_matrix


def _smoke_session(make, **extra):
    underlay = MatrixUnderlay(line_matrix([7.0 * i for i in range(24)]))
    cfg = SessionConfig(
        n_nodes=20,
        degree=(2, 4),
        join_phase_s=400.0,
        total_s=1600.0,
        slot_s=200.0,
        settle_s=50.0,
        churn_rate=0.2,
        seed=5,
        **extra,
    )
    return MulticastSession(underlay, make, cfg).run()


# Recorded with the per-message constructors, before any payload was
# interned or turned into a NamedTuple: the same sessions must send the
# same number of each message, under the same type names.
_SMOKE_COUNTS = {
    "vdm": {
        "ChildRemove": 24, "ConnRequest": 65, "ConnResponse": 65,
        "GrandparentChange": 42, "InfoRequest": 516, "InfoResponse": 516,
        "LeaveNotice": 22, "ParentChange": 33,
    },
    "hmtp": {
        "ChildRemove": 47, "ConnRequest": 90, "ConnResponse": 90,
        "GrandparentChange": 40, "InfoRequest": 2552, "InfoResponse": 2552,
        "LeaveNotice": 24,
    },
    "vdm-failover": {
        "ChildRemove": 24, "ConnRequest": 43, "ConnResponse": 43,
        "FailoverAttach": 22, "GrandparentChange": 42, "InfoRequest": 493,
        "InfoResponse": 493, "LeaveNotice": 22, "ParentChange": 33,
    },
    # Recorded while the pivot still answered with one ChildInfo (and a
    # free-degree lookup) per child: sending (child, distance) pairs
    # instead moves no message.
    "vdm-r": {
        "ChildRemove": 24, "ConnRequest": 65, "ConnResponse": 65,
        "GrandparentChange": 42, "InfoRequest": 2250, "InfoResponse": 2250,
        "LeaveNotice": 22, "ParentChange": 33,
    },
    "btp": {
        "ChildRemove": 128, "ConnRequest": 175, "ConnResponse": 175,
        "GrandparentChange": 67, "InfoRequest": 1741, "InfoResponse": 1741,
        "LeaveNotice": 21,
    },
    "mst": {
        "ChildRemove": 24, "ConnRequest": 69, "ConnResponse": 69,
        "GrandparentChange": 21, "InfoRequest": 114, "InfoResponse": 114,
        "LeaveNotice": 24,
    },
}

_SMOKE_SESSIONS = {
    "vdm": (factories.vdm, {}),
    "hmtp": (factories.hmtp, {}),
    "vdm-failover": (factories.vdm, {"failover": "precomputed"}),
    "vdm-r": (lambda: factories.vdm_r(150.0), {}),
    "btp": (factories.btp, {}),
    "mst": (factories.mst, {}),
}


class TestConnRequest:
    def test_attach_default(self):
        req = ConnRequest()
        assert req.kind == "attach"
        assert req.adopt == ()

    def test_insert_requires_adoptions(self):
        with pytest.raises(ValueError, match="at least one"):
            ConnRequest(kind="insert")

    def test_attach_cannot_adopt(self):
        with pytest.raises(ValueError, match="cannot adopt"):
            ConnRequest(kind="attach", adopt=(1,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            ConnRequest(kind="takeover")

    def test_valid_insert(self):
        req = ConnRequest(kind="insert", adopt=(3, 4))
        assert req.adopt == (3, 4)


class TestImmutability:
    @pytest.mark.parametrize(
        "msg",
        [
            InfoRequest(want_children=True),
            InfoResponse(node_id=1, free_degree=2, parent=0),
            ConnRequest(),
            ConnResponse(accepted=True, node_id=1),
            ParentChange(new_parent=1, new_grandparent=0),
            GrandparentChange(new_grandparent=2),
            LeaveNotice(),
            ChildRemove(),
            ChildInfo(node_id=1, distance=3.0, free_degree=1),
        ],
    )
    def test_frozen(self, msg):
        if dataclasses.is_dataclass(msg):
            fields = [f.name for f in dataclasses.fields(msg)]
        else:  # NamedTuple payloads
            fields = list(msg._fields)
        # A field-less message (LeaveNotice, ChildRemove) is one interned
        # instance that every send shares, so it takes no attribute at all.
        names = fields[:1] or ["node_id", "parent", "note"]
        for name in names:
            # FrozenInstanceError subclasses AttributeError, so this covers
            # both the frozen dataclasses and the NamedTuple payloads.
            with pytest.raises(AttributeError):
                setattr(msg, name, None)
        if not fields:
            assert not any(hasattr(msg, name) for name in names)

    @pytest.mark.parametrize("name", sorted(_SMOKE_SESSIONS))
    def test_no_list_leaks_into_a_message(self, name, monkeypatch):
        """Every request and reply of a session hashes, and a pivot's
        children are its ``(child, distance)`` pairs, sorted by id."""
        replies = []
        handle = base.OverlayAgent.handle_request

        def spy(self, sender, msg):
            reply = handle(self, sender, msg)
            replies.append((msg, reply))
            return reply

        monkeypatch.setattr(base.OverlayAgent, "handle_request", spy)
        make, extra = _SMOKE_SESSIONS[name]
        _smoke_session(make(), **extra)
        pairs = 0
        for msg, reply in replies:
            hash(msg)
            hash(reply)  # a list anywhere in a payload would raise here
            if type(reply) is not InfoResponse:
                continue
            children = reply.children
            assert type(children) is tuple
            if not msg.want_children:
                assert children == ()
                continue
            assert all(type(c) is tuple and len(c) == 2 for c in children)
            assert [c[0] for c in children] == sorted(c[0] for c in children)
            pairs += len(children)
        assert pairs  # not vacuous


class TestDefaults:
    def test_info_response_children_default_empty(self):
        resp = InfoResponse(node_id=1, free_degree=0, parent=None)
        assert resp.children == ()

    def test_conn_response_rejection_payload(self):
        resp = ConnResponse(
            accepted=False,
            node_id=5,
            children=(ChildInfo(7, 2.0, 1),),
        )
        assert not resp.accepted
        assert resp.transferred == ()
        assert resp.children[0].node_id == 7

    def test_rejection_carries_child_info_with_free_degrees(self):
        """A full parent's rejection lists its children with their own
        free degrees: the redirect picks the closest one with a slot."""
        underlay = MatrixUnderlay(line_matrix([0.0, 10.0, 20.0, 30.0]))
        sim = Simulator()
        env = ProtocolRuntime(sim, underlay, source=0)
        agents = {}
        for host, limit in ((0, 2), (1, 4), (2, 3), (3, 4)):
            agents[host] = base.OverlayAgent(host, env, degree_limit=limit)
            env.register(agents[host])
        for child in (1, 2):
            env.tree.attach(child, 0, 0.0)
            agents[0].children[child] = env.virtual_distance(0, child)
            agents[child].parent = 0
        env.tree.attach(3, 2, 0.0)
        agents[2].children[3] = env.virtual_distance(2, 3)
        agents[3].parent = 2
        resp = agents[0].handle_request(3, ConnRequest())
        assert type(resp) is ConnResponse and not resp.accepted
        assert resp.children == (ChildInfo(1, 10.0, 4), ChildInfo(2, 20.0, 2))
        assert all(type(c) is ChildInfo for c in resp.children)
        hash(resp)


class TestNamedTuplePayloads:
    """``ConnResponse``, ``ParentChange`` and ``GrandparentChange`` are
    NamedTuples: the fields, their order and defaults, and keyword
    construction are the dataclasses' they replaced."""

    @pytest.mark.parametrize(
        "cls,fields,defaults",
        [
            (
                ConnResponse,
                ("accepted", "node_id", "parent", "transferred", "children"),
                {"parent": None, "transferred": (), "children": ()},
            ),
            (ParentChange, ("new_parent", "new_grandparent"), {}),
            (GrandparentChange, ("new_grandparent",), {}),
        ],
    )
    def test_fields_and_defaults(self, cls, fields, defaults):
        assert cls._fields == fields
        assert cls._field_defaults == defaults

    def test_keyword_and_positional_construction_agree(self):
        kw = ConnResponse(accepted=True, node_id=3, parent=1, transferred=(4,))
        assert kw == ConnResponse(True, 3, 1, (4,), ())
        assert (kw.accepted, kw.node_id, kw.parent) == (True, 3, 1)
        assert kw.transferred == (4,) and kw.children == ()
        pc = ParentChange(new_parent=2, new_grandparent=None)
        assert (pc.new_parent, pc.new_grandparent) == (2, None)
        assert GrandparentChange(new_grandparent=7).new_grandparent == 7
        with pytest.raises(TypeError):
            ParentChange(new_parent=2)  # no default for the grandparent


class TestInternedPayloads:
    """The payloads without per-message content are sent as one object
    each; the counts per type name do not notice."""

    @pytest.mark.parametrize("name", sorted(_SMOKE_SESSIONS))
    def test_singletons_are_what_the_runtime_sends(self, name, monkeypatch):
        sent = []
        tell, request = ProtocolRuntime.tell, ProtocolRuntime.request

        def spy_tell(self, src, dst, msg):
            sent.append(msg)
            tell(self, src, dst, msg)

        def spy_request(self, src, dst, msg, on_reply, on_timeout):
            sent.append(msg)
            request(self, src, dst, msg, on_reply, on_timeout)

        monkeypatch.setattr(ProtocolRuntime, "tell", spy_tell)
        monkeypatch.setattr(ProtocolRuntime, "request", spy_request)
        make, extra = _SMOKE_SESSIONS[name]
        _smoke_session(make(), **extra)
        interned = {
            LeaveNotice: base._LEAVE_NOTICE,
            ChildRemove: base._CHILD_REMOVE,
            FailoverAttach: failover._FAILOVER_ATTACH,
        }
        seen = set()
        for msg in sent:
            if type(msg) in interned:
                assert msg is interned[type(msg)]
                seen.add(type(msg))
            elif type(msg) is ConnRequest and msg.kind == "attach":
                assert msg is base._ATTACH
                seen.add(ConnRequest)
            elif type(msg) is InfoRequest:
                assert msg is (
                    base._INFO_WITH_CHILDREN if msg.want_children else base._INFO_PROBE
                )
        # not vacuous: every singleton this session can send was sent
        expected = {LeaveNotice, ChildRemove, ConnRequest}
        if name == "vdm-failover":
            expected.add(FailoverAttach)
        assert seen == expected

    @pytest.mark.parametrize("name", sorted(_SMOKE_SESSIONS))
    def test_message_counts_unchanged(self, name):
        make, extra = _SMOKE_SESSIONS[name]
        result = _smoke_session(make(), **extra)
        assert dict(result.runtime.message_counts) == _SMOKE_COUNTS[name]

