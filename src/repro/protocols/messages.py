"""Control-message vocabulary.

Section 5.2.2 of the paper defines the wire protocol between peers:
``information request/response``, ``connection request/response``,
``parent change``, and ``grandparent change``; a ``leave`` notification is
required by the reconnection procedure (Section 3.3).  The classes here
are that vocabulary; they are shared by VDM, HMTP, and BTP (the baselines
use the same request/response plumbing with protocol-specific join logic).
The payloads with fields are NamedTuples, cheap to build once per
message: info request and response, a rejection's children entries,
connection response, parent and grandparent change.  The field-less
:class:`LeaveNotice`, :class:`ChildRemove` and :class:`FailoverAttach`
stay frozen dataclasses under the :class:`Message` marker, and the
runtime sends one interned instance of each.  :class:`ConnRequest` stays
a validated dataclass (its ``__post_init__`` refuses malformed
requests); its attach form and both info requests are interned too.

Messages are immutable values.  Latency, loss, and timeouts are the
runtime's business (:mod:`repro.protocols.base`), not the messages'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Message",
    "ChildInfo",
    "InfoRequest",
    "InfoResponse",
    "ConnRequest",
    "ConnResponse",
    "ParentChange",
    "GrandparentChange",
    "LeaveNotice",
    "ChildRemove",
    "FailoverAttach",
]


@dataclass(frozen=True)
class Message:
    """Base class for every control message."""


class ChildInfo(NamedTuple):
    """One child of a rejecting :class:`ConnResponse`, and the join's view
    of one answered probe.

    ``distance`` is the *parent's* virtual distance to this child, measured
    when the child connected (the paper: nodes "store... children list and
    distances to them"); ``free_degree`` is the child's own, which a
    redirect reads.  An information reply carries only the ``(child,
    distance)`` pairs: the probe round builds one ChildInfo per answered
    probe, with the free degree the probe reply carried.

    A NamedTuple rather than a dataclass: tuple construction skips the
    frozen-dataclass ``object.__setattr__`` round trip per field.
    """

    node_id: int
    distance: float
    free_degree: int


class InfoRequest(NamedTuple):
    """Ping/probe.  Doubles as an RTT measurement (the reply echoes back).

    ``want_children`` asks the target to include its children list — the
    first message of every join iteration.  A bare probe (``False``) is the
    per-child distance measurement.

    NamedTuple for the same hot-construction reason as :class:`ChildInfo`
    (one per probe).
    """

    want_children: bool = False


class InfoResponse(NamedTuple):
    """Reply to :class:`InfoRequest`.

    ``children`` is the replier's ``(child, distance)`` pairs sorted by id
    (empty for a bare probe); ``free_degree`` is the replier's own, so a
    probe reply is both the RTT measurement and the child's free degree.

    NamedTuple for the same hot-construction reason as :class:`ChildInfo`
    (one per probe reply).
    """

    node_id: int
    free_degree: int
    parent: int | None
    children: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class ConnRequest(Message):
    """Ask the target to become our parent.

    ``kind``:

    * ``"attach"`` — the join kernel's :class:`~repro.core.join.Attach`
      (also used by the baselines); requires a free degree slot at the
      target.
    * ``"insert"`` — :class:`~repro.core.join.Insert`: the requester
      slots in *between* the target and the children listed in ``adopt``
      (so no free slot is needed when at least one adoption succeeds).

    ``adopt`` lists the target's children the requester wants to take over.
    """

    kind: str = "attach"
    adopt: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("attach", "insert"):
            raise ValueError(f"unknown ConnRequest kind {self.kind!r}")
        if self.kind == "attach" and self.adopt:
            raise ValueError("attach requests cannot adopt children")
        if self.kind == "insert" and not self.adopt:
            raise ValueError("insert requests must adopt at least one child")


class ConnResponse(NamedTuple):
    """Reply to :class:`ConnRequest`.

    On acceptance, carries the new parent's own parent (the joiner's
    grandparent) and, for inserts, the children actually transferred (some
    may have departed or reparented since the requester probed them).

    On rejection (degree race), carries a fresh children list so the
    requester can redirect without another information round-trip.
    """

    accepted: bool
    node_id: int
    parent: int | None = None
    transferred: tuple[int, ...] = ()
    children: tuple[ChildInfo, ...] = ()


class ParentChange(NamedTuple):
    """Sent to an adopted child: your parent is now the sender.

    ``new_grandparent`` is the sender's parent.  The child must propagate a
    :class:`GrandparentChange` to its own children (Section 3.2: "Update
    grandparent of D(i)'s children").
    """

    new_parent: int
    new_grandparent: int | None


class GrandparentChange(NamedTuple):
    """Grandparent update pushed down one level after an insert adoption."""

    new_grandparent: int


@dataclass(frozen=True)
class LeaveNotice(Message):
    """Graceful-leave notification from a departing parent to each child."""


@dataclass(frozen=True)
class ChildRemove(Message):
    """A child informs its (old) parent that it has moved elsewhere."""


@dataclass(frozen=True)
class FailoverAttach(Message):
    """An orphan informs its precomputed backup parent it has switched.

    The switch itself is local (the orphan commits the registry edge
    without a request/response round-trip — that is the whole point of
    precomputed failover); this one-way notice lets the backup sync its
    child table to the registry.
    """
