"""The protocol table: every overlay protocol as one row.

VDM and its comparators run the same query → probe → decide loop
(:mod:`repro.core.joinloop`, over messages by
:class:`~repro.protocols.base.JoinProcess`) and differ only in the join
decision and in their refinement, reconnection, quick-start and backup
policies.  A :class:`ProtocolSpec` row names those differences; one
:class:`~repro.protocols.base.OverlayAgent` class reads them.  Rows are
built from each protocol's own config (:class:`~repro.core.vdm.VDMConfig`,
:class:`~repro.protocols.hmtp.HMTPConfig`,
:class:`~repro.protocols.btp.BTPConfig`; MST has none) by
:func:`protocol_spec`, which the agent factories, the sweep cells and the
batched engine's envelope all read.  Row callables are module-level
functions, so rows pickle and hash like their configs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.core.vdm import VDMConfig, vdm_backup_ok, vdm_join_decision
from repro.protocols.btp import BTPConfig, btp_join_decision, parent_or_source
from repro.protocols.hmtp import HMTPConfig, hmtp_join_decision, root_path_member
from repro.protocols.mst import attach_at_pivot, closest_open_member

__all__ = ["ProtocolSpec", "PROTOCOLS", "protocol_spec"]


class ProtocolSpec(NamedTuple):
    """One protocol's row.  Defaults are VDM's policies."""

    #: the table key: ``"vdm"``, ``"hmtp"``, ``"btp"`` or ``"mst"``
    name: str
    #: the config the row was built from (``None`` for MST)
    config: object
    #: ``(row, agent, pivot, dist_to_pivot, info, probes) -> Decision``: the
    #: pivot's InfoResponse (its ``children`` are bare ``(child, distance)``
    #: pairs), and each answered child's measured distance and ChildInfo,
    #: whose free degree is the one its probe reply carried
    decide: Callable
    #: the refinement period sessions arm by default (``None``: off)
    refine_period_s: float | None = None
    #: ``(agent) -> node`` where refinement starts (``None``: the source)
    refine_start: Callable | None = None
    #: refinement switches only to a strictly closer parent (HMTP, BTP),
    #: not to any different one (VDM)
    strictly_closer: bool = False
    #: fresh joins take the foster-child quick start (Section 2.4.7)
    foster_child: bool = False
    #: where an orphan restarts its join: ``"grandparent"`` or ``"source"``
    reconnect_at: str = "grandparent"
    #: ``(row, agent, candidate, its children) -> bool`` veto on a backup
    #: parent (``None``: accept all)
    backup_ok: Callable | None = None
    #: ``(agent) -> node`` overriding where every join starts (MST's oracle)
    join_start: Callable | None = None


def _vdm(config: VDMConfig | None) -> ProtocolSpec:
    config = config or VDMConfig()
    return ProtocolSpec(
        "vdm",
        config,
        vdm_join_decision,
        refine_period_s=config.refine_period_s,
        foster_child=config.foster_child,
        reconnect_at=config.reconnect_at,
        backup_ok=vdm_backup_ok,
    )


def _hmtp(config: HMTPConfig | None) -> ProtocolSpec:
    config = config or HMTPConfig()
    return ProtocolSpec(
        "hmtp",
        config,
        hmtp_join_decision,
        # HMTP always refines: its greedy join needs it to converge.
        refine_period_s=config.refine_period_s,
        refine_start=root_path_member,
        strictly_closer=True,
        foster_child=config.foster_child,
        reconnect_at="source",
    )


def _btp(config: BTPConfig | None) -> ProtocolSpec:
    config = config or BTPConfig()
    return ProtocolSpec(
        "btp",
        config,
        btp_join_decision,
        # Sibling switching is BTP's whole optimization; keep it on.
        refine_period_s=config.refine_period_s,
        refine_start=parent_or_source,
        strictly_closer=True,
    )


def _mst(config: None) -> ProtocolSpec:
    if config is not None:
        raise ValueError(f"the mst row takes no config, got {config!r}")
    return ProtocolSpec("mst", None, attach_at_pivot, join_start=closest_open_member)


#: protocol name -> ``(config or None) -> row``
PROTOCOLS: dict[str, Callable[[object], ProtocolSpec]] = {
    "vdm": _vdm,
    "hmtp": _hmtp,
    "btp": _btp,
    "mst": _mst,
}


def protocol_spec(name: str, config: object = None) -> ProtocolSpec:
    """The row of protocol ``name`` built from ``config`` (default config
    when ``None``)."""
    build = PROTOCOLS.get(name)
    if build is None:
        raise ValueError(f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}")
    return build(config)
