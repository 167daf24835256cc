"""Overlay multicast protocols.

* :mod:`repro.protocols.table` — the protocol table: VDM, HMTP, BTP and
  MST as rows (:class:`~repro.protocols.table.ProtocolSpec`) built from
  their configs.
* :mod:`repro.protocols.base` — the runtime (message transport,
  timeouts, counters), the one agent class that reads a row, and the
  shared join loop.
* :mod:`repro.protocols.tree` — the ground-truth tree registry.
* :mod:`repro.protocols.messages` — the control-message vocabulary
  (Section 5.2.2 of the paper).
* :mod:`repro.protocols.hmtp`, :mod:`~repro.protocols.btp`,
  :mod:`~repro.protocols.mst` — the comparators' configs and row
  functions: HMTP (the paper's primary comparator), BTP (related-work
  extra) and MST (the reference of Fig. 5.31, offline and online).

The paper's own contribution, VDM, lives in :mod:`repro.core`.
"""

from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.protocols.btp import BTPConfig
from repro.protocols.hmtp import HMTPConfig
from repro.protocols.mst import degree_constrained_mst, mst_parent_map, tree_cost
from repro.protocols.tree import TreeRegistry

__all__ = [
    "OverlayAgent",
    "ProtocolRuntime",
    "TreeRegistry",
    "HMTPConfig",
    "BTPConfig",
    "mst_parent_map",
    "degree_constrained_mst",
    "tree_cost",
]
