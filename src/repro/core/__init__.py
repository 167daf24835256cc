"""Virtual Direction Multicast — the paper's contribution.

* :mod:`repro.core.cases` — the 1-D directionality abstraction: classify a
  (pivot, existing-child, newcomer) triangle into Case I/II/III
  (Section 3.1.2).
* :mod:`repro.core.join` — the join kernel: one iteration of the Fig. 3.6
  decision (split the pivot's children by case, then descend / insert /
  attach), shared by every engine in the repo.
* :mod:`repro.core.joinloop` — the join loop's rules around that
  decision (budgets, restarts, redirects, the parent's acceptance), shared
  by the message-level agents and the batched emulator.
* :mod:`repro.core.distance` — generalized virtual distances (Chapter 4):
  delay (VDM-D), loss (VDM-L), and weighted composites.
* :mod:`repro.core.vdm` — VDM's config and its row functions for the
  protocol table (:mod:`repro.protocols.table`): the kernel over measured
  probes (Section 3.2) and the direction-consistent backup filter; the
  shared agent adds grandparent reconnection (3.3) and periodic
  refinement (3.4).
"""

from repro.core.cases import Case, classify_case
from repro.core.join import (
    Attach,
    Descend,
    Insert,
    hmtp_decide,
    split_cases,
    vdm_decide,
)
from repro.core.distance import (
    DelayDistance,
    LossDistance,
    CompositeDistance,
    VirtualDistance,
)
from repro.core.vdm import VDMConfig

__all__ = [
    "Case",
    "classify_case",
    "Attach",
    "Descend",
    "Insert",
    "split_cases",
    "vdm_decide",
    "hmtp_decide",
    "DelayDistance",
    "LossDistance",
    "CompositeDistance",
    "VirtualDistance",
    "VDMConfig",
]
