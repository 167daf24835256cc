"""Virtual Direction Multicast (VDM) for overlay networks.

A from-scratch reproduction of *Virtual Direction Multicast for Overlay
Networks* (Mercan & Yuksel, 2011): the VDM protocol, the HMTP/BTP/MST
comparators, a discrete-event network simulator, a GT-ITM-style topology
generator, a PlanetLab-style emulation substrate, and a benchmark harness
regenerating every figure of the paper's evaluation.

Quickstart
----------
>>> from repro import MulticastSession, SessionConfig, vdm
>>> from repro.harness.substrates import build_transit_stub_underlay
>>> # (see examples/quickstart.py for a complete runnable walkthrough)

Package map
-----------
* :mod:`repro.core` — VDM itself: directionality cases, the join
  kernel, generalized virtual distances, VDM's config.
* :mod:`repro.protocols` — the protocol table (VDM, HMTP, BTP, MST as
  rows), the one agent class that runs a row, and the shared runtime.
* :mod:`repro.sim` — event engine, underlays, delivery accounting,
  churn, session orchestration.
* :mod:`repro.topology` — transit-stub and PlanetLab-like substrates.
* :mod:`repro.metrics` — stress/stretch/loss/overhead and friends.
* :mod:`repro.planetlab` — scenario-driven controller/agent emulation.
* :mod:`repro.harness` — per-figure experiment definitions.
"""

from repro.core import (
    Case,
    classify_case,
    VDMConfig,
    DelayDistance,
    LossDistance,
    CompositeDistance,
)
from repro.factories import (
    vdm,
    vdm_r,
    vdm_loss,
    hmtp,
    btp,
    delay_metric,
    loss_metric,
    composite_metric,
)
from repro.protocols import (
    HMTPConfig,
    BTPConfig,
    OverlayAgent,
    ProtocolRuntime,
    TreeRegistry,
    mst_parent_map,
    degree_constrained_mst,
)
from repro.sim import (
    Simulator,
    Underlay,
    MatrixUnderlay,
    NoRouteError,
    MulticastSession,
    SessionConfig,
    SessionResult,
)
from repro.topology import (
    TransitStubConfig,
    generate_planetlab_pool,
    LinkErrorConfig,
)
from repro.core.capacity import UplinkPopulation, degree_from_uplink
from repro.protocols.multitree import StripedSession, StripeReport
from repro.streaming import (
    PlayoutBuffer,
    ViewerExperience,
    session_experience,
    summarize_experience,
)
from repro.metrics.treeviz import render_tree_text, tree_to_dot

__version__ = "1.0.0"

__all__ = [
    "Case",
    "classify_case",
    "VDMConfig",
    "DelayDistance",
    "LossDistance",
    "CompositeDistance",
    "vdm",
    "vdm_r",
    "vdm_loss",
    "hmtp",
    "btp",
    "delay_metric",
    "loss_metric",
    "composite_metric",
    "HMTPConfig",
    "BTPConfig",
    "OverlayAgent",
    "ProtocolRuntime",
    "TreeRegistry",
    "mst_parent_map",
    "degree_constrained_mst",
    "Simulator",
    "Underlay",
    "MatrixUnderlay",
    "NoRouteError",
    "MulticastSession",
    "SessionConfig",
    "SessionResult",
    "TransitStubConfig",
    "generate_planetlab_pool",
    "LinkErrorConfig",
    "UplinkPopulation",
    "degree_from_uplink",
    "StripedSession",
    "StripeReport",
    "PlayoutBuffer",
    "ViewerExperience",
    "session_experience",
    "summarize_experience",
    "render_tree_text",
    "tree_to_dot",
    "__version__",
]
