"""Discrete-event simulation substrate.

The paper evaluated VDM inside NS-2; this package is the equivalent
substrate built from scratch:

* :mod:`repro.sim.engine` — the event queue and simulation clock.
* :mod:`repro.sim.network` — the underlay: message delivery with latency,
  shortest-path routing, and per-physical-link accounting.
* :mod:`repro.sim.delivery` — analytical data-plane accounting (chunk loss
  from churn outages and path error rates, data-message counting).
* :mod:`repro.sim.churn` — the paper's slotted churn process.
* :mod:`repro.sim.faults` — seeded, deterministic fault injection
  (message loss/duplication/jitter, crashes, freezes).
* :mod:`repro.sim.invariants` — always-on tree invariant checking.
* :mod:`repro.sim.session` — end-to-end multicast session orchestration.
"""

from repro.sim.engine import Simulator, Event
from repro.sim.network import Underlay, MatrixUnderlay, NoRouteError
from repro.sim.delivery import DeliveryAccountant, WindowSnapshot
from repro.sim.churn import SlottedChurnModel
from repro.sim.faults import FAULT_PRESETS, FaultInjector, FaultPlan, resolve_fault_plan
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.session import MulticastSession, SessionConfig, SessionResult

__all__ = [
    "Simulator",
    "Event",
    "Underlay",
    "MatrixUnderlay",
    "NoRouteError",
    "DeliveryAccountant",
    "WindowSnapshot",
    "SlottedChurnModel",
    "FaultPlan",
    "FaultInjector",
    "FAULT_PRESETS",
    "resolve_fault_plan",
    "InvariantChecker",
    "InvariantViolation",
    "MulticastSession",
    "SessionConfig",
    "SessionResult",
]
