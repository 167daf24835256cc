"""PlanetLab-style emulation (Chapter 5's implementation architecture).

The paper's PlanetLab system has four components (Fig. 5.3): a *scenario
generator* producing timed join/leave scripts, a *main controller* that
executes a scenario by messaging per-node agents, the *VDM agent* running
the protocol on each node, and a per-node *result calculator* collected at
session end.  This package mirrors that architecture on top of the
simulator:

* :mod:`repro.planetlab.scenario` — scenario files: a session's own
  schedule written down, (de)serialization in a line-per-event text
  format, validation;
* :mod:`repro.planetlab.controller` — the main controller: replays a
  scenario through one :class:`~repro.sim.session.MulticastSession` over
  a :class:`~repro.sim.network.MatrixUnderlay`, issues
  connect/disconnect/terminate, and gathers per-node statistics exactly
  like the paper's result-download step.

The protocol agents themselves are the library's regular agents — the
same code the NS-2-style experiments run, matching how the paper reused
its protocol across both environments.
"""

from repro.planetlab.scenario import (
    Scenario,
    generate_scenario,
    parse_scenario,
    render_scenario,
)
from repro.planetlab.controller import MainController, NodeReport, EmulationReport

__all__ = [
    "Scenario",
    "generate_scenario",
    "parse_scenario",
    "render_scenario",
    "MainController",
    "NodeReport",
    "EmulationReport",
]
