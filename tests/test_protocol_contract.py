"""Every protocol row as a byte-pinned session contract.

The benchmark's ``sim_digest`` s and the figure contract pin plain VDM,
VDM-R, HMTP and BTP sessions; the fault conformance grid runs all four
protocols but checks invariants only.  This module pins the rest of the
protocol table byte for byte: MST, BTP, HMTP with and without the
foster-child quick start, VDM's foster-child, source-reconnect and
random-Case-III variants, and VDM-R — each with no churn, with churn,
and with churn plus a fault plan under precomputed failover and probe
noise.

Per cell the digest covers the join records, the final parent map, the
control-message counts and the number of events processed.  A change
that is *meant* to move a session regenerates the fixture::

    PYTHONPATH=src python -m tests.test_protocol_contract
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import factories
from repro.core.vdm import VDMConfig
from repro.harness.substrates import build_transit_stub_underlay
from repro.protocols.hmtp import HMTPConfig
from repro.sim.faults import FAULT_PRESETS
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.transit_stub import TransitStubConfig

FIXTURE = Path(__file__).parent / "fixtures" / "protocol_contract.json"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

PROTOCOLS = {
    "vdm": lambda: factories.vdm(),
    "vdm-foster": lambda: factories.vdm(VDMConfig(foster_child=True)),
    "vdm-reconnect-source": lambda: factories.vdm(VDMConfig(reconnect_at="source")),
    "vdm-random-case3": lambda: factories.vdm(VDMConfig(case3_selection="random")),
    "vdm-r": lambda: factories.vdm_r(period_s=120.0),
    "hmtp": lambda: factories.hmtp(),
    "hmtp-foster": lambda: factories.hmtp(HMTPConfig(foster_child=True)),
    "btp": lambda: factories.btp(),
    "mst": lambda: factories.mst(),
}

_BASE = SessionConfig(
    n_nodes=30,
    degree=(2, 4),
    join_phase_s=400.0,
    total_s=1400.0,
    slot_s=200.0,
    settle_s=50.0,
    seed=17,
    invariant_mode="raise",
)

#: the plan's faults stop 300 s before the end, leaving a quiet tail; the
#: fault cell also measures with probe noise, so the order of every draw
#: on the shared noise stream is pinned too
SCENARIOS = {
    "static": _BASE,
    "churn": dataclasses.replace(_BASE, churn_rate=0.15),
    "faults": dataclasses.replace(
        _BASE,
        churn_rate=0.15,
        faults=dataclasses.replace(FAULT_PRESETS["chaos"], active_until_s=1100.0),
        failover="precomputed",
        measurement_noise_sigma=0.1,
    ),
}


def _underlay():
    return build_transit_stub_underlay(
        n_hosts=60,
        seed=3,
        ts_config=TransitStubConfig(
            total_nodes=100,
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
        ),
    )


def session_digest(protocol: str, scenario: str, underlay) -> dict:
    """Run one cell and reduce it to its digest plus readable counts."""
    session = MulticastSession(underlay, PROTOCOLS[protocol](), SCENARIOS[scenario])
    runtime = session.run().runtime
    body = {
        "join_records": [list(rec) for rec in runtime.join_records],
        "parents": sorted(runtime.tree.parent.items(), key=lambda kv: kv[0]),
        "message_counts": dict(sorted(runtime.message_counts.items())),
        "events_processed": session.sim.events_processed,
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "events_processed": body["events_processed"],
        "join_records": len(body["join_records"]),
        "control": sum(body["message_counts"].values()),
    }


def render_contract() -> dict:
    underlay = _underlay()
    return {
        f"{protocol}/{scenario}": session_digest(protocol, scenario, underlay)
        for protocol in PROTOCOLS
        for scenario in SCENARIOS
    }


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def underlay():
    return _underlay()


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_session_matches_the_committed_contract(
    protocol, scenario, underlay, committed
):
    cell = f"{protocol}/{scenario}"
    assert session_digest(protocol, scenario, underlay) == committed[cell]


def test_the_contract_covers_every_cell(committed):
    assert sorted(committed) == sorted(
        f"{p}/{s}" for p in PROTOCOLS for s in SCENARIOS
    )


def test_no_module_subclasses_overlay_agent():
    """Protocols are rows of one table, not agent subclasses."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                name = base.attr if isinstance(base, ast.Attribute) else getattr(
                    base, "id", None
                )
                if name == "OverlayAgent":
                    offenders.append(f"{path.relative_to(SRC)}:{node.name}")
    assert offenders == []


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(render_contract(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
