"""networkx is a test-only dependency, and asyncio no dependency at all:
the runtime never imports either.

The graph-form twins of the router-graph engine live in
``tests/lazy_underlay.py``; ``src/`` serves every substrate from scipy
CSR arrays and computes its MST in house.  The live service runs on the
discrete-event simulator alone, with no second event loop.  A fresh
interpreter that imports ``repro``, runs a session on a transit-stub
substrate, sweeps Fig 5.31 (the MST comparator) and Fig 4.8 (lossy
transit-stub links), and runs a live service session (a
``ServiceRuntime`` with a chaos plan, then ``run_service``) must end
with neither networkx nor asyncio loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import contextlib, io, json, sys

from repro import MulticastSession, SessionConfig, vdm
from repro.harness.__main__ import main
from repro.harness.chaos import ServiceChaosRule
from repro.harness.substrates import build_transit_stub_underlay
from repro.service import ServiceConfig, ServiceRuntime, run_service
from repro.topology.transit_stub import TransitStubConfig

underlay = build_transit_stub_underlay(
    n_hosts=16,
    seed=3,
    ts_config=TransitStubConfig(
        total_nodes=60,
        transit_domains=2,
        transit_nodes_per_domain=2,
        stub_domains_per_transit=2,
    ),
)
config = SessionConfig(n_nodes=10, join_phase_s=100.0, total_s=300.0, seed=5)
result = MulticastSession(underlay, vdm(), config).run()
with contextlib.redirect_stdout(io.StringIO()) as out:
    status = main(["fig5_31", "fig4_8", "--preset", "smoke", "--json"])
service = ServiceConfig(duration_s=120.0, seed=5, n_hosts=16, arrival_rate_hz=0.2)
chaos = (
    ServiceChaosRule(action="bus-stall", at_s=30.0, duration_s=10.0),
    ServiceChaosRule(action="clock-jump", at_s=60.0),
)
live = ServiceRuntime(service, underlay, chaos_plan=chaos, journal_outcomes=False)
live.run()
print(json.dumps({
    "status": status,
    "members": result.final.n_reachable,
    "figures": out.getvalue().count('"title"'),
    "service_arrivals": live.report()["arrivals"],
    "swept_arrivals": run_service(service, underlay, chaos_plan=())["arrivals"],
    "loaded": sorted(
        m for m in sys.modules if m.split(".")[0] in ("asyncio", "networkx")
    ),
}))
"""


def test_session_and_sweeps_never_import_networkx(tmp_path):
    """... nor does the live service import asyncio."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["status"] == 0
    assert report["members"] > 0
    assert report["figures"] == 2
    assert report["service_arrivals"] == report["swept_arrivals"] > 0
    assert report["loaded"] == []
