"""Shared fixtures: small substrates and runtime builders.

Everything here is deliberately tiny (tens of routers/hosts) so the whole
suite stays fast; the benchmark harness covers paper-scale runs.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

# Isolate the substrate artifact cache for the whole suite: tests build
# substrates at import time (e.g. test_parallel_harness), and the default
# cache root is ``.repro_cache`` under the cwd — which would litter the
# repo.  ``setdefault`` keeps an explicit REPRO_CACHE_DIR (CI's
# cache-round-trip job sets one) authoritative.
os.environ.setdefault(
    "REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-test-cache-")
)

from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay
from repro.protocols.base import ProtocolRuntime
from repro.topology.transit_stub import TransitStubConfig
from tests.helpers import line_matrix
from tests.lazy_underlay import RouterUnderlay, generate_transit_stub, stub_routers

SMALL_TS = TransitStubConfig(
    total_nodes=80,
    transit_domains=2,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=2,
)


@pytest.fixture(scope="session")
def small_graph():
    return generate_transit_stub(SMALL_TS, seed=42)


@pytest.fixture(scope="session")
def router_underlay(small_graph):
    stubs = stub_routers(small_graph)
    rng = np.random.default_rng(7)
    routers = rng.choice(stubs, size=30, replace=False)
    return RouterUnderlay(small_graph, {i: int(r) for i, r in enumerate(routers)})


@pytest.fixture
def line_underlay():
    """Five hosts on a line at positions 0, 10, 20, 40, 80 (RTT ms)."""
    return MatrixUnderlay(line_matrix([0.0, 10.0, 20.0, 40.0, 80.0]))


def make_runtime(underlay, source=0, **kwargs):
    sim = Simulator()
    env = ProtocolRuntime(sim, underlay, source, **kwargs)
    return sim, env


@pytest.fixture
def runtime(line_underlay):
    return make_runtime(line_underlay)
