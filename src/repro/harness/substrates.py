"""Substrate builders for the two evaluation environments.

Chapter 3 runs on a 792-router transit-stub graph with overlay hosts
attached at random stub routers; Chapter 5 runs on a synthesized PlanetLab
pool filtered down to working nodes, with the source at a Colorado-like
site.  These builders package that setup (and its seeding discipline) so
experiments and tests share one code path.

Every transit-stub substrate, from the paper's size to 10⁵-router scale
cells, is a :class:`~repro.sim.sparse.SparseUnderlay`: CSR triplets and
Dijkstra rows computed on first use, with a row store whose capacity the
input size decides.  It answers every query byte-identically to the lazy
networkx oracle the tests build from the same three RNG streams
(``tests/helpers.py``).  Every builder consults the
content-addressed artifact cache of :mod:`repro.util.artifacts`, keyed by
the complete build recipe, so a warm cache skips topology generation
entirely and loads memory-mapped arrays instead;
``REPRO_SUBSTRATE_CACHE=0`` disables the disk cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.sim.network import MatrixUnderlay
from repro.sim.sparse import SPARSE_SCHEMA, SparseUnderlay
from repro.topology.geo import GeoSite
from repro.topology.linkmodel import LinkErrorConfig, link_error_array
from repro.topology.planetlab import PlanetLabNode, generate_planetlab_pool
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub_arrays,
)
from repro.util import artifacts
from repro.util.rngtools import check_seed, spawn_rng

__all__ = [
    "build_transit_stub_underlay",
    "build_planetlab_underlay",
    "PlanetLabSubstrate",
]

#: layout version of the PlanetLab artifact (part of its cache key).
_PLANETLAB_SCHEMA = 4


def build_transit_stub_underlay(
    *,
    n_hosts: int,
    seed: int,
    ts_config: TransitStubConfig | None = None,
    link_errors: LinkErrorConfig | None = None,
    access_delay_ms: float = 0.5,
    sparse: bool | None = None,
) -> SparseUnderlay:
    """Generate a transit-stub graph and attach ``n_hosts`` overlay hosts.

    Hosts get ids ``0..n_hosts-1`` and are attached to stub routers chosen
    uniformly *without* replacement while possible (the paper's 1000-node
    sweep exceeds the stub-router count, at which point routers are
    shared).  Pass ``link_errors`` to enable the Chapter 4 loss model.

    Returns the one router-graph engine, a :class:`SparseUnderlay`,
    possibly loaded straight from the artifact cache.  ``sparse`` is
    accepted and ignored: it chose between two engines once, and callers
    written then still pass it.
    """
    if n_hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {n_hosts}")
    config = ts_config or TransitStubConfig()
    key = artifacts.artifact_key(
        {
            "kind": "transit-stub-sparse",
            "schema": SPARSE_SCHEMA,
            "ts_config": config,
            "link_errors": link_errors,
            "seed": check_seed(seed),
            "n_hosts": int(n_hosts),
            "access_delay_ms": float(access_delay_ms),
        }
    )
    use_cache = artifacts.cache_enabled()
    if use_cache:
        artifact = artifacts.load_artifact(key)
        if artifact is not None:
            try:
                return SparseUnderlay.from_artifact(artifact)
            except (KeyError, ValueError):
                pass  # inconsistent entry: fall through and rebuild
    arr = generate_transit_stub_arrays(config, seed=spawn_rng(seed, "topology"))
    edge_error = None
    if link_errors is not None:
        edge_error = link_error_array(
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            link_errors,
            seed=spawn_rng(seed, "errors"),
        )
    # The paper's attachment rule: uniform stub routers, shared only when
    # the host count exceeds the stub-router count.
    stubs = arr.stub_ids()
    rng = spawn_rng(seed, "attach")
    routers = rng.choice(stubs, size=n_hosts, replace=n_hosts > len(stubs))
    attachments = {host: int(r) for host, r in enumerate(routers)}
    underlay = SparseUnderlay(
        arr.n_nodes,
        arr.edge_u,
        arr.edge_v,
        arr.edge_delay,
        attachments,
        access_delay_ms=access_delay_ms,
        edge_error=edge_error,
        router_domain=arr.transit_domain,
    )
    if use_cache:
        arrays, meta = underlay.to_artifact()
        artifacts.store_artifact(key, arrays, meta)
    return underlay


@dataclass
class PlanetLabSubstrate:
    """A selected PlanetLab experiment slice: underlay + source + roster."""

    underlay: MatrixUnderlay
    source: int
    nodes: list[PlanetLabNode]

    @property
    def n_hosts(self) -> int:
        return len(self.nodes)


def _node_to_json(node: PlanetLabNode) -> dict:
    record = dataclasses.asdict(node)
    record["site"] = dataclasses.asdict(node.site)
    return record


def _node_from_json(record: dict) -> PlanetLabNode:
    site = GeoSite(**record["site"])
    return PlanetLabNode(**{**record, "site": site})


def _planetlab_loss_matrix(
    n: int, seed: int, loss_sigma: float
) -> np.ndarray:
    """Pairwise lognormal loss rates around 0.5%, capped at 20%.

    One block draw over the upper triangle replaces the historical
    per-pair scalar loop; ``Generator`` methods consume the bit stream
    identically for sized and scalar draws (the block-draw
    technique), and the row-major order of ``triu_indices`` matches the
    old nested-loop visit order, so the matrix is bit-identical.
    """
    loss_rng = spawn_rng(seed, "loss")
    iu, ju = np.triu_indices(n, k=1)
    rates = np.minimum(
        0.2, loss_rng.lognormal(np.log(0.005), loss_sigma, size=iu.size)
    )
    loss = np.zeros((n, n))
    loss[iu, ju] = rates
    loss[ju, iu] = rates
    return loss


def build_planetlab_underlay(
    *,
    n_select: int = 100,
    seed: int = 0,
    n_us: int = 140,
    n_eu: int = 0,
    loss_sigma: float | None = None,
) -> PlanetLabSubstrate:
    """Synthesize a PlanetLab pool, filter it, and select an experiment slice.

    Mirrors the paper's Section 5.2.1/5.4.2 procedure: generate the ~140
    node US pool, drop unhealthy nodes (Fig. 5.2's three filter stages),
    select ``n_select`` of the survivors, and fix the source at the node
    nearest Colorado.  Host ids are 0..n_select-1; the source is included
    in the selection (so sessions should use ``n_nodes = n_select - 1``).

    ``loss_sigma``, when set, attaches a pairwise loss matrix whose rates
    are lognormal around 0.5% — used by loss-metric experiments on this
    substrate.

    The finished slice (RTT matrix, loss matrix, roster, source index) is
    a deterministic function of the arguments, so it round-trips through
    the artifact cache: warm runs skip pool generation and the pairwise
    RTT synthesis and load the matrices with ``mmap_mode="r"``.
    """
    use_cache = artifacts.cache_enabled()
    key = artifacts.artifact_key(
        {
            "kind": "planetlab",
            "schema": _PLANETLAB_SCHEMA,
            "n_select": int(n_select),
            "seed": check_seed(seed),
            "n_us": int(n_us),
            "n_eu": int(n_eu),
            "loss_sigma": None if loss_sigma is None else float(loss_sigma),
        }
    )
    if use_cache:
        artifact = artifacts.load_artifact(key)
        if artifact is not None:
            try:
                return _planetlab_from_artifact(artifact)
            except (KeyError, ValueError, TypeError):
                pass  # inconsistent entry: fall through and rebuild

    pool = generate_planetlab_pool(
        n_us=n_us, n_eu=n_eu, seed=int(spawn_rng(seed, "pool").integers(2**31))
    )
    working = pool.filter_working()
    if len(working) < n_select:
        raise ValueError(
            f"only {len(working)} working nodes after filtering; "
            f"cannot select {n_select} (increase n_us)"
        )
    rng = spawn_rng(seed, "select")
    idx = rng.choice(len(working), size=n_select, replace=False)
    selected = [working[int(i)] for i in sorted(idx)]
    rtt = pool.rtt_matrix(selected)
    loss = None
    if loss_sigma is not None:
        loss = _planetlab_loss_matrix(len(selected), seed, loss_sigma)
    underlay = MatrixUnderlay(rtt, host_ids=list(range(len(selected))), loss=loss)
    source = pool.colorado_like_index(selected)
    substrate = PlanetLabSubstrate(underlay=underlay, source=source, nodes=selected)
    if use_cache:
        arrays = {"rtt": rtt}
        if loss is not None:
            arrays["loss"] = loss
        meta = {
            "kind": "planetlab",
            "schema": _PLANETLAB_SCHEMA,
            "source": int(source),
            "nodes": [_node_to_json(node) for node in selected],
            "has_loss": loss is not None,
        }
        artifacts.store_artifact(key, arrays, meta)
    return substrate


def _planetlab_from_artifact(artifact: artifacts.Artifact) -> PlanetLabSubstrate:
    meta = artifact.meta
    if meta.get("kind") != "planetlab" or meta.get("schema") != _PLANETLAB_SCHEMA:
        raise ValueError("not a planetlab substrate artifact")
    loss = artifact.arrays.get("loss")
    if meta["has_loss"] and loss is None:
        raise ValueError("artifact advertises a loss matrix but has none")
    rtt = artifact.arrays["rtt"]
    nodes = [_node_from_json(record) for record in meta["nodes"]]
    underlay = MatrixUnderlay(
        rtt, host_ids=list(range(rtt.shape[0])), loss=loss
    )
    return PlanetLabSubstrate(
        underlay=underlay, source=int(meta["source"]), nodes=nodes
    )
