"""What one sweep cell runs: substrates, session configs, and the
replications that are not one plain session.

A *cell* is one ``run_replications`` call of a figure row in
:mod:`repro.harness.experiments`: one substrate, one protocol, one
parameter value, many seeded replications.  The rows name the builders
here; nothing here knows which figure it serves.

Figure rows carry protocol-table rows
(:func:`~repro.protocols.table.protocol_spec`), which pickle like their
configs; each worker turns one into an agent factory.  Substrates are
deterministic functions of their parameters, so workers rebuild them
behind per-process memos instead of unpickling graph blobs; a warm
rebuild usually mmap-loads the on-disk artifact cache.
:func:`clear_memos` drops only in-process state — the disk cache is
content-addressed, so timed cold runs must point REPRO_CACHE_DIR
elsewhere.  Every worker here takes ``(row id, preset, series value, x
value, rep, seed)`` and returns a JSON-natural record.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.factories import loss_metric, vdm
from repro.harness.presets import Preset
from repro.harness.scale import (
    build_scale_tree, prim_mst_parents, scale_tree_metrics, scale_ts_config,
)
from repro.harness.substrates import (
    build_planetlab_underlay, build_transit_stub_underlay,
)
from repro.metrics.collectors import mst_ratio
from repro.protocols.multitree import StripedSession
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.linkmodel import LinkErrorConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util.rngtools import spawn_rng

@lru_cache(maxsize=32)
def _ts_underlay(
    n_hosts: int, seed: int, ts_config: TransitStubConfig,
    link_errors: LinkErrorConfig | None,
):
    return build_transit_stub_underlay(
        n_hosts=n_hosts, seed=seed, ts_config=ts_config, link_errors=link_errors
    )


@lru_cache(maxsize=32)
def _pl_substrate_cached(n_select: int, seed: int, n_us: int, n_eu: int = 0):
    return build_planetlab_underlay(
        n_select=n_select, seed=seed, n_us=n_us, n_eu=n_eu
    )


def clear_memos() -> None:
    """Drop the per-process substrate memos."""
    _ts_underlay.cache_clear()
    _pl_substrate_cached.cache_clear()


# -- Chapter 3: transit-stub substrate ----------------------------------------


def ch3_underlay(preset: Preset, n_hosts: int | None = None):
    return _ts_underlay(
        n_hosts or preset.ch3_hosts, preset.seed, preset.ts_config, None
    )


def ch3_config(preset: Preset, *, churn: float, seed: int, n_nodes=None, degree=None):
    return SessionConfig(
        n_nodes=n_nodes or preset.ch3_nodes,
        degree=degree if degree is not None else (2, 5),
        join_phase_s=preset.ch3_join_phase_s,
        total_s=preset.ch3_total_s,
        slot_s=preset.ch3_slot_s,
        settle_s=preset.ch3_settle_s,
        churn_rate=churn,
        seed=seed,
        faults=preset.fault_plan,
        failover=preset.failover,
    )


def stripe_rep(row_id: str, preset: Preset, v, stripes: int, rep: int, seed: int):
    """SplitStream-style striping over VDM: continuity and full quality."""
    cfg = ch3_config(preset, churn=0.10, seed=seed, degree=(4, 8))
    report = StripedSession(ch3_underlay(preset), vdm(), cfg, stripes=stripes).run()
    window = (cfg.join_phase_s, cfg.total_s)
    return {
        "continuity": report.continuity(*window),
        "full_quality": report.full_quality(*window),
    }


# -- Chapter 4: lossy links, metrics over time --------------------------------


def ch4_points(preset: Preset) -> int:
    return int(preset.ch4_total_s // preset.ch4_measure_interval_s)


def ch4_rep(row_id: str, preset: Preset, use_loss_metric: bool, x, rep: int, seed: int):
    """One time-series replication: per-measurement-point values."""
    errors = LinkErrorConfig(max_error=preset.ch4_max_link_error)
    n_hosts = max(preset.ch3_hosts, 2 * preset.ch4_nodes)
    underlay = _ts_underlay(n_hosts, preset.seed, preset.ts_config, errors)
    cfg = SessionConfig(
        n_nodes=preset.ch4_nodes,
        degree=(2, 5),
        join_phase_s=preset.ch4_total_s,
        total_s=preset.ch4_total_s,
        churn_rate=0.0,
        seed=seed,
        join_measure_interval_s=preset.ch4_measure_interval_s,
        faults=preset.fault_plan,
        failover=preset.failover,
    )
    metric = loss_metric() if use_loss_metric else None
    res = MulticastSession(underlay, vdm(), cfg, metric_factory=metric).run()
    records = res.records[: ch4_points(preset)]
    return {
        "stress": [rec.stress.average for rec in records],
        "stretch": [rec.stretch.average for rec in records],
        "loss_pct": [100 * rec.window_mean_node_loss for rec in records],
        "overhead_pct": [100 * rec.window_overhead for rec in records],
    }


# -- Chapter 5: PlanetLab slices ----------------------------------------------


def pl_seed(preset: Preset, seed_key: str) -> int:
    return int(spawn_rng(preset.seed, "pl", seed_key).integers(2**31))


def pl_slice(key: str, per_n: bool = False) -> Callable:
    """``(preset, x) -> slice``: the preset's selection seeded by ``key``,
    or with ``per_n`` N members plus the source, seeded per N."""
    if per_n:
        return lambda p, n: _pl_substrate_cached(
            n + 1, pl_seed(p, f"{key}{n}"), p.pl_pool_us
        )
    return lambda p, x: _pl_substrate_cached(
        p.pl_select, pl_seed(p, key), p.pl_pool_us
    )


def pl_config(
    preset: Preset, substrate, *, churn: float, seed: int,
    n_nodes: int | None = None, degree: int | None = None,
) -> SessionConfig:
    return SessionConfig(
        n_nodes=n_nodes or (substrate.n_hosts - 1),
        degree=degree if degree is not None else preset.pl_degree,
        join_phase_s=preset.pl_join_phase_s,
        total_s=preset.pl_total_s,
        slot_s=400.0,
        settle_s=100.0,
        churn_rate=churn,
        seed=seed,
        source_host=substrate.source,
        source_degree=degree if degree is not None else preset.pl_degree,
        measurement_noise_sigma=preset.pl_noise_sigma,
        faults=preset.fault_plan,
        failover=preset.failover,
    )


def mst_rep(row_id: str, preset: Preset, v, n: int, rep: int, seed: int):
    """VDM tree cost over the exact MST's, degree effectively unconstrained
    (Sec 5.4.6)."""
    substrate = pl_slice("mst", per_n=True)(preset, n)
    cfg = pl_config(
        preset, substrate, churn=0.0, seed=seed, n_nodes=n, degree=max(8, n)
    )
    res = MulticastSession(substrate.underlay, vdm(), cfg).run()
    return {"mst_ratio": mst_ratio(res.runtime.tree, substrate.underlay.rtt_ms)}


# -- Chapter 6: correlated failures -------------------------------------------


def ch6_config(preset: Preset, mode: str, scenario: str, seed: int) -> SessionConfig:
    """Conformance-shaped session around the correlated presets' absolute
    fault times (outage at 800 s, partition 700-1000 s, burst at 600 s):
    a 400 s join phase puts every fault deep in the churn window."""
    return SessionConfig(
        n_nodes=preset.ch3_nodes, degree=(2, 4), seed=seed,
        join_phase_s=400.0, total_s=1600.0, slot_s=200.0, settle_s=50.0,
        churn_rate=0.05, faults=scenario, failover=mode, invariant_mode="raise",
    )


# -- Chapter 7: static-join trees on sparse substrates ------------------------


def ch7_rep(
    row_id: str, preset: Preset, proto: str, n_members: int, rep: int, seed: int
):
    """One fresh sparse substrate per (population, replication seed): ~1
    router per member, hosts on stub routers, CSR triplets end to end."""
    underlay = build_transit_stub_underlay(
        n_hosts=n_members,
        seed=seed,
        ts_config=scale_ts_config(max(n_members, 120)),
    )
    nan = float("nan")
    if proto == "MST":
        if n_members > preset.ch7_mst_max_members:
            return dict.fromkeys(
                ("joinlat_ms", "joinlat_p95_ms", "stretch", "stress"), nan
            )
        parents = prim_mst_parents(underlay, n_members)
        joinlat = joinlat_p95 = nan
    else:
        tree = build_scale_tree(
            underlay, proto.lower(), n_members, degree_limit=preset.ch7_degree
        )
        parents = tree.parents
        lat = tree.join_latency_ms[1:]
        joinlat = float(lat.mean())
        joinlat_p95 = float(np.percentile(lat, 95))
    include_stress = n_members <= preset.ch7_stress_max_members
    metrics = scale_tree_metrics(underlay, parents, include_stress=include_stress)
    return {
        "joinlat_ms": joinlat,
        "joinlat_p95_ms": joinlat_p95,
        "stretch": metrics.stretch_avg,
        "stress": metrics.stress_avg if include_stress else nan,
    }


# -- Chapter 8: live service mode ---------------------------------------------


def ch8_underlay(preset: Preset):
    return _ts_underlay(preset.ch8_hosts, preset.seed, preset.ts_config, None)


def ch8_config(preset: Preset, scenario: str, load: float, seed: int):
    from repro.service.runtime import ServiceConfig

    # The flash crowd scales with load so higher loads push the join
    # queue further past its high-water mark.
    flash = scenario == "flash"
    return ServiceConfig(
        scenario=scenario,
        duration_s=preset.ch8_duration_s,
        seed=seed,
        n_hosts=preset.ch8_hosts,
        arrival_rate_hz=preset.ch8_base_rate_hz * load,
        hold_s=preset.ch8_hold_s,
        join_queue_hwm=preset.ch8_hwm,
        join_workers=preset.ch8_workers,
        burst_at_s=preset.ch8_duration_s / 3.0 if flash else 0.0,
        burst_rate_hz=preset.ch8_burst_rate_hz * load if flash else 0.0,
        burst_duration_s=preset.ch8_burst_duration_s if flash else 0.0,
    )


def service_rep(
    row_id: str, preset: Preset, scenario: str, load: float, rep: int, seed: int
):
    """One live service session, reduced to its SLO fields."""
    from repro.service.runtime import run_service

    config = ch8_config(preset, scenario, load, seed)
    report = run_service(config, ch8_underlay(preset))
    arrivals = max(1, report["arrivals"])
    degraded = report["time_in_degraded_s"] / report["duration_s"]
    return {
        "p50_first_chunk_s": report["p50_first_chunk_s"],
        "p99_first_chunk_s": report["p99_first_chunk_s"],
        "rejected_pct": 100.0 * report["rejected"] / arrivals,
        "degraded_pct": 100.0 * degraded,
    }
