"""Experiment runners — one per figure of the paper's evaluation.

Figures come in groups that share a parameter sweep (e.g. Figs 3.25-3.28
are four metrics of the same churn sweep); each group runs once per preset
and is cached, so requesting ``fig3_26`` after ``fig3_25`` is free.

Every runner returns a :class:`repro.metrics.report.SeriesTable` whose
``expected_shape`` field states the paper's qualitative result for that
figure, making benchmark output self-checking by eye.

Replication execution goes through
:func:`repro.harness.parallel.run_replications`: each sweep point derives
its per-replication seeds up front (the same ``spawn_rng`` key paths as
always), then hands module-level *replication workers* to the engine.
Workers receive only picklable specs — the preset, a protocol spec, the
sweep value, and the seed — rebuild substrates behind a per-process memo,
and return reduced per-replication metrics.  Results are merged in
replication order, so ``jobs=1`` and ``jobs=N`` produce bit-identical
tables.

Every call site also names its sweep point with a ``key=`` tuple —
``("ch5_churn", "VDM", 0.06)`` and friends — which is what the journaled
checkpoint/resume layer (:mod:`repro.harness.journal`) keys completed
replications by, and what chaos rules (:mod:`repro.harness.chaos`) match
against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.core.capacity import UplinkPopulation
from repro.core.vdm import VDMConfig
from repro.factories import hmtp, loss_metric, vdm
from repro.protocols.multitree import StripedSession
from repro.harness.batchrun import CellSpec, cell_batch, clear_cells
from repro.harness.parallel import run_replications
from repro.harness.presets import Preset
from repro.harness.scale import (
    build_scale_tree,
    prim_mst_parents,
    scale_tree_metrics,
    scale_ts_config,
)
from repro.harness.substrates import (
    build_planetlab_underlay,
    build_transit_stub_underlay,
)
from repro.metrics.collectors import mst_ratio
from repro.metrics.report import SeriesTable
from repro.metrics.stats import SummaryStats, mean_ci
from repro.protocols.hmtp import HMTPConfig
from repro.sim.faults import CORRELATED_PRESETS
from repro.sim.session import MulticastSession, SessionConfig, SessionResult
from repro.topology.linkmodel import LinkErrorConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util.rngtools import spawn_rng
from repro.util.timing import Stopwatch

__all__ = [
    "ch3_churn_tables",
    "ch3_nodes_tables",
    "ch3_degree_tables",
    "ch4_time_tables",
    "ch5_churn_tables",
    "ch5_nodes_tables",
    "ch5_degree_tables",
    "ch5_refinement_tables",
    "ch5_mst_table",
    "ch5_sample_tree",
    "ch6_failover_tables",
    "ch7_scale_tables",
    "ch8_service_tables",
    "ablation_tables",
    "extension_tables",
    "clear_cache",
    "group_timings",
]

_CACHE: dict[tuple[str, str, str, str], dict[str, SeriesTable]] = {}

#: wall-clock seconds spent building each (group, preset-name, fault-plan,
#: failover-mode) sweep — cache hits cost nothing and are not recorded.
GROUP_TIMINGS: dict[tuple[str, str, str, str], float] = {}


def clear_cache() -> None:
    """Drop cached sweep results, substrate memos, the batched cells that
    pin those substrates, and timings (tests and the benchmark use
    this)."""
    _CACHE.clear()
    GROUP_TIMINGS.clear()
    _ts_underlay.cache_clear()
    _pl_substrate_cached.cache_clear()
    clear_cells()


def group_timings() -> dict[tuple[str, str, str, str], float]:
    """Wall-clock build time of every group computed so far."""
    return dict(GROUP_TIMINGS)


def _cached(group: str, preset: Preset, build: Callable[[], dict[str, SeriesTable]]):
    key = (group, preset.name, preset.fault_plan or "", preset.failover)
    if key not in _CACHE:
        with Stopwatch() as sw:
            _CACHE[key] = build()
        GROUP_TIMINGS[key] = sw.elapsed
    return _CACHE[key]


# ---------------------------------------------------------------------------
# picklable specs: protocols and substrates
# ---------------------------------------------------------------------------
#
# Agent factories are closures (not picklable), so sweep definitions carry
# (kind, config) tuples instead and each worker process resolves them.

ProtocolSpec = tuple[str, object]


def _resolve_protocol(spec: ProtocolSpec):
    kind, config = spec
    if kind == "vdm":
        return vdm(config)
    if kind == "hmtp":
        return hmtp(config)
    raise ValueError(f"unknown protocol spec {spec!r}")


def _vdm_spec(config: VDMConfig | None = None) -> ProtocolSpec:
    return ("vdm", config or VDMConfig())


def _vdm_r_spec(period_s: float) -> ProtocolSpec:
    import dataclasses

    return ("vdm", dataclasses.replace(VDMConfig(), refine_period_s=period_s))


def _hmtp_spec(refine_period_s: float) -> ProtocolSpec:
    return ("hmtp", HMTPConfig(refine_period_s=refine_period_s))


# Substrates are deterministic functions of their parameters, so workers
# rebuild them locally instead of unpickling graph blobs per task; the
# memo makes that a once-per-process cost.  Since PR 4 the builders under
# these memos compile their underlays (batched all-pairs Dijkstra, dense
# matrices) and consult the on-disk artifact cache, so "rebuild" in a
# warm process usually means mmap-loading shared read-only arrays rather
# than regenerating the topology.  ``clear_cache`` drops only in-process
# state — the disk cache is content-addressed and never stale by
# construction, so timed cold runs must point REPRO_CACHE_DIR elsewhere.


@lru_cache(maxsize=32)
def _ts_underlay(
    n_hosts: int,
    seed: int,
    ts_config: TransitStubConfig,
    link_errors: LinkErrorConfig | None,
):
    return build_transit_stub_underlay(
        n_hosts=n_hosts,
        seed=seed,
        ts_config=ts_config,
        link_errors=link_errors,
    )


@lru_cache(maxsize=32)
def _pl_substrate_cached(n_select: int, seed: int, n_us: int, n_eu: int = 0):
    return build_planetlab_underlay(
        n_select=n_select, seed=seed, n_us=n_us, n_eu=n_eu
    )


# ---------------------------------------------------------------------------
# metric extractors: SessionResult -> scalar
# ---------------------------------------------------------------------------


def _m_stress(res: SessionResult) -> float:
    return res.mean_metric(lambda r: r.stress.average)


def _m_stretch(res: SessionResult) -> float:
    return res.mean_metric(lambda r: r.stretch.average)


def _m_loss_pct(res: SessionResult) -> float:
    return 100.0 * res.mean_metric(lambda r: r.window_mean_node_loss)


def _m_overhead_pct(res: SessionResult) -> float:
    return 100.0 * res.mean_metric(lambda r: r.window_overhead)


def _m_hopcount(res: SessionResult) -> float:
    return res.mean_metric(lambda r: r.hopcount.average)


def _m_usage(res: SessionResult) -> float:
    return res.mean_metric(lambda r: r.usage.normalized)


def _m_startup_avg(res: SessionResult) -> float:
    times = res.startup_times()
    return float(np.mean(times)) if times else 0.0


def _m_startup_max(res: SessionResult) -> float:
    times = res.startup_times()
    return float(np.max(times)) if times else 0.0


def _m_recon_avg(res: SessionResult) -> float:
    times = res.reconnection_times()
    return float(np.mean(times)) if times else 0.0


def _m_recon_max(res: SessionResult) -> float:
    times = res.reconnection_times()
    return float(np.max(times)) if times else 0.0


CH3_METRICS: dict[str, Callable[[SessionResult], float]] = {
    "stress": _m_stress,
    "stretch": _m_stretch,
    "loss_pct": _m_loss_pct,
    "overhead_pct": _m_overhead_pct,
}

CH5_METRICS: dict[str, Callable[[SessionResult], float]] = {
    "startup_s": _m_startup_avg,
    "startup_max_s": _m_startup_max,
    "reconnect_s": _m_recon_avg,
    "reconnect_max_s": _m_recon_max,
    "stretch": _m_stretch,
    "stretch_min": lambda r: r.mean_metric(lambda m: m.stretch.minimum),
    "stretch_max": lambda r: r.mean_metric(lambda m: m.stretch.maximum),
    "stretch_leaf": lambda r: r.mean_metric(lambda m: m.stretch.leaf_average),
    "hopcount": _m_hopcount,
    "hopcount_max": lambda r: r.mean_metric(lambda m: float(m.hopcount.maximum)),
    "hopcount_leaf": lambda r: r.mean_metric(lambda m: m.hopcount.leaf_average),
    "usage": _m_usage,
    "loss_pct": _m_loss_pct,
    "overhead_pct": _m_overhead_pct,
}


def _reduce(res: SessionResult, metrics: dict[str, Callable]) -> dict[str, float]:
    """Fold a session into the picklable per-replication record workers return."""
    return {name: extract(res) for name, extract in metrics.items()}


def _series(
    per_x_results: list[list[dict[str, float]]], metric: str
) -> list[SummaryStats]:
    return [mean_ci([rep[metric] for rep in reps]) for reps in per_x_results]


def _rep_seeds(preset: Preset, n_reps: int, *keys) -> list[int]:
    """The per-replication session seeds of one sweep point (derived up
    front so worker scheduling cannot perturb them)."""
    return [
        int(spawn_rng(preset.seed, *keys, rep).integers(2**31))
        for rep in range(n_reps)
    ]


# ---------------------------------------------------------------------------
# Chapter 3 — NS-2-style simulation
# ---------------------------------------------------------------------------


def _ch3_underlay(preset: Preset, n_hosts: int | None = None, *, errors=None):
    return _ts_underlay(
        n_hosts or preset.ch3_hosts, preset.seed, preset.ts_config, errors
    )


def _ch3_config(preset: Preset, *, churn: float, seed: int, n_nodes=None, degree=None):
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


def _ch3_protocols(preset: Preset) -> list[tuple[str, ProtocolSpec]]:
    return [
        ("VDM", _vdm_spec()),
        ("HMTP", _hmtp_spec(preset.ch3_hmtp_refine_s)),
    ]


def _ch3_churn_rep(
    preset: Preset, proto: ProtocolSpec, churn: float, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch3_underlay(preset)
    cfg = _ch3_config(preset, churn=churn, seed=seed)
    res = MulticastSession(underlay, _resolve_protocol(proto), cfg).run()
    return _reduce(res, CH3_METRICS)


# Batched-engine hooks (PR 6): each mirrors its replication worker above —
# same memoized underlay, same config derivation, same metric reduction —
# so a batched replication is bit-identical to a scalar one.  Cells the
# batched engine cannot take exactly (HMTP, fault plans, probe noise)
# decline inside the hook and run scalar as before.


def _ch3_churn_batch(preset: Preset, proto: ProtocolSpec, churn: float):
    return cell_batch(
        CellSpec(
            underlay_factory=lambda: _ch3_underlay(preset),
            config_factory=lambda seed: _ch3_config(preset, churn=churn, seed=seed),
            protocol=proto,
            metrics=CH3_METRICS,
        )
    )


def ch3_churn_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 3.25-3.28: stress/stretch/loss/overhead vs churn, VDM vs HMTP."""

    def build() -> dict[str, SeriesTable]:
        results: dict[str, list[list[dict[str, float]]]] = {}
        for proto_name, spec in _ch3_protocols(preset):
            seeds = _rep_seeds(
                preset, preset.replications, "ch3churn", proto_name
            )
            results[proto_name] = [
                run_replications(
                    _ch3_churn_rep, (preset, spec, churn), seeds,
                    jobs=preset.jobs,
                    key=("ch3_churn", proto_name, churn),
                    batch=_ch3_churn_batch(preset, spec, churn),
                )
                for churn in preset.churn_rates
            ]

        x = [100 * c for c in preset.churn_rates]
        shapes = {
            "stress": "both ~1.4-1.8, flat in churn, VDM and HMTP close (Fig 3.25)",
            "stretch": "VDM well below HMTP, both rise slightly (Fig 3.26)",
            "loss_pct": "VDM below HMTP, both rise with churn (Fig 3.27)",
            "overhead_pct": "linear in churn, VDM below HMTP (Fig 3.28)",
        }
        tables = {}
        for metric in CH3_METRICS:
            table = SeriesTable(
                title=f"Fig 3.2x — {metric} vs churn rate (%)",
                x_label="churn_%",
                x_values=list(x),
                expected_shape=shapes[metric],
            )
            for proto_name, _ in _ch3_protocols(preset):
                table.add_series(proto_name, _series(results[proto_name], metric))
            tables[metric] = table
        return tables

    return _cached("ch3_churn", preset, build)


def _ch3_nodes_rep(preset: Preset, n: int, rep: int, seed: int) -> dict[str, float]:
    underlay = _ch3_underlay(preset, n_hosts=max(preset.ch3_hosts, 2 * n))
    cfg = _ch3_config(preset, churn=0.05, seed=seed, n_nodes=n)
    res = MulticastSession(underlay, vdm(), cfg).run()
    return _reduce(res, CH3_METRICS)


def _ch3_nodes_batch(preset: Preset, n: int):
    return cell_batch(
        CellSpec(
            underlay_factory=lambda: _ch3_underlay(
                preset, n_hosts=max(preset.ch3_hosts, 2 * n)
            ),
            config_factory=lambda seed: _ch3_config(
                preset, churn=0.05, seed=seed, n_nodes=n
            ),
            protocol=_vdm_spec(),
            metrics=CH3_METRICS,
        )
    )


def ch3_nodes_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 3.29-3.32: the four metrics vs population size, VDM only."""

    def build() -> dict[str, SeriesTable]:
        per_x = [
            run_replications(
                _ch3_nodes_rep,
                (preset, n),
                _rep_seeds(preset, preset.replications, "ch3nodes", n),
                jobs=preset.jobs,
                key=("ch3_nodes", n),
                batch=_ch3_nodes_batch(preset, n),
            )
            for n in preset.node_counts
        ]

        shapes = {
            "stress": "rises sublinearly with N (~1.3 -> ~1.8 in the paper, Fig 3.29)",
            "stretch": "rises with N, logarithmic flavor (Fig 3.30)",
            "loss_pct": "rises with N (deeper trees, Fig 3.31)",
            "overhead_pct": "rises with diminishing increments (Fig 3.32)",
        }
        tables = {}
        for metric in CH3_METRICS:
            table = SeriesTable(
                title=f"Fig 3.3x — {metric} vs number of nodes",
                x_label="n_nodes",
                x_values=[float(n) for n in preset.node_counts],
                expected_shape=shapes[metric],
            )
            table.add_series("VDM", _series(per_x, metric))
            tables[metric] = table
        return tables

    return _cached("ch3_nodes", preset, build)


def _ch3_degree_rep(
    preset: Preset, degree: float, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch3_underlay(preset)
    cfg = _ch3_config(preset, churn=0.05, seed=seed, degree=float(degree))
    res = MulticastSession(underlay, vdm(), cfg).run()
    return _reduce(res, CH3_METRICS)


def _ch3_degree_batch(preset: Preset, degree: float):
    return cell_batch(
        CellSpec(
            underlay_factory=lambda: _ch3_underlay(preset),
            config_factory=lambda seed: _ch3_config(
                preset, churn=0.05, seed=seed, degree=float(degree)
            ),
            protocol=_vdm_spec(),
            metrics=CH3_METRICS,
        )
    )


def ch3_degree_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 3.33-3.36: the four metrics vs average node degree, VDM only."""

    def build() -> dict[str, SeriesTable]:
        per_x = [
            run_replications(
                _ch3_degree_rep,
                (preset, degree),
                _rep_seeds(preset, preset.replications, "ch3deg", str(degree)),
                jobs=preset.jobs,
                key=("ch3_degree", float(degree)),
                batch=_ch3_degree_batch(preset, degree),
            )
            for degree in preset.degree_values
        ]

        shapes = {
            "stress": "roughly flat in degree (Fig 3.33)",
            "stretch": "falls steeply until degree ~5 then flattens (Fig 3.34)",
            "loss_pct": "falls with degree then fluctuates (Fig 3.35)",
            "overhead_pct": "U-shaped: high at low degree, dips, rises again (Fig 3.36)",
        }
        tables = {}
        for metric in CH3_METRICS:
            table = SeriesTable(
                title=f"Fig 3.3x — {metric} vs average node degree",
                x_label="avg_degree",
                x_values=[float(d) for d in preset.degree_values],
                expected_shape=shapes[metric],
            )
            table.add_series("VDM", _series(per_x, metric))
            tables[metric] = table
        return tables

    return _cached("ch3_degree", preset, build)


# ---------------------------------------------------------------------------
# Chapter 4 — VDM-D vs VDM-L time series
# ---------------------------------------------------------------------------


def _ch4_rep(
    preset: Preset, use_loss_metric: bool, rep: int, seed: int
) -> dict[str, list[float]]:
    """One Chapter 4 time-series replication: per-measurement-point values."""
    errors = LinkErrorConfig(max_error=preset.ch4_max_link_error)
    underlay = _ts_underlay(
        max(preset.ch3_hosts, 2 * preset.ch4_nodes),
        preset.seed,
        preset.ts_config,
        errors,
    )
    interval = preset.ch4_measure_interval_s
    n_points = int(preset.ch4_total_s // interval)
    cfg = SessionConfig(
        n_nodes=preset.ch4_nodes,
        degree=(2, 5),
        join_phase_s=preset.ch4_total_s,
        total_s=preset.ch4_total_s,
        churn_rate=0.0,
        seed=seed,
        join_measure_interval_s=interval,
        faults=preset.fault_plan,
        failover=preset.failover,
    )
    res = MulticastSession(
        underlay,
        vdm(),
        cfg,
        metric_factory=loss_metric() if use_loss_metric else None,
    ).run()
    out: dict[str, list[float]] = {m: [] for m in CH3_METRICS}
    for i in range(n_points):
        rec = res.records[i]
        out["stress"].append(rec.stress.average)
        out["stretch"].append(rec.stretch.average)
        out["loss_pct"].append(100 * rec.window_mean_node_loss)
        out["overhead_pct"].append(100 * rec.window_overhead)
    return out


def ch4_time_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 4.6-4.9: stress/stretch/loss/overhead vs time, VDM-D vs VDM-L.

    Setup per Section 4.2: every physical link gets a random error rate in
    [0, 2%]; nodes keep joining (no churn); metrics are snapshotted at a
    fixed cadence as the tree grows.
    """

    def build() -> dict[str, SeriesTable]:
        variants = [("VDM-D", False), ("VDM-L", True)]
        interval = preset.ch4_measure_interval_s
        n_points = int(preset.ch4_total_s // interval)
        x = [interval * (i + 1) for i in range(n_points)]

        # per variant, per metric, per measurement index, list over reps
        collected: dict[str, dict[str, list[list[float]]]] = {}
        for name, use_loss in variants:
            reps = run_replications(
                _ch4_rep,
                (preset, use_loss),
                _rep_seeds(preset, preset.replications, "ch4", name),
                jobs=preset.jobs,
                key=("ch4_time", name),
            )
            collected[name] = {
                m: [[rep[m][i] for rep in reps] for i in range(n_points)]
                for m in CH3_METRICS
            }

        shapes = {
            "stress": "VDM-D below VDM-L throughout (Fig 4.6)",
            "stretch": "VDM-D below VDM-L (Fig 4.7)",
            "loss_pct": "VDM-L below VDM-D — the headline tradeoff (Fig 4.8)",
            "overhead_pct": "VDM-L at or below VDM-D (Fig 4.9)",
        }
        tables = {}
        for metric in CH3_METRICS:
            table = SeriesTable(
                title=f"Fig 4.x — {metric} vs time (s)",
                x_label="time_s",
                x_values=list(x),
                expected_shape=shapes[metric],
            )
            for name, _ in variants:
                table.add_series(
                    name, [mean_ci(v) for v in collected[name][metric]]
                )
            tables[metric] = table
        return tables

    return _cached("ch4_time", preset, build)


# ---------------------------------------------------------------------------
# Chapter 5 — PlanetLab emulation
# ---------------------------------------------------------------------------


def _pl_seed(preset: Preset, seed_key: str) -> int:
    return int(spawn_rng(preset.seed, "pl", seed_key).integers(2**31))


def _pl_substrate(preset: Preset, *, n_select: int | None = None, seed_key: str = ""):
    return _pl_substrate_cached(
        n_select or preset.pl_select,
        _pl_seed(preset, seed_key),
        preset.pl_pool_us,
    )


def _pl_config(
    preset: Preset,
    substrate,
    *,
    churn: float,
    seed: int,
    n_nodes: int | None = None,
    degree: int | None = None,
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


def _pl_protocols(preset: Preset) -> list[tuple[str, ProtocolSpec]]:
    return [
        ("VDM", _vdm_spec()),
        ("HMTP", _hmtp_spec(preset.pl_hmtp_refine_s)),
    ]


def _ch5_rep(
    preset: Preset,
    proto: ProtocolSpec,
    n_select: int,
    substrate_seed: int,
    churn: float,
    n_nodes: int | None,
    degree: int | None,
    rep: int,
    seed: int,
) -> dict[str, float]:
    """One PlanetLab-emulation replication, reduced to the Ch. 5 metrics."""
    substrate = _pl_substrate_cached(n_select, substrate_seed, preset.pl_pool_us)
    cfg = _pl_config(
        preset, substrate, churn=churn, seed=seed, n_nodes=n_nodes, degree=degree
    )
    res = MulticastSession(substrate.underlay, _resolve_protocol(proto), cfg).run()
    return _reduce(res, CH5_METRICS)


def _ch5_batch(
    preset: Preset,
    proto: ProtocolSpec,
    n_select: int,
    substrate_seed: int,
    churn: float,
    n_nodes: int | None = None,
    degree: int | None = None,
):
    """Batched hook for a Ch. 5 cell.

    With the paper's probe noise (``pl_noise_sigma`` > 0) the hook
    declines and the cell runs scalar; a noise-free preset batches.
    """

    def substrate():
        return _pl_substrate_cached(n_select, substrate_seed, preset.pl_pool_us)

    return cell_batch(
        CellSpec(
            underlay_factory=lambda: substrate().underlay,
            config_factory=lambda seed: _pl_config(
                preset,
                substrate(),
                churn=churn,
                seed=seed,
                n_nodes=n_nodes,
                degree=degree,
            ),
            protocol=proto,
            metrics=CH5_METRICS,
        )
    )


def ch5_churn_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 5.7-5.13: seven metrics vs churn rate, VDM vs HMTP."""

    def build() -> dict[str, SeriesTable]:
        substrate_seed = _pl_seed(preset, "churn")
        results: dict[str, list[list[dict[str, float]]]] = {}
        for proto_name, spec in _pl_protocols(preset):
            seeds = _rep_seeds(
                preset, preset.pl_replications, "ch5churn", proto_name
            )
            results[proto_name] = [
                run_replications(
                    _ch5_rep,
                    (preset, spec, preset.pl_select, substrate_seed, churn, None, None),
                    seeds,
                    jobs=preset.jobs,
                    key=("ch5_churn", proto_name, churn),
                    batch=_ch5_batch(
                        preset, spec, preset.pl_select, substrate_seed, churn
                    ),
                )
                for churn in preset.pl_churn_rates
            ]

        figures = {
            "startup_s": "churn-independent, HMTP slightly higher (Fig 5.7)",
            "reconnect_s": "below startup, churn-independent, VDM lower (Fig 5.8)",
            "stretch": "VDM ~1.6 vs HMTP ~1.9 (Fig 5.9)",
            "hopcount": "VDM ~4.5 vs HMTP ~5.5, churn-independent (Fig 5.10)",
            "usage": "paper: VDM lower; see EXPERIMENTS.md discrepancy note (Fig 5.11)",
            "loss_pct": "rises with churn, VDM lower (Fig 5.12)",
            "overhead_pct": "HMTP far above VDM (30 s refinement), both rise (Fig 5.13)",
        }
        x = [100 * c for c in preset.pl_churn_rates]
        tables = {}
        for metric, shape in figures.items():
            table = SeriesTable(
                title=f"Fig 5.x — {metric} vs churn rate (%)",
                x_label="churn_%",
                x_values=list(x),
                expected_shape=shape,
            )
            for proto_name, _ in _pl_protocols(preset):
                table.add_series(proto_name, _series(results[proto_name], metric))
            tables[metric] = table
        return tables

    return _cached("ch5_churn", preset, build)


def ch5_nodes_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 5.14-5.20: metrics vs number of nodes, VDM (avg/max/leaf series)."""

    def build() -> dict[str, SeriesTable]:
        per_x = [
            run_replications(
                _ch5_rep,
                (
                    preset,
                    _vdm_spec(),
                    n + 1,
                    _pl_seed(preset, f"nodes{n}"),
                    0.06,
                    n,
                    None,
                ),
                _rep_seeds(preset, preset.pl_replications, "ch5nodes", n),
                jobs=preset.jobs,
                key=("ch5_nodes", n),
            )
            for n in preset.pl_node_counts
        ]

        x = [float(n) for n in preset.pl_node_counts]
        spec = {
            "startup_s": (
                ["startup_s", "startup_max_s"],
                "avg and max grow with N (~0.5 s avg at N=100, Fig 5.14)",
            ),
            "reconnect_s": (
                ["reconnect_s", "reconnect_max_s"],
                "N-independent, ~0.2 s avg (Fig 5.15)",
            ),
            "stretch": (
                ["stretch_min", "stretch", "stretch_leaf", "stretch_max"],
                "avg stabilizes ~1.5; min can dip below 1 (Fig 5.16)",
            ),
            "hopcount": (
                ["hopcount", "hopcount_leaf", "hopcount_max"],
                "grows like log N; leaf avg above overall avg (Fig 5.17)",
            ),
            "usage": (["usage"], "grows with N (Fig 5.18)"),
            "loss_pct": (["loss_pct"], "grows with N (Fig 5.19)"),
            "overhead_pct": (["overhead_pct"], "grows with N (Fig 5.20)"),
        }
        tables = {}
        for metric, (series_names, shape) in spec.items():
            table = SeriesTable(
                title=f"Fig 5.1x — {metric} vs number of nodes (VDM)",
                x_label="n_nodes",
                x_values=list(x),
                expected_shape=shape,
            )
            for s in series_names:
                table.add_series(s, _series(per_x, s))
            tables[metric] = table
        return tables

    return _cached("ch5_nodes", preset, build)


def ch5_degree_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 5.21-5.27: metrics vs node degree, VDM."""

    def build() -> dict[str, SeriesTable]:
        substrate_seed = _pl_seed(preset, "degree")
        per_x = [
            run_replications(
                _ch5_rep,
                (
                    preset,
                    _vdm_spec(),
                    preset.pl_select,
                    substrate_seed,
                    0.06,
                    None,
                    int(degree),
                ),
                _rep_seeds(preset, preset.pl_replications, "ch5deg", degree),
                jobs=preset.jobs,
                key=("ch5_degree", float(degree)),
            )
            for degree in preset.pl_degree_values
        ]

        x = [float(d) for d in preset.pl_degree_values]
        spec = {
            "startup_s": (
                ["startup_s", "startup_max_s"],
                "falls until degree ~4-5 then flat (Fig 5.21)",
            ),
            "reconnect_s": (
                ["reconnect_s", "reconnect_max_s"],
                "degree-independent (Fig 5.22)",
            ),
            "stretch": (
                ["stretch_min", "stretch", "stretch_leaf", "stretch_max"],
                "falls until degree ~5 then stabilizes (Fig 5.23)",
            ),
            "hopcount": (
                ["hopcount", "hopcount_leaf", "hopcount_max"],
                "high at degree 2, improves to ~4 at degree 5, then flat (Fig 5.24)",
            ),
            "usage": (["usage"], "improves with degree then flattens (Fig 5.25)"),
            "loss_pct": (["loss_pct"], "falls until degree ~5 then flat (Fig 5.26)"),
            "overhead_pct": (
                ["overhead_pct"],
                "falls until degree ~5 then similar (Fig 5.27)",
            ),
        }
        tables = {}
        for metric, (series_names, shape) in spec.items():
            table = SeriesTable(
                title=f"Fig 5.2x — {metric} vs node degree (VDM)",
                x_label="degree",
                x_values=list(x),
                expected_shape=shape,
            )
            for s in series_names:
                table.add_series(s, _series(per_x, s))
            tables[metric] = table
        return tables

    return _cached("ch5_degree", preset, build)


def ch5_refinement_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Figs 5.28-5.30: VDM vs VDM-R (periodic refinement) vs N."""

    def build() -> dict[str, SeriesTable]:
        variants = [
            ("VDM", _vdm_spec()),
            ("VDM-R", _vdm_r_spec(preset.pl_vdm_r_period_s)),
        ]
        results: dict[str, list[list[dict[str, float]]]] = {}
        for name, spec in variants:
            results[name] = [
                run_replications(
                    _ch5_rep,
                    (
                        preset,
                        spec,
                        n + 1,
                        _pl_seed(preset, f"refine{n}"),
                        0.06,
                        n,
                        None,
                    ),
                    _rep_seeds(preset, preset.pl_replications, "ch5ref", name, n),
                    jobs=preset.jobs,
                    key=("ch5_refinement", name, n),
                )
                for n in preset.pl_refine_node_counts
            ]

        x = [float(n) for n in preset.pl_refine_node_counts]
        spec = {
            "stretch": "VDM-R ~10% below VDM (Fig 5.28)",
            "hopcount": "VDM-R below VDM — more balanced tree (Fig 5.29)",
            "overhead_pct": "VDM-R above VDM — the cost of refinement (Fig 5.30)",
        }
        tables = {}
        for metric, shape in spec.items():
            table = SeriesTable(
                title=f"Fig 5.2x/5.30 — {metric}: refinement effect vs N",
                x_label="n_nodes",
                x_values=list(x),
                expected_shape=shape,
            )
            for name, _ in variants:
                table.add_series(name, _series(results[name], metric))
            tables[metric] = table
        return tables

    return _cached("ch5_refinement", preset, build)


def _ch5_mst_rep(
    preset: Preset, n: int, substrate_seed: int, rep: int, seed: int
) -> float:
    substrate = _pl_substrate_cached(n + 1, substrate_seed, preset.pl_pool_us)
    cfg = _pl_config(
        preset,
        substrate,
        churn=0.0,
        seed=seed,
        n_nodes=n,
        degree=max(8, n),  # effectively unconstrained (Sec 5.4.6)
    )
    res = MulticastSession(substrate.underlay, vdm(), cfg).run()
    return mst_ratio(res.runtime.tree, substrate.underlay.rtt_ms)


def ch5_mst_table(preset: Preset) -> dict[str, SeriesTable]:
    """Fig 5.31: VDM tree cost / exact MST cost vs N (no degree limits)."""

    def build() -> dict[str, SeriesTable]:
        per_x = [
            run_replications(
                _ch5_mst_rep,
                (preset, n, _pl_seed(preset, f"mst{n}")),
                _rep_seeds(preset, preset.pl_replications, "ch5mst", n),
                jobs=preset.jobs,
                key=("ch5_mst", n),
            )
            for n in preset.pl_mst_node_counts
        ]

        table = SeriesTable(
            title="Fig 5.31 — VDM tree cost / MST cost vs N",
            x_label="n_nodes",
            x_values=[float(n) for n in preset.pl_mst_node_counts],
            expected_shape="grows with N but stays below ~2 (Fig 5.31)",
        )
        table.add_series("VDM/MST", [mean_ci(v) for v in per_x])
        return {"mst_ratio": table}

    return _cached("ch5_mst", preset, build)


def ch5_sample_tree(preset: Preset, *, transatlantic: bool = False) -> str:
    """Figs 5.5/5.6: one sample tree, rendered as an indented edge list.

    With ``transatlantic=True`` the pool includes European sites
    (Fig 5.6); the rendering annotates each node's region so the
    continental clustering is visible in text.
    """
    n_eu = preset.pl_pool_us // 3 if transatlantic else 0
    substrate = build_planetlab_underlay(
        n_select=min(preset.pl_select, 40),
        seed=_pl_seed(preset, "sample"),
        n_us=preset.pl_pool_us,
        n_eu=n_eu,
    )
    cfg = _pl_config(
        preset,
        substrate,
        churn=0.0,
        seed=int(spawn_rng(preset.seed, "sampletree").integers(2**31)),
    )
    res = MulticastSession(substrate.underlay, vdm(), cfg).run()
    tree = res.runtime.tree

    def label(node: int) -> str:
        site = substrate.nodes[node].site
        return f"{node}:{site.name}({site.region})"

    lines = [
        "Sample VDM tree"
        + (" (US + EU pool, Fig 5.6)" if transatlantic else " (US pool, Fig 5.5)")
    ]
    cross_region = 0

    def walk(node: int, depth: int) -> None:
        nonlocal cross_region
        lines.append("  " * depth + label(node))
        for child in sorted(tree.children.get(node, ())):
            if (
                substrate.nodes[child].site.region
                != substrate.nodes[node].site.region
            ):
                cross_region += 1
            walk(child, depth + 1)

    walk(tree.source, 0)
    total_edges = sum(len(c) for c in tree.children.values())
    lines.append(
        f"edges: {total_edges}, cross-region edges: {cross_region} "
        "(clustering => few cross-region links)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chapter 6 — failover under correlated failures
# ---------------------------------------------------------------------------


def _m_outage_s(res: SessionResult) -> float:
    cfg = res.config
    return res.accountant.outage_seconds(cfg.join_phase_s, cfg.total_s)


def _m_chunks_lost(res: SessionResult) -> float:
    cfg = res.config
    return res.accountant.chunks_lost(cfg.join_phase_s, cfg.total_s)


def _m_ttl_s(res: SessionResult) -> float:
    """Mean time-to-legal-state over the session's damage episodes."""
    if not res.recovery_times:
        return 0.0
    return float(np.mean(res.recovery_times))


CH6_METRICS: dict[str, Callable[[SessionResult], float]] = {
    "outage_s": _m_outage_s,
    "chunks_lost": _m_chunks_lost,
    "ttl_s": _m_ttl_s,
}

#: failover modes the ch6 sweep compares (reactive = the paper's oracle)
CH6_MODES: tuple[str, ...] = ("reactive", "precomputed")


def _ch6_config(
    preset: Preset, *, scenario: str, mode: str, seed: int
) -> SessionConfig:
    """Conformance-shaped session around the correlated presets' absolute
    fault times (outage at 800 s, partition 700-1000 s, burst at 600 s):
    a 400 s join phase puts every fault deep in the churn window."""
    return SessionConfig(
        n_nodes=preset.ch3_nodes,
        degree=(2, 4),
        join_phase_s=400.0,
        total_s=1600.0,
        slot_s=200.0,
        settle_s=50.0,
        churn_rate=0.05,
        seed=seed,
        faults=scenario,
        failover=mode,
        invariant_mode="raise",
    )


def _ch6_rep(
    preset: Preset, mode: str, scenario: str, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch3_underlay(preset)
    cfg = _ch6_config(preset, scenario=scenario, mode=mode, seed=seed)
    res = MulticastSession(underlay, vdm(), cfg).run()
    return _reduce(res, CH6_METRICS)


def _ch6_batch(preset: Preset, mode: str, scenario: str):
    # Always declines (correlated fault plans and precomputed failover are
    # outside the batched envelope) — wired anyway so the decline is the
    # loud, tested kind rather than a silently missing hook.
    return cell_batch(
        CellSpec(
            underlay_factory=lambda: _ch3_underlay(preset),
            config_factory=lambda seed: _ch6_config(
                preset, scenario=scenario, mode=mode, seed=seed
            ),
            protocol=_vdm_spec(),
            metrics=CH6_METRICS,
        )
    )


def ch6_failover_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Recovery under correlated failures: reactive vs precomputed failover.

    VDM on the Chapter 3 substrate, one x position per correlated-failure
    scenario (:data:`repro.sim.faults.CORRELATED_PRESETS`): transit-domain
    outage, partition + heal, loss burst.  Metrics are the recovery
    triple — mean outage seconds per member, total chunks lost, mean
    time-to-legal-state.
    """

    def build() -> dict[str, SeriesTable]:
        scenarios = list(CORRELATED_PRESETS)
        # Seeds are keyed by scenario only — both modes replay the *same*
        # sessions (same membership, same fault schedule), so the
        # comparison is paired and the failover knob is the only delta.
        results: dict[str, list[list[dict[str, float]]]] = {
            mode: [
                run_replications(
                    _ch6_rep,
                    (preset, mode, scenario),
                    _rep_seeds(preset, preset.replications, "ch6", scenario),
                    jobs=preset.jobs,
                    key=("ch6_failover", mode, scenario),
                    batch=_ch6_batch(preset, mode, scenario),
                )
                for scenario in scenarios
            ]
            for mode in CH6_MODES
        }

        legend = ", ".join(f"{i}={s}" for i, s in enumerate(scenarios))
        shapes = {
            "outage_s": (
                "precomputed at or below reactive on every scenario, "
                "strictly below on domain-outage"
            ),
            "chunks_lost": (
                "precomputed at or below reactive, strictly below on "
                "domain-outage"
            ),
            "ttl_s": "precomputed heals faster wherever switches commit",
        }
        tables = {}
        for metric in CH6_METRICS:
            table = SeriesTable(
                title=(
                    f"Ch 6 — {metric} by correlated-failure scenario "
                    f"[{legend}]"
                ),
                x_label="scenario_idx",
                x_values=[float(i) for i in range(len(scenarios))],
                expected_shape=shapes[metric],
            )
            for mode in CH6_MODES:
                table.add_series(mode, _series(results[mode], metric))
            tables[metric] = table
        return tables

    return _cached("ch6_failover", preset, build)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

ABLATION_METRICS: dict[str, Callable[[SessionResult], float]] = {
    "stress": _m_stress,
    "stretch": _m_stretch,
    "loss_pct": _m_loss_pct,
    "overhead_pct": _m_overhead_pct,
    "reconnect_s": _m_recon_avg,
}


def _ablation_rep(
    preset: Preset, config: VDMConfig, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch3_underlay(preset)
    cfg = _ch3_config(preset, churn=0.05, seed=seed)
    res = MulticastSession(underlay, vdm(config), cfg).run()
    return _reduce(res, ABLATION_METRICS)


def _abl_refine_rep(
    preset: Preset, period: float, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch3_underlay(preset)
    cfg = _ch3_config(preset, churn=0.05, seed=seed)
    res = MulticastSession(
        underlay, _resolve_protocol(_vdm_r_spec(period)), cfg
    ).run()
    return {"stretch": _m_stretch(res), "overhead_pct": _m_overhead_pct(res)}


def ablation_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Design-choice ablations called out in DESIGN.md.

    * ``case_policy`` — Scenario III: descend first (paper) vs insert first;
    * ``case3_selection`` — closest (paper) vs random directional child;
    * ``reconnect`` — grandparent restart (paper) vs source restart;
    * each evaluated on the Chapter 3 substrate at 5% churn.
    """

    def build() -> dict[str, SeriesTable]:
        variants = {
            "paper-default": VDMConfig(),
            "prefer-case2": VDMConfig(case_priority="case2"),
            "random-case3": VDMConfig(case3_selection="random"),
            "reconnect-at-source": VDMConfig(reconnect_at="source"),
        }
        collected: dict[str, list[dict[str, float]]] = {
            name: run_replications(
                _ablation_rep,
                (preset, config),
                _rep_seeds(preset, preset.replications, "abl", name),
                jobs=preset.jobs,
                key=("ablations", name),
            )
            for name, config in variants.items()
        }

        table = SeriesTable(
            title="Ablations — VDM design choices (rows: metrics as x)",
            x_label="metric_idx",
            x_values=list(range(len(ABLATION_METRICS))),
            expected_shape=(
                "paper defaults should win or tie on loss/reconnect; "
                "alternatives quantify each rule's contribution"
            ),
        )
        for name in variants:
            table.add_series(
                name,
                [
                    mean_ci([rep[m] for rep in collected[name]])
                    for m in ABLATION_METRICS
                ],
            )
        # Remember which metric each x index means.
        table.title += " [" + ", ".join(
            f"{i}={m}" for i, m in enumerate(ABLATION_METRICS)
        ) + "]"

        # Second ablation: refinement-period sweep (Section 5.4.5's
        # "additional experiments could be done to understand the effect
        # of frequency of refinement messages").
        periods = [60.0, 180.0, 600.0]
        per_x = [
            run_replications(
                _abl_refine_rep,
                (preset, period),
                _rep_seeds(preset, preset.replications, "ablref", str(period)),
                jobs=preset.jobs,
                key=("abl_refine", period),
            )
            for period in periods
        ]
        refine_table = SeriesTable(
            title="Ablation — VDM-R refinement period sweep",
            x_label="period_s",
            x_values=periods,
            expected_shape=(
                "shorter periods buy stretch at a growing overhead cost"
            ),
        )
        refine_table.add_series("stretch", _series(per_x, "stretch"))
        refine_table.add_series("overhead_pct", _series(per_x, "overhead_pct"))
        return {"ablations": table, "refine_period": refine_table}

    return _cached("ablations", preset, build)


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------


def _ext_free_rider_rep(
    preset: Preset, fraction: float, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch3_underlay(preset)
    population = UplinkPopulation(
        median_uplink_kbps=2000.0,
        stream_kbps=500.0,
        max_degree=8,
        free_rider_fraction=fraction,
    )
    cfg = _ch3_config(preset, churn=0.05, seed=seed, degree=population)
    res = MulticastSession(underlay, vdm(), cfg).run()
    return {
        "stretch": _m_stretch(res),
        "loss_pct": _m_loss_pct(res),
        "hopcount": _m_hopcount(res),
    }


def _ext_stripe_rep(
    preset: Preset, stripes: int, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch3_underlay(preset)
    cfg = _ch3_config(preset, churn=0.10, seed=seed, degree=(4, 8))
    report = StripedSession(underlay, vdm(), cfg, stripes=stripes).run()
    window = (cfg.join_phase_s, cfg.total_s)
    return {
        "continuity": report.continuity(*window),
        "full_quality": report.full_quality(*window),
    }


def extension_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Experiments beyond the paper, built on its future-work list.

    * ``free_riders`` — degree heterogeneity from a bandwidth-derived
      population (Chapter 6: "This degree depends on outgoing bandwidth
      of nodes") with a growing free-rider fraction: how much does
      contribution asymmetry cost the tree?
    * ``striping`` — SplitStream-style multi-tree striping over VDM:
      stripes vs playback continuity and full quality under churn.
    """

    def build() -> dict[str, SeriesTable]:
        # --- free riders -------------------------------------------------
        fractions = [0.0, 0.25, 0.5]
        fr_per_x = [
            run_replications(
                _ext_free_rider_rep,
                (preset, fraction),
                _rep_seeds(preset, preset.replications, "extfr", str(fraction)),
                jobs=preset.jobs,
                key=("ext_free_riders", fraction),
            )
            for fraction in fractions
        ]
        free_rider_table = SeriesTable(
            title="Extension — free-rider fraction vs tree quality (VDM)",
            x_label="free_rider_fraction",
            x_values=fractions,
            expected_shape=(
                "more free riders -> fewer forwarding slots -> deeper "
                "trees, worse stretch and loss"
            ),
        )
        for metric in ("stretch", "loss_pct", "hopcount"):
            free_rider_table.add_series(metric, _series(fr_per_x, metric))

        # --- striping -----------------------------------------------------
        stripe_counts = [1, 2, 4]
        stripe_per_x = [
            run_replications(
                _ext_stripe_rep,
                (preset, stripes),
                _rep_seeds(preset, preset.replications, "extstripe", stripes),
                jobs=preset.jobs,
                key=("ext_striping", stripes),
            )
            for stripes in stripe_counts
        ]
        striping_table = SeriesTable(
            title="Extension — SplitStream-over-VDM: stripes vs resilience",
            x_label="stripes",
            x_values=[float(s) for s in stripe_counts],
            expected_shape=(
                "continuity (>=1 stripe) should rise (or hold) with "
                "stripe count while full quality pays the churn tax"
            ),
        )
        striping_table.add_series("continuity", _series(stripe_per_x, "continuity"))
        striping_table.add_series(
            "full_quality", _series(stripe_per_x, "full_quality")
        )

        return {"free_riders": free_rider_table, "striping": striping_table}

    return _cached("extensions", preset, build)


# ---------------------------------------------------------------------------
# Chapter 7 — scale study (beyond the paper: sparse substrates)
# ---------------------------------------------------------------------------

#: join-walk protocols of the scale sweep; the MST baseline rides along in
#: the stretch/stress tables (it has no join procedure to time).
CH7_PROTOCOLS: tuple[str, ...] = ("VDM", "HMTP", "BTP")


def _ch7_underlay(preset: Preset, n_members: int, seed: int):
    """One sparse substrate per (population, replication seed): ~1 router
    per member, hosts on stub routers, CSR triplets end to end."""
    return build_transit_stub_underlay(
        n_hosts=n_members,
        seed=seed,
        ts_config=scale_ts_config(max(n_members, 120)),
        sparse=True,
    )


def _ch7_rep(
    preset: Preset, proto: str, n_members: int, rep: int, seed: int
) -> dict[str, float]:
    underlay = _ch7_underlay(preset, n_members, seed)
    if proto == "MST":
        if n_members > preset.ch7_mst_max_members:
            return {
                "joinlat_ms": float("nan"),
                "joinlat_p95_ms": float("nan"),
                "stretch": float("nan"),
                "stress": float("nan"),
            }
        parents = prim_mst_parents(underlay, n_members)
        joinlat = joinlat_p95 = float("nan")
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
        "stress": metrics.stress_avg if include_stress else float("nan"),
    }


def ch7_scale_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Ch 7 — VDM vs HMTP/BTP/MST across member populations.

    Static-join trees (:mod:`repro.harness.scale`) on sparse substrates
    sized ~1 router per member: modelled join latency, stretch, and link
    stress at each population of ``preset.ch7_member_counts``.  Every
    replication draws a fresh topology (the construction itself is
    deterministic per substrate), and every underlay query runs through
    the O(V) sparse engine — the sweep never materializes a V^2 matrix,
    which is what makes the 10k+ cells feasible at all.
    """

    def build() -> dict[str, SeriesTable]:
        protocols = list(CH7_PROTOCOLS) + ["MST"]
        results: dict[str, list[list[dict[str, float]]]] = {}
        for proto in protocols:
            results[proto] = [
                run_replications(
                    _ch7_rep,
                    (preset, proto, n),
                    _rep_seeds(preset, preset.ch7_replications, "ch7", proto, n),
                    jobs=preset.jobs,
                    key=("ch7_scale", proto, n),
                )
                for n in preset.ch7_member_counts
            ]

        x = [float(n) for n in preset.ch7_member_counts]
        tables = {}
        specs = {
            "joinlat_ms": (
                CH7_PROTOCOLS,
                "VDM join latency grows with depth (directional chains); "
                "all protocols sublinear in N",
            ),
            "stretch": (
                protocols,
                "VDM well below HMTP/BTP and stable in N; MST lowest cost "
                "but not stretch-optimal",
            ),
            "stress": (
                protocols,
                "stress rises slowly with N for all; MST lowest, BTP worst",
            ),
        }
        for metric, (series_protos, shape) in specs.items():
            table = SeriesTable(
                title=f"Ch 7 — {metric} vs members (static-join scale model)",
                x_label="n_members",
                x_values=x,
                expected_shape=shape,
            )
            for proto in series_protos:
                table.add_series(proto, _series(results[proto], metric))
            tables[metric] = table
        return tables

    return _cached("ch7_scale", preset, build)


# ---------------------------------------------------------------------------
# Chapter 8 — live service mode (beyond the paper)
# ---------------------------------------------------------------------------

#: SLO fields each service replication reduces to (per-run, JSON-natural)
CH8_METRICS: tuple[str, ...] = (
    "p50_first_chunk_s",
    "p99_first_chunk_s",
    "rejected_pct",
    "degraded_pct",
)


def _ch8_underlay(preset: Preset):
    return _ts_underlay(preset.ch8_hosts, preset.seed, preset.ts_config, None)


def _ch8_config(preset: Preset, scenario: str, load: float, seed: int):
    from repro.service.runtime import ServiceConfig

    burst_rate = 0.0
    burst_at = 0.0
    burst_duration = 0.0
    if scenario == "flash":
        # The flash crowd scales with load so higher loads push the join
        # queue further past its high-water mark.
        burst_rate = preset.ch8_burst_rate_hz * load
        burst_at = preset.ch8_duration_s / 3.0
        burst_duration = preset.ch8_burst_duration_s
    return ServiceConfig(
        scenario=scenario,
        duration_s=preset.ch8_duration_s,
        seed=seed,
        n_hosts=preset.ch8_hosts,
        arrival_rate_hz=preset.ch8_base_rate_hz * load,
        hold_s=preset.ch8_hold_s,
        join_queue_hwm=preset.ch8_hwm,
        join_workers=preset.ch8_workers,
        burst_at_s=burst_at,
        burst_rate_hz=burst_rate,
        burst_duration_s=burst_duration,
    )


def _ch8_service_rep(
    preset: Preset, scenario: str, load: float, rep: int, seed: int
) -> dict[str, float]:
    from repro.service.runtime import run_service

    report = run_service(
        _ch8_config(preset, scenario, load, seed), _ch8_underlay(preset)
    )
    arrivals = max(1, report["arrivals"])
    return {
        "p50_first_chunk_s": report["p50_first_chunk_s"],
        "p99_first_chunk_s": report["p99_first_chunk_s"],
        "rejected_pct": 100.0 * report["rejected"] / arrivals,
        "degraded_pct": 100.0
        * report["time_in_degraded_s"]
        / report["duration_s"],
    }


def _ch8_service_batch(preset: Preset, scenario: str, load: float):
    # Deliberately wired through the batched-engine hook: the spec's
    # protocol kind is "service", which `decline_reason` refuses with a
    # typed BatchDecline, so every replication runs on the live asyncio
    # control plane.  Tests pin the decline.
    return cell_batch(
        CellSpec(
            underlay_factory=lambda: _ch8_underlay(preset),
            config_factory=lambda seed: _ch8_config(preset, scenario, load, seed),
            protocol=("service", None),
            metrics={},
        )
    )


def ch8_service_tables(preset: Preset) -> dict[str, SeriesTable]:
    """Ch 8 — service-mode SLOs vs offered load, Poisson vs flash crowd.

    Each replication is one live :class:`repro.service.runtime.ServiceRuntime`
    session: open-loop arrivals against a running VDM tree, per-join
    timeouts and retries, admission control at the join queue's
    high-water mark, and health probes integrating time-in-degraded.
    The x axis is the offered-load multiplier on
    ``preset.ch8_base_rate_hz``; the flash scenario adds a burst window
    scaled by the same multiplier, which is what drives the rejected-join
    separation between the two curves.
    """

    def build() -> dict[str, SeriesTable]:
        results: dict[str, list[list[dict[str, float]]]] = {}
        for scenario in preset.ch8_scenarios:
            seeds = _rep_seeds(
                preset, preset.ch8_replications, "ch8service", scenario
            )
            results[scenario] = [
                run_replications(
                    _ch8_service_rep,
                    (preset, scenario, load),
                    seeds,
                    jobs=preset.jobs,
                    key=("ch8_service", scenario, load),
                    batch=_ch8_service_batch(preset, scenario, load),
                )
                for load in preset.ch8_load_factors
            ]

        x = [float(load) for load in preset.ch8_load_factors]
        shapes = {
            "p50_first_chunk_s": "flat-ish in load until the queue saturates",
            "p99_first_chunk_s": "rises with load; flash well above Poisson "
            "(queueing + retries during the burst)",
            "rejected_pct": "~0 for Poisson; flash climbs with load once "
            "the burst overruns the high-water mark",
            "degraded_pct": "near 0 for Poisson; flash grows with load "
            "(admission probe unhealthy during the burst)",
        }
        tables = {}
        for metric in CH8_METRICS:
            table = SeriesTable(
                title=f"Ch 8 — {metric} vs offered load (service mode)",
                x_label="load_factor",
                x_values=list(x),
                expected_shape=shapes[metric],
            )
            for scenario in preset.ch8_scenarios:
                table.add_series(scenario, _series(results[scenario], metric))
            tables[metric] = table
        return tables

    return _cached("ch8_service", preset, build)
