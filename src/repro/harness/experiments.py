"""Experiment sweeps — the paper's evaluation as one table of rows.

Figures come in groups that share a parameter sweep (Figs 3.25-3.28 are
four metrics of one churn sweep).  Each sweep is a :class:`Row` of
:data:`ROWS`: its series and x axes, the ``spawn_rng`` key path of a
cell's seeds, the journal key of a cell, the replication worker and its
metrics, the tables it emits and the figures they back.  Adding a figure
is adding a row, or a table to one; :data:`REGISTRY` is read off the rows.
What a cell runs — substrates, configs, the irregular workers — lives in
:mod:`repro.harness.cells`.

:func:`run_sweep` is the one loop.  It derives each cell's seeds up
front, runs the cell through
:func:`repro.harness.parallel.run_replications`, caches the result by
preset value and assembles the :class:`~repro.metrics.report.SeriesTable`
s, whose ``expected_shape`` states the paper's qualitative result.
Workers receive only picklable specs (row id, preset, series value, x
value, seed) and return reduced records, merged in replication order, so
``jobs=1`` and ``jobs=N`` give bit-identical tables.  Every
session-shaped row shares :func:`_session_rep` and a batch hook built from
the same cell (:func:`_cell`), so which cells batch is decided by the
batched engine's envelope (:mod:`repro.harness.batchrun`) alone.  A
cell's journal key — ``("ch5_churn", "VDM", 0.06)`` and friends — is what
:mod:`repro.harness.journal` records results under and what
:mod:`repro.harness.chaos` rules match against.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.core.capacity import UplinkPopulation
from repro.core.vdm import VDMConfig
from repro.factories import agent_factory, vdm
from repro.harness import cells
from repro.harness.batchrun import SERVICE, CellSpec, cell_batch, clear_cells
from repro.harness.parallel import run_replications
from repro.harness.presets import Preset
from repro.harness.substrates import build_planetlab_underlay
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean_ci
from repro.metrics.treeviz import render_tree_text
from repro.protocols.hmtp import HMTPConfig
from repro.protocols.table import protocol_spec
from repro.sim.faults import CORRELATED_PRESETS
from repro.sim.session import MulticastSession, SessionResult
from repro.util.rngtools import spawn_rng

__all__ = [
    "REGISTRY", "ROWS", "RegistryEntry", "Row", "Table", "clear_cache",
    "run_group", "run_sweep", "ch5_sample_tree",
    "ch3_churn_tables", "ch3_nodes_tables", "ch3_degree_tables",
    "ch4_time_tables", "ch5_churn_tables", "ch5_nodes_tables",
    "ch5_degree_tables", "ch5_refinement_tables", "ch5_mst_table",
    "ch6_failover_tables", "ch7_scale_tables", "ch8_service_tables",
    "ablation_tables", "extension_tables",
]

#: finished sweeps by (row id, preset with ``jobs`` normalized out)
_CACHE: dict[tuple[str, Preset], dict[str, SeriesTable]] = {}


def clear_cache() -> None:
    """Drop cached sweep results, substrate memos and the batched cells
    that pin those substrates (tests and the benchmark use this)."""
    _CACHE.clear()
    cells.clear_memos()
    clear_cells()


# ---------------------------------------------------------------------------
# metric extractors: SessionResult -> scalar
# ---------------------------------------------------------------------------


def _avg(get: Callable) -> Callable[[SessionResult], float]:
    """Mean of a per-measurement value over the steady-phase records."""
    return lambda res: res.mean_metric(get)


def _pct(get: Callable) -> Callable[[SessionResult], float]:
    return lambda res: 100.0 * res.mean_metric(get)


def _times(durations: Callable, reduce: Callable) -> Callable[[SessionResult], float]:
    """Mean or max of a list of durations; 0 when there are none."""

    def extract(res: SessionResult) -> float:
        times = durations(res)
        return float(reduce(times)) if times else 0.0

    return extract


_stress = _avg(lambda r: r.stress.average)
_stretch = _avg(lambda r: r.stretch.average)
_hopcount = _avg(lambda r: r.hopcount.average)
_loss_pct = _pct(lambda r: r.window_mean_node_loss)
_overhead_pct = _pct(lambda r: r.window_overhead)
_reconnect = _times(SessionResult.reconnection_times, np.mean)

CH3_METRICS: dict[str, Callable[[SessionResult], float]] = {
    "stress": _stress,
    "stretch": _stretch,
    "loss_pct": _loss_pct,
    "overhead_pct": _overhead_pct,
}

CH5_METRICS: dict[str, Callable[[SessionResult], float]] = {
    "startup_s": _times(SessionResult.startup_times, np.mean),
    "startup_max_s": _times(SessionResult.startup_times, np.max),
    "reconnect_s": _reconnect,
    "reconnect_max_s": _times(SessionResult.reconnection_times, np.max),
    "stretch": _stretch,
    "stretch_min": _avg(lambda m: m.stretch.minimum),
    "stretch_max": _avg(lambda m: m.stretch.maximum),
    "stretch_leaf": _avg(lambda m: m.stretch.leaf_average),
    "hopcount": _hopcount,
    "hopcount_max": _avg(lambda m: float(m.hopcount.maximum)),
    "hopcount_leaf": _avg(lambda m: m.hopcount.leaf_average),
    "usage": _avg(lambda m: m.usage.normalized),
    "loss_pct": _loss_pct,
    "overhead_pct": _overhead_pct,
}


def _window(res: SessionResult) -> tuple[float, float]:
    return res.config.join_phase_s, res.config.total_s


CH6_METRICS: dict[str, Callable[[SessionResult], float]] = {
    "outage_s": lambda res: res.accountant.outage_seconds(*_window(res)),
    "chunks_lost": lambda res: res.accountant.chunks_lost(*_window(res)),
    # mean time-to-legal-state over the session's damage episodes
    "ttl_s": _times(lambda res: res.recovery_times, np.mean),
}

ABLATION_METRICS: dict[str, Callable[[SessionResult], float]] = {
    **CH3_METRICS,
    "reconnect_s": _reconnect,
}


# ---------------------------------------------------------------------------
# the row table and its runner
# ---------------------------------------------------------------------------


class Table(NamedTuple):
    """One table a row emits, and the figure (``fig`` id, description)
    that reads it, if any.

    Its columns are ``metrics`` of the row's only series when given, else
    ``series`` (default: all of the row's, in order), each reduced to the
    metric named ``id``.
    """

    id: str
    fig: str | None
    description: str | None
    shape: str
    metrics: tuple[str, ...] = ()
    series: tuple[str, ...] = ()


def _vdm(**knobs):
    """The VDM row of the protocol table, ``knobs`` set on its config."""
    return protocol_spec("vdm", VDMConfig(**knobs))


def _pct_axis(p: Preset, xs) -> list:
    return [100 * x for x in xs]


def _cell(row: "Row", preset: Preset, v, x) -> CellSpec:
    """A cell as both engines see it: the scalar worker and the batch
    hook build its underlay and configs from the same functions."""
    return CellSpec(
        underlay_factory=lambda: row.underlay(preset, v, x),
        config_factory=lambda seed: row.config(preset, v, x, seed),
        protocol=row.protocol(preset, v, x),
        metrics=row.metrics,
    )


def _session_rep(row_id: str, preset: Preset, v, x, rep: int, seed: int):
    """The shared worker of every session-shaped row."""
    cell = _cell(ROWS[row_id], preset, v, x)
    res = MulticastSession(
        cell.underlay_factory(),
        agent_factory(cell.protocol),
        cell.config_factory(seed),
    ).run()
    return {name: extract(res) for name, extract in cell.metrics.items()}


@dataclass(frozen=True, kw_only=True)
class Row:
    """One sweep: a ``run_replications`` call per (series, x) cell.

    Callables take the preset ``p`` and, where they need them, a cell's
    series name ``s`` or value ``v`` and its x value ``x``.
    """

    #: journal-key head and cache id
    id: str
    #: the ``*_tables`` group returning this row's tables (default ``id``);
    #: a group's rows run in table order
    group: str = ""
    #: the x axis: a :class:`Preset` field name, or the axis itself
    xs: str | tuple
    #: p -> ((series name, value), ...)
    series: Callable = lambda p: (("VDM", _vdm()),)
    #: (s, x) -> the ``spawn_rng`` key path of the cell's seeds
    seed_key: Callable
    #: (s, x) -> the cell's journal key
    key: Callable
    #: the :class:`Preset` field counting replications per cell
    reps: str = "replications"
    #: (row id, p, v, x, rep, seed) -> one replication's record
    worker: Callable = _session_rep
    #: (p, v, x) -> underlay and (p, v, x, seed) -> config of a cell; a
    #: row with a config gets the batch hook
    underlay: Callable | None = None
    config: Callable | None = None
    #: (p, v, x) -> the cell's protocol-table row (default: the series
    #: value), or :data:`~repro.harness.batchrun.SERVICE`
    protocol: Callable = lambda p, v, x: v
    #: name -> SessionResult extractor, applied by the session worker and
    #: the batch hook alike
    metrics: dict = field(default_factory=dict)
    #: (p, per-x records of one series) -> the per-x records tables read
    regroup: Callable | None = None
    #: table title, ``{}`` standing for the table id
    title: str
    x_label: str
    #: (p, xs) -> the tables' x values
    x_values: Callable = lambda p, xs: [float(x) for x in xs]
    tables: tuple[Table, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", self.group or self.id)


def run_sweep(row: Row, preset: Preset) -> dict[str, SeriesTable]:
    """Run (or fetch from cache) one row's sweep and build its tables.

    The cache is keyed by the preset's *value*, ``jobs`` normalized out
    as :func:`repro.harness.journal.recipe_hash` does: the worker count
    is execution policy and never changes a table.
    """
    cache_key = (row.id, dataclasses.replace(preset, jobs=None))
    if cache_key not in _CACHE:
        _CACHE[cache_key] = _sweep(row, preset)
    return _CACHE[cache_key]


def _sweep(row: Row, p: Preset) -> dict[str, SeriesTable]:
    xs = getattr(p, row.xs) if isinstance(row.xs, str) else row.xs
    results: dict[str, list[list[dict]]] = {}
    for name, v in row.series(p):
        per_x = []
        for x in xs:
            # derived up front, so worker scheduling cannot perturb them
            seeds = [
                int(spawn_rng(p.seed, *row.seed_key(name, x), rep).integers(2**31))
                for rep in range(getattr(p, row.reps))
            ]
            # cell_batch is looked up per call: the benchmark wraps it
            batch = cell_batch(_cell(row, p, v, x)) if row.config else None
            per_x.append(
                run_replications(
                    row.worker, (row.id, p, v, x), seeds,
                    jobs=p.jobs, key=row.key(name, x), batch=batch,
                )
            )
        results[name] = row.regroup(p, per_x) if row.regroup else per_x

    tables = {}
    for spec in row.tables:
        table = SeriesTable(
            title=row.title.format(spec.id),
            x_label=row.x_label,
            x_values=row.x_values(p, xs),
            expected_shape=spec.shape,
        )
        if spec.metrics:
            (only,) = results.values()
            columns = [(m, only, m) for m in spec.metrics]
        else:
            columns = [(s, results[s], spec.id) for s in spec.series or results]
        for label, records, metric in columns:
            table.add_series(
                label, [mean_ci([rec[metric] for rec in recs]) for recs in records]
            )
        tables[spec.id] = table
    return tables


def run_group(group: str, preset: Preset) -> dict[str, SeriesTable]:
    """Every table of a figure group; its rows run in table order."""
    tables: dict[str, SeriesTable] = {}
    for row in ROWS.values():
        if row.group == group:
            tables.update(run_sweep(row, preset))
    return tables


def _ch3_cells(churn: float) -> dict:
    """A row's cells on the Chapter 3 substrate at a fixed churn rate."""
    return dict(
        underlay=lambda p, v, x: cells.ch3_underlay(p),
        config=lambda p, v, x, seed: cells.ch3_config(p, churn=churn, seed=seed),
    )


def _pl_cells(slice_of: Callable, **session: Callable) -> dict:
    """A row's cells on a PlanetLab slice (``slice_of(p, x)``); ``session``
    maps x onto the config's keywords."""
    return dict(
        underlay=lambda p, v, x: slice_of(p, x).underlay,
        config=lambda p, v, x, seed: cells.pl_config(
            p, slice_of(p, x), seed=seed, **{k: f(x) for k, f in session.items()}
        ),
    )


def _legend(names) -> str:
    return ", ".join(f"{i}={name}" for i, name in enumerate(names))


def ch5_sample_tree(preset: Preset, *, transatlantic: bool = False) -> str:
    """Figs 5.5/5.6: one sample tree, rendered as an indented edge list.

    With ``transatlantic=True`` the pool includes European sites
    (Fig 5.6); the rendering annotates each node's region so the
    continental clustering is visible in text.
    """
    substrate = build_planetlab_underlay(
        n_select=min(preset.pl_select, 40),
        seed=cells.pl_seed(preset, "sample"),
        n_us=preset.pl_pool_us,
        n_eu=preset.pl_pool_us // 3 if transatlantic else 0,
    )
    seed = int(spawn_rng(preset.seed, "sampletree").integers(2**31))
    cfg = cells.pl_config(preset, substrate, churn=0.0, seed=seed)
    tree = MulticastSession(substrate.underlay, vdm(), cfg).run().runtime.tree
    site = [node.site for node in substrate.nodes]
    edges = tree.edges()
    cross_region = sum(site[a].region != site[b].region for a, b in edges)
    pool = " (US + EU pool, Fig 5.6)" if transatlantic else " (US pool, Fig 5.5)"
    return "\n".join([
        "Sample VDM tree" + pool,
        render_tree_text(
            tree, label=lambda n: f"{n}:{site[n].name}({site[n].region})"
        ),
        f"edges: {len(edges)}, cross-region edges: {cross_region} "
        "(clustering => few cross-region links)",
    ])


# ---------------------------------------------------------------------------
# the rows
# ---------------------------------------------------------------------------

#: failover modes the ch6 sweep compares (reactive = the paper's oracle)
CH6_MODES: tuple[str, ...] = ("reactive", "precomputed")

#: join-walk protocols of the scale sweep; the MST baseline rides along in
#: the stretch/stress tables (it has no join procedure to time).
CH7_PROTOCOLS: tuple[str, ...] = ("VDM", "HMTP", "BTP")

# Ch. 5 tables reading several metrics of one series
_STARTUP = ("startup_s", "startup_max_s")
_RECONNECT = ("reconnect_s", "reconnect_max_s")
_STRETCH = ("stretch_min", "stretch", "stretch_leaf", "stretch_max")
_HOPCOUNT = ("hopcount", "hopcount_leaf", "hopcount_max")

ROWS: dict[str, Row] = {row.id: row for row in (
    # -- Chapter 3: NS-2-style simulation ------------------------------------
    Row(id="ch3_churn", xs="churn_rates",
        series=lambda p: (
            ("VDM", _vdm()),
            ("HMTP", protocol_spec("hmtp", HMTPConfig(p.ch3_hmtp_refine_s))),
        ),
        seed_key=lambda s, x: ("ch3churn", s), key=lambda s, x: ("ch3_churn", s, x),
        underlay=lambda p, v, x: cells.ch3_underlay(p),
        config=lambda p, v, x, seed: cells.ch3_config(p, churn=x, seed=seed),
        metrics=CH3_METRICS, x_values=_pct_axis,
        title="Fig 3.2x — {} vs churn rate (%)", x_label="churn_%",
        tables=(
            Table("stress", "fig3_25", "Stress vs churn",
                  "both ~1.4-1.8, flat in churn, VDM and HMTP close (Fig 3.25)"),
            Table("stretch", "fig3_26", "Stretch vs churn",
                  "VDM well below HMTP, both rise slightly (Fig 3.26)"),
            Table("loss_pct", "fig3_27", "Loss vs churn",
                  "VDM below HMTP, both rise with churn (Fig 3.27)"),
            Table("overhead_pct", "fig3_28", "Overhead vs churn",
                  "linear in churn, VDM below HMTP (Fig 3.28)"),
        )),
    Row(id="ch3_nodes", xs="node_counts",
        seed_key=lambda s, n: ("ch3nodes", n), key=lambda s, n: ("ch3_nodes", n),
        underlay=lambda p, v, n: cells.ch3_underlay(p, max(p.ch3_hosts, 2 * n)),
        config=lambda p, v, n, seed: cells.ch3_config(
            p, churn=0.05, seed=seed, n_nodes=n
        ),
        metrics=CH3_METRICS,
        title="Fig 3.3x — {} vs number of nodes", x_label="n_nodes",
        tables=(
            Table("stress", "fig3_29", "Stress vs N",
                  "rises sublinearly with N (~1.3 -> ~1.8 in the paper, Fig 3.29)"),
            Table("stretch", "fig3_30", "Stretch vs N",
                  "rises with N, logarithmic flavor (Fig 3.30)"),
            Table("loss_pct", "fig3_31", "Loss vs N",
                  "rises with N (deeper trees, Fig 3.31)"),
            Table("overhead_pct", "fig3_32", "Overhead vs N",
                  "rises with diminishing increments (Fig 3.32)"),
        )),
    Row(id="ch3_degree", xs="degree_values",
        seed_key=lambda s, d: ("ch3deg", str(d)),
        key=lambda s, d: ("ch3_degree", float(d)),
        underlay=lambda p, v, d: cells.ch3_underlay(p),
        config=lambda p, v, d, seed: cells.ch3_config(
            p, churn=0.05, seed=seed, degree=float(d)
        ),
        metrics=CH3_METRICS,
        title="Fig 3.3x — {} vs average node degree", x_label="avg_degree",
        tables=(
            Table("stress", "fig3_33", "Stress vs degree",
                  "roughly flat in degree (Fig 3.33)"),
            Table("stretch", "fig3_34", "Stretch vs degree",
                  "falls steeply until degree ~5 then flattens (Fig 3.34)"),
            Table("loss_pct", "fig3_35", "Loss vs degree",
                  "falls with degree then fluctuates (Fig 3.35)"),
            Table("overhead_pct", "fig3_36", "Overhead vs degree",
                  "U-shaped: high at low degree, dips, rises again (Fig 3.36)"),
        )),
    # -- Chapter 4: VDM-D vs VDM-L over time.  Section 4.2: every physical
    # link errs at a random rate in [0, 2%]; nodes keep joining, no churn;
    # metrics are snapshotted at a fixed cadence as the tree grows.
    Row(id="ch4_time", xs=(None,), worker=cells.ch4_rep,
        series=lambda p: (("VDM-D", False), ("VDM-L", True)),
        seed_key=lambda s, x: ("ch4", s), key=lambda s, x: ("ch4_time", s),
        # one cell of per-point lists -> one x per measurement point
        regroup=lambda p, per_x: [
            [{m: values[i] for m, values in rec.items()} for rec in per_x[0]]
            for i in range(cells.ch4_points(p))
        ],
        title="Fig 4.x — {} vs time (s)", x_label="time_s",
        x_values=lambda p, xs: [
            p.ch4_measure_interval_s * (i + 1) for i in range(cells.ch4_points(p))
        ],
        tables=(
            Table("stress", "fig4_6", "Stress vs time (VDM-D/L)",
                  "VDM-D below VDM-L throughout (Fig 4.6)"),
            Table("stretch", "fig4_7", "Stretch vs time (VDM-D/L)",
                  "VDM-D below VDM-L (Fig 4.7)"),
            Table("loss_pct", "fig4_8", "Loss vs time (VDM-D/L)",
                  "VDM-L below VDM-D — the headline tradeoff (Fig 4.8)"),
            Table("overhead_pct", "fig4_9", "Overhead vs time (VDM-D/L)",
                  "VDM-L at or below VDM-D (Fig 4.9)"),
        )),
    # -- Chapter 5: PlanetLab emulation --------------------------------------
    Row(id="ch5_churn", xs="pl_churn_rates", reps="pl_replications",
        series=lambda p: (
            ("VDM", _vdm()),
            ("HMTP", protocol_spec("hmtp", HMTPConfig(p.pl_hmtp_refine_s))),
        ),
        seed_key=lambda s, x: ("ch5churn", s), key=lambda s, x: ("ch5_churn", s, x),
        **_pl_cells(cells.pl_slice("churn"), churn=lambda x: x),
        metrics=CH5_METRICS, x_values=_pct_axis,
        title="Fig 5.x — {} vs churn rate (%)", x_label="churn_%",
        tables=(
            Table("startup_s", "fig5_7", "Startup vs churn",
                  "churn-independent, HMTP slightly higher (Fig 5.7)"),
            Table("reconnect_s", "fig5_8", "Reconnection vs churn",
                  "below startup, churn-independent, VDM lower (Fig 5.8)"),
            Table("stretch", "fig5_9", "Stretch vs churn",
                  "VDM ~1.6 vs HMTP ~1.9 (Fig 5.9)"),
            Table("hopcount", "fig5_10", "Hopcount vs churn",
                  "VDM ~4.5 vs HMTP ~5.5, churn-independent (Fig 5.10)"),
            Table("usage", "fig5_11", "Resource usage vs churn",
                  "paper: VDM lower; see EXPERIMENTS.md discrepancy note (Fig 5.11)"),
            Table("loss_pct", "fig5_12", "Loss vs churn",
                  "rises with churn, VDM lower (Fig 5.12)"),
            Table("overhead_pct", "fig5_13", "Overhead vs churn",
                  "HMTP far above VDM (30 s refinement), both rise (Fig 5.13)"),
        )),
    Row(id="ch5_nodes", xs="pl_node_counts", reps="pl_replications",
        seed_key=lambda s, n: ("ch5nodes", n), key=lambda s, n: ("ch5_nodes", n),
        **_pl_cells(
            cells.pl_slice("nodes", per_n=True),
            churn=lambda n: 0.06, n_nodes=lambda n: n,
        ),
        metrics=CH5_METRICS,
        title="Fig 5.1x — {} vs number of nodes (VDM)", x_label="n_nodes",
        tables=(
            Table("startup_s", "fig5_14", "Startup vs N",
                  "avg and max grow with N (~0.5 s avg at N=100, Fig 5.14)",
                  _STARTUP),
            Table("reconnect_s", "fig5_15", "Reconnection vs N",
                  "N-independent, ~0.2 s avg (Fig 5.15)", _RECONNECT),
            Table("stretch", "fig5_16", "Stretch vs N",
                  "avg stabilizes ~1.5; min can dip below 1 (Fig 5.16)", _STRETCH),
            Table("hopcount", "fig5_17", "Hopcount vs N",
                  "grows like log N; leaf avg above overall avg (Fig 5.17)",
                  _HOPCOUNT),
            Table("usage", "fig5_18", "Resource usage vs N",
                  "grows with N (Fig 5.18)", ("usage",)),
            Table("loss_pct", "fig5_19", "Loss vs N",
                  "grows with N (Fig 5.19)", ("loss_pct",)),
            Table("overhead_pct", "fig5_20", "Overhead vs N",
                  "grows with N (Fig 5.20)", ("overhead_pct",)),
        )),
    Row(id="ch5_degree", xs="pl_degree_values", reps="pl_replications",
        seed_key=lambda s, d: ("ch5deg", d),
        key=lambda s, d: ("ch5_degree", float(d)),
        **_pl_cells(cells.pl_slice("degree"), churn=lambda d: 0.06, degree=int),
        metrics=CH5_METRICS,
        title="Fig 5.2x — {} vs node degree (VDM)", x_label="degree",
        tables=(
            Table("startup_s", "fig5_21", "Startup vs degree",
                  "falls until degree ~4-5 then flat (Fig 5.21)", _STARTUP),
            Table("reconnect_s", "fig5_22", "Reconnection vs degree",
                  "degree-independent (Fig 5.22)", _RECONNECT),
            Table("stretch", "fig5_23", "Stretch vs degree",
                  "falls until degree ~5 then stabilizes (Fig 5.23)", _STRETCH),
            Table("hopcount", "fig5_24", "Hopcount vs degree",
                  "high at degree 2, improves to ~4 at degree 5, then flat "
                  "(Fig 5.24)", _HOPCOUNT),
            Table("usage", "fig5_25", "Resource usage vs degree",
                  "improves with degree then flattens (Fig 5.25)", ("usage",)),
            Table("loss_pct", "fig5_26", "Loss vs degree",
                  "falls until degree ~5 then flat (Fig 5.26)", ("loss_pct",)),
            Table("overhead_pct", "fig5_27", "Overhead vs degree",
                  "falls until degree ~5 then similar (Fig 5.27)",
                  ("overhead_pct",)),
        )),
    Row(id="ch5_refinement", xs="pl_refine_node_counts", reps="pl_replications",
        series=lambda p: (
            ("VDM", _vdm()),
            ("VDM-R", _vdm(refine_period_s=p.pl_vdm_r_period_s)),
        ),
        seed_key=lambda s, n: ("ch5ref", s, n),
        key=lambda s, n: ("ch5_refinement", s, n),
        **_pl_cells(
            cells.pl_slice("refine", per_n=True),
            churn=lambda n: 0.06, n_nodes=lambda n: n,
        ),
        metrics=CH5_METRICS,
        title="Fig 5.2x/5.30 — {}: refinement effect vs N", x_label="n_nodes",
        tables=(
            Table("stretch", "fig5_28", "Refinement: stretch",
                  "VDM-R ~10% below VDM (Fig 5.28)"),
            Table("hopcount", "fig5_29", "Refinement: hopcount",
                  "VDM-R below VDM — more balanced tree (Fig 5.29)"),
            Table("overhead_pct", "fig5_30", "Refinement: overhead",
                  "VDM-R above VDM — the cost of refinement (Fig 5.30)"),
        )),
    Row(id="ch5_mst", xs="pl_mst_node_counts", reps="pl_replications",
        series=lambda p: (("VDM/MST", None),), worker=cells.mst_rep,
        seed_key=lambda s, n: ("ch5mst", n), key=lambda s, n: ("ch5_mst", n),
        title="Fig 5.31 — VDM tree cost / MST cost vs N", x_label="n_nodes",
        tables=(
            Table("mst_ratio", "fig5_31", "VDM / MST ratio",
                  "grows with N but stays below ~2 (Fig 5.31)"),
        )),
    # -- Chapter 6: reactive vs precomputed failover, VDM on the Chapter 3
    # substrate, one x per correlated-failure scenario.  Seeds are keyed by
    # scenario only: both modes replay the *same* sessions, so the
    # failover knob is the only delta.
    Row(id="ch6_failover", xs=tuple(CORRELATED_PRESETS),
        series=lambda p: tuple((mode, mode) for mode in CH6_MODES),
        seed_key=lambda s, x: ("ch6", x), key=lambda s, x: ("ch6_failover", s, x),
        underlay=lambda p, v, x: cells.ch3_underlay(p),
        config=cells.ch6_config, protocol=lambda p, v, x: _vdm(),
        metrics=CH6_METRICS,
        title="Ch 6 — {} by correlated-failure scenario "
        f"[{_legend(CORRELATED_PRESETS)}]",
        x_label="scenario_idx",
        x_values=lambda p, xs: [float(i) for i in range(len(xs))],
        tables=(
            Table("outage_s", "fig6_outage", "Outage seconds per member by scenario",
                  "precomputed at or below reactive on every scenario, strictly "
                  "below on domain-outage"),
            Table("chunks_lost", "fig6_lost", "Chunks lost by scenario",
                  "precomputed at or below reactive, strictly below on "
                  "domain-outage"),
            Table("ttl_s", "fig6_ttl", "Time to legal state by scenario",
                  "precomputed heals faster wherever switches commit"),
        )),
    # -- Chapter 7: static-join trees (harness.scale) on sparse substrates;
    # every replication draws a fresh topology and no cell materializes a
    # V^2 matrix, which is what makes the 10k+ cells feasible at all.
    Row(id="ch7_scale", xs="ch7_member_counts", reps="ch7_replications",
        series=lambda p: tuple((s, s) for s in CH7_PROTOCOLS + ("MST",)),
        seed_key=lambda s, n: ("ch7", s, n), key=lambda s, n: ("ch7_scale", s, n),
        worker=cells.ch7_rep,
        title="Ch 7 — {} vs members (static-join scale model)",
        x_label="n_members",
        tables=(
            Table("joinlat_ms", "fig7_joinlat",
                  "Join latency vs members (scale model)",
                  "VDM join latency grows with depth (directional chains); all "
                  "protocols sublinear in N", series=CH7_PROTOCOLS),
            Table("stretch", "fig7_stretch", "Stretch vs members (scale model)",
                  "VDM well below HMTP/BTP and stable in N; MST lowest cost but "
                  "not stretch-optimal"),
            Table("stress", "fig7_stress", "Link stress vs members (scale model)",
                  "stress rises slowly with N for all; MST lowest, BTP worst"),
        )),
    # -- Chapter 8: each replication is one live ServiceRuntime session
    # against a running VDM tree; x multiplies ch8_base_rate_hz and the
    # flash crowd's burst.  The batch hook declines service cells with a
    # typed reason.
    Row(id="ch8_service", xs="ch8_load_factors", reps="ch8_replications",
        series=lambda p: tuple((s, s) for s in p.ch8_scenarios),
        seed_key=lambda s, x: ("ch8service", s),
        key=lambda s, x: ("ch8_service", s, x),
        worker=cells.service_rep,
        underlay=lambda p, v, x: cells.ch8_underlay(p),
        config=cells.ch8_config, protocol=lambda p, v, x: SERVICE,
        title="Ch 8 — {} vs offered load (service mode)", x_label="load_factor",
        tables=(
            Table("p50_first_chunk_s", None, None,
                  "flat-ish in load until the queue saturates"),
            Table("p99_first_chunk_s", "fig8_p99",
                  "p99 join-to-first-chunk vs load (service)",
                  "rises with load; flash well above Poisson (queueing + retries "
                  "during the burst)"),
            Table("rejected_pct", "fig8_rejected",
                  "Rejected joins vs load (service)",
                  "~0 for Poisson; flash climbs with load once the burst overruns "
                  "the high-water mark"),
            Table("degraded_pct", "fig8_degraded",
                  "Time in degraded state vs load (service)",
                  "near 0 for Poisson; flash grows with load (admission probe "
                  "unhealthy during the burst)"),
        )),
    # -- Ablations of DESIGN.md's design choices at 5% churn: Scenario III
    # descend-first (paper) vs insert-first, closest (paper) vs random
    # directional child, grandparent (paper) vs source restart.
    Row(id="ablations", xs=(None,),
        series=lambda p: (
            ("paper-default", _vdm()),
            ("prefer-case2", _vdm(case_priority="case2")),
            ("random-case3", _vdm(case3_selection="random")),
            ("reconnect-at-source", _vdm(reconnect_at="source")),
        ),
        seed_key=lambda s, x: ("abl", s), key=lambda s, x: ("ablations", s),
        **_ch3_cells(0.05), metrics=ABLATION_METRICS,
        # one cell per series -> one x per metric
        regroup=lambda p, per_x: [
            [{"ablations": rec[m]} for rec in per_x[0]] for m in ABLATION_METRICS
        ],
        title="Ablations — VDM design choices (rows: metrics as x) "
        f"[{_legend(ABLATION_METRICS)}]",
        x_label="metric_idx",
        x_values=lambda p, xs: list(range(len(ABLATION_METRICS))),
        tables=(
            Table("ablations", "abl", "VDM design-choice ablations",
                  "paper defaults should win or tie on loss/reconnect; "
                  "alternatives quantify each rule's contribution"),
        )),
    # Section 5.4.5: "additional experiments could be done to understand
    # the effect of frequency of refinement messages".
    Row(id="abl_refine", group="ablations", xs=(60.0, 180.0, 600.0),
        seed_key=lambda s, x: ("ablref", str(x)),
        key=lambda s, x: ("abl_refine", x),
        **_ch3_cells(0.05), protocol=lambda p, v, period: _vdm(refine_period_s=period),
        metrics={"stretch": _stretch, "overhead_pct": _overhead_pct},
        title="Ablation — VDM-R refinement period sweep", x_label="period_s",
        tables=(
            Table("refine_period", "abl_refine_period",
                  "VDM-R refinement-period sweep",
                  "shorter periods buy stretch at a growing overhead cost",
                  ("stretch", "overhead_pct")),
        )),
    # -- Extensions from the paper's future-work list.  Free riders: degree
    # from a bandwidth-derived population (Chapter 6: "This degree depends
    # on outgoing bandwidth of nodes") with a growing free-rider fraction.
    Row(id="ext_free_riders", group="extensions", xs=(0.0, 0.25, 0.5),
        seed_key=lambda s, x: ("extfr", str(x)),
        key=lambda s, x: ("ext_free_riders", x),
        underlay=lambda p, v, x: cells.ch3_underlay(p),
        config=lambda p, v, fraction, seed: cells.ch3_config(
            p, churn=0.05, seed=seed, degree=UplinkPopulation(
                median_uplink_kbps=2000.0, stream_kbps=500.0, max_degree=8,
                free_rider_fraction=fraction,
            ),
        ),
        metrics={"stretch": _stretch, "loss_pct": _loss_pct, "hopcount": _hopcount},
        title="Extension — free-rider fraction vs tree quality (VDM)",
        x_label="free_rider_fraction",
        tables=(
            Table("free_riders", "ext_free_riders",
                  "free-rider fraction vs tree quality",
                  "more free riders -> fewer forwarding slots -> deeper trees, "
                  "worse stretch and loss", ("stretch", "loss_pct", "hopcount")),
        )),
    # SplitStream-style multi-tree striping over VDM under churn
    Row(id="ext_striping", group="extensions", xs=(1, 2, 4),
        seed_key=lambda s, x: ("extstripe", x),
        key=lambda s, x: ("ext_striping", x),
        worker=cells.stripe_rep,
        title="Extension — SplitStream-over-VDM: stripes vs resilience",
        x_label="stripes",
        tables=(
            Table("striping", "ext_striping", "multi-tree striping resilience",
                  "continuity (>=1 stripe) should rise (or hold) with stripe "
                  "count while full quality pays the churn tax",
                  ("continuity", "full_quality")),
        )),
)}


class RegistryEntry(NamedTuple):
    """One figure: its number in the paper ("—" beyond it), its
    description, and the group and table behind it."""

    figure: str
    description: str
    group: str
    table: str


def _paper_number(fig_id: str) -> str:
    match = re.fullmatch(r"fig(\d+)_(\d+)", fig_id)
    return f"{match[1]}.{match[2]}" if match else "—"


#: figure id -> the table that backs it, read off :data:`ROWS`
REGISTRY: dict[str, RegistryEntry] = {
    spec.fig: RegistryEntry(
        _paper_number(spec.fig), spec.description, row.group, spec.id
    )
    for row in ROWS.values()
    for spec in row.tables
    if spec.fig
}

ch3_churn_tables = partial(run_group, "ch3_churn")
ch3_nodes_tables = partial(run_group, "ch3_nodes")
ch3_degree_tables = partial(run_group, "ch3_degree")
ch4_time_tables = partial(run_group, "ch4_time")
ch5_churn_tables = partial(run_group, "ch5_churn")
ch5_nodes_tables = partial(run_group, "ch5_nodes")
ch5_degree_tables = partial(run_group, "ch5_degree")
ch5_refinement_tables = partial(run_group, "ch5_refinement")
ch5_mst_table = partial(run_group, "ch5_mst")
ch6_failover_tables = partial(run_group, "ch6_failover")
ch7_scale_tables = partial(run_group, "ch7_scale")
ch8_service_tables = partial(run_group, "ch8_service")
ablation_tables = partial(run_group, "ablations")
extension_tables = partial(run_group, "extensions")
