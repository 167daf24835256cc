"""The five benchmark workloads.

Each workload turns ``--seed`` into inputs (substrate seed, member seeds,
fault seeds, arrival seeds — never sizes), exposes a cold substrate build
for ``setup_s``, and a *body*: a fixed list of units the runner repeats
round after round for ``--seconds``.  A unit is one call into the program
(one session, one tree build, one service run, one figure grid point); it is
timed from outside, checked for correctness after the clock stops, and
reduced to JSON-natural *simulated statistics* that feed ``sim_digest``.

Sizes are the issue's shapes rescaled so one body takes ~2 s on the
2-core reference box (several rounds fit in ``--seconds``); ``--smoke``
shrinks them again for the test suite.  See ``bench/README.md`` for why
each workload exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.factories import btp, hmtp, vdm, vdm_r
from repro.harness import batchrun
from repro.harness import experiments as exp
from repro.harness import journal as journal_mod
from repro.harness.presets import PRESETS
from repro.harness.scale import build_scale_tree, scale_tree_metrics, scale_ts_config
from repro.harness.substrates import build_transit_stub_underlay
from repro.service.runtime import ServiceConfig, ServiceRuntime
from repro.sim import session as session_mod
from repro.sim.faults import FAULT_PRESETS
from repro.sim.invariants import tree_is_legal
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.linkmodel import LinkErrorConfig
from repro.util.rngtools import spawn_rng

import probes

__all__ = ["WORKLOADS", "UnitResult", "Workload"]


def _subseed(seed: int, *keys) -> int:
    return int(spawn_rng(seed, "bench", *keys).integers(2**31))


@dataclass
class UnitResult:
    """What one unit produced, after its checks ran (outside the clock)."""

    #: JSON-natural simulated statistics; hashed into ``sim_digest``
    stats: object
    sessions: int = 0
    events: int = 0
    joins: int = 0
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Unit:
    label: str
    #: ``run(tracer)`` executes the unit; tracer is ``None`` when untraced
    run: object


class Workload:
    """Base: seeds, the cold-build contract, and the layer scratchpad."""

    name = ""
    #: environment pins beyond the scrubbed default (recorded in outputs)
    env: dict[str, str] = {}

    def __init__(self, seed: int, smoke: bool, workdir) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.units: list[Unit] = []
        #: per-layer counters a traced round accumulates via ``observe``
        self.layer: dict[str, float] = {}
        self.underlay = None

    # -- set-up --------------------------------------------------------------

    def build_substrate(self):
        """The public substrate builder call this workload's body rides on
        (cold when the private cache is empty, a warm load otherwise)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Warm-load the substrate and materialize the unit list."""
        self.underlay = self.build_substrate()

    # -- per-unit hooks ------------------------------------------------------

    def summarize(self, label: str, raw) -> UnitResult:
        raise NotImplementedError

    # -- tracing -------------------------------------------------------------

    def instrument(self, tracer) -> None:
        """Install the workload-wide wrappers of a traced round."""

    def observe(self, label: str, raw) -> None:
        """Fold one traced unit's layer counters into :attr:`layer`."""

    def probe(self, tracer, ledger) -> None:
        """After the traced round (wrappers removed): microprobes,
        replays and side runs; fills :attr:`layer` and carves estimated
        entries out of ``ledger``'s measured residuals."""

    def _add(self, key: str, value: float) -> None:
        self.layer[key] = self.layer.get(key, 0.0) + value


# ---------------------------------------------------------------------------
# simulator-driven workloads (churn_msg, fault_failover; service_flash below)
# ---------------------------------------------------------------------------

_UNDERLAY_QUERIES = ("delay_ms", "rtt_ms", "delay_row", "path_links", "path_error")


def _wrap_underlay(tracer, underlay) -> None:
    for query in _UNDERLAY_QUERIES:
        tracer.wrap_count(underlay, query, f"underlay.{query}")


def _percentile(values: list[int], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _carve(ledger: dict[str, list], residual: str, entries: dict[str, float]) -> None:
    """Move estimated seconds out of a measured residual ledger line.

    Estimates are capped by what the residual still holds, so the ledger
    keeps summing to the traced wall time whatever the probes say.
    """
    for name, seconds in entries.items():
        available = ledger[residual][0]
        take = min(max(seconds, 0.0), available)
        ledger[residual][0] = available - take
        line = ledger.setdefault(name, [0.0, "estimated"])
        line[0] += take


def _churn_config(n: int, total_s: float, seed: int) -> SessionConfig:
    """The fault-free churn session shape ``churn_msg`` runs (and
    ``service_flash`` uses as its bare-engine yardstick)."""
    return SessionConfig(
        n_nodes=n,
        degree=(2, 5),
        join_phase_s=total_s / 4,
        total_s=total_s,
        slot_s=200.0,
        settle_s=50.0,
        churn_rate=0.10,
        seed=seed,
    )


class _SimWorkload(Workload):
    """Workloads that drive a ``Simulator`` with protocol agents on a
    ``TreeRegistry``: what a traced round counts on those layers, and how
    the counts are costed afterwards."""

    #: which engine scheduling path the deliveries of this workload take
    engine_path = "tuple"

    def __init__(self, seed: int, smoke: bool, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        #: (source, mutation log, agents) per observed run, for replay
        self._logs: list = []
        self._iterations: list[int] = []

    @staticmethod
    def _record_mutations(tree) -> list:
        log: list = []
        tree.add_listener(
            lambda kind, node, parent, t: log.append((kind, node, parent, t))
        )
        return log

    def _observe_sim(self, sim, env, log) -> None:
        self._logs.append((env.source, log, env.agents))
        self._iterations.extend(
            r.iterations for r in env.join_records if r.kind == "join"
        )
        self._add("engine.events_processed", sim.events_processed)
        self._add("engine.events_scheduled", sim.events_scheduled)
        self._add("protocols.control_msgs", env.total_control_messages)
        self._add("protocols.joins", len(env.join_records))
        self._add("tree.mutations", len(log))
        for kind, *_ in log:
            self._add(f"tree.mutations.{kind}", 1)

    def _probe_sim_layers(self, tracer, ledger, residual: str) -> None:
        """Cost the fine calls counted under ``residual`` and carve them out.

        Underlay queries are costed only for the calls made directly under
        the residual span — those made inside a collector or delivery span
        are already inside that span's measured time.
        """
        layer = self.layer
        layer["protocols.join_iterations_p50"] = _percentile(self._iterations, 50)
        layer["protocols.join_iterations_p99"] = _percentile(self._iterations, 99)

        calls = tracer.counts
        under_residual = tracer.counts_in(residual)
        costs = probes.underlay_costs(
            self.underlay,
            self.seed,
            with_paths=calls["underlay.path_error"] + calls["underlay.path_links"] > 0,
        )
        underlay_est = 0.0
        for query in _UNDERLAY_QUERIES:
            cost = costs.get(query, 0.0)
            unit, scale = ("ns", 1e9) if query in ("delay_ms", "rtt_ms") else ("us", 1e6)
            layer[f"underlay.{query}_calls"] = calls[f"underlay.{query}"]
            layer[f"underlay.{query}_{unit}"] = scale * cost
            underlay_est += under_residual[f"underlay.{query}"] * cost

        engine = probes.engine_costs_ns()
        layer["engine.tuple_push_pop_ns"] = engine["tuple"]
        layer["engine.event_push_pop_ns"] = engine["event"]
        engine_est = (
            layer.get("engine.events_processed", 0) * engine[self.engine_path] * 1e-9
        )

        bare = checked = 0.0
        for source, log, agents in self._logs:
            b, c = probes.replay_mutations(source, log, agents)
            bare += b
            checked += c
        layer["tree.replay_s"] = bare
        mutations = layer.get("tree.mutations", 0)
        if mutations:
            layer["tree.us_per_mutation"] = 1e6 * bare / mutations
        layer["invariants.replay_s"] = max(checked - bare, 0.0)

        _carve(
            ledger,
            residual,
            {
                "engine.est_s": engine_est,
                "underlay.est_s": underlay_est,
                "tree.replay_s": bare,
                "invariants.replay_s": layer["invariants.replay_s"],
            },
        )
        layer["engine.est_s"] = ledger["engine.est_s"][0]
        layer["underlay.est_s"] = ledger["underlay.est_s"][0]


class _SessionWorkload(_SimWorkload):
    """Shared machinery of the two workloads built from scalar
    :class:`MulticastSession` runs."""

    def _session_unit(self, label: str, factory, config: SessionConfig) -> Unit:
        def run(tracer):
            if tracer is None:
                session = MulticastSession(self.underlay, factory(), config)
                return session, session.run(), None
            with tracer.span("session.build"):
                session = MulticastSession(self.underlay, factory(), config)
                tracer.wrap_span(session.sim, "run_until", "engine.run_until")
                tracer.wrap_span(
                    session.accountant, "window_snapshot", "delivery.window_snapshot"
                )
                log = self._record_mutations(session.env.tree)
            with tracer.span("session.run"):
                result = session.run()
            return session, result, log

        return Unit(label, run)

    def summarize(self, label: str, raw) -> UnitResult:
        session, result, _ = raw
        problems = []
        if not tree_is_legal(result.runtime):
            problems.append(f"{label}: final tree is not legal")
        if result.violations:
            problems.append(f"{label}: {len(result.violations)} invariant violations")
        tree = result.runtime.tree
        for node, kids in tree.children.items():
            agent = result.runtime.agents.get(node)
            if agent is not None and len(kids) > agent.degree_limit:
                problems.append(f"{label}: node {node} exceeds its degree limit")
        final = result.final
        joins = sum(
            1 for r in result.join_records if r.kind == "join" and r.succeeded
        )
        stats = {
            "events": session.sim.events_processed,
            "control": result.runtime.total_control_messages,
            "join_records": len(result.join_records),
            "members": final.n_members,
            "reachable": final.n_reachable,
            "stress": final.stress.average,
            "stretch": final.stretch.average,
            "loss": [r.window_loss for r in result.records],
            "faults": dict(sorted(result.fault_counts.items())),
            "failover": dict(sorted(result.failover_counts.items())),
        }
        return UnitResult(
            stats=stats,
            sessions=1,
            events=session.sim.events_processed,
            joins=joins,
            failed=1 if problems else 0,
            problems=problems,
        )

    def instrument(self, tracer) -> None:
        _wrap_underlay(tracer, self.underlay)
        tracer.wrap_span(
            session_mod, "collect_tree_metrics", "collectors.collect_tree_metrics"
        )

    def observe(self, label: str, raw) -> None:
        session, result, log = raw
        self._observe_sim(session.sim, result.runtime, log)
        # A plan tallies its bookkeeping (heal, thaw, detection) beside
        # the faults themselves; every tally entry is one injector action.
        self._add("faults.injected", sum(result.fault_counts.values()))
        self._add("faults.failover_switches", result.failover_counts.get("switch", 0))
        self._add(
            "faults.failover_fallbacks", result.failover_counts.get("fallback", 0)
        )

    def probe(self, tracer, ledger) -> None:
        layer = self.layer
        attempts = layer.get("faults.failover_switches", 0) + layer.get(
            "faults.failover_fallbacks", 0
        )
        if attempts:
            layer["faults.switch_ratio"] = layer["faults.failover_switches"] / attempts

        self._probe_sim_layers(tracer, ledger, "engine.run_until")
        residual = ledger["engine.run_until"][0]
        layer["protocols.self_s"] = residual
        msgs = layer.get("protocols.control_msgs", 0)
        if msgs:
            layer["protocols.us_per_msg"] = 1e6 * residual / msgs


class ChurnMsg(_SessionWorkload):
    """Scalar message-level sessions of all four protocols under churn:
    engine, handlers, tree registry, accountant and collectors dominate;
    bypasses batched, scale and service."""

    name = "churn_msg"
    env = {"REPRO_BATCHED_REPS": "0"}

    def build_substrate(self):
        return build_transit_stub_underlay(
            n_hosts=60 if self.smoke else 400,
            seed=_subseed(self.seed, "substrate"),
            ts_config=PRESETS["smoke" if self.smoke else "paper"].ts_config,
        )

    def prepare(self) -> None:
        super().prepare()
        n, total, member_seeds = (20, 800.0, 1) if self.smoke else (100, 1600.0, 2)
        protocols = (
            ("vdm", vdm),
            ("vdm_r", lambda: vdm_r(180.0)),
            ("hmtp", hmtp),
            ("btp", btp),
        )
        for proto, factory in protocols:
            for k in range(member_seeds):
                config = _churn_config(
                    n, total, _subseed(self.seed, "members", proto, k)
                )
                self.units.append(self._session_unit(f"{proto}#{k}", factory, config))


class FaultFailover(_SessionWorkload):
    """VDM sessions under four fault plans x both failover modes with
    raise-mode invariants on a lossy substrate: Event-object scheduling,
    fault injector, failover manager and lossy delivery paths."""

    name = "fault_failover"
    engine_path = "event"
    scenarios = ("domain-outage", "partition", "burst-loss", "chaos")
    modes = ("reactive", "precomputed")

    def build_substrate(self):
        return build_transit_stub_underlay(
            n_hosts=40 if self.smoke else 240,  # >= members + source
            seed=_subseed(self.seed, "substrate"),
            ts_config=PRESETS["smoke" if self.smoke else "paper"].ts_config,
            link_errors=LinkErrorConfig(),
        )

    def prepare(self) -> None:
        super().prepare()
        n, member_seeds = (20, 1) if self.smoke else (100, 3)
        for scenario in self.scenarios:
            plan = dataclasses.replace(
                FAULT_PRESETS[scenario], seed=_subseed(self.seed, "faults", scenario)
            )
            for k in range(member_seeds):
                # Both modes replay the same session (same members, same
                # fault schedule): the failover knob is the only delta, as
                # in ch6.
                member_seed = _subseed(self.seed, "members", scenario, k)
                for mode in self.modes:
                    config = SessionConfig(
                        n_nodes=n,
                        degree=(2, 4),
                        join_phase_s=400.0,
                        total_s=1600.0,
                        slot_s=200.0,
                        settle_s=50.0,
                        churn_rate=0.05,
                        seed=member_seed,
                        faults=plan,
                        failover=mode,
                        invariant_mode="raise",
                    )
                    self.units.append(
                        self._session_unit(f"{scenario}/{mode}#{k}", vdm, config)
                    )


# ---------------------------------------------------------------------------
# fig_sweep
# ---------------------------------------------------------------------------


class FigSweep(Workload):
    """Regenerate a figure: experiments.ch3_degree_tables on a paper-derived
    preset through harness/parallel + batchrun + sim/batched; VDM cells
    bypass the message-level agents."""

    name = "fig_sweep"

    def __init__(self, seed: int, smoke: bool, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        base = dataclasses.replace(
            PRESETS["smoke" if smoke else "paper"],
            seed=_subseed(seed, "preset"),
            jobs=1,
            replications=2,
            # the paper's session shape at half length: 1000 s join phase,
            # ten 400 s churn slots
            **({} if smoke else {"ch3_join_phase_s": 1000.0, "ch3_total_s": 5000.0}),
        )
        # The figure is swept one grid point per call, so every call gets
        # its own calibration samples.  Replication seeds are keyed by the
        # degree value, so the cells are exactly those of one full-grid
        # call; the preset name keeps the per-point results apart in the
        # experiment cache.
        self.presets = [
            dataclasses.replace(
                base, name=f"bench-{seed}-{degree}", degree_values=(degree,)
            )
            for degree in base.degree_values
        ]

    def build_substrate(self):
        p = self.presets[0]
        return build_transit_stub_underlay(
            n_hosts=p.ch3_hosts, seed=p.seed, ts_config=p.ts_config
        )

    def prepare(self) -> None:
        super().prepare()
        for index, preset in enumerate(self.presets):
            self.units.append(
                Unit(f"degree={preset.degree_values[0]}", self._point(index))
            )

    def _reset(self) -> None:
        # What a fresh process would see: no cached tables, no substrate
        # memo, no batched cells.  (Cells are keyed by underlay identity and
        # never dropped by clear_cache alone; left to grow they slow every
        # later sweep in the same process.)
        exp.clear_cache()
        batchrun.clear_cells()

    def _point(self, index: int):
        preset = self.presets[index]

        def run(tracer):
            if index == 0:
                self._reset()  # each round starts the figure from scratch
            if tracer is None:
                return exp.ch3_degree_tables(preset)
            with tracer.span("sweep.ch3_degree_tables"):
                return exp.ch3_degree_tables(preset)

        return run

    def summarize(self, label: str, raw) -> UnitResult:
        p = self.presets[0]
        problems = []
        for name, table in raw.items():
            if len(table.x_values) != 1:
                problems.append(f"{label}/{name}: expected one grid point")
            for series in table.series:
                if not all(math.isfinite(v) for v in series.means()):
                    problems.append(f"{label}/{name}/{series.name}: non-finite mean")
        sessions = p.replications
        # Membership events the sweep simulates, exact from the config:
        # every session joins ch3_nodes members, then each churn slot
        # replaces churn_rate * ch3_nodes of them (one leave + one join).
        slots = int((p.ch3_total_s - p.ch3_join_phase_s + 1e-9) // p.ch3_slot_s)
        per_slot = round(0.05 * p.ch3_nodes)
        joins = sessions * (p.ch3_nodes + slots * per_slot)
        leaves = sessions * slots * per_slot
        return UnitResult(
            stats=_tables_json(raw),
            sessions=sessions,
            events=joins + leaves,
            joins=joins,
            attempted=sessions,
            failed=sessions if problems else 0,
            problems=problems,
        )

    def instrument(self, tracer) -> None:
        declined = self.layer

        def counting(cell_batch):
            def wrapped(spec):
                hook = cell_batch(spec)

                def batch(pending):
                    done = hook(pending)
                    if done is None:
                        declined["batched.cells_declined"] = (
                            declined.get("batched.cells_declined", 0) + 1
                        )
                    return done

                return batch

            return wrapped

        tracer.wrap_with(exp, "cell_batch", counting)

    def _sweep_all(self) -> tuple[float, list]:
        """The whole figure in one go: (seconds, per-point table JSON)."""
        self._reset()
        t0 = time.perf_counter()
        tables = [exp.ch3_degree_tables(preset) for preset in self.presets]
        return time.perf_counter() - t0, [_tables_json(t) for t in tables]

    def probe(self, tracer, ledger) -> None:
        layer = self.layer
        layer.setdefault("batched.cells_declined", 0)
        layer["batched.on_s"] = ledger["sweep.ch3_degree_tables"][0]
        # The same cells on the scalar engine, journaled: one run yields
        # batched.off_s and the fully populated journal that the resume
        # replay below needs.
        journal_dir = self.workdir / "journal"
        shutil.rmtree(journal_dir, ignore_errors=True)
        saved = os.environ.get("REPRO_BATCHED_REPS")
        os.environ["REPRO_BATCHED_REPS"] = "0"
        try:
            with journal_mod.run_context(journal_dir):
                layer["batched.off_s"], scalar = self._sweep_all()
            with journal_mod.run_context(journal_dir, resume=True):
                layer["harness.resume_replay_s"], replayed = self._sweep_all()
        finally:
            if saved is None:
                os.environ.pop("REPRO_BATCHED_REPS", None)
            else:
                os.environ["REPRO_BATCHED_REPS"] = saved
            self._reset()
        layer["batched.ratio"] = layer["batched.off_s"] / layer["batched.on_s"]
        #: per-unit statistics of the side runs; the runner checks them
        #: against the batched rounds' (the three paths must agree)
        self.side_stats = {"scalar": scalar, "journal replay": replayed}


def _tables_json(tables: dict) -> dict[str, str]:
    return {name: tables[name].to_json() for name in sorted(tables)}


# ---------------------------------------------------------------------------
# scale_join
# ---------------------------------------------------------------------------


class ScaleJoin(Workload):
    """Static-join VDM and HMTP trees plus stress metrics on sparse
    substrates: SparseUnderlay Dijkstra rows/prefetch and the
    harness/scale kernels do all the work; no Simulator, no agents, no
    TreeRegistry."""

    name = "scale_join"
    degree_limit = 4
    protocols = ("vdm", "hmtp")
    #: independent substrates per body: walk lengths depend strongly on the
    #: topology draw (15 % seed-to-seed at one substrate), so the body
    #: averages over two
    n_substrates = 2

    def __init__(self, seed: int, smoke: bool, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        self.n_members = 150 if smoke else 1400

    def build_substrate(self):
        return [
            build_transit_stub_underlay(
                n_hosts=self.n_members,
                seed=_subseed(self.seed, "substrate", k),
                ts_config=scale_ts_config(self.n_members),
                sparse=True,
            )
            for k in range(self.n_substrates)
        ]

    def prepare(self) -> None:
        super().prepare()
        self._trees: dict[str, object] = {}
        for k, underlay in enumerate(self.underlay):
            for proto in self.protocols:
                key = f"{proto}@{k}"
                self.units.append(Unit(f"build/{key}", self._builder(underlay, key)))
                self.units.append(Unit(f"metrics/{key}", self._metrics(underlay, key)))

    def _builder(self, underlay, key: str):
        proto = key.split("@")[0]

        def build():
            return build_scale_tree(
                underlay, proto, self.n_members, degree_limit=self.degree_limit
            )

        def run(tracer):
            if tracer is None:
                tree = build()
            else:
                with tracer.span(f"scale.build_tree.{proto}"):
                    tree = build()
            self._trees[key] = tree
            return tree

        return run

    def _metrics(self, underlay, key: str):
        def run(tracer):
            parents = self._trees[key].parents
            if tracer is None:
                return scale_tree_metrics(underlay, parents, include_stress=True)
            with tracer.span("scale.metrics"):
                return scale_tree_metrics(underlay, parents, include_stress=True)

        return run

    def summarize(self, label: str, raw) -> UnitResult:
        if label.startswith("metrics/"):
            problems = []
            if raw.n_receivers != self.n_members - 1:
                problems.append(f"{label}: {raw.n_receivers} receivers measured")
            return UnitResult(
                stats=dataclasses.asdict(raw), failed=len(problems), problems=problems
            )
        parents = raw.parents
        members = self.n_members - 1
        problems = _check_parent_array(parents, self.degree_limit)
        unattached = int((parents[1:] < 0).sum())
        stats = {
            "parents_sha": hashlib.sha256(parents.tobytes()).hexdigest(),
            "latency_ms_sum": float(raw.join_latency_ms.sum()),
            "iterations": int(raw.iterations.sum()),
        }
        return UnitResult(
            stats=stats,
            sessions=1,
            events=int(raw.iterations.sum()),
            joins=members,
            attempted=members,
            failed=members if problems and not unattached else unattached,
            problems=[f"{label}: {p}" for p in problems],
        )

    def instrument(self, tracer) -> None:
        self._plans: list = []

        def capture(prefetch_rows):
            def wrapped(*args, **kwargs):
                plan = prefetch_rows(*args, **kwargs)
                self._plans.append(plan)
                return plan

            return wrapped

        for underlay in self.underlay:
            tracer.wrap_with(underlay, "prefetch_rows", capture)
        self._demand_before = sum(u.demand_rows for u in self.underlay)

    def observe(self, label: str, raw) -> None:
        if label.startswith("build/"):
            self._add("protocols.joins", self.n_members - 1)

    def probe(self, tracer, ledger) -> None:
        layer = self.layer
        builds = 0.0
        for proto in self.protocols:
            seconds = ledger[f"scale.build_tree.{proto}"][0]
            layer[f"scale.build_tree_s.{proto}"] = seconds
            builds += seconds
        layer["scale.metrics_s"] = ledger["scale.metrics"][0]
        layer["scale.us_per_join"] = 1e6 * builds / layer["protocols.joins"]
        demand = sum(u.demand_rows for u in self.underlay) - self._demand_before
        computed = sum(p.sources_computed for p in self._plans) + demand
        hits = sum(p.hits for p in self._plans)
        misses = sum(p.misses for p in self._plans)
        layer["underlay.sparse_rows_computed"] = computed
        if hits + misses:
            layer["underlay.sparse_row_hit_ratio"] = hits / (hits + misses)
        layer["underlay.sparse_row_ms"] = probes.sparse_row_ms(
            self.underlay[0], self.seed
        )
        # Rows are computed on the prefetch worker thread, overlapped with
        # the walk, so this estimate is informational: it is not carved
        # out of the measured scale.* spans.
        layer["underlay.est_s"] = computed * layer["underlay.sparse_row_ms"] / 1000.0


def _check_parent_array(parents: np.ndarray, degree_limit: int) -> list[str]:
    """Problems with a static-join parent array: not rooted at 0, members
    left unattached, over-degree nodes, or a parent cycle."""
    problems = []
    n = int(parents.size)
    if parents[0] != -1:
        problems.append("host 0 is not the root")
    if (parents[1:] < 0).any():
        problems.append(f"{int((parents[1:] < 0).sum())} members unattached")
        return problems
    if (parents[1:] >= n).any():
        problems.append("parent id out of range")
        return problems
    if np.bincount(parents[1:], minlength=n).max() > degree_limit:
        problems.append("degree limit exceeded")
    # Pointer-jump every member toward the root; within ceil(log2 n) + 1
    # doublings an acyclic forest rooted at 0 has collapsed onto 0.
    hop = parents.copy()
    hop[0] = 0
    for _ in range(max(1, n.bit_length()) + 1):
        hop = hop[hop]
    if hop.any():
        problems.append("parent array has a cycle")
    return problems


# ---------------------------------------------------------------------------
# service_flash
# ---------------------------------------------------------------------------


class ServiceFlash(_SimWorkload):
    """Four live ServiceRuntime runs of a flash crowd (open loop on virtual
    time): the only workload through service/runtime driver, bus, clock
    and health."""

    name = "service_flash"
    engine_path = "event"  # the service always installs a fault hook

    def build_substrate(self):
        return build_transit_stub_underlay(
            n_hosts=60 if self.smoke else 400,
            seed=_subseed(self.seed, "substrate"),
            ts_config=PRESETS["smoke" if self.smoke else "paper"].ts_config,
        )

    def _config(self, k: int) -> ServiceConfig:
        common = dict(
            scenario="flash",
            seed=_subseed(self.seed, "arrivals", k),
            join_workers=4,
        )
        if self.smoke:
            return ServiceConfig(
                duration_s=120.0,
                n_hosts=60,
                arrival_rate_hz=0.2,
                hold_s=60.0,
                join_queue_hwm=8,
                burst_at_s=40.0,
                burst_rate_hz=4.0,
                burst_duration_s=10.0,
                **common,
            )
        return ServiceConfig(
            duration_s=300.0,
            n_hosts=400,
            arrival_rate_hz=1.0,
            hold_s=120.0,
            join_queue_hwm=32,
            burst_at_s=100.0,
            burst_rate_hz=20.0,
            burst_duration_s=30.0,
            **common,
        )

    def prepare(self) -> None:
        super().prepare()
        for k in range(2 if self.smoke else 4):
            self.units.append(Unit(f"flash#{k}", self._runner(self._config(k))))

    def _runner(self, config: ServiceConfig):
        def run(tracer):
            # chaos_plan=() keeps REPRO_SERVICE_CHAOS out of the picture;
            # per-arrival journaling is the CLI's drain feature, not load.
            if tracer is None:
                runtime = ServiceRuntime(
                    config, self.underlay, chaos_plan=(), journal_outcomes=False
                )
                return runtime, runtime.run(), None
            with tracer.span("service.build"):
                runtime = ServiceRuntime(
                    config, self.underlay, chaos_plan=(), journal_outcomes=False
                )
                log = self._record_mutations(runtime.env.tree)
            with tracer.span("service.run"):
                report = runtime.run()
            return runtime, report, log

        return run

    def summarize(self, label: str, raw) -> UnitResult:
        runtime, report, _ = raw
        problems = []
        if report["invariant_violations"]:
            problems.append(
                f"{label}: {report['invariant_violations']} invariant violations"
            )
        if not tree_is_legal(runtime.env):
            problems.append(f"{label}: final tree is not legal")
        # Refusals by admission control are simulated output (they live in
        # the digest); a *failure* is an admitted join that never attached.
        return UnitResult(
            stats=report,
            sessions=1,
            events=runtime.sim.events_processed,
            joins=report["arrivals"],
            attempted=max(1, report["admitted"]),
            failed=report["failed"] + (1 if problems else 0),
            problems=problems,
        )

    def instrument(self, tracer) -> None:
        _wrap_underlay(tracer, self.underlay)

    def observe(self, label: str, raw) -> None:
        runtime, report, log = raw
        self._observe_sim(runtime.sim, runtime.env, log)
        for key in ("arrivals", "admitted", "rejected", "retries", "join_timeouts"):
            self._add(f"service.{key}", report[key])
        self.layer["service.bus_max_depth"] = max(
            self.layer.get("service.bus_max_depth", 0), report["bus"]["max_depth"]
        )
        self._add("service.sim_events", runtime.sim.events_processed)

    def probe(self, tracer, ledger) -> None:
        layer = self.layer
        events = layer["service.sim_events"]
        layer["service.us_per_event"] = 1e6 * ledger["service.run"][0] / events
        # The same join/leave traffic shape on the bare engine: a plain VDM
        # churn session on this substrate, driven by sim.run_until alone.
        n, total = (20, 800.0) if self.smoke else (100, 1600.0)
        session = MulticastSession(
            self.underlay,
            vdm(),
            _churn_config(n, total, _subseed(self.seed, "baseline")),
        )
        t0 = time.perf_counter()
        session.run()
        bare_us = 1e6 * (time.perf_counter() - t0) / session.sim.events_processed
        layer["service.event_cost_ratio"] = layer["service.us_per_event"] / bare_us
        self._probe_sim_layers(tracer, ledger, "service.run")
        layer["service.self_s"] = ledger["service.run"][0]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (FigSweep, ChurnMsg, FaultFailover, ScaleJoin, ServiceFlash)
}
