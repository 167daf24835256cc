"""Microprobes and replays that cost the calls a traced run only counted.

A traced run counts fine-grained calls (underlay queries, engine
push/pop, tree mutations) because timing each one would cost more than
the call.  The functions here call the *same public function on the
workload's own object* with seeded inputs and report a cost per call;
``est_s = calls x probe cost`` figures derived from them are marked
``estimated`` in the ledger, never ``measured``.
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace

from repro.harness.journal import RunJournal
from repro.protocols.base import TreeRegistry
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker

__all__ = [
    "engine_costs_ns",
    "journal_record_us",
    "replay_mutations",
    "sparse_row_ms",
    "underlay_costs",
]

#: calls per timed probe loop; best of _REPEATS loops is reported
_CALLS = 20_000
_REPEATS = 3


def _best(loop, calls: int) -> float:
    """Seconds per call: the fastest of a few timed loops."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best / calls


def underlay_costs(underlay, seed: int, *, with_paths: bool) -> dict[str, float]:
    """Seconds per call of the public underlay queries, on seeded pairs.

    ``with_paths`` adds ``path_links``/``path_error`` (skipped where the
    workload never calls them: a first touch of every pair would cost far
    more than the probe is worth).
    """
    rng = random.Random(seed)
    hosts = list(underlay.hosts)
    pairs = [
        (rng.choice(hosts), rng.choice(hosts)) for _ in range(_CALLS)
    ]
    pairs = [(a, b) for a, b in pairs if a != b]
    out = {}
    queries = ["delay_ms", "rtt_ms"]
    if with_paths:
        queries += ["path_links", "path_error"]
    for name in queries:
        fn = getattr(underlay, name)

        def loop(fn=fn):
            for a, b in pairs:
                fn(a, b)

        loop()  # first touch fills per-pair memos, as the body's did
        out[name] = _best(loop, len(pairs))
    sources = [a for a, _ in pairs[: _CALLS // 10]]

    def row_loop(fn=underlay.delay_row):
        for a in sources:
            fn(a)

    row_loop()
    out["delay_row"] = _best(row_loop, len(sources))
    return out


def sparse_row_ms(underlay, seed: int, rows: int = 8) -> float:
    """Milliseconds per demand Dijkstra row of a sparse underlay.

    Probes routers spread over the id space; the underlay's bounded row
    LRU is larger than ``rows``, and the probe runs after the body, so
    nothing the body measured is disturbed.
    """
    rng = random.Random(seed)
    routers = rng.sample(range(underlay.n_routers), rows)
    before = underlay.demand_rows
    t0 = time.perf_counter()
    for router in routers:
        underlay.router_dist_row(router)
    elapsed = time.perf_counter() - t0
    computed = underlay.demand_rows - before
    return 1000.0 * elapsed / computed if computed else 0.0


def engine_costs_ns() -> dict[str, float]:
    """Nanoseconds per schedule+fire of a no-op, on both scheduling paths.

    ``tuple`` is ``schedule_fire_in`` (the bare-tuple fast path fault-free
    sessions use); ``event`` is ``schedule`` with an :class:`Event`
    object and a label (what every delivery pays once a fault hook is
    installed).
    """

    def noop() -> None:
        pass

    def tuple_loop() -> None:
        sim = Simulator()
        fire = sim.schedule_fire_in
        for i in range(_CALLS):
            fire(i * 1e-3, noop)
        sim.run()

    def event_loop() -> None:
        sim = Simulator()
        schedule = sim.schedule
        for i in range(_CALLS):
            schedule(i * 1e-3, noop, label="probe")
        sim.run()

    return {
        "tuple": 1e9 * _best(tuple_loop, _CALLS),
        "event": 1e9 * _best(event_loop, _CALLS),
    }


def _apply(tree: TreeRegistry, log) -> None:
    """Re-issue a listener-event log through the registry's public
    mutators.  ``depart`` emits its children's ``orphan`` events first,
    so replaying an orphan as ``sever`` leaves ``depart`` nothing to
    orphan and the final state matches the recorded run."""
    attach, reparent = tree.attach, tree.reparent
    sever, depart = tree.sever, tree.depart
    for kind, node, parent, t in log:
        if kind == "attach":
            attach(node, parent, t)
        elif kind == "reparent":
            reparent(node, parent, t)
        elif kind == "orphan":
            sever(node, t)
        else:
            depart(node, t)


def replay_mutations(source: int, log, agents) -> tuple[float, float]:
    """(bare, checked) seconds to replay ``log`` on a fresh registry.

    ``bare`` is the registry alone; ``checked`` adds an
    :class:`InvariantChecker` listener, so ``checked - bare`` is what
    invariant checking costs for this mutation stream.  The checker runs
    in ``record`` mode: VDM's atomic ``insert`` reaches listeners as an
    attach followed by reparents, and replaying those one by one passes
    through a transient over-degree state that the live (atomic) run
    never exposes — reports from the replay are discarded, not counted.
    """
    best_bare = best_checked = float("inf")
    for _ in range(_REPEATS):
        tree = TreeRegistry(source)
        t0 = time.perf_counter()
        _apply(tree, log)
        best_bare = min(best_bare, time.perf_counter() - t0)

        tree = TreeRegistry(source)
        env = SimpleNamespace(
            tree=tree, agents=agents, sim=SimpleNamespace(now=0.0), join_records=[]
        )
        InvariantChecker(env, mode="record")
        t0 = time.perf_counter()
        _apply(tree, log)
        best_checked = min(best_checked, time.perf_counter() - t0)
    return best_bare, best_checked


def journal_record_us(directory, entries: int = 40) -> float:
    """Microseconds per fsync'd :meth:`RunJournal.record` of one
    replication-sized result."""
    journal = RunJournal(directory)
    result = {"stress": 1.5, "stretch": 2.5, "loss_pct": 0.5, "overhead_pct": 1.0}
    try:
        t0 = time.perf_counter()
        for rep in range(entries):
            journal.record(("bench-probe", 1.0), rep, rep, "probe", result)
        elapsed = time.perf_counter() - t0
    finally:
        journal.close()
    return 1e6 * elapsed / entries
