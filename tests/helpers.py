"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import numpy as np

from repro.sim.faults import FaultPlan
from repro.topology.linkmodel import LinkErrorConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util.rngtools import spawn_rng
from tests.lazy_underlay import (
    RouterUnderlay,
    assign_link_errors,
    generate_transit_stub,
    stub_routers,
)

FIXTURES_DIR = Path(__file__).parent / "fixtures"


def line_matrix(positions: list[float]) -> np.ndarray:
    """RTT matrix for hosts placed on a 1-D line.

    Pairwise RTT equals the absolute coordinate difference, so the
    directionality cases are fully controlled: a host strictly between two
    others is exactly 'on the way'.
    """
    pos = np.asarray(positions, dtype=float)
    return np.abs(pos[:, None] - pos[None, :])


def transit_stub_attachments(graph, n_hosts: int, seed: int) -> dict[int, int]:
    """The builder's attachment draw (its ``attach`` stream) on a
    transit-stub graph: uniform stub routers, shared only when the host
    count exceeds the stub-router count."""
    stubs = stub_routers(graph)
    routers = spawn_rng(seed, "attach").choice(
        stubs, size=n_hosts, replace=n_hosts > len(stubs)
    )
    return {host: int(r) for host, r in enumerate(routers)}


def lazy_transit_stub_underlay(
    *,
    n_hosts: int,
    seed: int,
    ts_config: TransitStubConfig | None = None,
    link_errors: LinkErrorConfig | None = None,
    access_delay_ms: float = 0.5,
) -> RouterUnderlay:
    """``build_transit_stub_underlay``'s recipe on the lazy reference
    engine: the builder's three RNG streams (``topology``, ``errors``,
    ``attach``) replayed into a plain :class:`RouterUnderlay`, with no
    row store and no artifact cache.  No builder returns this class; the
    engine-equivalence suites get their lazy twin here."""
    graph = generate_transit_stub(
        ts_config or TransitStubConfig(), seed=spawn_rng(seed, "topology")
    )
    if link_errors is not None:
        assign_link_errors(graph, link_errors, seed=spawn_rng(seed, "errors"))
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    return RouterUnderlay(graph, attachments, access_delay_ms=access_delay_ms)


def session_result_bytes(result) -> tuple:
    """Everything of a ``SessionResult`` that two wirings of one session
    must agree on, down to the engine's counters."""
    return (
        repr(result.records),
        repr(result.join_records),
        sorted(result.fault_counts.items()),
        result.recovery_times,
        result.runtime.sim.events_processed,
        result.runtime.sim.events_scheduled,
        sorted(result.runtime.message_counts.items()),
        sorted(result.runtime.tree.parent.items()),
    )


def save_fault_fixture(
    path: Path, plan: FaultPlan, session: dict, *, comment: str = ""
) -> None:
    """Serialize a pinned fault schedule (plan + session knobs) to JSON.

    Always writes with sorted keys and a trailing newline so re-saving an
    unchanged fixture is byte-identical — the regression test relies on
    that to detect drift between the file and the dataclass schema.
    """
    doc = {"comment": comment, "plan": plan.to_dict(), "session": session}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_fault_fixture(path: Path) -> tuple[FaultPlan, dict, str]:
    """Load a fixture written by :func:`save_fault_fixture`."""
    doc = json.loads(path.read_text())
    return FaultPlan.from_dict(doc["plan"]), doc["session"], doc["comment"]


# -- replication workers that fail on one rep --------------------------------
# The pooled-failure tests run these on a real pool.  The marker path and
# the rep to fail are leading ``args``, so they are part of the recipe
# hash: deleting the marker (not changing the args) is what lets a resumed
# run reuse every journaled entry and fill only the hole.


def raise_on_marked_rep(marker: str, bad_rep: int, rep: int, seed: int) -> list:
    """``[rep, seed]``; raises on ``bad_rep`` while ``marker`` exists."""
    if rep == bad_rep and os.path.exists(marker):
        raise RuntimeError(f"rep {rep} failed on purpose")
    return [rep, seed]


def exit_on_marked_rep(marker: str, bad_rep: int, rep: int, seed: int) -> list:
    """``[rep, seed]``; on ``bad_rep`` while ``marker`` exists the worker
    process dies (``os._exit``), breaking the pool.  It pauses first, so
    the other reps of a short batch have finished when it dies."""
    if rep == bad_rep and os.path.exists(marker):
        time.sleep(0.5)
        os._exit(70)
    return [rep, seed]


def interrupt_parent_on_marked_rep(
    marker: str, bad_rep: int, rep: int, seed: int
) -> list:
    """``[rep, seed]`` after a 0.3 s pause; on ``bad_rep`` while ``marker``
    exists it sends SIGINT to the parent (Ctrl-C mid-batch) 0.2 s into
    the pause, once the parent has submitted the whole batch.  Pool
    workers only: run in-process it would interrupt the parent's parent."""
    if rep == bad_rep and os.path.exists(marker):
        time.sleep(0.2)
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(0.3)
    return [rep, seed]
