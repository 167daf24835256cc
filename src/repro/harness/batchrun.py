"""Sweep-cell adapter for the batched multi-replication engine.

:mod:`repro.sim.batched` runs *one* replication fast; this module turns
it into the ``batch=`` hook that
:func:`repro.harness.parallel.run_replications` understands, so the
sweep runner in :mod:`repro.harness.experiments` batches whole sweep
cells.  Which cells batch is decided by the engine's envelope
(:func:`decline_reason` over
:func:`~repro.sim.batched.envelope_decline`), not by the caller.

A *cell* is one ``run_replications`` call: one underlay, one protocol,
one parameter value, many ``(rep, seed)`` replications.  That is also the
right unit for ``--jobs`` composition — with batching on, the process
pool shards *cells* across workers while each cell's replications share
one in-process :class:`~repro.sim.batched.BatchedCell` (they reuse the
same underlay rows), instead of paying per-replication pickling for work
the batched engine finishes in milliseconds.

The adapter is fail-safe by construction.  A protocol row or session
config outside the envelope — another protocol, probe noise, faults,
refinement — declines before anything is built; an underlay the engine
refuses (no host-indexed delay rows, link errors, the timeout margin)
raises :class:`~repro.sim.batched.BatchedUnsupported`, which declines
too.  Either way ``run_replications`` falls back to the scalar engine
for exactly the replications the batch did not take.  ``REPRO_BATCHED_REPS``
(:func:`repro.util.envflags.batched_reps`) is the ablation knob: ``0``
declines everything (the byte-identity oracle mode), a positive value
caps how many replications each cell takes batched (the remainder runs
scalar — equivalence tests use that to mix both engines in one table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.vdm import VDMConfig
from repro.protocols.table import ProtocolSpec
from repro.sim.batched import BatchedCell, BatchedUnsupported, envelope_decline
from repro.sim.session import SessionConfig, SessionResult
from repro.util import envflags

__all__ = ["BatchDecline", "CellSpec", "SERVICE", "cell_batch", "decline_reason"]

#: the protocol of a live service-mode cell, which has no protocol row of
#: its own to batch
SERVICE = "service"


@dataclass(frozen=True)
class CellSpec:
    """Everything the batched engine needs to run one sweep cell.

    Factories rather than values so that declining stays free: the
    underlay is only built (or mmap-loaded) once the hook has decided the
    protocol can batch at all, and per-replication configs are derived
    from seeds exactly like the scalar workers derive them.
    """

    #: builds (usually: returns the memoized) underlay of the cell
    underlay_factory: Callable[[], object]
    #: seed -> the session config the scalar worker would build
    config_factory: Callable[[int], SessionConfig]
    #: the cell's protocol-table row, or :data:`SERVICE`; only the VDM
    #: row can batch
    protocol: ProtocolSpec | str
    #: metric extractors applied to each session result — must be the
    #: same mapping the scalar worker's ``_reduce`` uses
    metrics: dict[str, Callable[[SessionResult], float]] = field(hash=False)


@dataclass(frozen=True)
class BatchDecline:
    """Typed reason the batched engine refuses a sweep cell.

    Tests pin these codes so a decline stays an explicit, inspectable
    decision rather than a silent ``None``.  Live service cells
    (``"service-mode"``) must *never* batch: the batched engine replays
    join walks against a static schedule, while a service run's schedule
    is shaped at runtime by admission control, retries, and chaos.  The
    other codes are :func:`~repro.sim.batched.envelope_decline`'s.
    """

    code: str
    detail: str


def decline_reason(spec: CellSpec) -> BatchDecline | None:
    """Why ``spec`` cannot run on the batched engine (``None`` = it can).

    Decided from the protocol row and the cell's session config, before
    any underlay or :class:`~repro.sim.batched.BatchedCell` is built.
    Cells vary their configs by seed only, so seed 0's stands for all
    (``BatchedCell.run_session`` still checks each).  The
    ``REPRO_BATCHED_REPS=0`` knob and the underlay's
    :class:`BatchedUnsupported` are handled inside the hook.
    """
    if spec.protocol == SERVICE:
        return BatchDecline(
            "service-mode",
            "live service cells run the service control plane "
            "(admission control, retries, chaos) on the event simulator; "
            "the batched array engine has no equivalent execution model",
        )
    if not isinstance(spec.protocol, ProtocolSpec):
        return BatchDecline("protocol", f"not a protocol row: {spec.protocol!r}")
    declined = envelope_decline(spec.protocol)
    if declined is None:
        declined = envelope_decline(spec.protocol, spec.config_factory(0))
    return None if declined is None else BatchDecline(*declined)


# BatchedCell memo.  Underlays are memoized per process (lru_cache in
# repro.harness.cells) and keyed by identity; the cell holds its
# underlay, so the id cannot be recycled while the entry exists.  The
# config is keyed by value (VDMConfig is frozen), so sweeps that build an
# equal config per cell share one BatchedCell.
# ``experiments.clear_cache`` drops these together with the underlays.
_CELLS: dict[tuple[int, VDMConfig], BatchedCell] = {}


def _get_cell(underlay, vdm_config: VDMConfig) -> BatchedCell:
    key = (id(underlay), vdm_config)
    cell = _CELLS.get(key)
    if cell is None:
        cell = _CELLS[key] = BatchedCell(underlay, vdm_config)
    return cell


def clear_cells() -> None:
    """Drop memoized cells and, with them, the underlays they pin."""
    _CELLS.clear()


def cell_batch(spec: CellSpec):
    """The ``batch=`` hook for one sweep cell, or the reasons it declines.

    Returns a callable ``batch(pending) -> {rep: reduced metrics} | None``
    fitting :func:`repro.harness.parallel.run_replications`.  The hook
    re-reads ``REPRO_BATCHED_REPS`` on every call (the benchmark flips
    it between timed modes within one process) and reduces each session
    with ``spec.metrics`` exactly as the scalar worker does, so a batched
    result is bit-identical to the scalar worker's return value.
    """

    def batch(pending: Sequence[tuple[int, int]]):
        cap = envflags.batched_reps()
        if cap == 0:
            return None
        take = list(pending) if cap is None else list(pending)[:cap]
        if not take or decline_reason(spec) is not None:
            return None
        try:
            cell = _get_cell(spec.underlay_factory(), spec.protocol.config)
            out = {}
            for rep, seed in take:
                res = cell.run_session(spec.config_factory(seed))
                out[rep] = {
                    name: extract(res) for name, extract in spec.metrics.items()
                }
            return out
        except BatchedUnsupported:
            return None

    return batch
