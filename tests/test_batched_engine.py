"""Batched multi-replication engine: exact equivalence with the scalar oracle.

The contract under test (PR 6): for every session inside the batched
engine's envelope, :meth:`repro.sim.batched.BatchedCell.run_session`
produces measurement records, join records, and reduced metrics that are
*equal* — not approximately, equal — to ``MulticastSession.run()``.
Everything outside the envelope (other protocols, fault plans, probe
noise, refinement, lossy underlays) must decline loudly so the harness
falls back to the scalar engine, never silently approximate.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.vdm import VDMConfig
from repro.factories import vdm
from repro.harness.batchrun import (
    SERVICE,
    CellSpec,
    cell_batch,
    clear_cells,
    decline_reason,
)
from repro.harness.experiments import CH3_METRICS
from repro.harness.parallel import run_replications
from repro.harness.substrates import build_transit_stub_underlay
from repro.protocols.table import protocol_spec
from repro.sim.batched import BatchedCell, BatchedUnsupported, _Emulator
from repro.sim.delivery import DeliveryAccountant
from repro.sim.faults import FAULT_PRESETS
from repro.sim.network import MatrixUnderlay
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util.rngtools import rng_from_seed

from tests import oracles

# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ts_underlay(n_hosts: int = 40, seed: int = 7):
    return build_transit_stub_underlay(
        n_hosts=n_hosts,
        seed=seed,
        ts_config=TransitStubConfig(
            total_nodes=100,
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
        ),
    )


@lru_cache(maxsize=None)
def _pl_underlay(n_hosts: int = 24, seed: int = 11):
    """A PlanetLab-style matrix substrate (Ch.5 environment)."""
    rng = rng_from_seed(seed)
    coords = rng.uniform(0.0, 60.0, size=(n_hosts, 2))
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)) + 5.0
    np.fill_diagonal(rtt, 0.0)
    rtt = (rtt + rtt.T) / 2.0
    return MatrixUnderlay(rtt)


@lru_cache(maxsize=None)
def _tie_underlay(n_hosts: int = 24, rtt_ms: float = 20.0, two_level_seed=None):
    """Every pair at ``rtt_ms`` or, given ``two_level_seed``, each pair at
    ``rtt_ms`` or ``2 * rtt_ms`` drawn from it.  Events that tie at one
    instant abound, so only the seq order separates them; two levels let
    paths of different hop counts meet at one instant too."""
    rtt = np.full((n_hosts, n_hosts), rtt_ms)
    if two_level_seed is not None:
        levels = rng_from_seed(two_level_seed).integers(1, 3, size=(n_hosts, n_hosts))
        rtt = np.triu(rtt * levels, 1)
        rtt = rtt + rtt.T
    np.fill_diagonal(rtt, 0.0)
    return MatrixUnderlay(rtt)


def _cfg(**overrides) -> SessionConfig:
    base = dict(
        n_nodes=12,
        degree=(2, 4),
        join_phase_s=400.0,
        total_s=1600.0,
        slot_s=200.0,
        settle_s=50.0,
        churn_rate=0.1,
        seed=42,
    )
    base.update(overrides)
    return SessionConfig(**base)


def _scalar(underlay, cfg: SessionConfig):
    return MulticastSession(underlay, vdm(), cfg).run()


def _assert_equivalent(batched_res, scalar_res) -> None:
    """Full-strength equality: records, joins, every Ch.3 metric, and an
    accountant that answers every public query as the scalar one does."""
    assert batched_res.records == scalar_res.records
    assert batched_res.join_records == scalar_res.join_records
    for name, extract in CH3_METRICS.items():
        assert extract(batched_res) == extract(scalar_res), name
    batched, scalar = batched_res.accountant, scalar_res.accountant
    assert type(batched) is DeliveryAccountant
    until = scalar_res.config.total_s
    window = (0.0, until)
    nodes = scalar.tracked_nodes()
    assert batched.tracked_nodes() == nodes
    for node in nodes:
        for query in ("reception_segments", "lifetime_intervals"):
            assert getattr(batched, query)(node, until) == getattr(scalar, query)(
                node, until
            ), query
        assert batched.lifetime_start(node) == scalar.lifetime_start(node)
        assert batched.node_stats(node, *window) == scalar.node_stats(node, *window)
    # Both accountants served every window forward already, so the loss
    # aggregates over the whole run come from the oracle.
    assert oracles.window_loss(batched, *window) == oracles.window_loss(
        scalar, *window
    )
    for query in (
        "outage_seconds",
        "chunks_lost",
        "data_messages",
    ):
        assert getattr(batched, query)(*window) == getattr(scalar, query)(
            *window
        ), query
    assert dict(batched.link_usage) == dict(scalar.link_usage)
    assert dict(batched.link_usage) == dict(
        oracles.link_usage(batched.tree, batched.underlay)
    )


def _assert_matches_scalar(underlay, cfg: SessionConfig):
    """Run ``cfg`` on the emulator and on the scalar engine, hold them to
    :func:`_assert_equivalent`, and gate the seq allocation: the emulator
    issues exactly as many seqs as the scalar simulator, since a seq
    alone orders events that tie at one instant and priority.  Returns
    the scalar result."""
    cell = BatchedCell(underlay, None)
    cell.check_config(cfg)
    emulator = _Emulator(cell, cfg)
    batched_res = emulator.run()
    scalar_res = _scalar(underlay, cfg)
    _assert_equivalent(batched_res, scalar_res)
    assert emulator._seq == scalar_res.runtime.sim.events_scheduled
    return scalar_res


# ---------------------------------------------------------------------------
# property-based equivalence (the heart of the suite)
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    churn=st.sampled_from([0.0, 0.05, 0.1, 0.2]),
    n_nodes=st.integers(min_value=6, max_value=16),
    degree_hi=st.integers(min_value=3, max_value=6),
)
def test_batched_matches_scalar_property(seed, churn, n_nodes, degree_hi):
    underlay = _ts_underlay()
    cfg = _cfg(seed=seed, churn_rate=churn, n_nodes=n_nodes, degree=(2, degree_hi))
    _assert_matches_scalar(underlay, cfg)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_event_per_probe_path_matches_scalar(seed):
    """Probe rounds under heavy churn and frequent measurements.

    Slots as short as a round trip and measurements twice a slot put
    probe rounds across a measurement and slot boundaries, children die
    before their request lands, and some rounds have no live child at
    send; each request is one ``ARRIVE`` entry, and the last of a round
    queues its DECIDE.
    """
    underlay = _ts_underlay()
    cfg = _cfg(
        seed=seed,
        degree=(1, 2),
        join_phase_s=1.0,
        total_s=20.0,
        slot_s=1.0,
        settle_s=0.2,
        churn_rate=0.3,
        join_measure_interval_s=0.5,
    )
    _assert_matches_scalar(underlay, cfg)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    slot_s=st.floats(min_value=1.0, max_value=5.0),
    settle_share=st.floats(min_value=0.05, max_value=0.95),
    n_slots=st.integers(min_value=2, max_value=6),
    measure_s=st.one_of(st.none(), st.floats(min_value=0.2, max_value=2.0)),
    churn=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    n_nodes=st.integers(min_value=6, max_value=14),
)
# A fixed draw that reaches, on every run, join-phase requests past the
# first slot start, rounds across a measurement, rounds that read probed
# free degrees, and children that die in flight.
@example(
    seed=33, slot_s=4.0, settle_share=0.5, n_slots=2, measure_s=None,
    churn=0.3, n_nodes=14,
)
def test_short_slot_rounds_match_scalar_property(
    seed, slot_s, settle_share, n_slots, measure_s, churn, n_nodes
):
    """Probe rounds on random short-slot sessions.

    Slots of a few round trips and optional join-phase measurements put
    requests past a slot start and rounds across a measurement, and
    churn kills children while their request is in flight.
    """
    underlay = _ts_underlay()
    join_phase_s = 2.0
    cfg = _cfg(
        seed=seed,
        n_nodes=n_nodes,
        degree=(1, 2),
        join_phase_s=join_phase_s,
        total_s=join_phase_s + n_slots * slot_s,
        slot_s=slot_s,
        settle_s=settle_share * slot_s,
        churn_rate=churn,
        join_measure_interval_s=measure_s,
    )
    _assert_matches_scalar(underlay, cfg)


def test_equal_delay_tie_matches_scalar():
    """Two reconnects that finish at one instant keep the scalar order.

    On an equal-delay underlay the last replies of two rounds land at
    the same float time, so only the seq of each round's DECIDE orders
    them (nodes 4 and 12, join record 1006).
    """
    cfg = _cfg(seed=4, churn_rate=0.3, n_nodes=14, slot_s=4.0, settle_s=2.0)
    _assert_matches_scalar(_tie_underlay(24, 20.0), cfg)


@settings(max_examples=10, deadline=None)
@given(
    n_hosts=st.integers(min_value=8, max_value=24),
    rtt_ms=st.floats(min_value=1.0, max_value=200.0),
    two_level_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    churn=st.sampled_from([0.1, 0.2, 0.3]),
    slot_s=st.sampled_from([2.0, 4.0, 10.0]),
)
# A fixed two-level draw that a DECIDE queued under its last request's
# seq, rather than the seq its reply took at arrival, gets wrong.
@example(
    n_hosts=24, rtt_ms=20.0, two_level_seed=1, seed=2, churn=0.3, slot_s=4.0,
)
def test_equal_delay_ties_match_scalar_property(
    n_hosts, rtt_ms, two_level_seed, seed, churn, slot_s
):
    """Random equal- and two-level-delay sessions, where ties at one
    instant are the rule: events, joins and the seq count match the
    scalar engine."""
    join_phase_s = 20.0
    cfg = _cfg(
        seed=seed,
        n_nodes=n_hosts - 1,
        join_phase_s=join_phase_s,
        total_s=join_phase_s + 30 * slot_s,
        slot_s=slot_s,
        settle_s=slot_s / 2.0,
        churn_rate=churn,
    )
    _assert_matches_scalar(_tie_underlay(n_hosts, rtt_ms, two_level_seed), cfg)


# ---------------------------------------------------------------------------
# envelope: protocols x fault plans must decline, and fall back exactly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(FAULT_PRESETS))
def test_fault_plans_decline(plan_name):
    """Every non-noop fault plan is outside the envelope — loud decline."""
    cell = BatchedCell(_ts_underlay(), None)
    cfg = _cfg(faults=FAULT_PRESETS[plan_name])
    if FAULT_PRESETS[plan_name].is_noop():
        cell.run_session(cfg)  # the control cell batches fine
    else:
        with pytest.raises(BatchedUnsupported):
            cell.run_session(cfg)


@pytest.mark.parametrize("kind", ["hmtp", "btp", "mst"])
def test_non_vdm_protocols_decline(kind):
    """The batch hook declines any non-VDM protocol before building a cell."""
    hook = cell_batch(
        CellSpec(
            underlay_factory=lambda: pytest.fail(
                "declining must not build the underlay"
            ),
            config_factory=lambda seed: _cfg(seed=seed),
            protocol=protocol_spec(kind),
            metrics=CH3_METRICS,
        )
    )
    assert hook([(0, 1), (1, 2)]) is None


@pytest.mark.parametrize(
    "overrides, reason",
    [
        (dict(measurement_noise_sigma=0.3), "probe noise"),
        (dict(refine_period_s=180.0), "refinement"),
        (dict(timeout_ms=0.001), "timeout elision"),
        (dict(failover="precomputed"), "failover"),
    ],
)
def test_config_envelope_declines(overrides, reason):
    cell = BatchedCell(_ts_underlay(), None)
    with pytest.raises(BatchedUnsupported, match=reason):
        cell.check_config(_cfg(**overrides))


@pytest.mark.parametrize(
    "protocol, overrides, code",
    [
        pytest.param(SERVICE, {}, "service-mode", id="service-mode"),
        pytest.param(protocol_spec("hmtp"), {}, "protocol", id="protocol"),
        pytest.param(
            protocol_spec("vdm", VDMConfig(case3_selection="random")), {}, "config",
            id="config-random-case3",
        ),
        pytest.param(
            protocol_spec("vdm", VDMConfig(foster_child=True)), {}, "config",
            id="config-foster-child",
        ),
        pytest.param(
            protocol_spec("vdm", VDMConfig(refine_period_s=120.0)), {}, "refinement",
            id="refinement-row",
        ),
        pytest.param(
            protocol_spec("vdm"), dict(refine_period_s=120.0), "refinement",
            id="refinement-session",
        ),
        pytest.param(
            protocol_spec("vdm"), dict(measurement_noise_sigma=0.3), "probe-noise",
            id="probe-noise",
        ),
        pytest.param(
            protocol_spec("vdm"), dict(failover="precomputed"), "failover",
            id="failover",
        ),
        pytest.param(
            protocol_spec("vdm"), dict(faults="crashy"), "faults", id="faults"
        ),
    ],
)
def test_declines_before_building_anything(protocol, overrides, code):
    """Every config-level decline carries its code, and neither
    ``decline_reason`` nor the hook builds the cell's underlay."""
    spec = CellSpec(
        underlay_factory=lambda: pytest.fail("declining must not build the underlay"),
        config_factory=lambda seed: _cfg(seed=seed, **overrides),
        protocol=protocol,
        metrics=CH3_METRICS,
    )
    assert decline_reason(spec).code == code
    assert cell_batch(spec)([(0, 1), (1, 2)]) is None


def test_vdm_config_envelope_declines():
    with pytest.raises(BatchedUnsupported, match="Case III"):
        BatchedCell(_ts_underlay(), VDMConfig(case3_selection="random"))
    with pytest.raises(BatchedUnsupported, match="refinement"):
        BatchedCell(_ts_underlay(), VDMConfig(refine_period_s=120.0))


# ---------------------------------------------------------------------------
# the emulator reads the underlay's own delay rows, read-only
# ---------------------------------------------------------------------------


def test_agents_hold_the_underlays_own_rows_and_never_write_them():
    # A private underlay: a stray write must not leak into other tests.
    underlay = _ts_underlay.__wrapped__()
    before = {h: np.array(underlay.delay_row(h)).tobytes() for h in underlay.hosts}
    cfg = _cfg(seed=9)
    cell = BatchedCell(underlay, None)
    cell.check_config(cfg)
    emulator = _Emulator(cell, cfg)
    emulator.run()
    assert len(emulator.agents) > cfg.n_nodes
    for node, agent in emulator.agents.items():
        assert agent.row is underlay.delay_row(node)
    # The cell's whole state: the envelope's inputs, no row store.
    assert sorted(vars(cell)) == ["_max_delay_ms", "hosts", "row", "underlay"]
    for host, row in before.items():
        assert np.array(underlay.delay_row(host)).tobytes() == row
    # A scalar session on the underlay the emulator read answers as one
    # on a freshly built twin.
    after, fresh = _scalar(underlay, cfg), _scalar(_ts_underlay.__wrapped__(), cfg)
    assert after.records == fresh.records
    assert after.join_records == fresh.join_records
    for name, extract in CH3_METRICS.items():
        assert extract(after) == extract(fresh), name


# ---------------------------------------------------------------------------
# harness integration: the batch hook through run_replications
# ---------------------------------------------------------------------------


def _rep_worker(underlay_key, cfg_proto: SessionConfig, rep: int, seed: int):
    cfg = dataclasses.replace(cfg_proto, seed=seed)
    res = _scalar(_ts_underlay(*underlay_key), cfg)
    return {name: extract(res) for name, extract in CH3_METRICS.items()}


def _vdm_hook(underlay_key, cfg_proto: SessionConfig):
    return cell_batch(
        CellSpec(
            underlay_factory=lambda: _ts_underlay(*underlay_key),
            config_factory=lambda seed: dataclasses.replace(cfg_proto, seed=seed),
            protocol=protocol_spec("vdm"),
            metrics=CH3_METRICS,
        )
    )


def test_harness_batched_equals_scalar(monkeypatch):
    """run_replications with the hook == without it, result for result."""
    clear_cells()
    key = (40, 7)
    cfg = _cfg()
    seeds = [101, 202, 303, 404]
    monkeypatch.setenv("REPRO_BATCHED_REPS", "0")
    scalar = run_replications(_rep_worker, (key, cfg), seeds, batch=None)
    monkeypatch.delenv("REPRO_BATCHED_REPS")
    batched = run_replications(
        _rep_worker, (key, cfg), seeds, batch=_vdm_hook(key, cfg)
    )
    assert batched == scalar


@pytest.mark.parametrize("value", ["0", "false", "NO", " 0 "])
def test_batched_reps_off_values_decline(value, monkeypatch):
    monkeypatch.setenv("REPRO_BATCHED_REPS", value)
    assert _vdm_hook((40, 7), _cfg())([(0, 11)]) is None


@pytest.mark.parametrize("value", ["2", "1", "yes", "-1", "unlimited"])
def test_batched_reps_refuses_other_values(value, monkeypatch):
    """On or off only: a replication count or a typo names itself."""
    monkeypatch.setenv("REPRO_BATCHED_REPS", value)
    with pytest.raises(ValueError, match=repr(value)):
        _vdm_hook((40, 7), _cfg())([(0, 11)])


# ---------------------------------------------------------------------------
# regression pins: one Ch.3 cell and one Ch.5 cell
# ---------------------------------------------------------------------------
#
# The pinned numbers are the scalar engine's output on the fixed seeds
# below, recorded when PR 6 landed.  They guard two things at once: that
# the batched engine still reproduces the oracle exactly, and that the
# oracle itself has not silently drifted (which would let both engines
# drift together and the equivalence tests would never notice).

_CH3_PIN_CFG = dict(seed=1234, churn_rate=0.1, n_nodes=14)
_CH3_PIN = {
    "stress": 1.7898063389960965,
    "stretch": 1.5752091171794866,
    "loss_pct": 0.020506510927987585,
    "overhead_pct": 0.16243290494995097,
}

_CH5_PIN_CFG = dict(seed=5678, churn_rate=0.05, n_nodes=12)
_CH5_PIN = {
    "stress": 1.0,
    "stretch": 1.6804195301109282,
    "loss_pct": 0.006331950155656025,
    "overhead_pct": 0.15251995536414356,
}


def test_ch3_cell_regression_pin():
    underlay = _ts_underlay()
    scalar_res = _assert_matches_scalar(underlay, _cfg(**_CH3_PIN_CFG))
    got = {name: extract(scalar_res) for name, extract in CH3_METRICS.items()}
    assert got == _CH3_PIN


def test_ch5_cell_regression_pin():
    """Ch.5 environment: matrix substrate with probe noise — scalar only.

    The batch hook must decline (noise draws the shared RNG) and the
    scalar result must match the pin, so the decline path is pinned too.
    """
    underlay = _pl_underlay()
    cfg = _cfg(**_CH5_PIN_CFG, measurement_noise_sigma=0.3)
    with pytest.raises(BatchedUnsupported):
        BatchedCell(underlay, None).run_session(cfg)
    hook = cell_batch(
        CellSpec(
            underlay_factory=lambda: _pl_underlay(),
            config_factory=lambda seed: dataclasses.replace(cfg, seed=seed),
            protocol=protocol_spec("vdm"),
            metrics=CH3_METRICS,
        )
    )
    assert hook([(0, cfg.seed)]) is None
    res = _scalar(underlay, cfg)
    got = {name: extract(res) for name, extract in CH3_METRICS.items()}
    assert got == _CH5_PIN


# ---------------------------------------------------------------------------
# the cell memo does not outlive (or outgrow) the sweeps it serves
# ---------------------------------------------------------------------------


def test_clear_cache_drops_cells_and_equal_configs_share_one():
    import gc
    import weakref

    from repro.harness import batchrun, experiments
    from repro.harness.presets import SMOKE

    experiments.clear_cache()
    assert batchrun._CELLS == {}
    experiments.ch3_degree_tables(SMOKE)
    # One underlay, one (fresh but equal) VDMConfig per degree point.
    assert len(batchrun._CELLS) == 1
    for _ in range(3):  # identical sweeps, results memo dropped each time
        experiments._CACHE.clear()
        experiments.ch3_degree_tables(SMOKE)
        assert len(batchrun._CELLS) == 1
    (cell,) = batchrun._CELLS.values()
    underlay = weakref.ref(cell.underlay)
    del cell
    experiments.clear_cache()
    gc.collect()
    assert batchrun._CELLS == {}
    assert underlay() is None
