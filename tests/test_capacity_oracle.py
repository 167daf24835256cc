"""Tests for bandwidth-derived degrees and admission."""

import numpy as np
import pytest

from repro.core.capacity import UplinkPopulation, admission_check, degree_from_uplink
from repro.sim.session import draw_degree


class TestDegreeFromUplink:
    def test_basic_division(self):
        # 2 Mbps uplink, 500 kbps stream, 10% headroom -> 3 children.
        assert degree_from_uplink(2000, 500) == 3

    def test_headroom_zero(self):
        assert degree_from_uplink(2000, 500, headroom=0.0) == 4

    def test_min_degree_floor(self):
        assert degree_from_uplink(100, 500) == 1
        assert degree_from_uplink(100, 500, min_degree=0) == 0

    def test_max_degree_cap(self):
        assert degree_from_uplink(100_000, 500, max_degree=8) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            degree_from_uplink(0, 500)
        with pytest.raises(ValueError):
            degree_from_uplink(1000, 500, headroom=1.0)
        with pytest.raises(ValueError):
            degree_from_uplink(1000, 500, min_degree=-1)


class TestUplinkPopulation:
    def test_usable_as_degree_spec(self):
        spec = UplinkPopulation(median_uplink_kbps=2000, stream_kbps=500)
        rng = np.random.default_rng(1)
        values = [draw_degree(spec, rng) for _ in range(100)]
        assert all(1 <= v <= 20 for v in values)
        assert len(set(values)) > 1  # actually stochastic

    def test_median_scales_degrees(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        slow = UplinkPopulation(median_uplink_kbps=600, stream_kbps=500)
        fast = UplinkPopulation(median_uplink_kbps=6000, stream_kbps=500)
        slow_mean = np.mean([slow(rng1) for _ in range(300)])
        fast_mean = np.mean([fast(rng2) for _ in range(300)])
        assert fast_mean > 2 * slow_mean

    def test_free_riders_get_one_slot(self):
        pop = UplinkPopulation(
            median_uplink_kbps=50_000, stream_kbps=500, free_rider_fraction=1.0
        )
        rng = np.random.default_rng(0)
        assert all(pop(rng) == 1 for _ in range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            UplinkPopulation(median_uplink_kbps=0)
        with pytest.raises(ValueError):
            UplinkPopulation(free_rider_fraction=1.5)
        with pytest.raises(ValueError):
            UplinkPopulation(max_degree=0)


class TestAdmissionCheck:
    def test_accepts_within_capacity(self):
        assert admission_check(2000, current_children=2, stream_kbps=500)

    def test_rejects_at_capacity(self):
        assert not admission_check(2000, current_children=3, stream_kbps=500)

    def test_bottleneck_rejects(self):
        assert not admission_check(
            10_000, 0, 500, path_bottleneck_kbps=400
        )
        assert admission_check(10_000, 0, 500, path_bottleneck_kbps=600)
