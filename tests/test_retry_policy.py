"""RetryPolicy: importable, unit-testable, and byte-equal to the pinned
decorrelated-jitter backoff formula."""

from __future__ import annotations

import random

import pytest

from repro.util.retry import RetryPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        p = RetryPolicy()
        assert p.max_attempts >= 1
        assert p.backoff_cap_s >= p.backoff_base_s

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -0.1},
            {"backoff_base_s": 2.0, "backoff_cap_s": 1.0},
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_should_retry_boundary(self):
        p = RetryPolicy(max_attempts=3)
        assert p.should_retry(1)
        assert p.should_retry(2)
        assert not p.should_retry(3)
        assert not p.should_retry(7)


class TestBackoff:
    def test_deterministic(self):
        p = RetryPolicy(max_attempts=3, backoff_base_s=0.25, backoff_cap_s=5.0)
        a = p.backoff_s(("grp", 1), 2, 99, 1, prev_sleep=0.0)
        b = p.backoff_s(("grp", 1), 2, 99, 1, prev_sleep=0.0)
        assert a == b

    def test_varies_by_attempt_and_key(self):
        p = RetryPolicy(backoff_base_s=0.25, backoff_cap_s=5.0)
        assert p.backoff_s(("g",), 0, 7, 1) != p.backoff_s(("g",), 0, 7, 2)
        assert p.backoff_s(("g",), 0, 7, 1) != p.backoff_s(("h",), 0, 7, 1)

    def test_zero_base_disables_sleep(self):
        p = RetryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0)
        assert p.backoff_s(("g",), 0, 7, 1) == 0.0

    def test_capped(self):
        p = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=1.5)
        for attempt in range(1, 6):
            assert p.backoff_s(("g",), 0, 7, attempt, prev_sleep=100.0) <= 1.5

    def test_matches_pinned_decorrelated_jitter_formula(self):
        """The formula is a compatibility contract: journaled runs replay
        through it, so the policy must reproduce it bit for bit."""
        p = RetryPolicy(max_attempts=3, backoff_base_s=0.25, backoff_cap_s=5.0)
        key, rep, seed = ("ch3_churn", "VDM", 0.05), 3, 1234
        prev = 0.0
        for attempt in (1, 2, 3):
            rng = random.Random(f"{key!r}|{rep}|{seed}|{attempt}")
            expect_prev = prev or 0.25
            expected = min(5.0, rng.uniform(0.25, expect_prev * 3))
            got = p.backoff_s(key, rep, seed, attempt, prev_sleep=prev)
            assert got == expected
            prev = got
