"""Shared retry/backoff policy for batch supervision and the live service.

The decorrelated-jitter backoff was born inside
:mod:`repro.harness.supervisor` (PR 5) as a private helper, which made it
impossible to unit-test without standing up a process pool — and
impossible to reuse when the service runtime (PR 10) needed the exact
same envelope around live join operations.  This module lifts the policy
into a frozen, side-effect-free object: :meth:`RetryPolicy.backoff_s`
*computes* the sleep and leaves the sleeping to the caller, so the
supervisor sleeps on the wall clock while the service sleeps on the
virtual clock, and both produce byte-identical sleep sequences for the
same ``(key, rep, seed, attempt)`` path.

The jitter formula is AWS-style *decorrelated jitter*::

    sleep(n) = min(cap, Uniform(base, 3 * sleep(n - 1)))

seeded per ``(key, rep, seed, attempt)`` so a rerun of the same task
sleeps identically — retries must never introduce nondeterminism into a
run that is otherwise bit-reproducible.  The formula, the seed string,
and the ``prev or base`` floor are pinned by equivalence tests against
the original supervisor implementation; do not "clean them up".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.util.envflags import retry_backoff_s, task_max_attempts
from repro.util.validation import check_fields, checked, count, non_negative

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic decorrelated-jitter backoff.

    ``max_attempts`` counts the first try: a task whose attempt number
    reaches the cap is out of retries.  ``backoff_base_s <= 0`` disables
    sleeping entirely (retries fire immediately — CI chaos jobs use
    that), in which case :meth:`backoff_s` returns ``0.0``.
    """

    max_attempts: int = checked(count(), 3)
    backoff_base_s: float = checked(non_negative, 0.25)
    backoff_cap_s: float = checked(non_negative, 5.0)

    def __post_init__(self) -> None:
        check_fields(self)
        if 0 < self.backoff_base_s and self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s ({self.backoff_cap_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Resolve the policy from ``REPRO_TASK_RETRIES`` / ``REPRO_RETRY_BACKOFF_S``.

        The cap mirrors the supervisor's historical derivation:
        ``max(base, 5.0)`` so a large explicit base is never clipped below
        itself, and ``0.0`` when backoff is disabled.
        """
        base = retry_backoff_s()
        return cls(
            max_attempts=task_max_attempts(),
            backoff_base_s=base,
            backoff_cap_s=max(base, 5.0) if base > 0 else 0.0,
        )

    def should_retry(self, attempt: int) -> bool:
        """Whether a task that just failed its ``attempt``-th try may retry."""
        return attempt < self.max_attempts

    def backoff_s(
        self,
        key: tuple | None,
        rep: int,
        seed: int,
        attempt: int,
        *,
        prev_sleep: float = 0.0,
    ) -> float:
        """The deterministic sleep before retrying this attempt, in seconds.

        Pure function of its arguments: the jitter RNG is seeded from the
        task identity and attempt number, so reruns (and resumed runs)
        sleep identically.  ``prev_sleep`` is the value this method
        returned for the previous attempt (``0.0`` on the first retry,
        which floors the window at ``backoff_base_s``).
        """
        if self.backoff_base_s <= 0:
            return 0.0
        rng = random.Random(f"{key!r}|{rep}|{seed}|{attempt}")
        prev = prev_sleep or self.backoff_base_s
        return min(self.backoff_cap_s, rng.uniform(self.backoff_base_s, prev * 3))
