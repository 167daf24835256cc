"""Retry/backoff policy for the live service's join operations.

:meth:`RetryPolicy.backoff_s` *computes* the sleep and leaves the
sleeping to the caller, so the policy is a frozen, side-effect-free
object that unit tests can drive without a runtime; the service runtime
(:mod:`repro.service.runtime`) waits it out on a virtual-time timer.

The jitter formula is AWS-style *decorrelated jitter*::

    sleep(n) = min(cap, Uniform(base, 3 * sleep(n - 1)))

seeded per ``(key, rep, seed, attempt)`` so a rerun of the same operation
sleeps identically — retries must never introduce nondeterminism into a
run that is otherwise bit-reproducible.  The formula, the seed string,
and the ``prev or base`` floor are pinned by an equivalence test; do not
"clean them up".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.util.validation import check_fields, checked, count, non_negative

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic decorrelated-jitter backoff.

    ``max_attempts`` counts the first try: an operation whose attempt
    number reaches the cap is out of retries.  ``backoff_base_s <= 0``
    disables sleeping entirely (retries fire immediately), in which case
    :meth:`backoff_s` returns ``0.0``.
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
