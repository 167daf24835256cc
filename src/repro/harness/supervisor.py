"""Supervised execution of pooled replication batches.

:func:`repro.harness.parallel.run_replications` used to submit a batch
and propagate the first raw exception — one hung scenario or one
OOM-killed worker threw away every completed replication of a multi-hour
sweep.  This module wraps pooled dispatch in a small supervision state
machine so sweeps degrade gracefully instead:

* **Timeouts** — every in-flight task carries a wall-clock deadline
  (``REPRO_TASK_TIMEOUT_S``; off by default).  An expired task is
  self-attributing: its hung worker is killed with the pool, the task's
  attempt count is charged, and every innocent in-flight task is
  requeued without penalty.
* **Broken-pool recovery** — a dead worker (``os._exit``, OOM kill,
  segfault) breaks the whole ``ProcessPoolExecutor`` and the supervisor
  cannot tell which of the in-flight tasks was responsible.  Rather than
  charging them all (which could quarantine innocents riding alongside a
  poison task), the survivors enter **probation**: they re-run strictly
  one at a time on a fresh pool, so the next break attributes exactly.
  Solo successes exonerate for free; the poison task alone accumulates
  attempts until it is quarantined, and the batch keeps draining.
* **Bounded retries** — failed attempts (timeout, solo pool break, or an
  exception raised by the worker) are retried up to
  ``REPRO_TASK_RETRIES`` total attempts with exponential backoff and
  decorrelated jitter (``REPRO_RETRY_BACKOFF_S``; the jitter RNG is
  seeded from the task key, so reruns sleep identically).  Retries are
  bit-identical by construction: a task is ``worker(*args, rep, seed)``
  with the seed derived *before* dispatch, so a crashed-and-retried task
  recomputes exactly the serial result.
* **Quarantine** — a task that exhausts its attempts is recorded as a
  structured :class:`TaskFailure` (key, attempts, error, observed worker
  exit codes) instead of propagating a raw exception.  The rest of the
  batch still completes — and lands in the journal — before the batch
  raises :class:`SweepAborted` carrying the failure records, so a fixed
  rerun with ``--resume`` schedules only the quarantined holes.

On ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM converted by
:func:`repro.harness.journal.run_context`) the supervisor stops
scheduling, waits up to ``REPRO_GRACE_S`` for in-flight tasks so their
results still reach the journal, hard-stops the pool, and re-raises.

The happy path is inert: no timeout configured, no chaos plan, no
failures — the supervisor is a submit-and-wait loop whose only addition
over the historical code is that at most ``workers`` tasks are in flight
at once (which is also what makes deadline and break attribution sound).
"""

from __future__ import annotations

import contextlib
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.harness import chaos
from repro.harness.journal import RunStats, active as active_run
from repro.util.envflags import interrupt_grace_s, task_timeout_s
from repro.util.retry import RetryPolicy
from repro.util.validation import check_fields, checked, non_negative, optional, positive

__all__ = [
    "SupervisorConfig",
    "SweepAborted",
    "TaskFailure",
    "run_supervised",
]


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined task, with everything needed to audit and resume."""

    key: tuple | None     # sweep-point key (None for un-keyed batches)
    rep: int              # replication index within the batch
    seed: int             # pre-derived session seed
    attempts: int         # attempts charged before quarantine
    kind: str             # "timeout" | "pool-break" | "exception"
    error: str            # repr of the last exception, or a timeout note
    exit_codes: tuple[int, ...] = ()  # nonzero worker exit codes observed

    def as_dict(self) -> dict:
        return {
            "key": list(self.key) if self.key is not None else None,
            "rep": self.rep,
            "seed": self.seed,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
            "exit_codes": list(self.exit_codes),
        }


class SweepAborted(RuntimeError):
    """A batch finished draining but quarantined at least one task.

    Raised *after* every healthy task completed (and was journaled), so
    a journaled rerun only needs the holes this exception describes.
    """

    def __init__(self, failures: list[TaskFailure]):
        self.failures = failures
        details = "; ".join(
            f"rep {f.rep} ({f.kind} after {f.attempts} attempts: {f.error})"
            for f in failures
        )
        super().__init__(
            f"{len(failures)} task(s) quarantined after exhausting retries: "
            f"{details}"
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy, normally resolved from ``REPRO_*`` variables:
    the per-task deadline, the shared retry policy, the drain grace."""

    timeout_s: float | None = checked(optional(positive), None)
    retry: RetryPolicy = RetryPolicy()
    grace_s: float = checked(non_negative, 5.0)

    __post_init__ = check_fields

    @classmethod
    def from_env(cls) -> "SupervisorConfig":
        return cls(
            timeout_s=task_timeout_s(),
            retry=RetryPolicy.from_env(),
            grace_s=interrupt_grace_s(),
        )


@dataclass
class _Task:
    rep: int
    seed: int
    deadline: float | None = None
    probation: bool = False
    prev_sleep: float = 0.0


@dataclass
class _Batch:
    queue: deque = field(default_factory=deque)      # normal-mode tasks
    probation: deque = field(default_factory=deque)  # run strictly solo
    inflight: dict = field(default_factory=dict)     # Future -> _Task
    failures: list = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)


def _backoff(task: _Task, config: SupervisorConfig, key: tuple | None, attempt: int):
    """Decorrelated jitter: sleep in [base, 3*prev], capped; deterministic."""
    sleep = config.retry.backoff_s(
        key, task.rep, task.seed, attempt, prev_sleep=task.prev_sleep
    )
    if sleep <= 0:
        return
    task.prev_sleep = sleep
    time.sleep(sleep)


def run_supervised(
    worker,
    args: tuple,
    tasks,
    *,
    workers: int,
    key: tuple | None = None,
    on_result,
    config: SupervisorConfig | None = None,
) -> RunStats:
    """Drain ``worker(*args, rep, seed)`` for every (rep, seed) in ``tasks``.

    ``on_result(rep, seed, result)`` is invoked as each result lands (in
    completion order — callers index by ``rep``, so scheduling order
    never shows in the output), which is what lets the journal checkpoint
    mid-batch.  Raises :class:`SweepAborted` after the batch drains if
    any task was quarantined, and merges supervision counters into the
    active journaled-run context either way.
    """
    from repro.harness import parallel  # circular at import time only

    config = config or SupervisorConfig.from_env()
    plan = chaos.load_plan()
    attempts: dict[int, int] = {}
    batch = _Batch()
    batch.queue.extend(_Task(rep, seed) for rep, seed in tasks)
    # Worker Process handles snapshotted at submit time.  By the time a
    # BrokenProcessPool surfaces, the executor's management thread has
    # usually reaped its workers and cleared its own process table — but
    # our held handles still report the cached exit code, which is what
    # lets a TaskFailure say "died with status 117" rather than nothing.
    known_procs: dict[int, object] = {}

    def observed_exit_codes() -> list[int]:
        codes = set()
        for p in known_procs.values():
            with contextlib.suppress(Exception):
                # Called after kill_pool(): every worker is dead, the
                # join only caches the exit status if the executor's
                # management thread hasn't reaped it yet.
                p.join(timeout=1.0)
            if getattr(p, "exitcode", None) not in (None, 0):
                codes.add(p.exitcode)
        known_procs.clear()
        return sorted(codes)

    def submit(task: _Task) -> None:
        attempt = attempts.get(task.rep, 0) + 1
        rule = chaos.match(plan, key, task.rep, attempt) if plan else None
        payload = (worker, *args, task.rep, task.seed)
        if rule is not None:
            call = (chaos.chaos_apply, rule.action, rule.hang_s, *payload)
        else:
            call = payload
        try:
            pool = parallel._get_pool(workers)
            future = pool.submit(call[0], *call[1:])
        except (BrokenProcessPool, RuntimeError):
            # The pool broke (or was shut down) while idle: no task can
            # be responsible, so just resurrect and resubmit.
            batch.stats.pool_breaks += 1
            parallel.kill_pool()
            pool = parallel._get_pool(workers)
            future = pool.submit(call[0], *call[1:])
        known_procs.update(getattr(pool, "_processes", None) or {})
        task.deadline = (
            time.monotonic() + config.timeout_s if config.timeout_s else None
        )
        batch.inflight[future] = task

    def charge(task: _Task, kind: str, error: str, exit_codes=()) -> bool:
        """Charge one attempt; quarantine at the cap.  True = retry."""
        attempts[task.rep] = attempts.get(task.rep, 0) + 1
        if attempts[task.rep] >= config.retry.max_attempts:
            batch.failures.append(
                TaskFailure(
                    key=key,
                    rep=task.rep,
                    seed=task.seed,
                    attempts=attempts[task.rep],
                    kind=kind,
                    error=error,
                    exit_codes=tuple(exit_codes),
                )
            )
            return False
        batch.stats.retries += 1
        _backoff(task, config, key, attempts[task.rep])
        return True

    def handle_pool_break(suspects: list[_Task]) -> None:
        batch.stats.pool_breaks += 1
        exit_codes = sorted(
            {*parallel.kill_pool(), *observed_exit_codes()}
        )
        for task in sorted(suspects, key=lambda t: t.rep):
            if task.probation:
                # Solo run: attribution is exact — this task broke the pool.
                if charge(task, "pool-break", "worker process died mid-task",
                          exit_codes):
                    batch.probation.appendleft(task)
            else:
                # One of several in-flight tasks died with the pool; none
                # is charged — probation re-runs them solo to attribute.
                task.probation = True
                batch.probation.append(task)

    def handle_timeouts(expired: list[_Task], innocents: list[_Task]) -> None:
        # Hung workers only die with their pool; innocents lose their
        # in-flight work but not an attempt, and rejoin the queue first.
        batch.stats.timeouts += len(expired)
        parallel.kill_pool()
        for task in sorted(innocents, key=lambda t: t.rep, reverse=True):
            (batch.probation if task.probation else batch.queue).appendleft(task)
        for task in sorted(expired, key=lambda t: t.rep):
            note = f"task exceeded the {config.timeout_s}s wall-clock timeout"
            if charge(task, "timeout", note):
                (batch.probation if task.probation else batch.queue).append(task)

    try:
        while batch.queue or batch.probation or batch.inflight:
            # -- refill ----------------------------------------------------
            solo = any(t.probation for t in batch.inflight.values())
            if batch.probation:
                if not batch.inflight:
                    submit(batch.probation.popleft())
            elif not solo:
                while batch.queue and len(batch.inflight) < workers:
                    submit(batch.queue.popleft())

            # -- wait ------------------------------------------------------
            deadlines = [
                t.deadline for t in batch.inflight.values() if t.deadline
            ]
            timeout = (
                max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            )
            done, _ = wait(
                list(batch.inflight), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )

            # -- collect ---------------------------------------------------
            suspects: list[_Task] = []
            for future in done:
                task = batch.inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    suspects.append(task)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if charge(task, "exception", repr(exc)):
                        (batch.probation if task.probation
                         else batch.queue).append(task)
                else:
                    on_result(task.rep, task.seed, result)
            if suspects:
                # The pool is broken: every remaining in-flight future is
                # dead too, whether or not wait() already surfaced it.
                suspects.extend(batch.inflight.values())
                batch.inflight.clear()
                handle_pool_break(suspects)
                continue

            # -- deadlines -------------------------------------------------
            if deadlines:
                now = time.monotonic()
                expired = [
                    t for t in batch.inflight.values()
                    if t.deadline and now >= t.deadline
                ]
                if expired:
                    expired_ids = {id(t) for t in expired}
                    innocents = [
                        t for t in batch.inflight.values()
                        if id(t) not in expired_ids
                    ]
                    batch.inflight.clear()
                    handle_timeouts(expired, innocents)
    except KeyboardInterrupt:
        # Stop scheduling; give in-flight tasks a grace window so their
        # results still reach the journal, then hard-stop the pool.
        if batch.inflight and config.grace_s > 0:
            done, _ = wait(list(batch.inflight), timeout=config.grace_s)
            for future in done:
                task = batch.inflight.pop(future)
                with contextlib.suppress(BaseException):
                    on_result(task.rep, task.seed, future.result())
        parallel.kill_pool()
        raise
    finally:
        batch.stats.quarantined.extend(f.as_dict() for f in batch.failures)
        ctx = active_run()
        if ctx is not None:
            ctx.stats.merge(batch.stats)

    if batch.failures:
        raise SweepAborted(batch.failures)
    return batch.stats
