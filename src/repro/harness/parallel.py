"""Parallel replication engine.

The paper's evaluation is embarrassingly parallel: every sweep point runs
``replications`` independent sessions whose seeds are derived up front
with :func:`repro.util.rngtools.spawn_rng`.  :func:`run_replications`
exploits that — it fans a batch of (rep-index, seed) tasks out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges results back
in replication order, so serial and parallel runs are bit-identical.

Requirements on the worker callable:

* it must be a **module-level function** (pickled by reference), and
* its arguments and return value must be picklable — experiment runners
  therefore pass *specs* (preset, protocol key, scalar sweep value, seed)
  and return reduced per-replication metrics, rebuilding heavyweight
  state (underlays, agent factories) inside the worker process behind a
  per-process memo.

Worker count resolution, in priority order:

1. the explicit ``jobs`` argument (e.g. :attr:`Preset.jobs` or the CLI's
   ``--jobs``);
2. the ``REPRO_JOBS`` environment variable;
3. ``1`` — the exact historical in-process code path (no pool, no pickling).

The pool is created lazily and kept alive across calls (fork start
method where the platform has it, the platform default otherwise), so
per-process substrate memos stay warm across sweep points; it is
recreated whenever the requested worker count changes.  A pooled batch
delivers each result as it lands, so a journaled run
(:mod:`repro.harness.journal`) checkpoints it at once.  A worker that
raises, or dies and breaks the pool, costs only its own result: the
batch delivers every replication that did complete, resets the pool and
raises the error of the lowest failing rep, and ``--resume`` reruns only
the holes.  :func:`shutdown_pool` tears the pool down.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import signal
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed, wait
from typing import Callable, Sequence, TypeVar

from repro.util.validation import check_count

__all__ = [
    "clamp_jobs",
    "kill_pool",
    "resolve_jobs",
    "run_replications",
    "shutdown_pool",
]

T = TypeVar("T")

#: environment variable consulted when no explicit job count is given
JOBS_ENV_VAR = "REPRO_JOBS"

#: seconds an interrupted pooled batch waits for its running replications
#: to finish, so their results still reach the journal
INTERRUPT_DRAIN_S = 5.0

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS: int = 0


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_JOBS`` > 1.

    Either source must name a whole number >= 1; anything else (``0``,
    ``2.5``, ``True``, ``"many"``) raises :class:`ValueError` naming it.
    """
    if jobs is not None:
        return check_count("jobs", jobs)
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    return check_count(JOBS_ENV_VAR, value)


def clamp_jobs(jobs: int | None) -> int | None:
    """Clamp a requested worker count to the machine's CPU count.

    Oversubscribing a CPU-bound process pool only adds scheduler thrash —
    the perf snapshots showed parallel runs on a small box losing to
    serial once workers exceed cores.  The CLI funnels ``--jobs`` through
    this; library callers keep the exact count they asked for
    (:func:`resolve_jobs` is unchanged) so tests and embedders can still
    force any pool size.

    ``None`` passes through (deferred to :func:`resolve_jobs`).  Emits a
    :class:`RuntimeWarning` when the request is reduced.
    """
    if jobs is None:
        return None
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        warnings.warn(
            f"--jobs {jobs} exceeds the {cpus} available CPU(s); "
            f"clamping to {cpus} to avoid oversubscription",
            RuntimeWarning,
            stacklevel=2,
        )
        return cpus
    return jobs


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, (re)built for ``workers`` processes.

    Fork where available keeps per-process substrate memos cheap to build
    (copy-on-write), avoids re-importing the package in each worker, and
    lets workers share the parent's memory-mapped substrate artifacts.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_worker_init,
        )
        _POOL_WORKERS = workers
        _install_sigterm_handler()
    return _POOL


def _worker_init() -> None:
    """Reset inherited signal dispositions in pool workers.

    Fork workers inherit the parent's SIGTERM handlers (pool teardown,
    journal's SIGTERM-to-KeyboardInterrupt conversion); both are
    parent-side policies that make no sense inside a worker and turn
    a plain ``terminate()`` into a traceback.
    """
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests and perf timing use this)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


def kill_pool() -> None:
    """Hard-stop the shared pool: terminate workers without waiting.

    Used after a failed or interrupted batch (a graceful
    ``shutdown(wait=True)`` would wait out every queued task, or block
    for ever on a wedged one) and by the SIGTERM handler.  The next
    batch gets a fresh pool.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None:
        return
    procs = list(getattr(_POOL, "_processes", {}).values())
    for proc in procs:
        with contextlib.suppress(Exception):
            proc.terminate()
    with contextlib.suppress(Exception):
        _POOL.shutdown(wait=False, cancel_futures=True)
    for proc in procs:  # reap briefly so terminated workers don't zombie
        with contextlib.suppress(Exception):
            proc.join(timeout=2.0)
            if proc.is_alive():  # SIGTERM not enough (wedged worker)
                proc.kill()
                proc.join(timeout=2.0)
    _POOL = None
    _POOL_WORKERS = 0


# ---------------------------------------------------------------------------
# SIGTERM teardown: the atexit hook never runs when the process is
# SIGTERM'd (CI cancellation, ``kill``), which used to leak orphaned fork
# workers.  Installed lazily with the first pool; chains to whatever
# handler was there before, or re-raises the default disposition so the
# exit status still says "terminated by SIGTERM".
# ---------------------------------------------------------------------------

_SIGTERM_INSTALLED = False
_PREV_SIGTERM: object = None


def _handle_sigterm(signum, frame):
    from repro.harness import journal

    # Inside a journaled run the converted KeyboardInterrupt drives the
    # pooled batch's drain (which kills the pool itself after the drain
    # window); killing here would discard the in-flight results that
    # drain exists to flush.
    if journal.active() is None:
        kill_pool()
    prev = _PREV_SIGTERM
    if callable(prev):
        prev(signum, frame)
    else:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)


def _install_sigterm_handler() -> None:
    global _SIGTERM_INSTALLED, _PREV_SIGTERM
    if _SIGTERM_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        return  # signal.signal is main-thread-only; embedders keep theirs
    try:
        _PREV_SIGTERM = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, _handle_sigterm)
    except (ValueError, OSError):
        return
    _SIGTERM_INSTALLED = True


atexit.register(shutdown_pool)


def run_replications(
    worker: Callable[..., T],
    args: tuple,
    seeds: Sequence[int],
    *,
    jobs: int | None = None,
    key: tuple | None = None,
    batch: Callable[[Sequence[tuple[int, int]]], "dict[int, T] | None"] | None = None,
) -> list[T]:
    """Run ``worker(*args, rep, seed)`` for each seed, in replication order.

    ``seeds[i]`` is the pre-derived session seed of replication ``i``;
    deriving seeds *before* fan-out is what makes worker scheduling
    irrelevant to the results.  With ``jobs == 1`` (the default) every
    call happens in-process exactly as the historical serial loops did;
    with ``jobs > 1`` tasks run on the shared pool (:func:`_run_pooled`)
    and results are merged back by replication index, so the returned
    list is identical either way.

    ``key`` names the sweep point for durability: when a journaled run
    context (:mod:`repro.harness.journal`) is active, completed results
    are checkpointed under ``(key, rep, seed, recipe-hash)`` as they
    land, already-journaled tasks are **not** re-executed, and the holes
    left by an interrupt or a failed replication are all a resumed run
    pays for.  Without a key (or outside a journaled run) nothing is
    recorded.

    ``batch`` is the batched-engine hook (PR 6): a callable given the
    pending ``(rep, seed)`` tasks that returns ``{rep: result}`` for the
    replications it took (normally all of them; fewer when
    ``REPRO_BATCHED_REPS`` caps the batch), or ``None`` to decline
    entirely (unsupported cell, or disabled via ``REPRO_BATCHED_REPS=0``).
    It runs in-process after the journal lookup, so journaling, resume,
    and the recipe hash are identical whichever engine produced a result;
    replications the batch did not take fall through to the scalar
    serial/pool paths unchanged.  ``batch`` must return results
    bit-identical to ``worker`` — the scalar engine stays the oracle, and
    the byte-identity CI step holds the two to that.
    """
    tasks = list(enumerate(seeds))
    n_jobs = resolve_jobs(jobs)

    ctx = None
    recipe = None
    results: list[T] = [None] * len(tasks)  # type: ignore[list-item]
    pending = tasks
    if key is not None:
        from repro.harness import journal as journal_mod

        ctx = journal_mod.active()
        if ctx is not None:
            recipe = journal_mod.recipe_hash(worker, args)
            ctx.note_recipe(key, recipe)
            pending = []
            for rep, seed in tasks:
                hit = ctx.journal.lookup(key, rep, seed, recipe)
                if ctx.journal.is_miss(hit):
                    pending.append((rep, seed))
                else:
                    results[rep] = hit

    def deliver(rep: int, seed: int, result) -> None:
        results[rep] = result
        if ctx is not None:
            ctx.journal.record(key, rep, seed, recipe, result)

    if batch is not None and pending:
        done = batch(pending)
        if done:
            leftover = []
            for rep, seed in pending:
                if rep in done:
                    deliver(rep, seed, done[rep])
                else:
                    leftover.append((rep, seed))
            pending = leftover

    if n_jobs <= 1 or len(pending) <= 1:
        # The exact historical in-process path (no pool, no pickling) —
        # also taken when the journal already holds all but <=1 task.
        for rep, seed in pending:
            deliver(rep, seed, worker(*args, rep, seed))
    else:
        _run_pooled(worker, args, pending, n_jobs, deliver)
    if ctx is not None:
        ctx.write_manifest()  # keep run.json current batch by batch
    return results


@contextlib.contextmanager
def _signals_deferred():
    """Hold SIGINT and SIGTERM until the block ends, then raise them.

    A Python-level handler, not a signal mask: workers forked inside the
    block would inherit a mask and miss :func:`kill_pool`'s SIGTERM.
    """
    if threading.current_thread() is not threading.main_thread():
        yield  # signal.signal is main-thread-only
        return
    arrived: list[int] = []
    previous = {
        sig: handler
        for sig in (signal.SIGINT, signal.SIGTERM)
        # None: installed outside Python, so it could not be restored
        if (handler := signal.getsignal(sig)) is not None
    }
    for sig in previous:
        signal.signal(sig, lambda signum, frame: arrived.append(signum))
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        for sig in arrived:
            signal.raise_signal(sig)


def _run_pooled(worker, args: tuple, pending, workers: int, deliver) -> None:
    """Run every pending ``(rep, seed)`` on the shared pool, delivering
    each result as it completes.

    A worker that raises, or dies and breaks the pool, stops nothing
    else: every result that does complete is still delivered, then the
    error of the lowest failing rep is raised.  On
    :class:`KeyboardInterrupt` queued tasks are cancelled, running ones
    get :data:`INTERRUPT_DRAIN_S` to finish and deliver, and the
    interrupt propagates; one that lands inside ``pool.submit`` is held
    until every future is tracked, so no finished result goes
    undelivered.  Whatever ends the batch early, the pool is killed
    first, so the next batch gets a fresh one.
    """
    pool = _get_pool(workers)
    futures: dict = {}
    failures: dict[int, Exception] = {}
    try:
        with _signals_deferred():
            for rep, seed in pending:
                futures[pool.submit(worker, *args, rep, seed)] = (rep, seed)
        for future in as_completed(list(futures)):
            rep, seed = futures.pop(future)
            try:
                result = future.result()
            except Exception as exc:  # the worker's own, or BrokenProcessPool
                failures[rep] = exc
            else:
                deliver(rep, seed, result)
        if failures:
            raise failures[min(failures)]
    except KeyboardInterrupt:
        for future in futures:
            future.cancel()
        done, _ = wait(futures, timeout=INTERRUPT_DRAIN_S)
        for future in done:
            if not future.cancelled() and future.exception() is None:
                deliver(*futures[future], future.result())
        kill_pool()
        raise
    except BaseException:  # a failed rep, or a pool that broke while idle
        kill_pool()
        raise
