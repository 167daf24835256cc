"""Journaled checkpoint/resume for replication sweeps.

Completed per-replication results are appended to a crash-safe JSONL
*journal* as they land, so a Ctrl-C, a failed replication or a dead
machine costs only the replications it stopped: a resumed run replays
the journal and schedules **only the missing tasks**, rendering
byte-identical tables to an uninterrupted run.

Keying
------
Each entry is keyed by ``(key, rep, seed, recipe)``:

* ``key`` — the sweep-point tuple the experiment runner passes to
  :func:`repro.harness.parallel.run_replications` (group name, series
  name, sweep value …);
* ``rep``/``seed`` — the replication index and its pre-derived session
  seed (the same ``spawn_rng`` products that make serial == parallel);
* ``recipe`` — a SHA-256 over the worker's qualified name and its
  pickled-spec arguments, rendered through the same canonical-JSON
  machinery as :func:`repro.util.artifacts.artifact_key`.  Execution-only
  preset fields (``jobs``) are normalized out, so resuming with a
  different worker count reuses every entry; any change that could alter
  *results* (preset scales, protocol configs, fault plans) misses
  cleanly and the task re-runs.

Durability
----------
Appends are flushed and fsync'd per entry, so an ``os._exit``-level crash
loses at most the in-flight tasks; replay tolerates a truncated final
line (the torn write of the crash itself) and refuses anything worse.
The run manifest (``run.json`` — preset, figures, recipe hashes, entry
counts, status) is rewritten through the same
private-tmp-then-:func:`os.replace` discipline as
:mod:`repro.util.artifacts`, so readers never observe a half-written
manifest.  Results round-trip exactly: Python's ``json`` emits
shortest-repr floats, which parse back to the same IEEE-754 doubles —
the resume byte-identity tests pin that end to end.  The flip side is
that journaled workers must return *JSON-natural* values (dicts, lists,
scalars): a replayed result is parsed JSON, so a tuple would come back
as a list and break replay transparency.  Every replication worker of
:mod:`repro.harness.experiments` returns a dict of floats (or of float
lists).

Orchestration
-------------
:func:`run_context` opens the journal, installs a ``SIGTERM`` →
:class:`KeyboardInterrupt` conversion (so ``kill`` and CI cancellation
take the same graceful path as Ctrl-C), and publishes the context
process-wide; :func:`repro.harness.parallel.run_replications` consults
:func:`active` transparently.  On interrupt a pooled batch drains its
running tasks into the journal, the manifest is stamped
``interrupted``, and the CLI prints the ``--resume`` command; a failed
replication stamps it ``failed`` after every one that completed was
journaled, and ``--resume`` is the recovery.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.harness.presets import Preset
from repro.util.artifacts import artifact_key

__all__ = [
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "RunContext",
    "RunJournal",
    "RunJournalError",
    "active",
    "recipe_hash",
    "run_context",
]

JOURNAL_NAME = "journal.jsonl"
MANIFEST_NAME = "run.json"

_MISS = object()


class RunJournalError(RuntimeError):
    """Journal misuse: unreadable entries, or a fresh run over an old journal."""


def recipe_hash(worker, args: tuple) -> str:
    """Content-address the computation a batch of tasks performs.

    Covers the worker's qualified name plus its spec arguments (preset,
    protocol spec, sweep value …) so any change that could change results
    invalidates journal entries.  ``Preset.jobs`` is normalized to
    ``None`` first: the worker count is execution policy, not recipe —
    resuming ``--jobs 8`` work with ``--jobs 2`` must reuse every entry.
    """
    normalized = tuple(
        dataclasses.replace(a, jobs=None) if isinstance(a, Preset) else a
        for a in args
    )
    return artifact_key(
        {
            "kind": "replication-recipe",
            "worker": f"{worker.__module__}.{worker.__qualname__}",
            "args": normalized,
        }
    )


def _entry_key(key: tuple, rep: int, seed: int, recipe: str) -> str:
    return json.dumps(
        [list(key), int(rep), int(seed), recipe],
        sort_keys=True,
        separators=(",", ":"),
    )


class RunJournal:
    """Append-only JSONL store of completed per-replication results."""

    def __init__(self, directory: str | Path, *, resume: bool = False):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._index: dict[str, object] = {}
        self.replayed = 0
        self.appended = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and self.path.stat().st_size > 0:
            if not resume:
                raise RunJournalError(
                    f"journal {self.path} already has entries; pass --resume "
                    "to continue that run, or point --journal at a fresh "
                    "directory"
                )
            self._replay()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _replay(self) -> None:
        """Load completed entries; tolerate one torn trailing line.

        A torn trailing line is not only dropped from the index — it is
        truncated from the file before the append handle opens, so the
        resumed run's first entry starts on a clean line boundary.
        Leaving the fragment in place would concatenate the next entry
        onto it, making the merged line unparseable by every later
        ``--resume``.
        """
        lines = self.path.read_bytes().split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        parsed_end = 0  # byte offset just past the last good line's "\n"
        for lineno, line in enumerate(lines, start=1):
            try:
                entry = json.loads(line)
                key = _entry_key(
                    tuple(entry["key"]), entry["rep"], entry["seed"],
                    entry["recipe"],
                )
                result = entry["result"]
            except (
                json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError,
            ) as exc:
                if lineno == len(lines):
                    # The torn write of the crash that this resume is
                    # recovering from: drop it, the task just re-runs.
                    warnings.warn(
                        f"{self.path}:{lineno}: dropping torn trailing "
                        f"journal entry ({exc})",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    with open(self.path, "r+b") as fh:
                        fh.truncate(parsed_end)
                        os.fsync(fh.fileno())
                    break
                raise RunJournalError(
                    f"{self.path}:{lineno}: corrupt journal entry mid-file "
                    f"({exc}); refusing to resume from a damaged journal"
                ) from None
            self._index[key] = result
            parsed_end += len(line) + 1
        self.replayed = len(self._index)

    def lookup(self, key: tuple, rep: int, seed: int, recipe: str):
        """The journaled result for this task, or the ``MISS`` sentinel."""
        return self._index.get(_entry_key(key, rep, seed, recipe), _MISS)

    @staticmethod
    def is_miss(value) -> bool:
        return value is _MISS

    def record(self, key: tuple, rep: int, seed: int, recipe: str, result) -> None:
        """Durably append one completed result (flush + fsync per entry)."""
        entry_key = _entry_key(key, rep, seed, recipe)
        if entry_key in self._index:
            return
        line = json.dumps(
            {
                "key": list(key),
                "rep": int(rep),
                "seed": int(seed),
                "recipe": recipe,
                "result": result,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._index[entry_key] = result
        self.appended += 1

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        with contextlib.suppress(Exception):
            self._fh.close()


@dataclass
class RunContext:
    """One journaled run: its journal and its manifest."""

    journal: RunJournal
    manifest: dict

    def note_recipe(self, key: tuple, recipe: str) -> None:
        self.manifest.setdefault("recipes", {})[json.dumps(list(key))] = recipe

    def write_manifest(self, status: str | None = None) -> None:
        """Atomically publish ``run.json`` (private tmp + ``os.replace``)."""
        if status is not None:
            self.manifest["status"] = status
        self.manifest.update(
            {
                "journal_entries": len(self.journal),
                "replayed_entries": self.journal.replayed,
                "appended_entries": self.journal.appended,
            }
        )
        final = self.journal.directory / MANIFEST_NAME
        tmp = final.with_name(f".tmp-{MANIFEST_NAME}-{os.getpid()}")
        tmp.write_text(json.dumps(self.manifest, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, final)


_ACTIVE: RunContext | None = None


def active() -> RunContext | None:
    """The process-wide journaled-run context, if one is open."""
    return _ACTIVE


@contextlib.contextmanager
def run_context(
    directory: str | Path,
    *,
    resume: bool = False,
    manifest: dict | None = None,
):
    """Open a journaled run and publish it process-wide.

    Installs a ``SIGTERM`` handler that raises :class:`KeyboardInterrupt`
    in the main thread, so CI cancellation and ``kill`` drain in-flight
    results into the journal exactly like Ctrl-C (the previous handler is
    restored on exit).  The manifest is written up front with status
    ``running``, then stamped ``complete`` / ``interrupted`` / ``failed``
    on the way out.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RunJournalError("a journaled run is already active in this process")
    journal = RunJournal(directory, resume=resume)
    ctx = RunContext(
        journal=journal,
        manifest={
            "schema": "repro-run-manifest/1",
            "status": "running",
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "resume": bool(resume),
            **(manifest or {}),
        },
    )
    prev_sigterm = None
    installed_handler = None
    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:

        def _sigterm_to_interrupt(signum, frame):
            if _ACTIVE is ctx:
                raise KeyboardInterrupt(f"terminated by signal {signum}")
            # The run is over, but a handler layered on top (the pool's
            # teardown) kept this one in its chain: act as the handler
            # this one replaced.
            if callable(prev_sigterm):
                prev_sigterm(signum, frame)
            elif prev_sigterm != signal.SIG_IGN:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        with contextlib.suppress(ValueError, OSError):
            prev_sigterm = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
            installed_handler = _sigterm_to_interrupt
    _ACTIVE = ctx
    try:
        ctx.write_manifest()
        yield ctx
    except KeyboardInterrupt:
        with contextlib.suppress(OSError):
            ctx.write_manifest("interrupted")
        raise
    except BaseException:
        # Best-effort stamp: if the manifest itself is unwritable (ENOSPC,
        # read-only dir) the original failure must still propagate.
        with contextlib.suppress(OSError):
            ctx.write_manifest("failed")
        raise
    else:
        ctx.write_manifest("complete")
    finally:
        _ACTIVE = None
        journal.close()
        if installed_handler is not None:
            with contextlib.suppress(ValueError, OSError):
                # Only restore if still ours — the pool's SIGTERM-teardown
                # handler may have been layered on top mid-run.
                if signal.getsignal(signal.SIGTERM) is installed_handler:
                    signal.signal(signal.SIGTERM, prev_sigterm)
