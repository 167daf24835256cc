"""Content-addressed on-disk artifact cache for built substrates.

Substrates are deterministic functions of their configuration, so the
expensive part of building one — topology generation and link-error
draws for a router graph, pool synthesis and pairwise RTTs for a
PlanetLab slice — can be done once and reused by every later process.
An artifact holds what a substrate's constructor is given (CSR
triplets, attachments, access links; an RTT matrix), never a V² table
derived from it, so every array is O(E + hosts) or the slice's own
matrix.  This module provides the storage layer:

* **Keying** — :func:`artifact_key` hashes a canonical-JSON rendering of
  the full build recipe (topology config, seed, link-error config,
  attachment parameters, code schema version) with SHA-256.  Any change
  to any input, or a bump of the schema version, yields a new key; stale
  entries are never read, only evicted.
* **Layout** — one directory per key under the cache root, holding one
  ``<name>.npy`` per array plus a ``manifest.json`` describing
  the expected shape, dtype, and byte size of each array.  Plain ``.npy``
  files (rather than a bundled ``.npz``) are what make ``mmap_mode="r"``
  genuinely memory-map: the OS page cache then shares the read-only
  pages across every process that loads the same artifact, including
  fork- and spawn-started pool workers.
* **Atomicity** — writers build the entry in a private temporary
  directory and publish it with a single :func:`os.rename`.  Concurrent
  writers race benignly: the first rename wins, the loser discards its
  copy, and readers only ever see complete entries.
* **Corruption detection** — a manifest that fails to parse, a missing
  array file, a byte-size/shape/dtype mismatch, or an ``np.load``
  failure causes the whole entry to be deleted and ``None`` returned, so
  the caller transparently rebuilds and re-stores.
* **Graceful degradation** — a cache that cannot take writes (full
  disk, exceeded quota, read-only or permission-restricted directory)
  warns once and degrades to in-memory operation; hits from a read-only
  cache still load even though their LRU mtime cannot be touched.  The
  cache is an accelerator, never a correctness dependency.
* **Eviction** — after every store the cache is trimmed to
  ``REPRO_CACHE_MAX_BYTES`` (default 2 GiB) by removing the
  least-recently-*used* entries; :func:`load_artifact` touches the
  manifest mtime on every hit, making the policy LRU rather than FIFO.

Environment knobs (also see ``--no-substrate-cache`` on the harness CLI):

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro_cache`` in the
  current working directory);
* ``REPRO_SUBSTRATE_CACHE=0`` — disable reads *and* writes (substrates
  are still built in memory);
* ``REPRO_CACHE_MAX_BYTES`` — eviction cap in bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import shutil
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Artifact",
    "artifact_key",
    "cache_dir",
    "cache_enabled",
    "cache_max_bytes",
    "evict_to_cap",
    "load_artifact",
    "store_artifact",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_ENABLED_ENV = "REPRO_SUBSTRATE_CACHE"
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

DEFAULT_CACHE_DIR = ".repro_cache"
DEFAULT_MAX_BYTES = 2 * 1024**3

_MANIFEST = "manifest.json"
_FALSE_VALUES = ("0", "false", "no")


def cache_enabled() -> bool:
    """Whether the on-disk substrate cache is enabled (default on)."""
    return os.environ.get(CACHE_ENABLED_ENV, "1").lower() not in _FALSE_VALUES


def cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` or ``.repro_cache`` under the cwd."""
    return Path(os.environ.get(CACHE_DIR_ENV, "").strip() or DEFAULT_CACHE_DIR)


def cache_max_bytes() -> int:
    """Eviction cap in bytes (``REPRO_CACHE_MAX_BYTES``, default 2 GiB)."""
    raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{CACHE_MAX_BYTES_ENV} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{CACHE_MAX_BYTES_ENV} must be > 0, got {value}")
    return value


def _jsonable(value):
    """Render key-payload values canonically (dataclasses, tuples, numpy,
    functions)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if callable(value):
        # a protocol row's decision and policy functions: module-level
        # functions, named by what they are
        return f"{value.__module__}.{value.__qualname__}"
    return value


def artifact_key(payload: dict) -> str:
    """SHA-256 of the canonical JSON rendering of ``payload``.

    The payload must spell out *everything* the stored arrays depend
    on — config dataclasses, seeds, and the code schema version — so the
    key is a complete content address: equal keys imply bit-identical
    artifacts, and any recipe change misses cleanly.
    """
    canonical = json.dumps(
        _jsonable(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Artifact:
    """A loaded cache entry: metadata plus read-only memory-mapped arrays."""

    key: str
    meta: dict
    arrays: dict[str, np.ndarray]


def _entry_dir(key: str, base_dir: Path | None) -> Path:
    return (base_dir if base_dir is not None else cache_dir()) / key


def _drop_entry(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


#: errno values that mean "this cache location cannot accept writes right
#: now" — full disk, quota, read-only or permission-restricted mount.  A
#: cache is an accelerator, never a correctness dependency, so these
#: degrade to a warning + in-memory operation instead of aborting the run.
_DEGRADE_ERRNOS = frozenset(
    getattr(errno, name)
    for name in ("ENOSPC", "EDQUOT", "EROFS", "EACCES", "EPERM")
    if hasattr(errno, name)
)

_degrade_warned = False


def _warn_degraded(exc: OSError) -> None:
    global _degrade_warned
    if _degrade_warned:
        return
    _degrade_warned = True
    warnings.warn(
        f"substrate cache at {cache_dir()} is not writable "
        f"({exc.__class__.__name__}: {exc}); continuing with in-memory "
        "substrates only — built arrays will not persist across "
        "processes this run",
        RuntimeWarning,
        stacklevel=4,
    )


def store_artifact(
    key: str,
    arrays: dict[str, np.ndarray],
    meta: dict,
    *,
    base_dir: Path | None = None,
) -> Path | None:
    """Atomically publish ``arrays`` + ``meta`` under ``key``.

    Returns the entry path, or ``None`` when a concurrent writer won the
    rename race (their entry is byte-identical by keying discipline, so
    losing is free) **or** when the cache location cannot take writes —
    full disk, exceeded quota, read-only or unwritable directory.  The
    latter warns once per process and degrades to in-memory operation:
    callers already treat ``None`` as "keep your arrays", so a dying disk
    costs persistence, never the run.  Trims the cache to the size cap
    after a successful store.
    """
    root = base_dir if base_dir is not None else cache_dir()
    final = root / key
    if final.exists():
        return final
    tmp = root / f".tmp-{key[:16]}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    try:
        tmp.mkdir(parents=True)
    except OSError as exc:
        if exc.errno in _DEGRADE_ERRNOS:
            _warn_degraded(exc)
            return None
        raise
    try:
        manifest_arrays = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            np.save(tmp / f"{name}.npy", arr)
            manifest_arrays[name] = {
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
                "bytes": (tmp / f"{name}.npy").stat().st_size,
            }
        manifest = {"key": key, "meta": meta, "arrays": manifest_arrays}
        (tmp / _MANIFEST).write_text(json.dumps(manifest, indent=1))
        try:
            os.rename(tmp, final)
        except OSError:
            # Another writer published this key between our existence
            # check and the rename; keep theirs.
            _drop_entry(tmp)
            return None
    except OSError as exc:
        _drop_entry(tmp)
        if exc.errno in _DEGRADE_ERRNOS:
            _warn_degraded(exc)
            return None
        raise
    except BaseException:
        _drop_entry(tmp)
        raise
    evict_to_cap(base_dir=root, keep=key)
    return final


def load_artifact(key: str, *, base_dir: Path | None = None) -> Artifact | None:
    """Load the entry for ``key`` with ``mmap_mode="r"``, or ``None``.

    Any inconsistency — unparsable manifest, missing or truncated array
    file, shape/dtype drift — deletes the entry and reports a miss, so a
    corrupted cache heals itself on the next store.  A successful load
    touches the manifest mtime (the LRU clock).
    """
    entry = _entry_dir(key, base_dir)
    manifest_path = entry / _MANIFEST
    if not manifest_path.is_file():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
        described = manifest["arrays"]
        arrays: dict[str, np.ndarray] = {}
        for name, spec in described.items():
            path = entry / f"{name}.npy"
            if path.stat().st_size != spec["bytes"]:
                raise ValueError(f"array {name!r} has unexpected size")
            arr = np.load(path, mmap_mode="r")
            if list(arr.shape) != spec["shape"] or str(arr.dtype) != spec["dtype"]:
                raise ValueError(f"array {name!r} has unexpected layout")
            arrays[name] = arr
        meta = manifest["meta"]
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        _drop_entry(entry)
        return None
    with contextlib.suppress(OSError):
        # The LRU clock is best-effort: a read-only cache dir (shared CI
        # cache, root-owned mount) must still serve hits.
        os.utime(manifest_path)
    return Artifact(key=key, meta=meta, arrays=arrays)


def _entry_size(entry: Path) -> int:
    return sum(f.stat().st_size for f in entry.iterdir() if f.is_file())


def evict_to_cap(
    *,
    base_dir: Path | None = None,
    max_bytes: int | None = None,
    keep: str | None = None,
) -> list[str]:
    """Delete least-recently-used entries until the cache fits the cap.

    ``keep`` shields one key (the entry just written) from eviction even
    if the cap is smaller than that single entry.  Returns the evicted
    keys, oldest first.
    """
    root = base_dir if base_dir is not None else cache_dir()
    cap = max_bytes if max_bytes is not None else cache_max_bytes()
    if not root.is_dir():
        return []
    entries = []
    for entry in root.iterdir():
        manifest = entry / _MANIFEST
        if not entry.is_dir() or not manifest.is_file():
            continue  # tmp dirs and strangers are not evictable entries
        try:
            entries.append((manifest.stat().st_mtime, entry, _entry_size(entry)))
        except OSError:
            continue
    total = sum(size for _, _, size in entries)
    evicted: list[str] = []
    for _, entry, size in sorted(entries, key=lambda item: item[0]):
        if total <= cap:
            break
        if entry.name == keep:
            continue
        _drop_entry(entry)
        total -= size
        evicted.append(entry.name)
    return evicted
