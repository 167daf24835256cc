"""Content-addressed on-disk artifact cache for compiled substrates.

Substrates are deterministic functions of their configuration, so the
expensive part of building one — topology generation plus the batched
all-pairs Dijkstra of :mod:`repro.sim.compiled` — can be done once and
reused by every later process.  This module provides the storage layer:

* **Keying** — :func:`artifact_key` hashes a canonical-JSON rendering of
  the full build recipe (topology config, seed, link-error config,
  attachment parameters, code schema version) with SHA-256.  Any change
  to any input, or a bump of the schema version, yields a new key; stale
  entries are never read, only evicted.
* **Layout** — one directory per key under the cache root, holding one
  ``<name>.npy`` per compiled array plus a ``manifest.json`` describing
  the expected shape, dtype, and byte size of each array.  Plain ``.npy``
  files (rather than a bundled ``.npz``) are what make ``mmap_mode="r"``
  genuinely memory-map: the OS page cache then shares the read-only
  pages across every process that loads the same artifact, including
  fork- and spawn-started pool workers.
* **Sharding** — arrays larger than ``REPRO_SHARD_BYTES`` (default
  256 MiB) are split into row-block ``<name>.shardNNNN.npy`` files
  instead of one blob.  Loads reassemble them as a :class:`ShardedArray`
  — a row-addressable view over the mmapped blocks — so a multi-GiB
  substrate never needs one contiguous allocation and pool workers share
  pages per block.  Values are unchanged; sharding is pure layout.
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
  are still compiled in memory);
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
    "ShardedArray",
    "artifact_key",
    "cache_dir",
    "cache_enabled",
    "cache_max_bytes",
    "evict_to_cap",
    "load_artifact",
    "shard_bytes",
    "store_artifact",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_ENABLED_ENV = "REPRO_SUBSTRATE_CACHE"
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
SHARD_BYTES_ENV = "REPRO_SHARD_BYTES"

DEFAULT_CACHE_DIR = ".repro_cache"
DEFAULT_MAX_BYTES = 2 * 1024**3
DEFAULT_SHARD_BYTES = 256 * 1024**2

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


def shard_bytes() -> int:
    """Row-block shard threshold/size (``REPRO_SHARD_BYTES``, default 256 MiB).

    Arrays whose total size exceeds this are stored as row-block shards
    of at most this many bytes each (always whole rows per shard).
    """
    raw = os.environ.get(SHARD_BYTES_ENV, "").strip()
    if not raw:
        return DEFAULT_SHARD_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{SHARD_BYTES_ENV} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{SHARD_BYTES_ENV} must be > 0, got {value}")
    return value


class ShardedArray:
    """Row-addressable view over the mmapped row-block shards of one array.

    Supports exactly the access patterns the substrate runtime uses —
    ``arr[i]`` (one row), ``arr[i, j]`` / ``arr[i, cols]`` (row then
    column index), ``len``, ``np.asarray(arr)`` (materialize, small
    arrays/tests only).  Each shard stays an independent read-only mmap,
    so no contiguous allocation of the full array ever happens.
    """

    def __init__(self, shards: list[np.ndarray], shape, dtype) -> None:
        self._shards = shards
        starts = np.zeros(len(shards) + 1, dtype=np.int64)
        np.cumsum([s.shape[0] for s in shards], out=starts[1:])
        self._starts = starts
        self.shape = tuple(int(d) for d in shape)
        self.dtype = np.dtype(dtype)

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self._shards)

    def _locate(self, row: int) -> tuple[np.ndarray, int]:
        row = int(row)
        if row < 0:
            row += self.shape[0]
        if not 0 <= row < self.shape[0]:
            raise IndexError(f"row {row} out of range for shape {self.shape}")
        k = int(np.searchsorted(self._starts, row, side="right")) - 1
        return self._shards[k], row - int(self._starts[k])

    def __getitem__(self, index):
        if isinstance(index, tuple):
            shard, local = self._locate(index[0])
            return shard[(local, *index[1:])]
        shard, local = self._locate(index)
        return shard[local]

    def __array__(self, dtype=None, copy=None):
        full = np.concatenate([np.asarray(s) for s in self._shards], axis=0)
        return full.astype(dtype) if dtype is not None else full


def _jsonable(value):
    """Render key-payload values canonically (dataclasses, tuples, numpy)."""
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
    return value


def artifact_key(payload: dict) -> str:
    """SHA-256 of the canonical JSON rendering of ``payload``.

    The payload must spell out *everything* the compiled arrays depend
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
    """A loaded cache entry: metadata plus memory-mapped arrays.

    Arrays stored as row-block shards come back as :class:`ShardedArray`
    views; everything else is a plain read-only mmap.
    """

    key: str
    meta: dict
    arrays: dict[str, "np.ndarray | ShardedArray"]


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
        "substrates only — compiled arrays will not persist across "
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
    shard_cap = shard_bytes()
    try:
        manifest_arrays = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            row_bytes = arr[0].nbytes if arr.ndim >= 1 and arr.shape[0] else 0
            if (
                arr.ndim >= 1
                and arr.nbytes > shard_cap
                and 0 < row_bytes <= shard_cap
            ):
                rows_per_shard = max(1, shard_cap // row_bytes)
                shards = []
                for snum, start in enumerate(
                    range(0, arr.shape[0], rows_per_shard)
                ):
                    block = arr[start : start + rows_per_shard]
                    fname = f"{name}.shard{snum:04d}.npy"
                    np.save(tmp / fname, block)
                    shards.append(
                        {
                            "file": fname,
                            "rows": int(block.shape[0]),
                            "bytes": (tmp / fname).stat().st_size,
                        }
                    )
                manifest_arrays[name] = {
                    "shape": list(arr.shape),
                    "dtype": str(arr.dtype),
                    "shards": shards,
                }
            else:
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
        arrays: dict[str, np.ndarray | ShardedArray] = {}
        for name, spec in described.items():
            if "shards" in spec:
                blocks: list[np.ndarray] = []
                rows = 0
                for shard in spec["shards"]:
                    path = entry / shard["file"]
                    if path.stat().st_size != shard["bytes"]:
                        raise ValueError(f"shard {shard['file']!r} truncated")
                    block = np.load(path, mmap_mode="r")
                    if (
                        block.shape[0] != shard["rows"]
                        or list(block.shape[1:]) != spec["shape"][1:]
                        or str(block.dtype) != spec["dtype"]
                    ):
                        raise ValueError(f"shard {shard['file']!r} layout drift")
                    rows += block.shape[0]
                    blocks.append(block)
                if rows != spec["shape"][0]:
                    raise ValueError(f"array {name!r} shard rows != shape")
                arrays[name] = ShardedArray(blocks, spec["shape"], spec["dtype"])
                continue
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
