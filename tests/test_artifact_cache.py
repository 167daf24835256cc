"""The content-addressed substrate artifact cache (repro.util.artifacts).

Covers the storage contract the substrate builders lean on: stable
content addressing, atomic publication under concurrent writers,
corruption self-healing, LRU (not FIFO) eviction, and the environment
knobs (``REPRO_CACHE_DIR``, ``REPRO_SUBSTRATE_CACHE``,
``REPRO_CACHE_MAX_BYTES``).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.topology.linkmodel import LinkErrorConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util import artifacts
from repro.util.artifacts import (
    Artifact,
    artifact_key,
    evict_to_cap,
    load_artifact,
    store_artifact,
)


@pytest.fixture
def cache_root(tmp_path):
    return tmp_path / "cache"


def _arrays():
    return {
        "delay": np.arange(12, dtype=np.float64).reshape(3, 4),
        "pred": np.arange(6, dtype=np.int32).reshape(2, 3),
    }


class TestArtifactKey:
    def test_stable_across_calls(self):
        payload = {"kind": "x", "seed": 7, "cfg": TransitStubConfig()}
        assert artifact_key(payload) == artifact_key(payload)

    def test_is_hex_sha256(self):
        key = artifact_key({"a": 1})
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_insensitive_to_dict_order(self):
        assert artifact_key({"a": 1, "b": 2}) == artifact_key({"b": 2, "a": 1})

    def test_tuple_and_list_collapse(self):
        # canonical JSON renders both as arrays: same recipe, same key
        assert artifact_key({"grid": (1, 2)}) == artifact_key({"grid": [1, 2]})

    def test_numpy_scalars_equal_python_scalars(self):
        assert artifact_key({"n": np.int64(5)}) == artifact_key({"n": 5})

    def test_every_recipe_field_changes_key(self):
        base = {
            "kind": "transit-stub",
            "schema": 1,
            "ts_config": TransitStubConfig(),
            "link_errors": None,
            "seed": 7,
            "n_hosts": 50,
        }
        variants = [
            {**base, "schema": 2},
            {**base, "seed": 8},
            {**base, "n_hosts": 51},
            {**base, "link_errors": LinkErrorConfig(max_error=0.02)},
            {**base, "ts_config": dataclasses.replace(
                TransitStubConfig(), total_nodes=TransitStubConfig().total_nodes + 1
            )},
        ]
        keys = {artifact_key(p) for p in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_dataclass_type_is_part_of_the_key(self):
        # two dataclasses with identical field dicts must not collide
        assert artifact_key({"cfg": TransitStubConfig()}) != artifact_key(
            {"cfg": {f.name: getattr(TransitStubConfig(), f.name)
                     for f in dataclasses.fields(TransitStubConfig)}}
        )


class TestStoreLoadRoundtrip:
    def test_roundtrip_bit_identical(self, cache_root):
        arrays = _arrays()
        key = artifact_key({"t": 1})
        path = store_artifact(key, arrays, {"kind": "test"}, base_dir=cache_root)
        assert path is not None and path.is_dir()
        art = load_artifact(key, base_dir=cache_root)
        assert isinstance(art, Artifact)
        assert art.meta == {"kind": "test"}
        for name, arr in arrays.items():
            np.testing.assert_array_equal(art.arrays[name], arr)
            assert art.arrays[name].dtype == arr.dtype

    def test_loaded_arrays_are_memory_mapped(self, cache_root):
        key = artifact_key({"t": 2})
        store_artifact(key, _arrays(), {}, base_dir=cache_root)
        art = load_artifact(key, base_dir=cache_root)
        assert all(isinstance(a, np.memmap) for a in art.arrays.values())
        # read-only pages: writes must fail rather than corrupt the cache
        with pytest.raises(ValueError):
            art.arrays["delay"][0, 0] = 99.0

    def test_miss_returns_none(self, cache_root):
        assert load_artifact(artifact_key({"absent": True}), base_dir=cache_root) is None

    def test_store_is_idempotent(self, cache_root):
        key = artifact_key({"t": 3})
        first = store_artifact(key, _arrays(), {}, base_dir=cache_root)
        again = store_artifact(key, _arrays(), {}, base_dir=cache_root)
        assert first == again

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(override))
        assert artifacts.cache_dir() == override
        key = artifact_key({"t": 4})
        store_artifact(key, _arrays(), {})
        assert (override / key / "manifest.json").is_file()
        assert load_artifact(key) is not None

    def test_cache_enabled_env(self, monkeypatch):
        monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)
        assert artifacts.cache_enabled()
        for off in ("0", "false", "NO"):
            monkeypatch.setenv(artifacts.CACHE_ENABLED_ENV, off)
            assert not artifacts.cache_enabled()


class TestCorruption:
    def _stored(self, cache_root, tag):
        key = artifact_key({"corrupt": tag})
        store_artifact(key, _arrays(), {"kind": "test"}, base_dir=cache_root)
        return key, cache_root / key

    def test_truncated_array_detected_and_entry_dropped(self, cache_root):
        key, entry = self._stored(cache_root, "truncate")
        payload = (entry / "delay.npy").read_bytes()
        (entry / "delay.npy").write_bytes(payload[: len(payload) // 2])
        assert load_artifact(key, base_dir=cache_root) is None
        assert not entry.exists()  # self-healed: next store repopulates

    def test_garbage_manifest_detected(self, cache_root):
        key, entry = self._stored(cache_root, "manifest")
        (entry / "manifest.json").write_text("{not json")
        assert load_artifact(key, base_dir=cache_root) is None
        assert not entry.exists()

    def test_missing_array_file_detected(self, cache_root):
        key, entry = self._stored(cache_root, "missing")
        os.unlink(entry / "pred.npy")
        assert load_artifact(key, base_dir=cache_root) is None
        assert not entry.exists()

    def test_dtype_drift_detected(self, cache_root):
        key, entry = self._stored(cache_root, "dtype")
        manifest = json.loads((entry / "manifest.json").read_text())
        # same byte count, different advertised layout
        np.save(entry / "delay.npy", np.arange(12, dtype=np.float64).reshape(4, 3))
        (entry / "manifest.json").write_text(json.dumps(manifest))
        assert load_artifact(key, base_dir=cache_root) is None

    def test_rebuild_after_corruption(self, cache_root):
        key, entry = self._stored(cache_root, "rebuild")
        (entry / "manifest.json").write_text("")
        assert load_artifact(key, base_dir=cache_root) is None
        store_artifact(key, _arrays(), {"kind": "test"}, base_dir=cache_root)
        art = load_artifact(key, base_dir=cache_root)
        assert art is not None
        np.testing.assert_array_equal(art.arrays["delay"], _arrays()["delay"])


def _concurrent_store(args):
    root, key = args
    from pathlib import Path

    import numpy as np

    from repro.util.artifacts import store_artifact

    arrays = {
        "delay": np.arange(12, dtype=np.float64).reshape(3, 4),
        "pred": np.arange(6, dtype=np.int32).reshape(2, 3),
    }
    path = store_artifact(key, arrays, {"kind": "race"}, base_dir=Path(root))
    return path is not None


class TestConcurrentWriters:
    def test_racing_writers_leave_one_complete_entry(self, cache_root):
        key = artifact_key({"race": True})
        with multiprocessing.get_context("spawn").Pool(4) as pool:
            results = pool.map(
                _concurrent_store, [(str(cache_root), key)] * 8
            )
        # every call either published or benignly lost the rename race
        assert any(results)
        entries = [p for p in cache_root.iterdir() if not p.name.startswith(".tmp")]
        assert [p.name for p in entries] == [key]
        art = load_artifact(key, base_dir=cache_root)
        assert art is not None
        np.testing.assert_array_equal(art.arrays["delay"], _arrays()["delay"])
        # no abandoned temp directories
        assert not list(cache_root.glob(".tmp-*"))


class TestEviction:
    def _store_n(self, cache_root, n):
        keys = []
        for i in range(n):
            key = artifact_key({"evict": i})
            store_artifact(key, _arrays(), {}, base_dir=cache_root)
            # distinct LRU stamps even on coarse filesystem clocks
            os.utime(cache_root / key / "manifest.json", (i, i))
            keys.append(key)
        return keys

    def test_oldest_entries_evicted_first(self, cache_root):
        keys = self._store_n(cache_root, 4)
        entry_size = sum(
            f.stat().st_size for f in (cache_root / keys[0]).iterdir()
        )
        evicted = evict_to_cap(
            base_dir=cache_root, max_bytes=2 * entry_size + entry_size // 2
        )
        assert evicted == keys[:2]  # oldest first
        assert load_artifact(keys[3], base_dir=cache_root) is not None

    def test_load_touches_lru_clock(self, cache_root):
        keys = self._store_n(cache_root, 3)
        loaded = load_artifact(keys[0], base_dir=cache_root)  # oldest becomes MRU
        assert loaded is not None
        entry_size = sum(
            f.stat().st_size for f in (cache_root / keys[0]).iterdir()
        )
        evicted = evict_to_cap(base_dir=cache_root, max_bytes=entry_size)
        assert keys[0] not in evicted  # survived because the hit refreshed it
        assert keys[1] in evicted and keys[2] in evicted

    def test_keep_shields_fresh_entry(self, cache_root):
        keys = self._store_n(cache_root, 2)
        evicted = evict_to_cap(base_dir=cache_root, max_bytes=1, keep=keys[0])
        assert keys[0] not in evicted
        assert keys[1] in evicted

    def test_store_trims_to_env_cap(self, cache_root, monkeypatch):
        entry_probe = artifact_key({"probe": True})
        store_artifact(entry_probe, _arrays(), {}, base_dir=cache_root)
        entry_size = sum(
            f.stat().st_size for f in (cache_root / entry_probe).iterdir()
        )
        monkeypatch.setenv(
            artifacts.CACHE_MAX_BYTES_ENV, str(entry_size + entry_size // 2)
        )
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(cache_root))
        for i in range(3):
            store_artifact(artifact_key({"cap": i}), _arrays(), {})
        remaining = [p for p in cache_root.iterdir() if p.is_dir()]
        total = sum(
            f.stat().st_size for e in remaining for f in e.iterdir() if f.is_file()
        )
        assert total <= entry_size + entry_size // 2
        # the most recent store always survives its own eviction pass
        assert any(p.name == artifact_key({"cap": 2}) for p in remaining)

    def test_bad_cap_value_raises(self, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_MAX_BYTES_ENV, "soon")
        with pytest.raises(ValueError):
            artifacts.cache_max_bytes()
        monkeypatch.setenv(artifacts.CACHE_MAX_BYTES_ENV, "0")
        with pytest.raises(ValueError):
            artifacts.cache_max_bytes()


class TestGracefulDegradation:
    """A cache that cannot take writes must warn once and degrade, never
    abort the run (PR 5 satellite): the cache is an accelerator, not a
    correctness dependency."""

    @pytest.fixture(autouse=True)
    def _reset_warn_latch(self):
        artifacts._degrade_warned = False
        yield
        artifacts._degrade_warned = False

    def _failing_save(self, errno_value):
        def fail(*a, **k):
            raise OSError(errno_value, os.strerror(errno_value))

        return fail

    def test_enospc_during_save_degrades_with_warning(
        self, cache_root, monkeypatch
    ):
        import errno

        monkeypatch.setattr(np, "save", self._failing_save(errno.ENOSPC))
        with pytest.warns(RuntimeWarning, match="not writable"):
            out = store_artifact(artifact_key({"x": 1}), _arrays(), {},
                                 base_dir=cache_root)
        assert out is None
        # No half-written tmp dirs may survive the failure.
        assert not any(p.name.startswith(".tmp-") for p in cache_root.iterdir())

    def test_degradation_warns_only_once(self, cache_root, monkeypatch):
        import errno
        import warnings as warnings_mod

        monkeypatch.setattr(np, "save", self._failing_save(errno.ENOSPC))
        with pytest.warns(RuntimeWarning):
            store_artifact(artifact_key({"x": 1}), _arrays(), {},
                           base_dir=cache_root)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")  # a second warning would raise
            assert store_artifact(artifact_key({"x": 2}), _arrays(), {},
                                  base_dir=cache_root) is None

    def test_readonly_root_degrades_at_mkdir(self, tmp_path, monkeypatch):
        import errno

        real_mkdir = os.makedirs

        def refuse(path, *a, **k):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr("pathlib.Path.mkdir",
                            lambda self, *a, **k: refuse(self))
        with pytest.warns(RuntimeWarning, match="not writable"):
            out = store_artifact(artifact_key({"ro": 1}), _arrays(), {},
                                 base_dir=tmp_path / "ro-cache")
        assert out is None
        assert real_mkdir is os.makedirs  # only Path.mkdir was patched

    def test_unrelated_oserror_still_raises(self, cache_root, monkeypatch):
        import errno

        monkeypatch.setattr(np, "save", self._failing_save(errno.EIO))
        with pytest.raises(OSError):
            store_artifact(artifact_key({"x": 3}), _arrays(), {},
                           base_dir=cache_root)

    def test_load_tolerates_failed_utime(self, cache_root, monkeypatch):
        key = artifact_key({"hit": 1})
        store_artifact(key, _arrays(), {"m": 1}, base_dir=cache_root)

        def refuse_utime(*a, **k):
            raise PermissionError("read-only cache")

        monkeypatch.setattr(os, "utime", refuse_utime)
        loaded = load_artifact(key, base_dir=cache_root)
        assert loaded is not None
        assert loaded.meta == {"m": 1}

