"""Deterministic random-number plumbing.

Every stochastic component in the library accepts an explicit
:class:`numpy.random.Generator`.  Experiments derive per-replication,
per-component generators with :func:`spawn_rng` so that

* runs replay bit-identically for a given experiment seed, and
* changing the replication count or adding a component does not perturb the
  streams of unrelated components (each stream is keyed, not sequential).
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable

import numpy as np

__all__ = ["RngLike", "check_seed", "rng_from_seed", "spawn_rng"]

#: what :func:`rng_from_seed` turns into a Generator
RngLike = int | np.random.Generator | Callable[[], np.random.Generator] | None


def rng_from_seed(seed: RngLike) -> np.random.Generator:
    """Coerce ``seed`` into a Generator.

    ``None`` produces a nondeterministic generator; an existing Generator is
    returned unchanged; a zero-argument callable is a *deferred* stream —
    typically ``functools.partial(spawn_rng, seed, *keys)``, handed over by
    a caller that knows the key path but not whether anyone will draw — and
    is built here; anything else is treated as an integer seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if callable(seed):
        return seed()
    return np.random.default_rng(seed)


# Key strings repeat heavily (every replication re-derives the same
# component streams), so the byte-wise FNV fold is memoized.  The cached
# value is exactly what the loop would produce, so streams are unchanged.
_KEY_HASHES: dict[str, int] = {}


def _hash_key(key: str) -> int:
    acc = _KEY_HASHES.get(key)
    if acc is None:
        acc = 2166136261  # FNV-1a
        for byte in key.encode("utf-8"):
            acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
        _KEY_HASHES[key] = acc
    return acc


def check_seed(value: object, position: str = "seed") -> int:
    """Return a seed or integer key as an ``int``, refusing what ``int()``
    would silently truncate onto another seed's stream.

    Integers (numpy ones included) and whole floats are accepted; a bool,
    NaN, an infinity or a fractional float is a ``ValueError`` naming
    ``position``.
    """
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{position} must be an integer or a whole float, got {value!r}")


def spawn_rng(seed: int, *keys: int | str) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a key path.

    String keys are hashed stably (not with :func:`hash`, which is salted per
    process) so the same key path always yields the same stream.  The seed
    and integer keys go through :func:`check_seed`.
    """
    ints: list[int] = [check_seed(seed) & 0xFFFFFFFF]
    for i, key in enumerate(keys):
        if isinstance(key, str):
            ints.append(_hash_key(key))
        else:
            ints.append(check_seed(key, f"key {i}") & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(ints))
