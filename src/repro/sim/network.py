"""Underlay network models.

The overlay protocols only ever see *hosts* and inter-host delays; the
underlay decides what those delays are and which physical links an overlay
hop consumes.  Two concrete models mirror the paper's two environments:

* :class:`repro.sim.sparse.SparseUnderlay` — a router-level CSR graph
  (transit-stub for Chapter 3) with hosts attached to stub routers
  through access links.  Supports per-physical-link *stress* accounting
  (eq. 3.4) because multiple overlay hops share router links.
* :class:`MatrixUnderlay` — a host-level RTT matrix (the PlanetLab
  emulation of Chapter 5).  Physical paths are opaque, so resource usage is
  measured as the summed latency of used overlay links (Section 5.3), which
  is exactly how the paper measured it on PlanetLab.

Both expose the same :class:`Underlay` interface, so sessions, protocols,
and metrics are substrate-agnostic.

Hot-path caching: underlay paths are immutable after construction, yet the
metric collectors and the delivery accountant re-query the same host pairs
on every measurement window.  The router-graph engine therefore memoizes
``delay_ms`` / ``path_links`` / ``path_error`` per ordered host pair, and
:class:`MatrixUnderlay` precomputes its one-way delay matrix.  A memo hit
returns the very object the miss computed, so the caches are invisible to
callers; ``tests/test_parallel_harness.py`` pins miss ``==`` hit.

Router-graph input is refused at construction through two module-level
checks, :func:`_per_host` for access links and :func:`_check_links` for
router links; the tests' lazy networkx oracle (``tests/lazy_underlay.py``)
runs the same two.  An unreachable host pair raises :class:`NoRouteError`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Hashable, Sequence

import numpy as np

__all__ = ["Underlay", "MatrixUnderlay", "NoRouteError"]

LinkId = Hashable

#: minimum path length before the loss product switches to numpy —
#: below this, the pure-python loop is faster than array setup.
_VECTORIZE_MIN_LINKS = 8


class Underlay(ABC):
    """Abstract substrate: host-to-host delays and physical-path accounting."""

    @property
    @abstractmethod
    def hosts(self) -> Sequence[int]:
        """All host identifiers that can participate in an overlay."""

    @abstractmethod
    def delay_ms(self, a: int, b: int) -> float:
        """One-way latency between hosts ``a`` and ``b`` in milliseconds."""

    @abstractmethod
    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        """Physical links traversed by unicast traffic from ``a`` to ``b``."""

    @abstractmethod
    def link_delay(self, link: LinkId) -> float:
        """One-way latency of a single physical link."""

    @abstractmethod
    def link_error(self, link: LinkId) -> float:
        """Loss probability of a single physical link."""

    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time between two hosts."""
        return 2.0 * self.delay_ms(a, b)

    def delay_row(self, a: int) -> list[float] | None:
        """Host ``a``'s full delay row indexed *by host id*, or ``None``.

        Substrates that hold a materialized delay matrix and whose host
        ids coincide with matrix indices return the row list; every
        other substrate returns ``None`` and callers fall back to
        per-pair :meth:`delay_ms`.  A returned row must be treated as
        read-only, and ``row[b]`` is bit-identical to ``delay_ms(a, b)``
        for every valid ``b``.
        """
        return None

    def host_domain(self, host: int) -> int | None:
        """The transit domain serving ``host``, or ``None`` when unknown.

        Correlated fault plans (whole-domain outages, partitions) need to
        group hosts by underlay domain; substrates without a router
        topology — or router graphs without transit-stub attributes —
        answer ``None`` and such plans fail loudly with
        :class:`~repro.sim.faults.UnsupportedFaultPlan`.
        """
        self.validate_host(host)
        return None

    def path_error(self, a: int, b: int) -> float:
        """End-to-end loss probability of the unicast path from a to b."""
        return self._compute_path_error(self.path_links(a, b))

    def _compute_path_error(self, links: Sequence[LinkId]) -> float:
        errors = [self.link_error(link) for link in links]
        if len(errors) >= _VECTORIZE_MIN_LINKS:
            return float(1.0 - np.prod(1.0 - np.asarray(errors)))
        success = 1.0
        for error in errors:
            success *= 1.0 - error
        return 1.0 - success

    def validate_host(self, host: int) -> None:
        if host not in self._host_set():
            raise KeyError(f"unknown host {host!r}")

    def _host_set(self) -> frozenset[int]:
        cached = getattr(self, "_host_set_cache", None)
        if cached is None:
            cached = frozenset(self.hosts)
            self._host_set_cache = cached
        return cached


class NoRouteError(Exception):
    """No path joins the two endpoints: the routers lie in different
    components of the router graph."""


def _per_host(
    hosts: Sequence[int],
    value: float | dict[int, float],
    what: str,
    upper: float = math.inf,
) -> dict[int, float]:
    """``value`` — a scalar, or a mapping covering every host — as a
    per-host dict whose every entry is finite and in ``[0, upper]``."""
    if isinstance(value, dict):
        missing = set(hosts) - set(value)
        if missing:
            raise KeyError(f"missing per-host values for hosts {sorted(missing)}")
        values = {h: float(value[h]) for h in hosts}
    else:
        values = dict.fromkeys(hosts, float(value))
    for host, v in values.items():
        if not (math.isfinite(v) and 0.0 <= v <= upper):
            raise ValueError(
                f"{what} of host {host} must be finite and in "
                f"[0, {upper}], got {v}"
            )
    return values


def _split_link(link: LinkId) -> tuple[object, tuple]:
    """Split a link id into (kind, payload), raising the documented
    ``KeyError`` for ids of the wrong shape instead of a bare
    ``ValueError``/``TypeError`` from tuple unpacking."""
    if not isinstance(link, tuple) or not link:
        raise KeyError(f"unknown link id {link!r}")
    return link[0], link[1:]


def _check_links(edge_u, edge_v, delay, error=None) -> None:
    """Refuse illegal router links: the router-link twin of
    :func:`_per_host`.

    Every delay must be finite and ``>= 0`` (a negative one never lets
    Dijkstra settle; ``nan``/``inf`` would surface as a missing route at
    query time), every error finite and in ``[0, 1]``, and each undirected
    link given once, in either orientation (the CSR would sum a
    duplicate's delays).  Endpoints are router indices.
    """
    u = np.asarray(edge_u, dtype=np.int64)
    v = np.asarray(edge_v, dtype=np.int64)
    delay = np.asarray(delay, dtype=np.float64)
    legal_delay = np.isfinite(delay) & (delay >= 0.0)
    checks = [(delay, "delay", legal_delay, "finite and >= 0")]
    if error is not None:
        error = np.asarray(error, dtype=np.float64)
        if error.shape != delay.shape:
            raise ValueError("edge errors must match the edge triplets in length")
        checks.append((error, "error", (error >= 0.0) & (error <= 1.0), "in [0, 1]"))
    for values, what, ok, rule in checks:
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(
                f"{what} of router link ({u[i]}, {v[i]}) must be {rule}, "
                f"got {values[i]}"
            )
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * (int(hi.max(initial=0)) + 1) + hi
    unique, first, counts = np.unique(keys, return_index=True, return_counts=True)
    if unique.size != keys.size:
        i = int(first[np.argmax(counts > 1)])
        raise ValueError(f"router link ({lo[i]}, {hi[i]}) is given more than once")


def _check_entries(matrix: np.ndarray, ok: np.ndarray, what: str, rule: str) -> None:
    """Refuse the first matrix entry where ``ok`` is false, by position."""
    if not ok.all():
        i, j = np.unravel_index(int(np.argmin(ok)), ok.shape)
        raise ValueError(
            f"{what} matrix entry ({i}, {j}) must be {rule}, got {matrix[i, j]}"
        )


class MatrixUnderlay(Underlay):
    """Host-level substrate defined by a pairwise RTT matrix.

    Used for the PlanetLab emulation: each host pair is one opaque "link"
    whose delay is half the measured RTT.  Optionally carries a pairwise
    loss-probability matrix.
    """

    def __init__(
        self,
        rtt_ms: np.ndarray,
        *,
        host_ids: Sequence[int] | None = None,
        loss: np.ndarray | None = None,
    ) -> None:
        rtt_arr = np.asarray(rtt_ms, dtype=float)
        if rtt_arr.ndim != 2 or rtt_arr.shape[0] != rtt_arr.shape[1]:
            raise ValueError(f"rtt matrix must be square, got shape {rtt_arr.shape}")
        _check_entries(rtt_arr, np.isfinite(rtt_arr), "rtt", "finite")
        if loss is not None:
            loss = np.asarray(loss, dtype=float)
            if loss.shape != rtt_arr.shape:
                raise ValueError("loss matrix shape must match rtt matrix")
            # NaN fails both comparisons, so it is refused here too.
            _check_entries(loss, (loss >= 0.0) & (loss <= 1.0), "loss", "in [0, 1]")
        if not np.allclose(rtt_arr, rtt_arr.T):
            raise ValueError("rtt matrix must be symmetric")
        if np.any(rtt_arr < 0):
            raise ValueError("rtt matrix must be non-negative")
        if np.any(np.diag(rtt_arr) != 0):
            raise ValueError("rtt matrix diagonal must be zero")
        n = rtt_arr.shape[0]
        if host_ids is None:
            host_ids = list(range(n))
        if len(host_ids) != n:
            raise ValueError(
                f"host_ids length {len(host_ids)} != matrix size {n}"
            )
        self._rtt = rtt_arr
        # One-way delays, precomputed once (0.5 scaling is exact in IEEE
        # floats, so this matches the historical per-call division bit for
        # bit while keeping the hot path a plain array load).
        self._delay = rtt_arr * 0.5
        # Nested-list mirrors of both matrices: a Python list-of-lists
        # subscript is several times cheaper than a numpy scalar index,
        # and ``tolist()`` yields the exact same Python floats that
        # ``float(arr[i, j])`` would.  delay_ms/rtt_ms are the hottest
        # calls in a session (one per message leg, one per probe).
        self._delay_rows = self._delay.tolist()
        self._rtt_rows = rtt_arr.tolist()
        self._loss = loss
        # The matrix substrate holds the full loss table, so "is the
        # whole substrate loss-free" is global knowledge available up
        # front — consumers (delivery accounting) short-circuit on it.
        self._zero_error = loss is None or not bool(loss.any())
        self._hosts = list(host_ids)
        self._index = {h: i for i, h in enumerate(self._hosts)}
        if len(self._index) != n:
            raise ValueError("host_ids must be unique")
        # Host ids usually coincide with matrix indices (PlanetLab hosts
        # are numbered 0..n-1); when they do, whole rows can be handed to
        # bulk readers via delay_row without per-call id translation.
        self._ids_are_indices = all(h == i for i, h in enumerate(self._hosts))

    @property
    def hosts(self) -> Sequence[int]:
        return self._hosts

    def delay_ms(self, a: int, b: int) -> float:
        try:
            return self._delay_rows[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None

    def rtt_ms(self, a: int, b: int) -> float:
        # Overrides the base-class ``2 * delay_ms`` chain with a single
        # subscript; ``2.0 * (rtt * 0.5) == rtt`` exactly in IEEE floats,
        # so the value is unchanged.  This is the default virtual-distance
        # metric, called once per probe.
        try:
            return self._rtt_rows[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None

    @property
    def zero_error(self) -> bool:
        """Whether the substrate is globally loss-free (no loss matrix)."""
        return self._zero_error

    def delay_row(self, a: int) -> list[float] | None:
        if not self._ids_are_indices:
            return None
        try:
            return self._delay_rows[self._index[a]]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None

    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            return ()
        lo, hi = (a, b) if a <= b else (b, a)
        return (("pair", lo, hi),)

    def _pair_of(self, link: LinkId) -> tuple[int, int]:
        """Unpack a ``("pair", a, b)`` link id, raising the documented
        ``KeyError`` on malformed ids (wrong kind *or* wrong arity)."""
        if (
            not isinstance(link, tuple)
            or len(link) != 3
            or link[0] != "pair"
        ):
            raise KeyError(f"unknown link id {link!r}")
        return link[1], link[2]

    def link_delay(self, link: LinkId) -> float:
        a, b = self._pair_of(link)
        return self.delay_ms(a, b)

    def link_error(self, link: LinkId) -> float:
        a, b = self._pair_of(link)
        if self._loss is None:
            return 0.0
        try:
            return float(self._loss[self._index[a], self._index[b]])
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None
