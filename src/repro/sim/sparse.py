"""The router-graph engine: a CSR graph and on-demand Dijkstra rows.

:class:`SparseUnderlay` serves every transit-stub substrate the builders
make, from the paper's 792 routers to 10⁵-router scale cells.  It keeps
the underlay as a CSR graph end to end and answers every query from
**Dijkstra rows computed on first use**, held in one bounded LRU **row
store** that lives as long as the underlay does.  There is no V² matrix:
peak memory is O(E + store · V).

Exactness discipline (DESIGN.md §7): every query is answered
**byte-identically** to the tests' lazy networkx oracle
(``tests/lazy_underlay.py``) on the same graph: the CSR matrix holds the
same canonicalized values ``networkx.to_scipy_sparse_array`` produces,
scipy's Dijkstra is deterministic on it, and the float association of
``delay_ms`` (``(access_a + base) + access_b``) is copied verbatim.  The
equivalence suite in ``tests/test_sparse_underlay.py`` pins this.

The per-ordered-pair memo dicts mirror the oracle's but are
*bounded*: at scale the set of queried pairs is itself O(members ·
probes), so each memo clears itself at ``_PAIR_MEMO_CAP`` entries — a
transparent cache policy, never a correctness knob.

The row store: one ``router → (dist, pred | None)`` LRU per underlay,
read and filled through a single lookup (:meth:`SparseUnderlay._lookup`)
by every row consumer.  A row is computed once per underlay, not once
per call: a session's queries, a tree walk, its metrics pass and a Prim
pass on the same underlay share their rows.  Its capacity is the input
size's answer, not a knob: ``_RETAIN_BYTES`` divided by the row size.
When the rows of all attachment routers, with predecessors, fit that
budget — every paper-size substrate — the constructor installs a
standing :class:`RowPlan` over them, so the first lookup computes them
in multi-source blocks and the store then answers every host query.  A
caller that knows its source routers up front — the static-join walk
knows the whole join order before the first query — replaces that plan
with its own through :meth:`SparseUnderlay.prefetch_rows`, which may
raise the capacity to the plan's byte budget for the rest of the
underlay's life.  A plan adds exactly one thing: a store miss for a
planned source computes that source's whole block (``_PLAN_BLOCK``
sources unless the caller says otherwise) in **one multi-source**
``csgraph.dijkstra`` call, synchronously, skipping the sources the store
already holds.  scipy computes each source of a multi-source call
independently, so a block row is bit-identical to its single-source twin
(pinned in ``tests/test_sparse_underlay.py``).  There is no worker
thread: ``csgraph.dijkstra`` holds the GIL inside the solver
(DESIGN.md §7.2), so a background block would not overlap the walk.
Eviction is only ever a cache policy — an evicted row is recomputed on
its next use, still exact.
"""

from __future__ import annotations

from collections import OrderedDict
from numbers import Integral
from typing import Sequence

import numpy as np
from scipy import sparse as sp
from scipy.sparse import csgraph

from repro.sim.network import (
    LinkId,
    NoRouteError,
    Underlay,
    _check_links,
    _per_host,
    _split_link,
)
from repro.sim.pathtree import routers_along, walk_links
from repro.util.artifacts import Artifact

__all__ = ["SPARSE_SCHEMA", "RowPlan", "SparseUnderlay"]

#: artifact layout version of router-graph substrates (part of every
#: cache key, and checked against ``meta["schema"]`` on load).
SPARSE_SCHEMA = 2

#: the row store's byte budget: its capacity from construction on
#: (``_RETAIN_BYTES // row_bytes`` rows), and the default budget a row
#: plan may raise it to.  256 MiB holds every predecessor row of a
#: paper-size substrate many times over, and ~2.2k of them at 10k routers.
_RETAIN_BYTES = 1 << 28

#: per-ordered-pair memo dicts self-clear at this many entries so a
#: 100k-member walk cannot accumulate unbounded Python-dict state.
_PAIR_MEMO_CAP = 1 << 20

#: sources per multi-source ``csgraph.dijkstra`` call of a
#: :class:`RowPlan` block, unless :meth:`SparseUnderlay.prefetch_rows`
#: is told otherwise (the scale walks and the bench never do).
_PLAN_BLOCK = 64


def _is_index(value, size: int) -> bool:
    """Whether ``value`` is an integral index in ``0 … size−1`` (a bool,
    a float or a negative value is none, whatever it would alias)."""
    return (
        isinstance(value, Integral)
        and not isinstance(value, bool)
        and 0 <= value < size
    )


def _check_size(name: str, value) -> int:
    """``value`` as an int, requiring an integral ``>= 0`` that is no bool."""
    if not _is_index(value, float("inf")):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


class RowPlan:
    """Block scheduler over an ordered source-router plan.

    Built by :meth:`SparseUnderlay.prefetch_rows`; consumed implicitly —
    the underlay's one row lookup consults the active plan on a store
    miss.  The plan holds no rows.  It dedupes its sources to
    first-occurrence order, chunks them into blocks of ``block`` sources,
    and hands each block out **once** (:meth:`claim`): the underlay then
    computes, in one multi-source Dijkstra, whichever of the block's
    sources the row store does not already hold, and lands them in the
    store.  A planned source whose block already ran and whose row has
    since been evicted falls to the demand path like any unplanned one —
    never a block recompute.  ``block == 0`` builds an inert plan (no
    blocks, every store miss is a demand row): the ablation baseline
    rides the same code.

    Counters (a contract: the benchmark and CI read them):

    * ``sources_computed`` — rows this plan actually ran Dijkstra for
      (0 for a plan whose rows were all resident already);
    * ``hits`` — lookups of planned sources answered without a demand row
      (from the store, or by running the source's block);
    * ``misses`` — lookups, planned or not, that fell to the demand path
      while this plan was installed.
    """

    def __init__(
        self, underlay: "SparseUnderlay", sources, *, block: int, predecessors: bool
    ) -> None:
        self._underlay = underlay
        self.block = int(block)
        self.predecessors = bool(predecessors)
        order = list(dict.fromkeys(np.asarray(sources, dtype=np.int64).tolist()))
        self.n_sources = len(order)
        self._blocks: list[list[int]] = (
            [order[i : i + self.block] for i in range(0, len(order), self.block)]
            if self.block > 0
            else []
        )
        self._block_of: dict[int, int] = {
            router: idx for idx, blk in enumerate(self._blocks) for router in blk
        }
        self._ran = [False] * len(self._blocks)
        self.sources_computed = 0
        self.hits = 0
        self.misses = 0

    def claim(self, router: int, need_pred: bool) -> list[int] | None:
        """``router``'s block, the first time it is asked for; else ``None``.

        ``None`` also when the plan cannot serve the lookup at all: an
        unplanned router, or predecessors wanted from a dist-only plan.
        """
        idx = self._block_of.get(router)
        if idx is None or self._ran[idx] or (need_pred and not self.predecessors):
            return None
        self._ran[idx] = True
        return self._blocks[idx]

    def stats(self) -> dict:
        return {
            "block": self.block,
            "blocks": len(self._blocks),
            "planned_sources": self.n_sources,
            "sources_computed": self.sources_computed,
            "hits": self.hits,
            "misses": self.misses,
        }

    def close(self) -> None:
        """Detach from the underlay.  The rows stay in its store."""
        if self._underlay._plan is self:
            self._underlay._plan = None

    def __enter__(self) -> "RowPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SparseUnderlay(Underlay):
    """Hosts attached to routers of a CSR graph; O(E) resident state.

    Router ids must be dense ``0..n_routers-1`` (what
    :func:`repro.topology.transit_stub.generate_transit_stub_arrays`
    emits); each undirected edge appears once in the triplet arrays.
    Illegal links (negative or non-finite delays, errors outside
    ``[0, 1]``, a link given twice) are a ``ValueError`` here, not a
    hang or a wrong answer later.

    ``attachments`` maps host id -> router id (hosts may share a router);
    ``access_delay_ms`` / ``access_error`` give each host's access link,
    as a scalar or a per-host mapping.  ``router_domain`` (per-router transit-domain indices,
    ``-1`` = unknown; one per router) feeds :meth:`host_domain` for
    correlated fault plans.  ``row_cache`` overrides the row store's
    size-derived capacity (tests use it to force eviction).
    """

    def __init__(
        self,
        n_routers: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_delay: np.ndarray,
        attachments: dict[int, int],
        *,
        access_delay_ms: float | dict[int, float] = 0.5,
        access_error: float | dict[int, float] = 0.0,
        edge_error: np.ndarray | None = None,
        router_domain: np.ndarray | None = None,
        row_cache: int | None = None,
    ) -> None:
        if not attachments:
            raise ValueError("attachments must not be empty")
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        edge_delay = np.asarray(edge_delay, dtype=np.float64)
        if not (edge_u.shape == edge_v.shape == edge_delay.shape):
            raise ValueError("edge triplet arrays must have equal length")
        _check_links(edge_u, edge_v, edge_delay, edge_error)
        self.n_routers = int(n_routers)
        if router_domain is not None and np.shape(router_domain) != (n_routers,):
            raise ValueError(
                f"router_domain needs one entry per router ({self.n_routers}), "
                f"got shape {np.shape(router_domain)}"
            )
        for host, router in attachments.items():
            if not 0 <= router < self.n_routers:
                raise KeyError(f"host {host} attached to unknown router {router}")
        self.attachments = dict(attachments)
        self._hosts = sorted(self.attachments)
        self._host_idx = {h: i for i, h in enumerate(self._hosts)}
        self._access_delay = _per_host(self._hosts, access_delay_ms, "access_delay_ms")
        self._access_error = _per_host(self._hosts, access_error, "access_error", 1.0)

        # Canonical symmetric CSR.  coo->csr sorts indices exactly like
        # ``nx.to_scipy_sparse_array`` (and each link is given once, so
        # there is nothing to sum) — so for the same edge set scipy's
        # Dijkstra sees an identical matrix and returns bit-identical
        # dist/pred rows (the exactness anchor).
        both_u = np.concatenate([edge_u, edge_v])
        both_v = np.concatenate([edge_v, edge_u])
        both_d = np.concatenate([edge_delay, edge_delay])
        self._csr = sp.coo_matrix(
            (both_d, (both_u, both_v)), shape=(self.n_routers, self.n_routers)
        ).tocsr()
        if edge_error is not None and np.any(np.asarray(edge_error) != 0.0):
            err = np.asarray(edge_error, dtype=np.float64)
            both_e = np.concatenate([err, err])
            self._err_csr = sp.coo_matrix(
                (both_e, (both_u, both_v)), shape=self._csr.shape
            ).tocsr()
        else:
            self._err_csr = None

        self._router_domain = (
            None if router_domain is None else np.asarray(router_domain, np.int64)
        )

        # The row store: one LRU of (dist, pred | None) Dijkstra rows keyed
        # by source router, shared by every consumer (see ``_lookup``).
        # Capacity is the byte budget over a predecessor row (8-byte
        # distances, 4-byte predecessors per router).
        if row_cache is None:
            row_cache = _RETAIN_BYTES // (12 * self.n_routers)
        self._row_cap = max(1, row_cache)
        self._rows: OrderedDict[int, tuple[np.ndarray, np.ndarray | None]] = (
            OrderedDict()
        )
        # Host-id-indexed delay rows (for collectors), an LRU of lists
        # sized from the same budget: a list slot and a float per host.
        self._hrow_cap = max(8, _RETAIN_BYTES // (32 * len(self._hosts)))
        self._hrows: OrderedDict[int, list[float]] = OrderedDict()
        self._ids_are_indices = all(h == i for i, h in enumerate(self._hosts))
        # The standing plan: when every attachment row fits the store,
        # the first lookup computes them in blocks, as one batched
        # Dijkstra over the attachment routers would — on first use, not
        # at construction.  ``prefetch_rows`` replaces it.
        att_routers = sorted(set(self.attachments.values()))
        self._plan: RowPlan | None = (
            RowPlan(self, att_routers, block=_PLAN_BLOCK, predecessors=True)
            if len(att_routers) <= self._row_cap
            else None
        )
        # Store counters, deterministic per seed (see ``row_stats``).
        self.demand_rows = 0  # single-source demand Dijkstras
        self.plan_rows = 0  # rows computed in plan blocks
        self.evictions = 0
        self.pred_upgrades = 0  # dist-only rows recomputed with predecessors

        self._delay_cache: dict[tuple[int, int], float] = {}
        self._path_cache: dict[tuple[int, int], tuple[LinkId, ...]] = {}
        self._error_cache: dict[tuple[int, int], float] = {}
        # One tuple per link id (see ``path_links``); bounded by links + hosts.
        self._link_ids: dict[LinkId, LinkId] = {}

        self._zero_error = all(
            e == 0.0 for e in self._access_error.values()
        ) and self._err_csr is None

    # -- shared plumbing -----------------------------------------------------

    @property
    def hosts(self) -> Sequence[int]:
        return self._hosts

    @property
    def zero_error(self) -> bool:
        """Whether every link and access error is exactly zero."""
        return self._zero_error

    def router_of(self, host: int) -> int:
        self.validate_host(host)
        return self.attachments[host]

    def host_domain(self, host: int) -> int | None:
        self.validate_host(host)
        if self._router_domain is None:
            return None
        domain = int(self._router_domain[self.attachments[host]])
        return None if domain < 0 else domain

    # -- Dijkstra row machinery ----------------------------------------------

    def _router(self, router) -> int:
        """``router`` as an int, or the ``KeyError`` naming it: ids are
        integral and in ``0 … n_routers−1`` (a numpy int is fine)."""
        # Plain ints first: an ``Integral`` check is an ABC lookup (about
        # 0.5 µs on a 2-vCPU Xeon), and every row lookup comes through here.
        if type(router) is int and 0 <= router < self.n_routers:
            return router
        if not _is_index(router, self.n_routers):
            raise KeyError(f"unknown router {router!r}")
        return int(router)

    def _plan_sources(self, sources):
        """``sources`` checked as router ids (a list or a 1-d integer
        array), or a ``ValueError`` naming the first bad one."""
        n = self.n_routers
        if isinstance(sources, np.ndarray):
            if sources.ndim != 1 or (sources.size and sources.dtype.kind not in "iu"):
                raise ValueError(
                    f"sources must be a 1-d integer array, got {sources.dtype} "
                    f"of shape {sources.shape}"
                )
            bad = sources[(sources < 0) | (sources >= n)].tolist()
        else:
            sources = list(sources)
            bad = [router for router in sources if not _is_index(router, n)]
        if bad:
            raise ValueError(f"sources must be router ids in 0..{n - 1}, got {bad[0]!r}")
        return sources

    def prefetch_rows(
        self,
        sources,
        *,
        block: int | None = None,
        predecessors: bool = False,
        retain_bytes: int = _RETAIN_BYTES,
    ) -> RowPlan:
        """Install a :class:`RowPlan` over an ordered source-router plan.

        ``sources`` is the sequence of source routers the caller will
        query, in order, repeats allowed (the plan dedupes).  ``block``
        overrides ``_PLAN_BLOCK`` (``0`` installs an inert plan: every
        store miss is a demand row); ``predecessors=True`` makes
        the plan's blocks compute predecessor rows too (for path
        expansion), upgrading dist-only rows the store already holds.
        ``retain_bytes`` is the store's byte budget (default
        ``_RETAIN_BYTES``, ~3.3k float64 rows at 10k routers): the
        store's capacity rises to ``max(current, 2·block, retain_bytes //
        row_bytes)`` rows and stays there for the rest of the underlay's
        life.  The plan is a context manager — ``close()`` detaches it
        and drops nothing.  Only one plan is active at a time; installing
        a new one closes the old (the standing plan included).

        ``sources`` must be router ids, and ``block`` and ``retain_bytes``
        integers ``>= 0`` (no bools).  A refusal is a ``ValueError``
        naming the parameter, raised before anything changes: the old
        plan stays installed.
        """
        sources = self._plan_sources(sources)
        block = _PLAN_BLOCK if block is None else _check_size("block", block)
        retain_bytes = _check_size("retain_bytes", retain_bytes)
        if self._plan is not None:
            self._plan.close()
        plan = RowPlan(self, sources, block=block, predecessors=predecessors)
        row_bytes = self.n_routers * (12 if predecessors else 8)
        self._row_cap = max(
            self._row_cap, 2 * plan.block, retain_bytes // max(row_bytes, 1)
        )
        self._plan = plan
        return plan

    def _compute_rows(self, sources: list[int], predecessors: bool) -> None:
        """One (multi-source) Dijkstra; land every row in the store."""
        indices = np.asarray(sources, dtype=np.int64)
        if predecessors:
            dist, pred = csgraph.dijkstra(
                self._csr, directed=False, indices=indices, return_predecessors=True
            )
        else:
            dist = csgraph.dijkstra(self._csr, directed=False, indices=indices)
            pred = None
        rows = self._rows
        for i, router in enumerate(sources):
            if router in rows:
                self.pred_upgrades += 1
            # Copies detach the rows from the (B, V) block matrices so
            # eviction actually frees memory; bits are preserved.
            rows[router] = (dist[i].copy(), None if pred is None else pred[i].copy())
            rows.move_to_end(router)
        while len(rows) > self._row_cap:
            rows.popitem(last=False)
            self.evictions += 1

    def _lookup(
        self, router: int, need_pred: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The one row lookup: the store, else the active plan's block,
        else a single-source demand row.  Every path lands in the store.
        Refuses a bad router id (:meth:`_router`) before any of that."""
        router = self._router(router)
        rows = self._rows
        got = rows.get(router)
        plan = self._plan
        if got is not None and (got[1] is not None or not need_pred):
            rows.move_to_end(router)
            if plan is not None and router in plan._block_of:
                plan.hits += 1
            return got
        block = plan.claim(router, need_pred) if plan is not None else None
        if block is not None:
            with_pred = plan.predecessors
            todo = [
                r
                for r in block
                if (held := rows.get(r)) is None or (with_pred and held[1] is None)
            ]
            self._compute_rows(todo, with_pred)
            plan.sources_computed += len(todo)
            plan.hits += 1
            self.plan_rows += len(todo)
        else:
            if plan is not None:
                plan.misses += 1
            self._compute_rows([router], need_pred)
            self.demand_rows += 1
        return rows[router]

    def _row(self, router: int) -> tuple[np.ndarray, np.ndarray]:
        """(dist, pred) arrays from ``router``."""
        return self._lookup(router, True)

    def router_dist_row(self, router: int) -> np.ndarray:
        """Exact dist row from ``router`` — predecessors not required.

        Serves the scale kernels.  scipy returns bit-identical distances
        with and without ``return_predecessors`` (the equivalence suite
        pins that), so whichever kind of row the store holds answers.
        """
        return self._lookup(router, False)[0]

    def row_stats(self) -> dict[str, int]:
        """Row-store counters, deterministic per seed: resident rows and
        capacity, rows computed in plan blocks / by demand Dijkstras,
        LRU evictions, and dist-only rows recomputed with predecessors
        (upgrades are included in the two computed counts)."""
        return {
            "resident_rows": len(self._rows),
            "capacity_rows": self._row_cap,
            "plan_rows": self.plan_rows,
            "demand_rows": self.demand_rows,
            "evictions": self.evictions,
            "pred_upgrades": self.pred_upgrades,
        }

    # -- router-level queries -------------------------------------------------

    def router_distance(self, r_a: int, r_b: int) -> float:
        """Shortest-path delay between two routers."""
        r_b = self._router(r_b)
        dist, _ = self._row(r_a)
        value = float(dist[r_b])
        if not np.isfinite(value):
            raise NoRouteError(f"no route between routers {r_a} and {r_b}")
        return value

    def _router_links(self, r_a: int, r_b: int) -> list[LinkId]:
        """Router link ids of one shortest path."""
        r_b = self._router(r_b)
        dist, pred = self._row(r_a)
        if not np.isfinite(dist[r_b]):
            raise NoRouteError(f"no route between routers {r_a} and {r_b}")
        # router ids are the CSR indices
        return walk_links(pred, r_a, r_b, range(self.n_routers))

    def router_path(self, r_a: int, r_b: int) -> list[int]:
        """The routers of that path, ``r_a`` first."""
        return routers_along(r_a, self._router_links(r_a, r_b))

    # -- host-level queries ---------------------------------------------------

    def delay_ms(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._delay_cache.get(key)
        if cached is not None:
            return cached
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            value = 0.0
        else:
            base = self.router_distance(self.attachments[a], self.attachments[b])
            # Exact left-to-right association of the lazy oracle.
            value = self._access_delay[a] + base + self._access_delay[b]
        if len(self._delay_cache) >= _PAIR_MEMO_CAP:
            self._delay_cache.clear()
        self._delay_cache[key] = value
        return value

    def rtt_ms(self, a: int, b: int) -> float:
        # Doubling a float64 only bumps its exponent, so this is the base
        # class's ``2.0 * self.delay_ms(a, b)`` bit for bit; reading the
        # pair memo first skips a method call on one of the hottest query
        # paths (session metrics, every probe).
        cached = self._delay_cache.get((a, b))
        if cached is None:
            cached = self.delay_ms(a, b)
        return 2.0 * cached

    def delay_row(self, a: int) -> list[float] | None:
        if not self._ids_are_indices:
            return None
        row = self._hrows.get(a)
        if row is not None:  # validated when it was stored
            self._hrows.move_to_end(a)
            return row
        self.validate_host(a)
        base = self.router_dist_row(self.attachments[a])[self._host_cols()]
        if not np.all(np.isfinite(base)):
            return None  # unreachable pairs: callers fall back to delay_ms
        # Elementwise ``(acc_a + base) + acc_b`` — the lazy association.
        values = (self._access_delay[a] + base) + self._acc_array()
        values[self._host_idx[a]] = 0.0
        row = values.tolist()
        self._hrows[a] = row
        if len(self._hrows) > self._hrow_cap:
            self._hrows.popitem(last=False)
        return row

    def _host_cols(self) -> np.ndarray:
        cols = getattr(self, "_host_cols_cache", None)
        if cols is None:
            cols = np.fromiter(
                (self.attachments[h] for h in self._hosts),
                dtype=np.intp,
                count=len(self._hosts),
            )
            self._host_cols_cache = cols
        return cols

    def _acc_array(self) -> np.ndarray:
        acc = getattr(self, "_acc_cache", None)
        if acc is None:
            acc = np.fromiter(
                (self._access_delay[h] for h in self._hosts),
                dtype=np.float64,
                count=len(self._hosts),
            )
            self._acc_cache = acc
        return acc

    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        """Link ids of the ``a`` → ``b`` path, memoized per ordered pair.

        Ids are interned per underlay: every ``("router", lo, hi)`` and
        ``("access", h)`` is one tuple object, so the path memo and the
        delivery accountant's link multiset share it instead of holding
        one copy per memoized path.
        """
        key = (a, b)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            links: tuple[LinkId, ...] = ()
        else:
            hops = self._router_links(self.attachments[a], self.attachments[b])
            intern = self._link_ids.setdefault
            links = tuple(
                [intern(link, link) for link in (("access", a), *hops, ("access", b))]
            )
        if len(self._path_cache) >= _PAIR_MEMO_CAP:
            self._path_cache.clear()
        self._path_cache[key] = links
        return links

    def path_error(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._error_cache.get(key)
        if cached is not None:
            return cached
        if self._zero_error:
            self.validate_host(a)
            self.validate_host(b)
            value = 0.0 if a == b else self._compute_path_error(self.path_links(a, b))
        else:
            value = self._compute_path_error(self.path_links(a, b))
        if len(self._error_cache) >= _PAIR_MEMO_CAP:
            self._error_cache.clear()
        self._error_cache[key] = value
        return value

    def _edge_value(self, matrix: sp.csr_matrix, u: int, v: int) -> float:
        start, stop = matrix.indptr[u], matrix.indptr[u + 1]
        cols = matrix.indices[start:stop]
        pos = int(np.searchsorted(cols, v))
        if pos >= cols.size or cols[pos] != v:
            raise KeyError(f"no router link between {u} and {v}")
        return float(matrix.data[start + pos])

    def link_delay(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_delay[payload[0]]
        if kind == "router" and len(payload) == 2:
            u, v = payload
            try:
                return self._edge_value(self._csr, u, v)
            except (KeyError, IndexError):
                raise KeyError(f"unknown link id {link!r}") from None
        raise KeyError(f"unknown link id {link!r}")

    def link_error(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_error[payload[0]]
        if kind == "router" and len(payload) == 2:
            if self._err_csr is None:
                return 0.0
            u, v = payload
            try:
                return self._edge_value(self._err_csr, u, v)
            except (KeyError, IndexError):
                return 0.0
        raise KeyError(f"unknown link id {link!r}")

    # -- artifact round-trip --------------------------------------------------

    def to_artifact(self) -> tuple[dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` for :func:`repro.util.artifacts.store_artifact`.

        Stores the CSR *triplets* (upper triangle only), attachments,
        access links and domains: O(E + hosts) bytes, and no Dijkstra
        runs to produce them.
        """
        coo = sp.triu(self._csr).tocoo()
        hosts = self._hosts
        arrays: dict[str, np.ndarray] = {
            "edge_u": coo.row.astype(np.int64),
            "edge_v": coo.col.astype(np.int64),
            "edge_delay": coo.data.astype(np.float64),
            "hosts": np.asarray(hosts, dtype=np.int64),
            "host_router": np.asarray(
                [self.attachments[h] for h in hosts], dtype=np.int64
            ),
            "access_delay": np.asarray([self._access_delay[h] for h in hosts]),
            "access_error": np.asarray([self._access_error[h] for h in hosts]),
        }
        if self._err_csr is not None:
            # Same graph, same canonical upper-triangle order as the delay
            # triplets above, so the (u, v) pairs are not stored twice.
            arrays["edge_error"] = sp.triu(self._err_csr).tocoo().data.astype(
                np.float64
            )
        if self._router_domain is not None:
            arrays["router_domain"] = self._router_domain
        meta = {
            "kind": "sparse-router",
            "schema": SPARSE_SCHEMA,
            "n_routers": self.n_routers,
            "zero_error": self._zero_error,
        }
        return arrays, meta

    @classmethod
    def from_artifact(cls, artifact: Artifact) -> "SparseUnderlay":
        """Rebuild a sparse underlay from cached (memory-mapped) arrays."""
        meta = artifact.meta
        if meta.get("kind") != "sparse-router" or meta.get("schema") != SPARSE_SCHEMA:
            raise ValueError(
                f"artifact {artifact.key[:12]}… is not a sparse router "
                f"underlay of schema {SPARSE_SCHEMA}"
            )
        arrays = artifact.arrays
        hosts = arrays["hosts"].tolist()
        attachments = dict(zip(hosts, arrays["host_router"].tolist()))
        return cls(
            int(meta["n_routers"]),
            np.asarray(arrays["edge_u"]),
            np.asarray(arrays["edge_v"]),
            np.asarray(arrays["edge_delay"]),
            attachments,
            access_delay_ms=dict(zip(hosts, arrays["access_delay"].tolist())),
            access_error=dict(zip(hosts, arrays["access_error"].tolist())),
            edge_error=arrays.get("edge_error"),
            router_domain=arrays.get("router_domain"),
        )
