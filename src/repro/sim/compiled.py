"""Compiled substrates: batched all-pairs underlay compilation.

:class:`~repro.sim.network.RouterUnderlay` discovers shortest paths
lazily — one ``scipy.csgraph.dijkstra`` call per source router, triggered
the first time any host attached there is queried, repeated inside every
worker process.  :class:`CompiledUnderlay` front-loads that work once per
substrate:

* **one batched Dijkstra** over all attachment routers (a single scipy
  call, so the per-source Python dispatch disappears) producing dense
  distance and predecessor matrices;
* a **host × host one-way delay matrix** assembled from the distance
  matrix with the exact float association of the lazy path
  (``(access_a + router_distance) + access_b``), served per query from a
  plain Python row list — the same trick :class:`MatrixUnderlay` uses for
  its hottest call;
* **per-pair link-error aggregates**: when the graph carries any nonzero
  loss rates, the end-to-end survival product of every ordered host pair
  is materialized by one propagation down each host's shortest-path tree
  (:func:`repro.sim.pathtree.path_survival`: one vectorised multiply per
  hop level, no path is ever reconstructed), so ``path_error`` becomes
  one array load.  (The aggregate is stored as the finished error
  probability rather than a log-survival sum: re-exponentiating a sum of
  logs would not be bit-identical to the oracle's product, and
  bit-identity is a hard requirement here.)  Pairs with no route hold
  ``nan`` and are never served: their queries raise like the lazy path.
* **on-demand path reconstruction**: physical link lists for stress
  accounting are rebuilt in O(hops) from the predecessor matrix by the
  shared walk (:func:`repro.sim.pathtree.walk_links`), then memoized per
  ordered pair exactly like the lazy cache.

Every answer is **byte-identical** to what ``RouterUnderlay`` returns for
the same graph: the batched Dijkstra rows equal the per-source rows
(same algorithm, same CSR), the delay association matches, and the error
products multiply the same factors in the same left-to-right order as
``_compute_path_error`` (whose per-pair replay is the oracle kept in
``tests/test_compiled_underlay.py``).  The inherited lazy
implementations remain callable on a compiled instance
(``RouterUnderlay.delay_ms(compiled, a, b)``; they use the lazy
per-source Dijkstra dict, which is disjoint from the compiled arrays);
the equivalence suite in ``tests/test_compiled_underlay.py`` uses them as
its oracle.

Compiled arrays round-trip through :mod:`repro.util.artifacts` via
:meth:`CompiledUnderlay.to_artifact` / :meth:`from_artifact`, so repeated
harness invocations skip topology generation *and* Dijkstra, loading the
matrices with ``mmap_mode="r"`` instead — read-only pages shared across
pool workers by the OS page cache.
"""

from __future__ import annotations

import numpy as np

import networkx as nx
from scipy.sparse import csgraph

from repro.sim.network import LinkId, RouterUnderlay
from repro.sim.pathtree import LinkErrors, path_survival, walk_links
from repro.util.artifacts import Artifact

__all__ = ["ARTIFACT_SCHEMA", "CompiledUnderlay"]

#: version of the compiled array layout; part of every cache key, so a
#: layout change invalidates (never misreads) existing cache entries.
ARTIFACT_SCHEMA = 4


class CompiledUnderlay(RouterUnderlay):
    """A :class:`RouterUnderlay` whose queries are served from dense arrays.

    Construction accepts the same arguments and performs the one-time
    compilation; :meth:`from_artifact` rebuilds an instance from cached
    arrays without re-running Dijkstra.
    """

    def __init__(
        self,
        graph: nx.Graph,
        attachments: dict[int, int],
        *,
        access_delay_ms: float | dict[int, float] = 0.5,
        access_error: float | dict[int, float] = 0.0,
    ) -> None:
        super().__init__(
            graph,
            attachments,
            access_delay_ms=access_delay_ms,
            access_error=access_error,
        )
        self._compile()
        self._install_runtime()

    # -- compilation --------------------------------------------------------

    def _compile(self) -> None:
        hosts = self._hosts
        att_routers = sorted({self.attachments[h] for h in hosts})
        self._att_routers = att_routers
        self._att_row = {r: i for i, r in enumerate(att_routers)}
        dist, pred = csgraph.dijkstra(
            self._csr,
            directed=False,
            indices=[self._router_idx[r] for r in att_routers],
            return_predecessors=True,
        )
        self._bdist = dist
        self._bpred = pred.astype(np.int32, copy=False)
        self._maybe_unreachable = bool(not np.all(np.isfinite(dist)))

        n = len(hosts)
        host_rows = np.fromiter(
            (self._att_row[self.attachments[h]] for h in hosts),
            dtype=np.intp,
            count=n,
        )
        host_cols = np.fromiter(
            (self._router_idx[self.attachments[h]] for h in hosts),
            dtype=np.intp,
            count=n,
        )
        acc = np.fromiter(
            (self._access_delay[h] for h in hosts), dtype=np.float64, count=n
        )
        # Elementwise ``(acc_a + base) + acc_b`` — the exact left-to-right
        # association of the lazy ``delay_ms``, so values match bit for bit.
        hdelay = (acc[:, None] + dist[np.ix_(host_rows, host_cols)]) + acc[None, :]
        np.fill_diagonal(hdelay, 0.0)
        self._hdelay = hdelay

        edge_errors = [
            data.get("error", 0.0) for _, _, data in self.graph.edges(data=True)
        ]
        zero_error = all(e == 0.0 for e in self._access_error.values()) and not any(
            e != 0.0 for e in edge_errors
        )
        self._zero_error = zero_error
        self._perr = (
            None
            if zero_error
            else self._compile_pair_errors(host_rows, host_cols, edge_errors)
        )

    def _compile_pair_errors(
        self, host_rows: np.ndarray, host_cols: np.ndarray, edge_errors: list[float]
    ) -> np.ndarray:
        """Ordered host × host end-to-end loss probabilities.

        Paths are direction-dependent when shortest paths tie, so every
        host propagates down its own attachment router's tree.  The
        factors and their order are those of ``_compute_path_error``:
        ``(1 - access_a)``, the router links source to target, then
        ``(1 - access_b)``.  Pairs with no route come out ``nan``.
        """
        idx = self._router_idx
        edges = list(self.graph.edges())
        link_errors = LinkErrors(
            len(self._router_ids),
            [idx[u] for u, _ in edges],
            [idx[v] for _, v in edges],
            edge_errors,
        )
        access_ok = 1.0 - np.fromiter(
            (self._access_error[h] for h in self._hosts),
            dtype=np.float64,
            count=len(self._hosts),
        )
        survival = path_survival(
            self._bpred, host_rows, host_cols, access_ok, link_errors, host_cols
        )
        err = 1.0 - survival * access_ok[None, :]
        np.fill_diagonal(err, 0.0)
        return err

    def _install_runtime(self) -> None:
        """Per-instance query state shared by both construction paths."""
        # Rows of the delay matrix materialize into plain Python lists on
        # first touch: a list subscript returns a ready Python float and
        # is several times cheaper than numpy scalar indexing, while
        # untouched rows stay in the (possibly memory-mapped) array.
        self._delay_rows: list[list[float] | None] = [None] * len(self._hosts)
        self._rtt_rows: list[list[float] | None] = [None] * len(self._hosts)
        # delay_row can hand out raw rows only when subscripting by host
        # id is subscripting by matrix index, and when no pair is
        # unreachable (delay_ms raises on inf; a raw row cannot).
        self._ids_are_indices = not self._maybe_unreachable and all(
            h == i for i, h in enumerate(self._hosts)
        )
        self._cpath_cache: dict[tuple[int, int], tuple[LinkId, ...]] = {}
        self._cerr_cache: dict[tuple[int, int], float] = {}

    # -- queries ------------------------------------------------------------

    def delay_ms(self, a: int, b: int) -> float:
        try:
            ia = self._host_idx[a]
            ib = self._host_idx[b]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None
        row = self._delay_rows[ia]
        if row is None:
            row = self._delay_rows[ia] = self._hdelay[ia].tolist()
        value = row[ib]
        if self._maybe_unreachable and value == float("inf"):
            raise nx.NetworkXNoPath(
                f"no route between routers {self.attachments[a]} "
                f"and {self.attachments[b]}"
            )
        return value

    @property
    def zero_error(self) -> bool:
        """Whether every link and access error is exactly zero.

        Global knowledge materialized at compile time (and carried in
        the artifact): consumers like the delivery accountant use it to
        skip per-hop loss products that can only ever multiply exact
        ``1.0``s.
        """
        return self._zero_error

    def delay_row(self, a: int) -> list[float] | None:
        if not self._ids_are_indices:
            return None
        try:
            ia = self._host_idx[a]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None
        row = self._delay_rows[ia]
        if row is None:
            row = self._delay_rows[ia] = self._hdelay[ia].tolist()
        return row

    def rtt_ms(self, a: int, b: int) -> float:
        # Doubling a float64 only bumps the exponent, so serving from a
        # pre-doubled row is bit-identical to the base class's
        # ``2.0 * self.delay_ms(a, b)`` while skipping a method call on
        # one of the hottest query paths (session metrics).
        try:
            ia = self._host_idx[a]
            ib = self._host_idx[b]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None
        row = self._rtt_rows[ia]
        if row is None:
            row = self._rtt_rows[ia] = (2.0 * self._hdelay[ia]).tolist()
        value = row[ib]
        if self._maybe_unreachable and value == float("inf"):
            raise nx.NetworkXNoPath(
                f"no route between routers {self.attachments[a]} "
                f"and {self.attachments[b]}"
            )
        return value

    def router_distance(self, r_a: int, r_b: int) -> float:
        row = self._att_row.get(r_a)
        if row is None:  # not an attachment router: lazy fallback
            return super().router_distance(r_a, r_b)
        dist = float(self._bdist[row, self._router_idx[r_b]])
        if not np.isfinite(dist):
            raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
        return dist

    def _router_links(self, r_a: int, r_b: int) -> list[LinkId]:
        row = self._att_row.get(r_a)
        if row is None:  # not an attachment router: lazy fallback
            return super()._router_links(r_a, r_b)
        target = self._router_idx[r_b]
        if not np.isfinite(self._bdist[row, target]):
            raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
        return walk_links(
            self._bpred[row], self._router_idx[r_a], target, self._router_ids
        )

    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        key = (a, b)
        cached = self._cpath_cache.get(key)
        if cached is not None:
            return cached
        links = self._assemble_path_links(a, b)
        self._cpath_cache[key] = links
        return links

    def path_error(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._cerr_cache.get(key)
        if cached is not None:
            return cached
        try:
            ia = self._host_idx[a]
            ib = self._host_idx[b]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None
        if self._maybe_unreachable:
            # Raises the lazy path's NetworkXNoPath on an unreachable pair
            # (whose table cell is nan, never served).
            self.delay_ms(a, b)
        value = 0.0 if self._perr is None else float(self._perr[ia, ib])
        self._cerr_cache[key] = value
        return value

    # -- artifact round-trip -------------------------------------------------

    def to_artifact(self) -> tuple[dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` for :func:`repro.util.artifacts.store_artifact`.

        The arrays carry the compiled matrices *and* the raw graph (edge
        list with delays/errors, node order, attachments, access links),
        so :meth:`from_artifact` rebuilds a fully functional underlay —
        including ``link_delay``/``link_error`` lookups — without ever
        running the topology generator.
        """
        hosts = self._hosts
        edges = list(self.graph.edges(data=True))
        has_link_errors = any("error" in data for _, _, data in edges)
        arrays: dict[str, np.ndarray] = {
            "host_delay": self._hdelay,
            "router_dist": self._bdist,
            "router_pred": self._bpred,
            "att_routers": np.asarray(self._att_routers, dtype=np.int64),
            "router_ids": np.asarray(self._router_ids, dtype=np.int64),
            "hosts": np.asarray(hosts, dtype=np.int64),
            "host_router": np.asarray(
                [self.attachments[h] for h in hosts], dtype=np.int64
            ),
            "access_delay": np.asarray([self._access_delay[h] for h in hosts]),
            "access_error": np.asarray([self._access_error[h] for h in hosts]),
            "edge_u": np.asarray([u for u, _, _ in edges], dtype=np.int64),
            "edge_v": np.asarray([v for _, v, _ in edges], dtype=np.int64),
            "edge_delay": np.asarray([d["delay"] for _, _, d in edges]),
            "router_domain": self._router_domain_array(),
        }
        if has_link_errors:
            arrays["edge_error"] = np.asarray(
                [d.get("error", 0.0) for _, _, d in edges]
            )
        if self._perr is not None:
            arrays["pair_error"] = self._perr
        meta = {
            "kind": "router",
            "schema": ARTIFACT_SCHEMA,
            "zero_error": self._zero_error,
            "has_link_errors": has_link_errors,
            "maybe_unreachable": self._maybe_unreachable,
        }
        return arrays, meta

    def _router_domain_array(self) -> np.ndarray:
        """Per-router transit-domain indices in ``router_ids`` order.

        ``-1`` marks routers with unknown domain (non-transit-stub graphs).
        The rebuilt artifact graph carries no node attributes, so the
        mapping must travel with the arrays for correlated fault plans to
        keep working on cache hits.
        """
        try:
            from repro.topology.transit_stub import router_transit_domains

            domains = router_transit_domains(self.graph)
        except KeyError:
            domains = {}
        return np.asarray(
            [domains.get(r, -1) for r in self._router_ids], dtype=np.int64
        )

    @classmethod
    def from_artifact(cls, artifact: Artifact) -> "CompiledUnderlay":
        """Rebuild a compiled underlay from cached (memory-mapped) arrays."""
        meta = artifact.meta
        if meta.get("kind") != "router" or meta.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(
                f"artifact {artifact.key[:12]}… is not a compiled router "
                f"underlay of schema {ARTIFACT_SCHEMA}"
            )
        arrays = artifact.arrays
        graph = nx.Graph()
        # Node insertion order fixes the CSR layout the lazy oracle uses,
        # so it must match the original generation order exactly.
        graph.add_nodes_from(arrays["router_ids"].tolist())
        edge_u = arrays["edge_u"].tolist()
        edge_v = arrays["edge_v"].tolist()
        edge_delay = arrays["edge_delay"].tolist()
        if meta["has_link_errors"]:
            for u, v, d, e in zip(
                edge_u, edge_v, edge_delay, arrays["edge_error"].tolist()
            ):
                graph.add_edge(u, v, delay=d, error=e)
        else:
            for u, v, d in zip(edge_u, edge_v, edge_delay):
                graph.add_edge(u, v, delay=d)
        hosts = arrays["hosts"].tolist()
        attachments = dict(zip(hosts, arrays["host_router"].tolist()))
        self = cls.__new__(cls)
        RouterUnderlay.__init__(
            self,
            graph,
            attachments,
            access_delay_ms=dict(zip(hosts, arrays["access_delay"].tolist())),
            access_error=dict(zip(hosts, arrays["access_error"].tolist())),
        )
        att_routers = arrays["att_routers"].tolist()
        self._att_routers = att_routers
        self._att_row = {r: i for i, r in enumerate(att_routers)}
        self._bdist = arrays["router_dist"]
        self._bpred = arrays["router_pred"]
        self._hdelay = arrays["host_delay"]
        self._zero_error = bool(meta["zero_error"])
        self._maybe_unreachable = bool(meta["maybe_unreachable"])
        self._set_domain_map(
            {
                int(r): int(d)
                for r, d in zip(
                    arrays["router_ids"].tolist(), arrays["router_domain"].tolist()
                )
                if d >= 0
            }
        )
        self._perr = arrays.get("pair_error")
        if self._perr is None and not self._zero_error:
            raise ValueError(
                f"artifact {artifact.key[:12]}… carries errors but no "
                "pair_error matrix"
            )
        self._install_runtime()
        return self
