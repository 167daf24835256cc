"""Analytical data-plane accounting.

The paper's NS-2 runs push a real packet stream through the overlay; the
metrics it reports, though, are aggregates — loss rate (eq. 3.7) and the
data-message denominator of overhead (eq. 3.6).  Both are determined by
(a) when each node had an unbroken overlay path to the source and (b) the
link error rates along that path.  This accountant tracks exactly that,
per node, as piecewise-constant *segments* bounded by tree mutations:

* while a node is reachable, it accrues a segment carrying the success
  probability of its current overlay path;
* any attach / orphan / reparent / depart event in its ancestry closes the
  segment and (if still reachable) opens a fresh one with the recomputed
  path probability.

Expected chunks received over any window is then an exact integral — the
same number a per-packet simulation converges to, without simulating
``chunk_rate x duration x nodes`` events.

A node's *lifetime* (the denominator of eq. 3.7, "packets supposed to be
received in the peer's lifetime") starts when it first connects and pauses
only when it departs; reconnection gaps count against it, which is what
makes churn visible as loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.protocols.base import TreeRegistry
from repro.sim.network import Underlay
from repro.util.intervals import IntervalSet
from repro.util.validation import check_positive

__all__ = ["DeliveryAccountant", "NodeDeliveryStats", "WindowSnapshot"]


@dataclass
class _NodeLedger:
    """Per-node accounting state."""

    lifetime: IntervalSet = field(default_factory=IntervalSet)
    reachable: IntervalSet = field(default_factory=IntervalSet)
    #: closed segments: (start, end, path success probability)
    segments: list[tuple[float, float, float]] = field(default_factory=list)
    open_segment: tuple[float, float] | None = None  # (start, success)

    def close_segment(self, t: float) -> None:
        if self.open_segment is None:
            return
        start, success = self.open_segment
        if t > start:
            self.segments.append((start, t, success))
        self.open_segment = None

    def open_new(self, t: float, success: float) -> None:
        self.close_segment(t)
        self.open_segment = (t, success)

    def expected_received(self, w0: float, w1: float, rate: float) -> float:
        total = 0.0
        for start, end, success in self.segments:
            lo, hi = max(start, w0), min(end, w1)
            if hi > lo:
                total += (hi - lo) * success
        if self.open_segment is not None:
            start, success = self.open_segment
            lo = max(start, w0)
            if w1 > lo:
                total += (w1 - lo) * success
        return total * rate


@dataclass(frozen=True)
class WindowSnapshot:
    """All windowed delivery aggregates of one measurement, in one value.

    This is the scalar definition the batched engine's fused measurement
    pass (:mod:`repro.sim.batched`) mirrors number for number: the three
    fields here are exactly what a session's measurement consumes from
    the accountant per window.  Keeping them in one snapshot gives the
    equivalence tests a single comparison point instead of three method
    calls whose windows could accidentally drift apart.
    """

    loss_rate: float
    mean_node_loss: float
    data_messages: float


@dataclass(frozen=True)
class NodeDeliveryStats:
    """Delivery summary for one node over one window."""

    node: int
    expected_chunks: float  # what a loss-free peer would have received
    received_chunks: float  # expectation under churn outages + link errors

    @property
    def loss_rate(self) -> float:
        if self.expected_chunks <= 0:
            return 0.0
        return max(0.0, 1.0 - self.received_chunks / self.expected_chunks)


class DeliveryAccountant:
    """Tracks per-node reachability segments off the tree registry."""

    def __init__(
        self,
        tree: TreeRegistry,
        underlay: Underlay,
        *,
        chunk_rate: float = 10.0,
    ) -> None:
        check_positive("chunk_rate", chunk_rate)
        self.tree = tree
        self.underlay = underlay
        self.chunk_rate = float(chunk_rate)
        self._ledger: dict[int, _NodeLedger] = {}
        # Per-overlay-hop delivery probability.  Underlay link errors are
        # static, so each (parent, child) hop's success is a constant —
        # memoizing it keeps churn-driven subtree refreshes (which rebuild
        # ancestry products constantly) off the underlay's path machinery.
        # Substrates that know their full loss picture (the router-graph
        # engine, matrix underlays) advertise global loss-freedom via
        # ``zero_error``; every hop success is then exactly 1.0 and the
        # cumulative products below can only ever multiply exact 1.0s,
        # so they are skipped outright.  Lazy substrates don't carry
        # that knowledge and take the general path — the two paths agree
        # bit for bit.
        self._zero_loss = bool(getattr(underlay, "zero_error", False))
        self._hop_success: dict[tuple[int, int], float] = {}
        # Cumulative path-success per reachable node, maintained in the
        # same top-down pass that refreshes a mutated subtree:
        # success(child) = success(parent) * hop(parent, child) — the
        # multiplication order of the full root-path product the tests
        # compare it with, so the two agree bit for bit.
        self._success: dict[int, float] = {tree.source: 1.0}
        # Window aggregates (loss_rate / mean_node_loss share one pass);
        # any tree mutation invalidates every memoized window.
        self._window_memo: dict[
            tuple[float, float], tuple[float, float, tuple[float, ...]]
        ] = {}
        tree.add_listener(self._on_tree_event)

    # -- event handling ---------------------------------------------------------

    def _on_tree_event(
        self, kind: str, node: int, parent: int | None, time: float
    ) -> None:
        self._window_memo.clear()
        if kind == "depart":
            self._success.pop(node, None)
            ledger = self._ledger.get(node)
            if ledger is not None:
                ledger.close_segment(time)
                ledger.reachable.close(time)
                ledger.lifetime.close(time)
            return
        # attach / orphan / reparent: the whole subtree's paths changed.
        # subtree() is preorder, so a member's parent is refreshed (and its
        # cumulative success stored) before the member itself.
        source = self.tree.source
        for member in self.tree.subtree(node):
            if member == source:
                continue
            self._refresh(member, time)

    def _refresh(self, node: int, time: float) -> None:
        ledger = self._ledger.get(node)
        if ledger is None:
            ledger = self._ledger[node] = _NodeLedger()
        if self.tree.is_reachable(node):
            if not ledger.lifetime.is_open:
                ledger.lifetime.open(time)
            ledger.reachable.open(time)
            ledger.open_new(time, self._path_success(node))
        else:
            self._success.pop(node, None)
            ledger.close_segment(time)
            ledger.reachable.close(time)

    def _hop(self, parent: int, child: int) -> float:
        """Per-overlay-hop delivery probability (memoized; links are static)."""
        hop = self._hop_success.get((parent, child))
        if hop is None:
            hop = 1.0 - self.underlay.path_error(parent, child)
            self._hop_success[(parent, child)] = hop
        return hop

    def _path_success(self, node: int) -> float:
        """Probability a chunk survives the overlay path source -> node."""
        if self._zero_loss:
            return 1.0
        # O(1): extend the parent's maintained product by one hop.
        parent = self.tree.parent[node]
        success = self._success[parent] * self._hop(parent, node)
        self._success[node] = success
        return success

    # -- queries --------------------------------------------------------------------

    def tracked_nodes(self) -> list[int]:
        return sorted(self._ledger)

    def reception_segments(
        self, node: int, until: float
    ) -> list[tuple[float, float, float]]:
        """Reception timeline of ``node``: (start, end, path success) triples.

        An open segment is closed at ``until``.  This is the input the
        playout-buffer model (:mod:`repro.streaming`) consumes.
        """
        ledger = self._ledger.get(node)
        if ledger is None:
            return []
        segments = [
            (start, min(end, until), success)
            for start, end, success in ledger.segments
            if start < until
        ]
        if ledger.open_segment is not None:
            start, success = ledger.open_segment
            if start < until:
                segments.append((start, until, success))
        return segments

    def lifetime_start(self, node: int) -> float | None:
        """When the node first connected (its lifetime began), if ever."""
        ledger = self._ledger.get(node)
        if ledger is None:
            return None
        start = ledger.lifetime.first_open_time()
        return None if start == float("inf") else start

    def lifetime_intervals(
        self, node: int, until: float
    ) -> list[tuple[float, float]]:
        """The node's presence stints: one interval per join...depart span.

        An open stint is closed at ``until``.
        """
        ledger = self._ledger.get(node)
        if ledger is None:
            return []
        out = [
            (start, min(end, until))
            for start, end in ledger.lifetime.intervals
            if start < until
        ]
        if ledger.lifetime.open_start is not None and ledger.lifetime.open_start < until:
            out.append((ledger.lifetime.open_start, until))
        return out

    def node_stats(self, node: int, w0: float, w1: float) -> NodeDeliveryStats:
        """Delivery stats for ``node`` over window ``[w0, w1)``.

        The "expected" denominator covers the node's lifetime inside the
        window; reconnection outages therefore count as loss while periods
        after a graceful depart do not.
        """
        if w1 < w0:
            raise ValueError(f"bad window [{w0}, {w1})")
        ledger = self._ledger.get(node)
        if ledger is None:
            return NodeDeliveryStats(node, 0.0, 0.0)
        expected = ledger.lifetime.covered_within(w0, w1) * self.chunk_rate
        received = ledger.expected_received(w0, w1, self.chunk_rate)
        return NodeDeliveryStats(node, expected, min(received, expected))

    def _window_totals(
        self, w0: float, w1: float
    ) -> tuple[float, float, tuple[float, ...]]:
        """One pass over the ledger: (sum expected, sum received, loss rates).

        Backs both :meth:`loss_rate` and :meth:`mean_node_loss` so callers
        polling both per measurement window walk the ledger once, not
        twice.  Memoized per window; any tree mutation clears the memo
        (see :meth:`_on_tree_event`).
        """
        if w1 < w0:
            raise ValueError(f"bad window [{w0}, {w1})")
        key = (w0, w1)
        cached = self._window_memo.get(key)
        if cached is not None:
            return cached
        expected_total = 0.0
        received_total = 0.0
        rates: list[float] = []
        for node in self._ledger:
            stats = self.node_stats(node, w0, w1)
            expected_total += stats.expected_chunks
            received_total += stats.received_chunks
            if stats.expected_chunks > 0:
                rates.append(stats.loss_rate)
        result = (expected_total, received_total, tuple(rates))
        self._window_memo[key] = result
        return result

    def loss_rate(self, w0: float, w1: float) -> float:
        """Aggregate loss over all tracked nodes in the window (eq. 3.7)."""
        expected, received, _ = self._window_totals(w0, w1)
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - received / expected)

    def mean_node_loss(self, w0: float, w1: float) -> float:
        """Unweighted mean of per-node loss rates (the paper's 'average
        loss rate for all nodes')."""
        _, _, rates = self._window_totals(w0, w1)
        if not rates:
            return 0.0
        return sum(rates) / len(rates)

    def window_snapshot(self, w0: float, w1: float) -> WindowSnapshot:
        """One measurement window's aggregates as a single snapshot.

        Delegates to :meth:`loss_rate` / :meth:`mean_node_loss` /
        :meth:`data_messages` (so the floating-point evaluation order is
        exactly theirs — the first two share one memoized ledger pass);
        the value only packages them so session measurements and
        equivalence tests consume the whole window atomically.
        """
        return WindowSnapshot(
            loss_rate=self.loss_rate(w0, w1),
            mean_node_loss=self.mean_node_loss(w0, w1),
            data_messages=self.data_messages(w0, w1),
        )

    def outage_seconds(self, w0: float, w1: float) -> float:
        """Mean outage time per member over ``[w0, w1)``.

        A member's outage is the part of its lifetime it spent *without* a
        working overlay path (present but unreachable — exactly the state
        failover is racing to end).  Averaged over members alive during
        the window, so the number reads as "seconds of blackout the
        typical member suffered" and is directly comparable across
        session sizes.
        """
        if w1 < w0:
            raise ValueError(f"bad window [{w0}, {w1})")
        total = 0.0
        members = 0
        for ledger in self._ledger.values():
            alive = ledger.lifetime.covered_within(w0, w1)
            if alive <= 0:
                continue
            members += 1
            total += alive - ledger.reachable.covered_within(w0, w1)
        if members == 0:
            return 0.0
        return total / members

    def chunks_lost(self, w0: float, w1: float) -> float:
        """Total expected chunks lost across all members over ``[w0, w1)``.

        The absolute counterpart of :meth:`loss_rate`: summed
        ``expected - received`` per member, so a correlated outage's cost
        shows up in stream units rather than a ratio.
        """
        if w1 < w0:
            raise ValueError(f"bad window [{w0}, {w1})")
        lost = 0.0
        for node in self._ledger:
            stats = self.node_stats(node, w0, w1)
            lost += stats.expected_chunks - stats.received_chunks
        return lost

    def data_messages(self, w0: float, w1: float) -> float:
        """Expected data transmissions on overlay links during the window.

        Each reachable node receives ``chunk_rate`` transmissions per
        second from its parent (sent regardless of en-route loss), so the
        total is the rate times the summed reachable time.
        """
        if w1 < w0:
            raise ValueError(f"bad window [{w0}, {w1})")
        total_time = sum(
            ledger.reachable.covered_within(w0, w1)
            for ledger in self._ledger.values()
        )
        return total_time * self.chunk_rate
