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

The same per-event walk marks the nodes whose overlay edge may have
changed; reading :attr:`DeliveryAccountant.link_usage`, the physical links
every chunk crosses (the stress of eq. 3.4), settles those marks, so a
measurement reads stress off a multiset maintained at measurement instants
instead of walking every overlay edge's path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.protocols.tree import TreeRegistry
from repro.sim.network import Underlay
from repro.util.intervals import IntervalSet
from repro.util.validation import check_finite, check_positive

__all__ = ["DeliveryAccountant", "NodeDeliveryStats", "WindowSnapshot"]

# A ledger's state in the fused window pass (DeliveryAccountant._fused_window).
_SCAN = 0  # integrate it interval by interval
_DORMANT = 1  # nothing open, nothing closed inside or after the last window
_STEADY = 2  # everything open since before the window, nothing closed ahead


def _check_window(w0: float, w1: float) -> None:
    """Every window query's bounds: finite, and ``w0 <= w1``."""
    check_finite("w0", w0)
    check_finite("w1", w1)
    if w1 < w0:
        raise ValueError(f"bad window [{w0}, {w1})")


class _NodeLedger:
    """Per-node accounting state.

    ``segments`` are the closed reception segments ``(start, end, path
    success)``; ``seg_start``/``seg_success`` describe the open one.  The
    ``at_*`` cursors and ``state`` serve only the fused window pass.
    """

    __slots__ = (
        "lifetime",
        "reachable",
        "segments",
        "seg_start",
        "seg_success",
        "at_life",
        "at_reach",
        "at_seg",
        "state",
    )

    def __init__(self) -> None:
        self.lifetime = IntervalSet()
        self.reachable = IntervalSet()
        self.segments: list[tuple[float, float, float]] = []
        self.seg_start: float | None = None
        self.seg_success = 1.0
        self.at_life = 0
        self.at_reach = 0
        self.at_seg = 0
        self.state = _SCAN

    def cut(self, t: float) -> None:
        """The overlay path is lost at ``t``: close the segment and stint."""
        self.state = _SCAN
        start = self.seg_start
        if start is not None:
            if t > start:
                self.segments.append((start, t, self.seg_success))
            self.seg_start = None
        if self.reachable.open_start is not None:
            self.reachable.close(t)

    def expected_received(self, w0: float, w1: float, rate: float) -> float:
        total = 0.0
        for start, end, success in self.segments:
            lo, hi = max(start, w0), min(end, w1)
            if hi > lo:
                total += (hi - lo) * success
        if self.seg_start is not None:
            lo = max(self.seg_start, w0)
            if w1 > lo:
                total += (w1 - lo) * self.seg_success
        return total * rate


@dataclass(frozen=True)
class WindowSnapshot:
    """All windowed delivery aggregates of one measurement, in one value.

    The three fields are exactly what a session measurement consumes per
    window, and both session engines take them from
    :meth:`DeliveryAccountant.window_snapshot`: the aggregate loss over
    every tracked node (eq. 3.7), the unweighted mean of the per-node
    loss rates (the paper's "average loss rate for all nodes"), and
    :meth:`~DeliveryAccountant.data_messages`.
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
    """Tracks per-node reachability segments off the tree registry.

    It must subscribe while the registry holds only the source, so that
    every later member enters its ledger at the event that placed it.
    """

    def __init__(
        self,
        tree: TreeRegistry,
        underlay: Underlay,
        *,
        chunk_rate: float = 10.0,
    ) -> None:
        check_finite("chunk_rate", check_positive("chunk_rate", chunk_rate))
        if len(tree.parent) > 1:
            raise ValueError(
                "the accountant must subscribe to a tree of just the source"
            )
        self.tree = tree
        self.underlay = underlay
        self.chunk_rate = float(chunk_rate)
        #: node -> ledger, in the order the accountant first refreshed the
        #: nodes: every windowed float sum accumulates in this order.
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
        # Physical link -> copies of each chunk crossing it: the
        # ``path_links`` of every reachable overlay edge, as of the last
        # read of :attr:`link_usage`.  Tree events only mark the nodes
        # whose edge may have changed since; the read settles the marks.
        # Integer counts with zero entries deleted, so the order-free
        # stress statistics over it equal those of a fresh walk over the
        # reachable edges.
        self._usage: Counter = Counter()
        #: node -> (parent, link tuple) counted for its edge; a settle
        #: uncounts the tuple, whatever the parent pointer has done since.
        self._counted: dict[int, tuple[int, tuple]] = {}
        #: nodes whose counted edge may differ from the tree's now.
        self._marked: set[int] = set()
        #: the earliest window start the fused pass may serve: the end of
        #: the last window it served (see :meth:`window_snapshot`).
        self._fused_from = -math.inf
        tree.add_listener(self._on_tree_event)

    # -- event handling ---------------------------------------------------------

    def _on_tree_event(
        self, kind: str, node: int, parent: int | None, time: float
    ) -> None:
        if kind == "depart":
            self._success.pop(node, None)
            self._marked.add(node)
            ledger = self._ledger.get(node)
            if ledger is not None:
                ledger.cut(time)
                ledger.lifetime.close(time)
            return
        # attach / orphan / reparent: the whole subtree's paths changed,
        # and it shares its root's reachability (every member routes
        # through the root), so the answer is looked up once.
        if self.tree.is_reachable(node):
            self._open_subtree(node, time)
        else:
            self._close_subtree(node, time)

    def _open_subtree(self, root: int, t: float) -> None:
        """Reopen every ledger of ``root``'s (reachable) subtree at ``t``.

        Depth-first without sorting: a ledger's state depends only on its
        own node's transition times, and only ``root`` can be new to the
        ledger (every other member got its ledger at the event that placed
        it), so the ledger's order — and every float sum over it — is the
        preorder refresh's.  A parent is still visited before its
        children, which the path-success products need.

        Only the root's edge moved, so only the root is marked for the
        link multiset — plus any member not counted now: one settled
        while its subtree was orphaned has to be counted again.
        """
        marked = self._marked
        marked.add(root)
        ledger = self._ledger
        led = ledger.get(root)
        if led is None:
            ledger[root] = _NodeLedger()
        elif led.seg_start == t and self._zero_loss:
            # A re-emit at an unchanged instant (an insert's adoptee after
            # the inserted node's own event walked it): every ledger below
            # already reopened at t, and with every path success exactly
            # 1.0 reopening them again changes nothing.
            return
        counted = self._counted
        parent = self.tree.parent
        children = self.tree.children
        zero_loss = self._zero_loss
        success = self._success
        stack = [root]
        while stack:
            node = stack.pop()
            led = ledger[node]
            if node not in counted:
                marked.add(node)
            led.state = _SCAN
            if led.lifetime.open_start is None:
                led.lifetime.open(t)
            if led.reachable.open_start is None:
                led.reachable.open(t)
            start = led.seg_start
            if start is not None and t > start:
                led.segments.append((start, t, led.seg_success))
            led.seg_start = t
            if not zero_loss:
                up = parent[node]
                led.seg_success = success[node] = success[up] * self._hop(up, node)
            kids = children.get(node)
            if kids:
                stack.extend(kids)

    def _close_subtree(self, root: int, t: float) -> None:
        """Cut every ledger of ``root``'s (unreachable) subtree at ``t``."""
        ledger = self._ledger
        if root not in ledger:
            ledger[root] = _NodeLedger()
        children = self.tree.children
        marked = self._marked
        success = self._success
        stack = [root]
        while stack:
            node = stack.pop()
            success.pop(node, None)
            marked.add(node)
            ledger[node].cut(t)
            kids = children.get(node)
            if kids:
                stack.extend(kids)

    @property
    def link_usage(self) -> Counter:
        """Physical link -> copies of each chunk crossing it, now.

        Settles the marks tree events left since the last read: a marked
        node still reachable under the parent it was counted for keeps
        its count (links are static); any other has its old links
        uncounted and, if reachable, its current edge's links counted.
        O(edges changed since the last read x path length).
        """
        if self._marked:
            self._settle()
        return self._usage

    def _settle(self) -> None:
        usage = self._usage
        drop = usage.pop  # dict.pop: skips Counter's Python-level __delitem__
        count = usage.update
        counted = self._counted
        parent = self.tree.parent
        is_reachable = self.tree.is_reachable
        path_links = self.underlay.path_links
        for node in self._marked:
            up = parent.get(node)
            live = up is not None and is_reachable(node)
            entry = counted.get(node)
            if entry is not None:
                if live and entry[0] == up:
                    continue
                del counted[node]
                for link in entry[1]:
                    c = usage[link] - 1
                    if c:
                        usage[link] = c
                    else:
                        drop(link)
            if live:
                links = path_links(up, node)
                counted[node] = (up, links)
                count(links)
        self._marked.clear()

    def _hop(self, parent: int, child: int) -> float:
        """Per-overlay-hop delivery probability (memoized; links are static)."""
        hop = self._hop_success.get((parent, child))
        if hop is None:
            hop = 1.0 - self.underlay.path_error(parent, child)
            self._hop_success[(parent, child)] = hop
        return hop

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
        check_finite("until", until)
        ledger = self._ledger.get(node)
        if ledger is None:
            return []
        segments = [
            (start, min(end, until), success)
            for start, end, success in ledger.segments
            if start < until
        ]
        if ledger.seg_start is not None and ledger.seg_start < until:
            segments.append((ledger.seg_start, until, ledger.seg_success))
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
        check_finite("until", until)
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
        _check_window(w0, w1)
        return self._node_stats(node, self._ledger.get(node), w0, w1)

    def _node_stats(
        self, node: int, ledger: _NodeLedger | None, w0: float, w1: float
    ) -> NodeDeliveryStats:
        if ledger is None:
            return NodeDeliveryStats(node, 0.0, 0.0)
        expected = ledger.lifetime.covered_within(w0, w1) * self.chunk_rate
        received = ledger.expected_received(w0, w1, self.chunk_rate)
        return NodeDeliveryStats(node, expected, min(received, expected))

    def window_snapshot(self, w0: float, w1: float) -> WindowSnapshot:
        """One measurement window's aggregates, in one pass over the
        ledger (:meth:`_fused_window`).

        Windows go forward: each starts at or after the end of the one
        before (every session measurement does, on any underlay), and a
        window reaching back before it is a ``ValueError``.  The pass
        reads per-node cursors that only move forward.
        """
        _check_window(w0, w1)
        if w0 < self._fused_from:
            raise ValueError(
                f"window [{w0}, {w1}) starts before the end of the last "
                f"one, {self._fused_from}"
            )
        self._fused_from = w1
        return self._fused_window(w0, w1)

    def _fused_window(self, w0: float, w1: float) -> WindowSnapshot:
        """:meth:`window_snapshot` in one pass over the ledger.

        Each accumulator receives the additions of the three separate
        passes, in ledger order, with the same clipping arithmetic
        (``max``/``min`` spelled as their compare-and-select), so every
        float is bit-identical.  What the pass skips adds nothing:

        * cursors pass closed intervals that ended at or before a fused
          window's start — they clip to nothing in every later window,
          which starts no earlier.  A cursor never passes the last
          interval of its list, the only one a close can still extend;
        * a *dormant* ledger (nothing open, every closed interval ended
          by the window's start) would add 0.0 to non-negative sums,
          which is exact;
        * a *steady* ledger (everything opened no later than the previous
          fused window's end, every closed interval ended by that
          window's start) adds the closed form: every earlier interval
          clips to nothing and ``0.0 + x == x``, so covered time is
          ``span = w1 - w0``, expected is ``span * rate`` and received
          ``(span * seg_success) * rate``, clipped to expected.

        Every ledger change resets ``state``.  A received segment adds
        ``(hi - lo) * success``, the association of
        :meth:`_NodeLedger.expected_received`.
        """
        rate = self.chunk_rate
        data_time = 0.0
        expected_total = 0.0
        received_total = 0.0
        rate_sum = 0.0
        rate_n = 0
        span = w1 - w0
        steady = span * rate
        for led in self._ledger.values():
            state = led.state
            if state:
                if state == _STEADY:
                    if span > 0:
                        data_time += span
                    if steady > 0:
                        received = span * led.seg_success * rate
                        if received > steady:  # min(received, expected)
                            received = steady
                        expected_total += steady
                        received_total += received
                        loss = 1.0 - received / steady
                        rate_sum += loss if loss > 0.0 else 0.0  # max(0.0, loss)
                        rate_n += 1
                continue
            # data_messages: reachable time in the window
            tot = 0.0
            reachable = led.reachable
            iv = reachable.intervals
            last = len(iv) - 1
            i = led.at_reach
            while i < last and iv[i][1] <= w0:
                i += 1
            led.at_reach = i
            for s, e in iv[i:] if i else iv:
                lo = s if s >= w0 else w0
                hi = e if e <= w1 else w1
                if hi > lo:
                    tot += hi - lo
            reach_open = reachable.open_start
            if reach_open is not None:
                lo = reach_open if reach_open >= w0 else w0
                if w1 > lo:
                    tot += w1 - lo
            data_time += tot
            # every closed interval ended by the window's start?
            behind = not iv or iv[-1][1] <= w0
            # expected: lifetime inside the window, times the rate
            tot = 0.0
            lifetime = led.lifetime
            iv = lifetime.intervals
            last = len(iv) - 1
            i = led.at_life
            while i < last and iv[i][1] <= w0:
                i += 1
            led.at_life = i
            for s, e in iv[i:] if i else iv:
                lo = s if s >= w0 else w0
                hi = e if e <= w1 else w1
                if hi > lo:
                    tot += hi - lo
            life_open = lifetime.open_start
            if life_open is not None:
                lo = life_open if life_open >= w0 else w0
                if w1 > lo:
                    tot += w1 - lo
            expected = tot * rate
            if iv and iv[-1][1] > w0:
                behind = False
            # received: reception segments inside the window, times the rate
            tot = 0.0
            iv = led.segments
            last = len(iv) - 1
            i = led.at_seg
            while i < last and iv[i][1] <= w0:
                i += 1
            led.at_seg = i
            for s, e, p in iv[i:] if i else iv:
                lo = s if s >= w0 else w0
                hi = e if e <= w1 else w1
                if hi > lo:
                    tot += (hi - lo) * p
            seg_start = led.seg_start
            if seg_start is not None:
                lo = seg_start if seg_start >= w0 else w0
                if w1 > lo:
                    tot += (w1 - lo) * led.seg_success
            received = tot * rate
            if received > expected:  # min(received, expected)
                received = expected
            expected_total += expected
            received_total += received
            if expected > 0:
                loss = 1.0 - received / expected
                rate_sum += loss if loss > 0.0 else 0.0  # max(0.0, loss)
                rate_n += 1
            if not behind or (iv and iv[-1][1] > w0):
                continue
            if life_open is None:
                if reach_open is None and seg_start is None:
                    led.state = _DORMANT
            elif (
                reach_open is not None
                and seg_start is not None
                and life_open <= w1
                and reach_open <= w1
                and seg_start <= w1
            ):
                led.state = _STEADY
        if expected_total > 0:
            loss_rate = 1.0 - received_total / expected_total
            if not loss_rate > 0.0:  # max(0.0, loss_rate)
                loss_rate = 0.0
        else:
            loss_rate = 0.0
        return WindowSnapshot(
            loss_rate=loss_rate,
            mean_node_loss=rate_sum / rate_n if rate_n else 0.0,
            data_messages=data_time * rate,
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
        _check_window(w0, w1)
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

        The absolute counterpart of the loss rate: summed
        ``expected - received`` per member, so a correlated outage's cost
        shows up in stream units rather than a ratio.
        """
        _check_window(w0, w1)
        lost = 0.0
        for node, ledger in self._ledger.items():
            stats = self._node_stats(node, ledger, w0, w1)
            lost += stats.expected_chunks - stats.received_chunks
        return lost

    def data_messages(self, w0: float, w1: float) -> float:
        """Expected data transmissions on overlay links during the window.

        Each reachable node receives ``chunk_rate`` transmissions per
        second from its parent (sent regardless of en-route loss), so the
        total is the rate times the summed reachable time.
        """
        _check_window(w0, w1)
        total_time = 0.0
        for ledger in self._ledger.values():
            total_time += ledger.reachable.covered_within(w0, w1)
        return total_time * self.chunk_rate
