"""Outside-in tracing for the benchmark: spans, call counters, wrappers.

Nothing under ``src/`` knows it is being traced.  A :class:`Tracer`
installs *instance-level* wrappers on the objects a workload hands it
(``underlay.delay_ms``, ``session.sim.run_until``, ...) and, for the two
module-level functions a session reaches through its own module globals
(``collect_tree_metrics``, ``cell_batch``), a temporary patch of that
global.  :meth:`Tracer.remove_all` undoes every one of them, so an
untraced run in the same process sees the pristine program again.

Two kinds of wrapper, by call cost:

* **spans** for coarse calls (>= ~50 us): ``name, start, end, parent,
  workload, rep`` records kept in memory and written out once at exit;
* **counters** for fine calls (sub-us): the call is only counted here and
  *costed* later by a microprobe of the same public function
  (:mod:`probes`), because a clock read per call would cost more than the
  call itself.

A span's *self time* is its duration minus the part of it covered by its
child spans, so self times of all spans sum to the root spans' wall time
exactly.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Span", "Tracer", "check_nesting"]

_MISSING = object()


class Span:
    """One timed interval; ``parent`` indexes :attr:`Tracer.spans`."""

    __slots__ = ("name", "start", "end", "parent", "rep")

    def __init__(self, name: str, start: float, parent: int | None, rep: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rep = rep


class Tracer:
    """Span recorder plus the registry of installed wrappers."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.rep = 0
        self.spans: list[Span] = []
        #: fine-call counters, attributed to the innermost open span's name
        self._counts_by_span: dict[str, Counter[str]] = defaultdict(Counter)
        self._active: Counter[str] = self._counts_by_span[""]
        self._stack: list[int] = []
        #: (owner, attribute, previous instance value or _MISSING)
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.rep)
        self.spans.append(span)
        self._stack.append(index)
        outer_counts = self._active
        self._active = self._counts_by_span[name]
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._active = outer_counts
            self._stack.pop()

    @property
    def counts(self) -> Counter[str]:
        """Fine-call counts over the whole traced run."""
        total: Counter[str] = Counter()
        for counts in self._counts_by_span.values():
            total.update(counts)
        return total

    def counts_in(self, span_name: str) -> Counter[str]:
        """Fine calls made directly under spans named ``span_name`` (not
        under a child span of theirs)."""
        return self._counts_by_span[span_name]

    def per_round(self, rounds: int) -> None:
        """Bring counters accumulated over ``rounds`` traced rounds of
        identical inputs back to one round (the division is exact)."""
        for counts in self._counts_by_span.values():
            for key in counts:
                counts[key] //= rounds

    def self_times(self, rep: int | None = None) -> dict[str, float]:
        """Self time per span name (optionally for one rep only)."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if rep is None or span.rep == rep:
                out[span.name] += (span.end - span.start) - covered[index]
        return dict(out)

    def totals(self, rep: int | None = None) -> dict[str, tuple[int, float]]:
        """(calls, inclusive seconds) per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if rep is None or span.rep == rep:
                entry = out[span.name]
                entry[0] += 1
                entry[1] += span.end - span.start
        return {name: (n, t) for name, (n, t) in out.items()}

    # -- wrappers ------------------------------------------------------------

    def _install(self, owner, attr: str, replacement) -> None:
        previous = vars(owner).get(attr, _MISSING)
        self._installed.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def wrap_span(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``owner`` is an instance (instance-level wrapper shadowing the
        class method) or a module (temporary patch of a module global).
        """
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        self._install(owner, attr, traced)

    def wrap_count(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` with a version that only counts calls."""
        inner = getattr(owner, attr)

        def counted(*args, **kwargs):
            self._active[key] += 1
            return inner(*args, **kwargs)

        self._install(owner, attr, counted)

    def wrap_with(self, owner, attr: str, make) -> None:
        """Install ``make(inner)`` in place of ``owner.attr``."""
        self._install(owner, attr, make(getattr(owner, attr)))

    def remove_all(self) -> None:
        """Undo every installed wrapper, most recent first."""
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    @property
    def installed(self) -> int:
        return len(self._installed)

    # -- output --------------------------------------------------------------

    def dump(self, path: Path, *, ledger: dict | None = None) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            "schema": "bench-trace/1",
            "run_id": self.run_id,
            "workload": self.workload,
            "counts": dict(self.counts),
            "ledger": ledger,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "workload": self.workload,
                    "rep": s.rep,
                    "run_id": self.run_id,
                }
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def check_nesting(spans: list[dict]) -> list[str]:
    """Structural problems in a dumped span list (empty = well nested)."""
    problems = []
    run_ids = {s["run_id"] for s in spans}
    if len(run_ids) > 1:
        problems.append(f"spans carry several run ids: {sorted(run_ids)}")
    for index, span in enumerate(spans):
        if span["end"] < span["start"]:
            problems.append(f"span {index} ({span['name']}) ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        if not 0 <= parent < index:
            problems.append(f"span {index} has parent {parent} not before it")
            continue
        outer = spans[parent]
        if span["start"] < outer["start"] or span["end"] > outer["end"]:
            problems.append(
                f"span {index} ({span['name']}) escapes its parent "
                f"{parent} ({outer['name']})"
            )
    return problems
