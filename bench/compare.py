#!/usr/bin/env python3
"""Compare two suite result files: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (parent commit, or the first of two runs of one
commit), ``B`` the candidate.  For every (workload, end-to-end metric)
pair the table gives both medians with their quartiles, the ratio ``B/A``
*with its base*, and a verdict against the bound ``BENCHMARK.json`` fixes
for that metric:

``regressed``
    B's median is worse than A's by more than the bound.
``improved``
    every run of B reads better than every run of A, and B's median is
    better than A's by more than both sides' run-to-run spreads (the
    distances between their quartiles) put together.  Two sets taken one
    after the other support no finer claim — the first baseline pair of
    this very commit sits 4.6 % apart on one workload — a gain is
    *claimed* with ten alternating pairs (README, "Noise").
``unresolved``
    not improved, and a run-to-run spread (inter-quartile distance /
    median, of either side) exceeds the bound: the data cannot tell
    "unchanged" from "moved by less than the noise".
``unchanged``
    none of the above.

A differing ``sim_digest`` is reported per workload: host time may move,
simulated statistics may not, unless the change says so.  Exit status is
1 when any pair regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

__all__ = ["compare", "verdict", "main"]


def _spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(a: dict, b: dict, *, better: str, bound: float) -> str:
    """Verdict for one metric; ``a``/``b`` are suite entries with
    ``median``, ``q1``, ``q3`` and ``values``."""
    sign = 1.0 if better == "higher" else -1.0
    base = abs(a["median"])
    # positive = B better than A, as a share of A's median
    gain = sign * (b["median"] - a["median"]) / base if base else 0.0
    # every run of B reads better than every run of A
    clear_win = len(a["values"]) > 1 and min(sign * v for v in b["values"]) > max(
        sign * v for v in a["values"]
    )
    if gain < -bound:
        return "regressed"
    if clear_win and gain > _spread(a) + _spread(b):
        return "improved"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], list[str]]:
    """Rows for every shared (workload, metric) pair, plus digest notes."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    notes = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            notes.append(f"{workload}: missing from B")
            continue
        if entry_a["sim_digest"] != entry_b["sim_digest"]:
            notes.append(
                f"{workload}: sim_digest differs "
                f"({str(entry_a['sim_digest'])[:16]} -> "
                f"{str(entry_b['sim_digest'])[:16]})"
            )
        for name, m_a in entry_a["end_to_end"].items():
            m_b = entry_b["end_to_end"].get(name)
            if m_b is None or name not in bounds:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": m_a["unit"],
                    "a": m_a,
                    "b": m_b,
                    "ratio": m_b["median"] / m_a["median"] if m_a["median"] else None,
                    "bound": bounds[name]["bound"],
                    "verdict": verdict(
                        m_a,
                        m_b,
                        better=bounds[name]["better"],
                        bound=bounds[name]["bound"],
                    ),
                }
            )
    return rows, notes


def _fmt(m: dict) -> str:
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, notes = compare(a, b, spec)
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(
            f"{row['workload']:15s} {row['metric']:15s} "
            f"A={_fmt(row['a'])}  B={_fmt(row['b'])}  "
            f"B/A={ratio}x of {row['a']['median']:.5g} {row['unit']}  "
            f"bound={row['bound']:.0%}  {row['verdict']}"
        )
    for note in notes:
        print(f"NOTE {note}")
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    print(
        f"{len(rows)} pairs: "
        + ", ".join(
            f"{sum(r['verdict'] == v for r in rows)} {v}"
            for v in ("improved", "unchanged", "regressed", "unresolved")
        )
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
