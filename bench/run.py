#!/usr/bin/env python3
"""The repo's benchmark: five workloads, host-time end-to-end metrics, and
an outside-in per-layer ledger.

Two ways in, one program:

* **one run** (what ``BENCHMARK.json``'s ``command`` drives)::

      python3 bench/run.py --workload churn_msg --seed 7 --seconds 10 --trace 0

  sets the workload up from the seed, repeats its body for ``--seconds``,
  checks every output, and prints one JSON object as the last line of
  stdout.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
  per-layer metrics (from a traced round, with its overhead measured
  against untraced rounds of the same inputs).

* **the suite** (no ``--workload``)::

      python3 bench/run.py [--seed N] [--reps K] [--workloads a,b]
                           [--trace] [--smoke] [--out FILE]

  runs every workload ``K`` times, reps interleaved round-robin, each
  (workload, rep) in a fresh subprocess of the one-run form, then prints
  every metric by name with its unit and writes medians, quartiles and
  cv to ``--out`` for ``bench/compare.py``.

See ``bench/README.md`` for the glossary and the measurement method.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from calibration import Timing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), degenerate-safe for fewer than two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _scrub_env(workdir: Path) -> None:
    """``REPRO_JOBS=1``, a private artifact cache, and nothing else: no
    ambient ``REPRO_*`` knob reaches the program (the workload's own pins
    are applied on top once it is known)."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")


def _flag_snapshot() -> dict[str, str]:
    from repro.util.envflags import FLAG_REGISTRY

    return {
        name: os.environ.get(name, spec.default)
        for name, spec in sorted(FLAG_REGISTRY.items())
    }


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _time_setups(workload, cache: Path, *, smoke: bool) -> list[Timing]:
    """Cold substrate builds, each against an emptied private cache.

    Repeats until at least three builds and one second of building (cheap
    substrates get more samples), at most fifteen."""
    timings: list[Timing] = []
    ref = calibration.sample()
    while True:
        shutil.rmtree(cache, ignore_errors=True)
        gc.collect()
        _, timing, ref = calibration.timed(workload.build_substrate, ref)
        timings.append(timing)
        enough = len(timings) >= 3 and sum(t.wall for t in timings) >= 1.0
        if enough or len(timings) >= 15 or (smoke and len(timings) >= 2):
            return timings


def _run_round(workload, tracer, *, observe: bool):
    """Run every unit once; returns per-unit :class:`Timing` and results.

    Only the unit call is inside the clock; garbage collection and the
    reference-kernel samples around it, and the correctness checks after
    it, are not.
    """
    from workloads import UnitResult

    timings = []
    results = []
    ref = calibration.sample()
    for unit in workload.units:
        gc.collect()
        if tracer is None:
            call = lambda: unit.run(None)  # noqa: E731
        else:
            def call():
                with tracer.span(f"unit:{unit.label}"):
                    return unit.run(tracer)

        started = time.perf_counter()
        try:
            raw, timing, ref = calibration.timed(call, ref)
            result = workload.summarize(unit.label, raw)
            if observe:
                workload.observe(unit.label, raw)
        except Exception as exc:  # a unit that raises is a failed unit
            elapsed = time.perf_counter() - started
            print(f"unit {unit.label} raised: {exc!r}", file=sys.stderr)
            ref = calibration.sample()
            timing = Timing(elapsed, elapsed, *ref)
            result = UnitResult(
                stats={"raised": repr(exc)},
                failed=1,
                problems=[f"{unit.label}: raised {exc!r}"],
            )
        timings.append(timing)
        results.append(result)
    return timings, results


def _digest(results) -> str:
    payload = json.dumps([r.stats for r in results], sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _body(rounds: list[list[Timing]], field: str = "wall_cal", units=None) -> float:
    """Body time: each unit's median over rounds, summed over the body
    (or over the listed unit indices)."""
    units = range(len(rounds[0])) if units is None else units
    return sum(
        statistics.median(getattr(r[u], field) for r in rounds) for u in units
    )


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            "bench/run.py: no src/repro next to bench/ — the benchmark runs "
            "the program from source and cannot run without it",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_one(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_one(args, spec: dict, workdir: Path) -> int:
    _scrub_env(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    os.environ.update(cls.env)

    from repro.util import memprof

    workload = cls(args.seed, args.smoke, workdir)
    cache = workdir / "cache"
    problems: list[str] = []

    setups = _time_setups(workload, cache, smoke=args.smoke)
    setup_s = statistics.median(t.wall_cal for t in setups)
    artifact_bytes = _dir_bytes(cache) if cache.exists() else 0
    workload.prepare()

    # Warm-up round: lazy set-up finishes here, and its digest is the
    # reference every later round of the same inputs must reproduce.
    warm_times, warm_results = _run_round(workload, None, observe=False)
    reference = _digest(warm_results)
    warm_wall = sum(t.wall_cal for t in warm_times)
    rss_resettable = memprof.reset_peak_rss()

    attempted = sum(r.attempted for r in warm_results)
    failed = sum(r.failed for r in warm_results)
    for r in warm_results:
        problems.extend(r.problems)

    def run_round(tracer, observe=False):
        nonlocal attempted, failed
        timings, results = _run_round(workload, tracer, observe=observe)
        attempted += sum(r.attempted for r in results)
        failed += sum(r.failed for r in results)
        for r in results:
            problems.extend(r.problems)
        if _digest(results) != reference:
            problems.append(
                "sim_digest changed between rounds of the same inputs"
                + (" (traced round)" if tracer is not None else "")
            )
        return timings

    rounds: list[list[Timing]] = []
    traced_rounds: list[list[Timing]] = []
    tracer = None
    started = time.perf_counter()
    if not args.trace:
        while len(rounds) < 2 or time.perf_counter() - started < args.seconds:
            rounds.append(run_round(None))
    else:
        from tracing import Tracer

        tracer = Tracer(args.workload, f"{args.workload}-{args.seed}-{os.getpid()}")
        # Untraced and traced rounds of the same inputs alternate, so both
        # sides of trace_overhead_share sample the same host epochs.
        while len(traced_rounds) < 1 or time.perf_counter() - started < args.seconds:
            rounds.append(run_round(None))
            tracer.rep = len(traced_rounds)
            workload.instrument(tracer)
            try:
                traced_rounds.append(
                    run_round(tracer, observe=not traced_rounds)
                )
            finally:
                tracer.remove_all()
        # One more untraced round after the last wrapper came off: the
        # pristine program must still reproduce the reference digest.
        rounds.append(run_round(None))

    # Counts are per body and identical every round (the digest says so).
    wall_s = _body(rounds)
    cpu_s = _body(rounds, "cpu_cal")
    peak_rss_mb = memprof.peak_rss_bytes() / 2**20
    sessions = sum(r.sessions for r in warm_results)
    events = sum(r.events for r in warm_results)
    joins = sum(r.joins for r in warm_results)
    join_wall = _body(
        rounds, units=[u for u, r in enumerate(warm_results) if r.joins]
    )
    end_to_end = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "sessions_per_s": sessions / wall_s,
        "events_per_s": events / wall_s,
        "joins_per_s": joins / join_wall if join_wall else 0.0,
        "ok_share": 1.0 - failed / attempted,
    }

    # How much slower than the reference box at full speed this host ran,
    # as the kernel samples around the timed rounds saw it.
    host_slowdown = (
        statistics.median(t.ref_wall for r in rounds for t in r)
        / calibration.REFERENCE_S
    )
    per_layer: dict[str, float] = {}
    ledger_out = None
    if tracer is not None:
        per_layer, ledger_out = _per_layer(
            workload, tracer, rounds, traced_rounds, workdir
        )
        per_layer["substrates.cold_build_s"] = setup_s
        per_layer["substrates.artifact_mb"] = artifact_bytes / 2**20
        per_layer["harness.first_round_excess_s"] = max(warm_wall - wall_s, 0.0)
        per_layer["harness.host_slowdown"] = host_slowdown
        for name, stats in getattr(workload, "side_stats", {}).items():
            if stats != [r.stats for r in warm_results]:
                problems.append(f"figure tables differ on the {name} path")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}.json", ledger=ledger_out)

    correct = not problems
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in metrics_spec
    }
    for line in problems:
        print(f"PROBLEM {line}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "smoke": bool(args.smoke),
        "seconds": args.seconds,
        "sim_digest": reference,
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "units": [u.label for u in workload.units],
        "unit_wall_s": [[t.wall for t in r] for r in rounds],
        "unit_wall_cal_s": [[t.wall_cal for t in r] for r in rounds],
        "setup_samples_s": [t.wall for t in setups],
        "host_slowdown": host_slowdown,
        "first_round_wall_s": warm_wall,
        "rss_resettable": rss_resettable,
        "flags": _flag_snapshot(),
        "problems": problems,
        "ledger": ledger_out,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print(
        f"{args.workload} seed={args.seed} trace={int(args.trace)} "
        f"rounds={len(rounds)} sim_digest={reference[:16]}"
    )
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


#: spans whose self time is orchestration rather than a layer's own work
_HARNESS_SPANS = ("session.build", "session.run", "service.build")


def _per_layer(workload, tracer, rounds, traced_rounds, workdir):
    """Per-layer metrics and the ledger of the fastest traced round.

    Ledger lines and the ``*_s`` layer figures derived from them are raw
    host seconds of that one round (divide by ``harness.host_slowdown`` to
    compare across runs); only the end-to-end metrics, the substrate
    timings and ``trace_overhead_share`` are calibrated.
    """
    import probes

    untraced_wall = _body(rounds)
    traced_wall = _body(traced_rounds)
    # The ledger describes one concrete round, in raw seconds: the traced
    # round the host slowed down least.
    traced_walls = [sum(t.wall for t in r) for r in traced_rounds]
    best_rep = min(range(len(traced_walls)), key=traced_walls.__getitem__)

    # Counters accumulated over every traced round of identical inputs;
    # bring them back to one body.
    tracer.per_round(len(traced_rounds))

    ledger = {
        name: [seconds, "measured"]
        for name, seconds in tracer.self_times(rep=best_rep).items()
    }
    ledger_wall = sum(seconds for seconds, _ in ledger.values())
    workload.probe(tracer, ledger)

    layer = dict(workload.layer)
    totals = tracer.totals(rep=best_rep)
    for span_name, prefix, call_key in (
        ("collectors.collect_tree_metrics", "collectors", "collect"),
        ("delivery.window_snapshot", "delivery", "window_snapshot"),
    ):
        calls, inclusive = totals.get(span_name, (0, 0.0))
        layer[f"{prefix}.{call_key}_calls"] = calls
        layer[f"{prefix}.{call_key}_ms"] = 1000.0 * inclusive / calls if calls else 0.0
        layer[f"{prefix}.self_s"] = ledger.get(span_name, [0.0])[0]
    # Orchestration outside the layer spans: unit glue, session/runtime
    # construction, result folding after the event loop.
    layer["harness.self_s"] = sum(
        seconds
        for name, (seconds, _) in ledger.items()
        if name.startswith("unit:") or name in _HARNESS_SPANS
    )
    body = sum(seconds for seconds, _ in ledger.values())
    if body:
        layer["invariants.share"] = layer.get("invariants.replay_s", 0.0) / body

    warm = []
    ref = calibration.sample()
    for _ in range(3):
        _, timing, ref = calibration.timed(workload.build_substrate, ref)
        warm.append(timing.wall_cal)
    layer["substrates.warm_load_s"] = statistics.median(warm)
    layer["harness.journal_record_us"] = probes.journal_record_us(
        workdir / "journal-probe"
    )
    layer["trace_overhead_share"] = (traced_wall - untraced_wall) / untraced_wall

    ledger_out = {
        "rep": best_rep,
        "traced_wall_s": traced_walls[best_rep],
        "sum_s": sum(seconds for seconds, _ in ledger.values()),
        "measured_sum_s": ledger_wall,
        "lines": [
            {"name": name, "seconds": seconds, "kind": kind}
            for name, (seconds, kind) in sorted(ledger.items())
        ],
    }
    return layer, ledger_out


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _hygiene(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
    }


def _child(workload: str, args, trace: int, detail_path: Path) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(detail_path),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["detail"] = json.loads(detail_path.read_text())
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return result


def _cv(values: list[float]) -> float | None:
    mean = statistics.fmean(values)
    if len(values) < 2 or mean == 0:
        return None
    return statistics.pstdev(values) / mean


def run_suite(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    scratch = BENCH_DIR / ".work" / f"suite-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runs: dict[str, list[dict]] = {w: [] for w in chosen}
    traced: dict[str, dict] = {}
    try:
        # Reps interleave round-robin across workloads, so a slow host
        # epoch lands on every workload's sample rather than on one's.
        for rep in range(args.reps):
            for workload in chosen:
                print(f"[rep {rep + 1}/{args.reps}] {workload}", file=sys.stderr)
                runs[workload].append(
                    _child(workload, args, 0, scratch / f"{workload}-{rep}.json")
                )
        if args.trace:
            for workload in chosen:
                print(f"[trace] {workload}", file=sys.stderr)
                traced[workload] = _child(
                    workload, args, 1, scratch / f"{workload}-trace.json"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ok = True
    report = {"schema": "bench-suite/1", "hygiene": _hygiene(args), "workloads": {}}
    for workload in chosen:
        samples = runs[workload]
        digests = {r["detail"]["sim_digest"] for r in samples}
        if workload in traced:
            digests.add(traced[workload]["detail"]["sim_digest"])
        entry = {
            "sim_digest": sorted(digests)[0] if len(digests) == 1 else None,
            "sim_digests": sorted(digests),
            "correct": all(r["correct"] for r in samples) and len(digests) == 1,
            "attempted": sum(r["attempted"] for r in samples),
            "failed": sum(r["failed"] for r in samples),
            "rss_resettable": samples[0]["detail"]["rss_resettable"],
            "flags": samples[0]["detail"]["flags"],
            "end_to_end": {},
        }
        if len(digests) != 1:
            print(f"{workload}: sim_digest differs between runs", file=sys.stderr)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in samples]
            q1, median, q3 = quartiles(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "n": len(values),
                "cv": _cv(values),
                "values": values,
            }
        if workload in traced:
            run = traced[workload]
            entry["correct"] = entry["correct"] and run["correct"]
            entry["per_layer"] = {
                name: m for name, m in run["metrics"].items()
            }
            entry["ledger"] = run["detail"]["ledger"]
        ok = ok and entry["correct"]
        report["workloads"][workload] = entry

    _print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def _print_report(report: dict) -> None:
    for workload, entry in report["workloads"].items():
        digest = entry["sim_digest"] or "MISMATCH"
        print(f"\n{workload}  sim_digest={digest[:16]}  correct={entry['correct']}")
        for name, m in entry["end_to_end"].items():
            print(
                f"  {name:16s} {m['median']:12.6g} {m['unit']:6s} "
                f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
            )
        for name, m in entry.get("per_layer", {}).items():
            print(f"  {name:38s} {m['value']:12.6g} {m['unit']}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--workloads", help="suite: comma-separated subset")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the detailed result JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(load_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
