"""Smoke tests of the benchmark itself (``python -m pytest bench/tests -q``).

Not part of the tier-1 suite (``testpaths`` in pyproject.toml stays
``tests``): these run the benchmark end to end at ``--smoke`` sizes and
check its contract — schema, digests, span structure, ledger closure,
layer separation, wrapper removal — not the program under test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from tracing import Tracer, check_nesting  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "suite.json"
    t0 = time.perf_counter()
    proc = _run(BENCH / "run.py", "--smoke", "--reps", "1", "--trace", "--out", out)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), elapsed, proc.stdout


def test_smoke_runs_all_five_workloads_within_a_minute(suite):
    report, elapsed, _ = suite
    assert list(report["workloads"]) == WORKLOADS
    assert len(WORKLOADS) == 5
    assert elapsed < 60.0


def test_output_matches_benchmark_json(suite):
    report, _, stdout = suite
    for workload, entry in report["workloads"].items():
        assert entry["correct"] and entry["sim_digest"], workload
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            reported = {name: m["unit"] for name, m in entry[kind].items()}
            assert reported == declared, (workload, kind)
        for name, m in entry["end_to_end"].items():
            assert m["median"] > 0, (workload, name)
            assert name in stdout
    hygiene = report["hygiene"]
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "seed", "reps"):
        assert key in hygiene
    flags = report["workloads"]["churn_msg"]["flags"]
    assert flags["REPRO_JOBS"] == "1" and flags["REPRO_BATCHED_REPS"] == "0"
    assert "bench/.work" in flags["REPRO_CACHE_DIR"]


def test_ledger_sums_to_the_traced_wall_time(suite):
    report, _, _ = suite
    for workload, entry in report["workloads"].items():
        ledger = entry["ledger"]
        assert ledger["sum_s"] == pytest.approx(ledger["traced_wall_s"], rel=0.05)
        lines = {line["name"]: line for line in ledger["lines"]}
        assert all(line["seconds"] >= 0 for line in lines.values()), workload
        layer = entry["per_layer"]
        if workload in ("churn_msg", "fault_failover"):
            # the named residual is the ledger's run_until line
            assert layer["protocols.self_s"]["value"] == pytest.approx(
                lines["engine.run_until"]["seconds"]
            )
            assert lines["engine.est_s"]["kind"] == "estimated"


def test_layers_separate_by_workload(suite):
    report, _, _ = suite
    layers = {
        w: {n: m["value"] for n, m in e["per_layer"].items()}
        for w, e in report["workloads"].items()
    }
    for workload, layer in layers.items():
        assert "trace_overhead_share" in layer
        service = [v for n, v in layer.items() if n.startswith("service.")]
        assert any(service) == (workload == "service_flash"), workload
        assert bool(layer["batched.ratio"]) == (workload == "fig_sweep"), workload
        scale = [v for n, v in layer.items() if n.startswith("scale.")]
        assert any(scale) == (workload == "scale_join"), workload
    churn, scale = layers["churn_msg"], layers["scale_join"]
    assert churn["underlay.sparse_rows_computed"] == 0
    assert scale["engine.events_processed"] == 0 and scale["tree.mutations"] == 0
    body = report["workloads"]["churn_msg"]["ledger"]["sum_s"]
    carried = churn["engine.est_s"] + churn["protocols.self_s"] + churn["tree.replay_s"]
    assert carried >= 0.5 * body
    body = report["workloads"]["scale_join"]["ledger"]["sum_s"]
    carried = (
        scale["scale.build_tree_s.vdm"]
        + scale["scale.build_tree_s.hmtp"]
        + scale["scale.metrics_s"]
    )
    assert carried >= 0.5 * body
    assert layers["fault_failover"]["faults.injected"] > 0
    assert layers["fault_failover"]["underlay.path_error_calls"] > 0


def test_trace_files_nest_and_share_a_run_id(suite):
    for workload in WORKLOADS:
        trace = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
        spans = trace["spans"]
        assert spans and check_nesting(spans) == []
        assert {s["workload"] for s in spans} == {workload}
        assert {s["run_id"] for s in spans} == {trace["run_id"]}


def test_one_run_prints_the_contract_object(tmp_path):
    detail = tmp_path / "detail.json"
    proc = _run(
        *SPEC["command"][1:], "--workload", "churn_msg", "--seed", "5",
        "--seconds", "1", "--trace", "1", "--smoke", "--out", detail,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    # Wrappers came off: untraced rounds ran after the traced one in the
    # same process and every round reproduced the reference digest.
    info = json.loads(detail.read_text())
    assert info["traced_rounds"] >= 1 and info["rounds"] > info["traced_rounds"]
    assert info["problems"] == []

    again = _run(
        *SPEC["command"][1:], "--workload", "churn_msg", "--seed", "5",
        "--seconds", "1", "--trace", "0", "--smoke", "--out", detail,
    )
    assert again.returncode == 0, again.stderr
    untraced = json.loads(again.stdout.strip().splitlines()[-1])
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert json.loads(detail.read_text())["sim_digest"] == info["sim_digest"]


def test_seed_changes_inputs_not_sizes(tmp_path):
    digests, units = set(), set()
    for seed in (1, 2):
        detail = tmp_path / f"{seed}.json"
        proc = _run(
            BENCH / "run.py", "--workload", "scale_join", "--seed", seed,
            "--seconds", "0.2", "--smoke", "--out", detail,
        )
        assert proc.returncode == 0, proc.stderr
        info = json.loads(detail.read_text())
        digests.add(info["sim_digest"])
        units.add(tuple(info["units"]))
    assert len(digests) == 2 and len(units) == 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out")
    )
    proc = _run(
        "bench/run.py", "--workload", "churn_msg", "--seed", "1",
        "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_wrappers_come_off():
    class Layer:
        def query(self, x):
            return x + 1

    layer = Layer()
    tracer = Tracer("unit", "run-1")
    tracer.wrap_count(layer, "query", "layer.query")
    tracer.wrap_span(layer, "query", "layer.query")
    with tracer.span("root"):
        assert layer.query(1) == 2
    assert tracer.counts_in("layer.query")["layer.query"] == 1
    assert "query" in vars(layer) and tracer.installed == 2
    tracer.remove_all()
    assert "query" not in vars(layer) and tracer.installed == 0
    assert layer.query(1) == 2 and len(tracer.spans) == 2
    assert sum(tracer.self_times().values()) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start
    )


def _entry(values):
    values = sorted(values)
    return {
        "median": values[len(values) // 2],
        "q1": values[len(values) // 4],
        "q3": values[(3 * len(values)) // 4],
        "n": len(values),
        "values": values,
    }


def test_compare_verdicts():
    base = _entry([1.00, 1.01, 1.02, 1.03, 1.04])
    assert compare.verdict(base, base, better="lower", bound=0.1) == "unchanged"
    slower = _entry([1.30, 1.31, 1.32, 1.33, 1.34])
    assert compare.verdict(base, slower, better="lower", bound=0.1) == "regressed"
    assert compare.verdict(base, slower, better="higher", bound=0.1) == "improved"
    faster = _entry([0.90, 0.91, 0.92, 0.93, 0.94])
    assert compare.verdict(base, faster, better="lower", bound=0.1) == "improved"
    # every run better, but by less than the two spreads together
    a_bit = _entry([0.991, 0.993, 0.996, 0.998, 0.999])
    assert compare.verdict(base, a_bit, better="lower", bound=0.1) == "unchanged"
    noisy = _entry([0.80, 0.90, 1.00, 1.25, 1.40])
    assert compare.verdict(base, noisy, better="lower", bound=0.1) == "unresolved"


def test_compare_a_result_with_itself(suite, tmp_path, capsys):
    report, _, _ = suite
    path = tmp_path / "a.json"
    path.write_text(json.dumps(report))
    assert compare.main([str(path), str(path)]) == 0
    table = capsys.readouterr().out
    assert "0 regressed" in table and " of " in table
