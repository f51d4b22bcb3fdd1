"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root: python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def test_normalisation_cancels_a_shared_host_factor():
    slices, refs, lead = [0.10, 0.12, 0.08], [0.010, 0.012, 0.010, 0.008], [0, 1, 2]
    norm = refclock.normalise(slices, refs, lead)
    assert norm == pytest.approx([0.10 / 0.011, 0.12 / 0.011, 0.08 / 0.009])
    slow = refclock.normalise([1.3 * s for s in slices], [1.3 * r for r in refs], lead)
    assert slow == pytest.approx(norm)
    units = 150
    assert refclock.throughput(units, norm) == pytest.approx(
        units / (sum(norm) * refclock.REF_NOMINAL_S))


def test_a_slice_without_a_trailing_reference_is_refused():
    with pytest.raises(ValueError, match="lacks a reference"):
        refclock.normalise([0.1, 0.1], [0.01, 0.01], [0, 1])
    with pytest.raises(ValueError):
        refclock.normalise([0.1], [0.01, 0.01], [])


def test_slice_clock_brackets_every_slice_and_drops_failed_units():
    clock = refclock.SliceClock(lambda: 0.01)
    clock.start()
    clock.cut()
    clock.stop()
    mark = clock.mark()
    clock.start()
    clock.discard(mark)
    assert len(clock.slices) == 2
    assert len(clock.normalised()) == 2
    assert all(clock.lead[k] + 1 < len(clock.refs) for k in range(2))


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_match_declarations():
    proc = bench("--workload", "simulate_recurrence", "--seed", "3", "--seconds", "0.1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload, at_root, monkeypatch, tmp_path):
    monkeypatch.setitem(run.TRACE_UNITS, workload, min(run.TRACE_UNITS[workload], 3))
    build = workloads.build

    def small_build(name, seed, work_dir, part=0):
        wl = build(name, seed, work_dir, part)
        if name == "optimize_point":
            wl.kwargs.update(budget=120, restarts=2)
        return wl

    monkeypatch.setattr(workloads, "build", small_build)
    args = SimpleNamespace(workload=workload, seed=5, seconds=1.0, trace=1)
    counts = []
    for _ in range(2):
        _, metrics, _ = run.traced_run(args, str(tmp_path))
        assert set(metrics) == set(run.PER_LAYER)
        counts.append({k: metrics[k] for k in spans.COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["engine.cycles"] > 0 and counts[0]["propagators.builds"] > 0


@pytest.mark.parametrize("name, wrong", [
    ("ERGOTROPY_BASELINE", 98.0),
    ("FROZEN_SIM_W_TOTAL", -0.00063),
    ("FROZEN_SIM_COV_DISTANCE", 0.75),
    ("FIRST_LAW_TOL", 0.0),
])
def test_a_wrong_reference_value_drives_ok_frac_below_one(name, wrong, at_root, monkeypatch,
                                                          tmp_path):
    monkeypatch.setattr(workloads, name, wrong)
    part = run.measure_part("simulate_recurrence", 1, 0, 0.0, str(tmp_path))
    assert part["failed"] == part["attempted"] == 1
    assert part["items"] == 0


def test_a_deterministic_but_wrong_scan_fails_the_frozen_block(at_root, monkeypatch):
    scan = workloads.explore.random_scan

    def stops_at_once(*args, **kwargs):
        return [dataclasses.replace(s, cycles=0, w_total=0.0) for s in scan(*args, **kwargs)]

    monkeypatch.setattr(workloads.explore, "random_scan", stops_at_once)
    wl = workloads.ScanThermal(1)
    assert wl.run_unit(0, refclock.SliceClock(lambda: 0.01)) == wl.BLOCK
    errors = wl.final_checks()
    assert errors and all(e.startswith("frozen block") for e in errors)


def test_the_seed_code_passes_the_frozen_block(at_root):
    assert workloads.ScanThermal(1).final_checks() == []


def test_first_law_residuals_of_a_cycles_csv():
    text = "cycle,W1,W2,Q1,Q2,dU\n1,-2.0,1.0,3.0,-4.0,0.0\n2,-2.0,1.0,3.0,-4.0,0.5\n"
    assert workloads.first_law_residuals(text) == pytest.approx([0.0, 0.5 / 10.5])


def test_optimize_hook_guard_fails_loudly(at_root, monkeypatch):
    wl = workloads.OptimizePoint()
    fake = SimpleNamespace(evaluations=25, ratio=-0.91)
    monkeypatch.setattr(workloads.explore, "optimize", lambda **kw: fake)
    clock = refclock.SliceClock(lambda: 0.01)
    with pytest.raises(workloads.BenchError, match="hook fired 0 times"):
        wl.run_unit(0, clock)


def test_tracer_restores_every_wrapper():
    import otto3.cli  # noqa: F401  (binds the functions the tracer wraps)
    originals = [spans._resolve(t)[2] for t in spans.LAYER_TARGETS]
    run_reduced = workloads.explore.run_reduced
    tracer = spans.Tracer()
    tracer.install()
    assert workloads.explore.run_reduced is not run_reduced
    tracer.uninstall()
    assert [spans._resolve(t)[2] for t in spans.LAYER_TARGETS] == originals
    assert workloads.explore.run_reduced is run_reduced


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "scan_thermal", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
