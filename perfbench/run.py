"""otto3 benchmark: one workload per process, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload scan_thermal --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation beyond
the reference slices, in fresh part processes (part.py) run one after
another.  units_per_s counts each workload's own work item: engines for
scan_thermal, objective evaluations for optimize_point and engine cycles
for simulate_recurrence.  --trace 1 runs a fixed list of units twice each,
plain and traced, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The program is imported from
./src; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "states.validations": "count",
    "states.validate_s": "s",
    "propagators.builds": "count",
    "propagators.build_s": "s",
    "engine.construct_s": "s",
    "engine.run_self_s": "s",
    "engine.self_s": "s",
    "engine.cycles": "count",
    "correlations.states_scored": "count",
    "correlations.score_s": "s",
    "energetics.ergotropy_calls": "count",
    "energetics.ergotropy_s": "s",
    "energetics.efficiency_calls": "count",
    "energetics.efficiency_s": "s",
    "explore.calls": "count",
    "explore.self_s": "s",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "host.ref_ms": "ms",
    "wall.program_s": "s",
    "trace.overhead_frac": "frac",
    "trace.gap_frac": "frac",
}

SETUP_REPS = 5
# Processes per measured run, one after another, each with its own hash
# seed.  The hash seed fixes a process's dict and set layouts, which moved
# the throughput of identical work by about 3% between processes; several
# processes per run average that out rather than pin one layout.  An
# optimize_point unit, a whole optimizer point of about 17 s, is too long
# to split.
PARTS = {"scan_thermal": 3, "optimize_point": 1, "simulate_recurrence": 3}
# Units of the traced run: fixed, so every count repeats exactly.
TRACE_UNITS = {"scan_thermal": 40, "optimize_point": 1, "simulate_recurrence": 40}


def import_program() -> None:
    """Import otto3 from ./src only, never from an installed copy."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "otto3", "__init__.py")):
        sys.exit("perfbench: ./src/otto3 not found; run from the repository root")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import otto3
    if not os.path.abspath(otto3.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported otto3 from {otto3.__file__}, not {src}")


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import otto3.cli and
    build the workload's inputs.  Raw seconds: bracketing the probes with
    reference calls made this figure noisier, not steadier."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr}")
    return statistics.median(times)


class Tally:
    """Units attempted and failed, work items of passed units."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.items = 0

    def run(self, wl, k: int, clock) -> None:
        from workloads import BenchError
        mark = clock.mark()
        self.attempted += 1
        try:
            self.items += wl.run_unit(k, clock)
        except BenchError:
            raise
        except Exception:
            traceback.print_exc(file=sys.stderr)
            clock.discard(mark)
            self.failed += 1

    def finish(self, wl) -> None:
        for msg in wl.final_checks():
            print(f"perfbench: check failed: {msg}", file=sys.stderr)
            self.failed += 1


def measure_part(workload: str, seed: int, part: int, seconds: float, work_dir: str) -> dict:
    """Measure one part of a run in this process: units for `seconds`, at
    least one, each inside reference-bracketed slices."""
    import refclock
    import workloads

    wl = workloads.build(workload, seed, work_dir, part)
    wl.warm_up()
    ref = refclock.ReferenceKernel()
    ref()
    clock = refclock.SliceClock(ref)
    tally = Tally()
    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        tally.run(wl, k, clock)
        k += 1
    tally.finish(wl)
    return {
        "item": wl.item,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "items": tally.items,
        "norm_s": sum(clock.normalised()),
        "raw_s": sum(clock.slices),
        "slices": len(clock.slices),
        "refs": clock.refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def part_hash_seed(seed: int, part: int) -> str:
    """PYTHONHASHSEED of one part, distinct for every seed and part."""
    return str((seed * 1000 + part) % 2**32)


def run_part(args, part: int) -> dict:
    """One part in a fresh interpreter with its own hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=part_hash_seed(args.seed, part))
    cmd = [sys.executable, os.path.join(HERE, "part.py"), args.workload, str(args.seed),
           str(part), repr(args.seconds / PARTS[args.workload])]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        from workloads import BenchError
        raise BenchError(f"part {part} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measured_run(args, work_dir: str) -> tuple[Tally, dict, dict]:
    import refclock

    setup_s = measure_setup(args.workload, args.seed)
    parts = [run_part(args, i) for i in range(PARTS[args.workload])]
    tally = Tally()
    tally.attempted = sum(p["attempted"] for p in parts)
    tally.failed = sum(p["failed"] for p in parts)
    tally.items = sum(p["items"] for p in parts)
    norm_s = sum(p["norm_s"] for p in parts)
    raw_s = sum(p["raw_s"] for p in parts)
    metrics = {
        "setup_s": setup_s,
        "units_per_s": refclock.throughput(tally.items, [norm_s]) if tally.items else 0.0,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    detail = {
        "item": parts[0]["item"],
        "items": tally.items,
        "parts": len(parts),
        "slices": sum(p["slices"] for p in parts),
        "raw_units_per_s": tally.items / raw_s if raw_s else 0.0,
        "host_ref_ms": refclock.median_ref_ms([r for p in parts for r in p["refs"]]),
        "program_s": raw_s,
        "hash_seeds": [part_hash_seed(args.seed, i) for i in range(len(parts))],
    }
    return tally, metrics, detail


def traced_run(args, work_dir: str) -> tuple[Tally, dict, dict]:
    import refclock
    import spans
    import workloads

    wl = workloads.build(args.workload, args.seed, work_dir)
    wl.warm_up()
    ref = refclock.ReferenceKernel()
    ref()
    plain = refclock.SliceClock(ref)
    traced = refclock.SliceClock(ref)
    tracer = spans.Tracer(clock=lambda: time.perf_counter() - traced.excluded)
    tally = Tally()
    for k in range(TRACE_UNITS[args.workload]):
        tally.run(wl, k, plain)
        tracer.unit = k
        tracer.install()
        try:
            tally.run(wl, k, traced)
        finally:
            tracer.uninstall()
    tally.finish(wl)

    program_s = sum(traced.slices)
    selfs = tracer.self_times()
    gap = program_s - sum(selfs[b] for b in spans.SELF_BUCKETS)
    norm_plain, norm_traced = sum(plain.normalised()), sum(traced.normalised())
    metrics = dict(tracer.counts)
    metrics.update({
        "states.validate_s": selfs["states.validate_s"],
        "propagators.build_s": selfs["propagators.build_s"],
        "engine.construct_s": selfs["engine.construct_s"],
        "engine.run_self_s": selfs["engine.run_self_s"],
        "engine.self_s": selfs["engine.construct_self_s"] + selfs["engine.run_self_s"]
        + selfs["engine.other_self_s"],
        "correlations.score_s": selfs["correlations.score_s"],
        "energetics.ergotropy_s": selfs["energetics.ergotropy_s"],
        "energetics.efficiency_s": selfs["energetics.efficiency_s"],
        "explore.self_s": selfs["explore.self_s"],
        "cli.parse_s": selfs["cli.parse_s"],
        "cli.write_s": selfs["cli.write_s"],
        "host.ref_ms": refclock.median_ref_ms(plain.refs + traced.refs),
        "wall.program_s": program_s,
        "trace.overhead_frac": norm_traced / norm_plain - 1.0 if norm_plain else 0.0,
        "trace.gap_frac": gap / program_s if program_s else 0.0,
    })
    spans_path = os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    detail = {"item": wl.item, "units": TRACE_UNITS[args.workload], "spans": len(tracer.spans),
              "spans_file": spans_path, "gap_s": gap}
    return tally, metrics, detail


def git_commit() -> str:
    """Commit of the checkout, or "unknown" outside a git checkout.  Git
    runs only where ./.git exists, so it never searches parent directories."""
    if not os.path.exists(".git"):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    src_lines = 0
    for root, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan_thermal", "optimize_point", "simulate_recurrence"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import BenchError

    work_dir = os.path.join(".bench_out", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = traced_run if args.trace else measured_run
        tally, metrics, detail = run(args, work_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(provenance()))
    print("detail " + json.dumps(detail))
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
