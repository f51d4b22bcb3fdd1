"""Run the benchmark twice over ten seeds and record how steady it is.

For every workload in BENCHMARK.json it makes two sets of `run.py --trace 0`
runs, seeds 1-10 and then seeds 11-20, one process at a time, with the
declared run_seconds.  For each end-to-end metric it reports both sets'
medians and spreads (quartile distance over the median), the shift of the
second median against the first in the metric's worse direction, and the
metric's bound.  The raw (unnormalised) throughput sits beside the
reference-normalised one.  The record is written to perfbench/STEADINESS.md.

Run from the repository root: python3 perfbench/steadiness.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = (range(1, 11), range(11, 21))
DIAGNOSTICS = ("raw_units_per_s", "host_ref_ms")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(seed=seed, correct=result["correct"],
               raw_units_per_s=detail["raw_units_per_s"], host_ref_ms=detail["host_ref_ms"])
    return row


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """q1, median, q3 and spread (q3 - q1) / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def worse_shift(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    lines = ["# Steadiness record", "",
             f"`python3 perfbench/steadiness.py`, {time.strftime('%Y-%m-%d')}, "
             f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
             f"{platform.python_version()}, run_seconds {seconds}.", "",
             "Set A is seeds 1-10, set B seeds 11-20, run one after the other. Spread is "
             "(q3 - q1) / median over a set's ten runs. Shift is how much worse B's median "
             "is than A's (negative: better). A metric agrees when both spreads, except "
             "those of `setup_s`, and the size of the shift stay within its bound. "
             "`raw_units_per_s` (unnormalised) and `host_ref_ms` are diagnostics.", ""]
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for seeds in SETS:
            rows = []
            for seed in seeds:
                row = run_once(workload, seed, seconds)
                rows.append(row)
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in row.items() if isinstance(v, float)), flush=True)
            sets.append(rows)
        section = [f"## {workload}", "",
                   "| figure | A median | A spread | B median | B spread | shift | bound | agrees |",
                   "|---|---|---|---|---|---|---|---|"]
        figures = [(m["name"], m["better"], m["bound"]) for m in metrics]
        figures += [(name, "higher" if name == "raw_units_per_s" else "lower", None)
                    for name in DIAGNOSTICS]
        for name, better, bound in figures:
            (_, med_a, _, spr_a), (_, med_b, _, spr_b) = (
                quartiles([r[name] for r in rows]) for rows in sets)
            shift = worse_shift(med_a, med_b, better)
            if bound is None:
                verdict, bound_text = "", ""
            else:
                spreads_ok = name == "setup_s" or max(spr_a, spr_b) <= bound
                verdict = "yes" if spreads_ok and abs(shift) <= bound else "NO"
                bound_text = f"{bound:g}"
            section.append(f"| {name} | {med_a:.6g} | {spr_a:.4f} | {med_b:.6g} | {spr_b:.4f} "
                           f"| {shift:+.4f} | {bound_text} | {verdict} |")
        names = [name for name, _, _ in figures]
        section += ["", "| set | seed | " + " | ".join(names) + " | correct |",
                    "|---" * (len(names) + 3) + "|"]
        for label, rows in zip("AB", sets):
            for r in rows:
                section.append(f"| {label} | {r['seed']} | "
                               + " | ".join(f"{r[n]:.6g}" for n in names)
                               + f" | {r['correct']} |")
        section.append("")
        print("\n".join(section), flush=True)
        lines += section
    with open(os.path.join(HERE, "STEADINESS.md"), "w") as fh:
        fh.write("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
