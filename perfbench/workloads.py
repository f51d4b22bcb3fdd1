"""The three benchmark workloads: otto3's scan, optimize and simulate paths.

Each workload is a sequence of units.  A unit runs inside slices of a
SliceClock, returns how many work items it completed (engines,
evaluations, cycles) and is checked for correct output.  Inputs come only
from the workload seed and the repository's pinned configs, through the
public otto3 API.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import astuple
from typing import Optional

import numpy as np

from otto3 import cli, explore
from otto3.explore import Objective, PrepFamily
from otto3.propagators import RampMode

from refclock import SliceClock

# Acceptance values, as pinned by tests/helpers.py and tests/test_acceptance.py.
ERGOTROPY_BASELINE = 98.41356992956304
ERGOTROPY_RTOL = 1e-6
RATIO_AT_OMEGA3_0_1 = 0.9099
RATIO_ATOL = 0.02

# Frozen outputs of the seed code, so that a fast but wrong kernel fails
# the checks even when it is deterministic.  Floats compare within
# FROZEN_RTOL (absolute FROZEN_ATOL near zero).
FROZEN_RTOL = 1e-9
FROZEN_ATOL = 1e-12
# random_scan(24, 20171) with configs/thermal_scan.json settings.
FROZEN_SCAN_SEED = 20171
FROZEN_SCAN_CYCLES = (17, 1, 2, 50, 2, 2, 1, 1, 36, 1, 107, 2, 1, 7, 4, 3, 185, 11, 3, 22,
                      1, 2, 5, 1)
FROZEN_SCAN_W_TOTAL = (
    -0.04312174011962133, -0.01764957081581736, -0.0022866311770477488,
    -3.470997789687139, -0.014550275452699268, -0.1165150747003817,
    -0.009541576798481444, -0.012429175262367365, -16.26817690290795,
    -9.513025660262686e-05, -3.305200340266297, -0.0028027402395969236,
    -0.1513490613218128, -3.624997545470521e-07, -0.32475064391571906,
    -0.008744253872241592, -4.1482900043455935, -0.00831085550646754,
    -0.016771788219392292, -5.1696726977736045, -0.01889687279563884,
    -0.3560848009858672, -0.0650143034241012, -0.003584074203077603)
# summary.json of `otto3 simulate --config configs/recurrence_140.json`.
FROZEN_SIM_N_CYCLES = 140
FROZEN_SIM_W_TOTAL = -0.0006290550566490083
FROZEN_SIM_COV_DISTANCE = 0.750993427791628
# First law per cycles.csv row: |W1 + W2 - Q1 - Q2 - dU| over
# max(1, |W1| + |W2| + |Q1| + |Q2| + |dU|).  The CSV keeps 13 significant
# digits, so the bound allows for rounding on top of the 1e-12 kernel bound.
FIRST_LAW_TOL = 1e-11


class UnitCheckError(Exception):
    """A unit completed but its output failed the benchmark's check."""


class BenchError(Exception):
    """The measurement itself is unsound; the run must not report numbers."""


def frozen_close(value: float, frozen: float) -> bool:
    return math.isclose(value, frozen, rel_tol=FROZEN_RTOL, abs_tol=FROZEN_ATOL)


def load_section(path: str, key: str) -> tuple[dict, int]:
    cfg = cli.load_config(path)
    return dict(cfg.get(key, {})), int(cfg.get("seed", 0))


class ScanThermal:
    """Consecutive random_scan blocks with configs/thermal_scan.json settings.

    Covers thousands of short engines (median 2 cycles, 99th percentile
    77): construction-bound, with sparse correlation scoring.  One block is
    one slice of about 0.13 s.
    """

    name = "scan_thermal"
    item = "engines"
    CONFIG = "configs/thermal_scan.json"
    BLOCK = 50

    def __init__(self, seed: int, part: int = 0) -> None:
        section, _ = load_section(self.CONFIG, "scan")
        self.seed = seed
        self.part = part
        self.family = PrepFamily(section.get("family", "thermal"))
        self.beta1 = float(section.get("beta1", explore.DEFAULT_BETA1))
        self.ramp = RampMode(section.get("ramp", RampMode.QUASI_STATIC.value))
        self._block0: Optional[bytes] = None

    def block_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, self.part, k]).generate_state(1)[0])

    def _scan(self, k: int, n: int = BLOCK) -> list:
        return self._scan_seeded(self.block_seed(k), n)

    def _scan_seeded(self, seed: int, n: int) -> list:
        return explore.random_scan(n, seed, family=self.family,
                                   beta1=self.beta1, ramp=self.ramp, workers=1)

    def run_unit(self, k: int, clock: SliceClock) -> int:
        clock.start()
        samples = self._scan(k)
        clock.stop()
        for s in samples:
            maxima = (s.d12_max, s.d23_max, s.d13_max, s.n12_max, s.n23_max, s.n13_max)
            if not (s.cycles >= 0 and s.w_total <= 0.0
                    and all(math.isfinite(v) and v >= 0.0 for v in maxima)):
                raise UnitCheckError(f"block {k}: sample {s.index} out of range: {s}")
        if k == 0:
            self._block0 = _scan_bytes(samples)
        return len(samples)

    def warm_up(self) -> None:
        self._scan(0, 4)

    def final_checks(self) -> list[str]:
        """Outside any slice: block 0 rerun must be byte-identical, and the
        frozen block must reproduce the seed code's cycles and w_total."""
        errors = []
        if self._block0 is not None and _scan_bytes(self._scan(0)) != self._block0:
            errors.append("block 0: rerun is not byte-identical")
        frozen = self._scan_seeded(FROZEN_SCAN_SEED, len(FROZEN_SCAN_CYCLES))
        if len(frozen) != len(FROZEN_SCAN_CYCLES):
            errors.append(f"frozen block: {len(frozen)} samples, "
                          f"expected {len(FROZEN_SCAN_CYCLES)}")
        for s, cycles, w_total in zip(frozen, FROZEN_SCAN_CYCLES, FROZEN_SCAN_W_TOTAL):
            if s.cycles != cycles or not frozen_close(s.w_total, w_total):
                errors.append(f"frozen block: sample {s.index} gave cycles={s.cycles} "
                              f"w_total={s.w_total!r}, expected {cycles} and {w_total!r}")
        return errors


def _scan_bytes(samples: list) -> bytes:
    return repr([astuple(s) for s in samples]).encode()


class OptimizePoint:
    """One full point of configs/ratio_sweep.json: omega3 = 0.1.

    98% of the time is in engine.run_reduced with correlations off, about
    3000 evaluations, so this is kernel-bound and bypasses correlations.
    The optimizer seed is the config's: the point's cost depends on the
    optimizer seed by up to 2x (156,577 to 333,926 cycles over seeds 0-10),
    which would swamp any change in the program.  A slice is every 10
    objective evaluations (about 40 ms), cut by a hook on
    otto3.explore.run_reduced, the one hook a measured run keeps.
    """

    name = "optimize_point"
    item = "evaluations"
    CONFIG = "configs/ratio_sweep.json"
    OMEGA3 = 0.1
    EVALS_PER_SLICE = 10

    def __init__(self) -> None:
        section, cfg_seed = load_section(self.CONFIG, "optimize")
        self.kwargs = dict(
            omega3=self.OMEGA3,
            objective=Objective(section.get("objective", "total_work")),
            budget=int(section.get("budget", 6000)),
            restarts=int(section.get("restarts", 16)),
            seed=cfg_seed)

    def run_unit(self, k: int, clock: SliceClock) -> int:
        inner = explore.run_reduced
        calls = 0

        def hooked(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % self.EVALS_PER_SLICE == 0:
                clock.cut()
            return inner(*args, **kwargs)

        explore.run_reduced = hooked
        try:
            clock.start()
            outcome = explore.optimize(**self.kwargs)
            clock.stop()
        finally:
            explore.run_reduced = inner
        if calls < outcome.evaluations:
            raise BenchError(f"run_reduced hook fired {calls} times for "
                             f"{outcome.evaluations} evaluations; slices are unsound")
        ratio = -outcome.ratio
        if not abs(ratio - RATIO_AT_OMEGA3_0_1) <= RATIO_ATOL:
            raise UnitCheckError(f"ratio {ratio:.6f} at omega3={self.OMEGA3} misses "
                                 f"{RATIO_AT_OMEGA3_0_1} +/- {RATIO_ATOL}")
        return outcome.evaluations

    def warm_up(self) -> None:
        explore.optimize(**dict(self.kwargs, budget=20, restarts=1))

    def final_checks(self) -> list[str]:
        return []


class SimulateRecurrence:
    """In-process `otto3 simulate` of configs/recurrence_140.json.

    One fully tracked engine run: artifact writing (timeseries CSV about
    43%) and the summary's ergotropy (30-38%) dominate and construction is
    under 1%, the opposite mix to scan_thermal.  One call is one slice of
    about 0.15-0.2 s.
    """

    name = "simulate_recurrence"
    item = "cycles"
    CONFIG = "configs/recurrence_140.json"
    ARTIFACTS = ("cycles.csv", "timeseries.csv", "summary.json")

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._first: Optional[tuple[bytes, ...]] = None
        cli.load_config(self.CONFIG)

    def _simulate(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["simulate", "--config", self.CONFIG, "--out", self.out_dir])

    def run_unit(self, k: int, clock: SliceClock) -> int:
        clock.start()
        code = self._simulate()
        clock.stop()
        if code != 0:
            raise UnitCheckError(f"otto3 simulate exited {code}")
        blobs = []
        for name in self.ARTIFACTS:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                blobs.append(fh.read())
        summary = json.loads(blobs[-1])
        eps = summary["ergotropy"]
        if not abs(eps - ERGOTROPY_BASELINE) <= ERGOTROPY_RTOL * ERGOTROPY_BASELINE:
            raise UnitCheckError(f"ergotropy {eps!r} misses {ERGOTROPY_BASELINE!r}")
        got = (summary["n_cycles"], summary["totals"]["W_total"],
               summary["covariance_distance"])
        if not (got[0] == FROZEN_SIM_N_CYCLES and frozen_close(got[1], FROZEN_SIM_W_TOTAL)
                and frozen_close(got[2], FROZEN_SIM_COV_DISTANCE)):
            raise UnitCheckError(f"summary (n_cycles, W_total, covariance_distance) = {got!r} "
                                 f"misses the frozen values")
        worst = max(first_law_residuals(blobs[0].decode()))
        if not worst <= FIRST_LAW_TOL:
            raise UnitCheckError(f"cycles.csv: first-law residual {worst:.3g} > {FIRST_LAW_TOL}")
        if self._first is None:
            self._first = tuple(blobs)
        elif tuple(blobs) != self._first:
            raise UnitCheckError(f"call {k}: artifacts differ from the first call's")
        return int(summary["n_cycles"])

    def warm_up(self) -> None:
        self._simulate()

    def final_checks(self) -> list[str]:
        return []


def first_law_residuals(cycles_csv: str) -> list[float]:
    """Relative first-law defect of every row of a cycles.csv."""
    out = []
    for row in csv.DictReader(io.StringIO(cycles_csv)):
        w1, w2, q1, q2, du = (float(row[k]) for k in ("W1", "W2", "Q1", "Q2", "dU"))
        scale = max(1.0, abs(w1) + abs(w2) + abs(q1) + abs(q2) + abs(du))
        out.append(abs(w1 + w2 - q1 - q2 - du) / scale)
    return out


WORKLOADS = ("scan_thermal", "optimize_point", "simulate_recurrence")


def build(name: str, seed: int, work_dir: str, part: int = 0):
    """Load the workload's config and make its inputs.

    Only scan_thermal draws its inputs from the seed, with distinct blocks
    for every part of a run; the other two run their pinned configs as they
    are, so any seed gives the same inputs.
    """
    if name == "scan_thermal":
        return ScanThermal(seed, part)
    if name == "optimize_point":
        return OptimizePoint()
    if name == "simulate_recurrence":
        return SimulateRecurrence(os.path.join(work_dir, "simulate"))
    raise ValueError(f"unknown workload {name!r}")
