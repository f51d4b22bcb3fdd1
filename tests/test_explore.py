"""Seeded-scan determinism and optimizer bookkeeping."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from otto3.errors import ConfigError
from otto3.explore import (DIMENSIONS, Objective, OptimizeOutcome,
                           ParameterBox, PrepFamily, ScanSample, optimize,
                           random_scan)
from otto3.states import SqueezedVacuum, Thermal
from otto3 import engine
from otto3.engine import EngineParams, WorkNonNegative, run_reduced
from otto3.explore import (DEFAULT_BETA1, DEFAULT_SCAN_COOL_SAMPLES,
                           DEFAULT_SCAN_HEAT_SAMPLES)
from otto3.propagators import RampMode

from helpers import (MATCHED_R1, NBAR_BETA_001, OPT_ALPHA12, OPT_ALPHA23,
                     OPT_TAU_C, OPT_TAU_COMP, OPT_TAU_H, W_TOTAL_BASELINE)

RATIO_BASELINE = 0.9098591162635316


def published_box():
    """Every interval collapsed onto the best-known operating point."""
    return ParameterBox(alpha12=(OPT_ALPHA12, OPT_ALPHA12),
                        alpha23=(OPT_ALPHA23, OPT_ALPHA23),
                        tau_h=(OPT_TAU_H, OPT_TAU_H),
                        tau_c=(OPT_TAU_C, OPT_TAU_C),
                        tau_comp=(OPT_TAU_COMP, OPT_TAU_COMP))


class TestParameterBox:
    def test_dimension_order_is_stable(self):
        assert DIMENSIONS == ("alpha12", "alpha23", "tau_h", "tau_c",
                              "tau_comp", "omega3")

    def test_rejects_disordered_interval(self):
        with pytest.raises(ConfigError):
            ParameterBox(tau_h=(1.0, 0.5))

    def test_rejects_negative_interval(self):
        with pytest.raises(ConfigError):
            ParameterBox(alpha12=(-0.01, 0.05))

    def test_omega3_must_sit_strictly_inside_unit_interval(self):
        with pytest.raises(ConfigError):
            ParameterBox(omega3=(0.0, 0.5))
        with pytest.raises(ConfigError):
            ParameterBox(omega3=(0.5, 1.0))
        ParameterBox(omega3=(0.01, 0.99))

    def test_collapsed_interval_is_legal(self):
        box = ParameterBox(tau_h=(0.59, 0.59))
        assert box.interval("tau_h") == (0.59, 0.59)

    def test_interval_missing_omega3(self):
        with pytest.raises(ConfigError):
            ParameterBox().interval("omega3")

    def test_clip(self):
        box = ParameterBox(tau_h=(0.1, 0.9))
        assert box.clip("tau_h", 0.05) == 0.1
        assert box.clip("tau_h", 2.0) == 0.9
        assert box.clip("tau_h", 0.4) == 0.4


class TestPrepFamily:
    def test_thermal_family(self):
        prep = PrepFamily.THERMAL.preparation(0.1, beta1=0.01)
        assert isinstance(prep.modes[0], Thermal)
        assert_allclose(prep.modes[0].nbar, NBAR_BETA_001, rtol=1e-14)
        assert prep.modes[1].nbar == 0.0 and prep.modes[2].nbar == 0.0
        assert prep.omega3 == 0.1

    def test_squeezed_family_matches_thermal_energy(self):
        prep = PrepFamily.SQUEEZED.preparation(0.1, beta1=0.01)
        assert isinstance(prep.modes[0], SqueezedVacuum)
        assert_allclose(prep.modes[0].r, MATCHED_R1, rtol=1e-14)
        assert_allclose(PrepFamily.SQUEEZED.matched_r1(0.01), MATCHED_R1,
                        rtol=1e-14)

    def test_round_trip_by_value(self):
        assert PrepFamily("thermal") is PrepFamily.THERMAL
        assert PrepFamily("squeezed") is PrepFamily.SQUEEZED


class TestRandomScan:
    def test_empty_scan(self):
        assert random_scan(0, seed=1) == []

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            random_scan(-1, seed=1)
        with pytest.raises(ConfigError):
            random_scan(4, seed=1, workers=0)

    def test_box_needs_omega3(self):
        with pytest.raises(ConfigError):
            random_scan(4, seed=1, box=ParameterBox())

    def test_column_names_cover_every_field(self):
        assert ScanSample.COLUMNS == (
            "index", "alpha12", "alpha23", "tau_h", "tau_c", "tau_comp",
            "omega3", "cycles", "w_total", "d12_max", "d23_max", "d13_max",
            "n12_max", "n23_max", "n13_max")

    def test_rerun_is_bit_identical(self):
        a = random_scan(6, seed=3)
        b = random_scan(6, seed=3)
        assert a == b

    def test_sample_streams_are_independent_of_scan_size(self):
        short = random_scan(5, seed=11)
        long = random_scan(8, seed=11)
        assert long[:5] == short

    def test_workers_do_not_change_results(self):
        serial = random_scan(6, seed=5)
        pooled = random_scan(6, seed=5, workers=2)
        assert serial == pooled

    def test_stop_rule_keeps_total_work_nonpositive(self):
        samples = random_scan(24, seed=7)
        assert all(s.w_total <= 0.0 for s in samples)
        assert all(s.cycles >= 0 for s in samples)
        assert all(s.index == i for i, s in enumerate(samples))

    def test_thermal_runs_never_entangle_the_working_pair(self):
        samples = random_scan(24, seed=7)
        assert max(s.n12_max for s in samples) == 0.0
        assert max(s.d12_max for s in samples) > 0.0

    def test_weak_cold_contact_filter(self):
        samples = random_scan(12, seed=13, min_alpha23_tau_c=0.02)
        assert all(s.alpha23 * s.tau_c >= 0.02 for s in samples)
        unfiltered = random_scan(12, seed=13)
        assert samples != unfiltered

    def test_collapsed_omega3_pins_every_sample(self):
        box = ParameterBox(omega3=(0.3, 0.3))
        samples = random_scan(5, seed=2, box=box)
        assert all(s.omega3 == 0.3 for s in samples)

    def test_samples_respect_the_box(self):
        box = ParameterBox(alpha12=(0.01, 0.02), alpha23=(0.01, 0.02),
                           tau_h=(0.2, 0.4), tau_c=(0.2, 0.4),
                           tau_comp=(5.0, 6.0), omega3=(0.4, 0.6))
        for s in random_scan(8, seed=4, box=box):
            for name in DIMENSIONS:
                lo, hi = box.interval(name)
                assert lo <= getattr(s, name) <= hi


class TestOptimize:
    def test_omega3_must_come_from_exactly_one_place(self):
        with pytest.raises(ConfigError):
            optimize()
        with pytest.raises(ConfigError):
            optimize(omega3=0.5, box=ParameterBox(omega3=(0.1, 0.9)))

    def test_rejects_bad_budget_restarts_method(self):
        with pytest.raises(ConfigError):
            optimize(omega3=0.5, budget=0)
        with pytest.raises(ConfigError):
            optimize(omega3=0.5, restarts=0)
        with pytest.raises(ConfigError):
            optimize(omega3=0.5, method="annealing")

    def test_fully_pinned_box_is_a_single_evaluation(self):
        out = optimize(omega3=0.1, box=published_box())
        assert isinstance(out, OptimizeOutcome)
        assert out.converged
        assert out.evaluations == 1
        assert out.trace == ((1, out.value),)
        assert out.value == out.w_total
        assert 69 <= out.cycles <= 71
        assert_allclose(out.w_total, W_TOTAL_BASELINE, rtol=1e-9)
        assert_allclose(-out.ratio, RATIO_BASELINE, rtol=1e-9)
        assert out.best_params.alpha12 == OPT_ALPHA12
        assert out.best_params.tau_comp == OPT_TAU_COMP
        assert out.best_params.prep.omega3 == 0.1

    def test_ratio_objective_reports_the_ratio_as_value(self):
        out = optimize(omega3=0.1, box=published_box(),
                       objective=Objective.WORK_ERGOTROPY_RATIO)
        assert out.objective is Objective.WORK_ERGOTROPY_RATIO
        assert out.value == out.ratio
        assert out.ratio < 0.0

    def test_budget_of_one_returns_unconverged_presample(self):
        out = optimize(omega3=0.5, budget=1, seed=9, max_cycles=300)
        assert not out.converged
        assert out.evaluations == 1
        assert len(out.trace) == 1
        assert out.w_total == out.value

    def test_trace_is_a_monotone_improvement_log(self):
        out = optimize(omega3=0.5, budget=40, restarts=2, seed=1,
                       max_cycles=300)
        counts = [c for c, _ in out.trace]
        values = [v for _, v in out.trace]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert out.trace[-1][1] == out.value
        assert out.evaluations <= 40 + 10

    def test_best_point_stays_inside_the_box(self):
        box = ParameterBox(alpha12=(0.03, 0.04), alpha23=(1e-4, 1e-3),
                           tau_h=(0.5, 0.7), tau_c=(0.9, 1.1),
                           tau_comp=(84.0, 86.0))
        out = optimize(omega3=0.1, box=box, budget=60, restarts=2, seed=0)
        p = out.best_params
        for name in ("alpha12", "alpha23", "tau_h", "tau_c", "tau_comp"):
            lo, hi = box.interval(name)
            assert lo <= getattr(p, name) <= hi
        assert out.w_total <= 0.0
        assert out.w_total == out.value

    def test_differential_evolution_path(self):
        out = optimize(omega3=0.5, method="differential-evolution",
                       budget=200, seed=2, max_cycles=300)
        assert isinstance(out.converged, bool)
        assert out.evaluations >= 75
        assert out.w_total <= 0.0

    def test_squeezed_family_optimization_runs(self):
        out = optimize(omega3=0.1, box=published_box(),
                       family=PrepFamily.SQUEEZED)
        assert isinstance(out.best_params.prep.modes[0], SqueezedVacuum)
        assert out.w_total < 0.0


class TestScanEnsembles:
    """A scan steps its engines together; no sample may notice how."""

    SCAN = dict(n_samples=12, seed=21, max_cycles=400)

    def test_ensemble_and_sub_batch_sizes_do_not_change_samples(self, monkeypatch):
        reference = random_scan(**self.SCAN)
        for size in (1, 7, self.SCAN["n_samples"]):
            monkeypatch.setattr(engine, "_ENSEMBLE_SIZE", size)
            assert random_scan(**self.SCAN) == reference, f"ensembles of {size}"
        monkeypatch.setattr(engine, "_STACK_CYCLES", 1)
        assert random_scan(**self.SCAN) == reference, "one-engine sub-batches"
        monkeypatch.undo()
        assert random_scan(**self.SCAN, workers=2) == reference, "two workers"

    @pytest.mark.parametrize("family", list(PrepFamily))
    @pytest.mark.parametrize("ramp", list(RampMode))
    def test_sample_equals_run_reduced_on_its_params(self, family, ramp):
        samples = random_scan(6, seed=8, family=family, ramp=ramp, max_cycles=60)
        for s in samples:
            params = EngineParams(
                prep=family.preparation(s.omega3, DEFAULT_BETA1), alpha12=s.alpha12,
                alpha23=s.alpha23, tau_comp=s.tau_comp, tau_h=s.tau_h, tau_c=s.tau_c,
                ramp=ramp, stop=WorkNonNegative(), max_cycles=60)
            alone = run_reduced(params, heat_samples=DEFAULT_SCAN_HEAT_SAMPLES,
                                cool_samples=DEFAULT_SCAN_COOL_SAMPLES)
            assert s.cycles == alone.n_cycles
            assert s.w_total == alone.w_total
            assert (s.d12_max, s.d23_max, s.d13_max) == alone.discord_max
            assert (s.n12_max, s.n23_max, s.n13_max) == alone.negativity_max


@pytest.mark.parametrize("name, interval", [
    ("alpha12", (0.0, float("nan"))), ("tau_h", (0.0, float("inf"))),
    ("omega3", (float("nan"), 0.5)), ("tau_comp", (float("-inf"), 1.0))])
def test_parameter_box_rejects_non_finite_endpoints(name, interval):
    with pytest.raises(ConfigError):
        ParameterBox(**{name: interval})
