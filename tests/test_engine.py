import argparse
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from otto3 import engine
from otto3.cli import build_engine_params, load_config
from otto3.energetics import mode_energies, mode_energy
from otto3.engine import (Engine, EngineParams, FixedCycles, TimeSeries,
                          WorkNonNegative, run_engine, run_reduced)
from otto3.errors import ConfigError, PhaseOrderError
from otto3.engine import _BATCH_POINT_BUDGET, run_reduced_ensemble
from otto3.propagators import RampMode
from otto3.states import (Preparation, SqueezedVacuum, Thermal,
                          thermal_preparation)

from helpers import (C1_BETA_001, first_law_residuals, optimized_params,
                     sudden_cycle_work)


def sudden_params(prep=None, alpha12=0.0, alpha23=0.0, tau_h=0.0, tau_c=0.0,
                  stop=None, **kw):
    if prep is None:
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
    return EngineParams(prep=prep, alpha12=alpha12, alpha23=alpha23,
                        tau_comp=0.0, tau_h=tau_h, tau_c=tau_c,
                        ramp=RampMode.SUDDEN,
                        stop=FixedCycles(1) if stop is None else stop, **kw)


class TestParamsValidation:
    def test_rejects_negative_knobs(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        for field in ("alpha12", "alpha23", "tau_comp", "tau_h", "tau_c"):
            kw = dict(alpha12=0.0, alpha23=0.0, tau_comp=1.0, tau_h=0.1,
                      tau_c=0.1)
            kw[field] = -0.1
            with pytest.raises(ConfigError):
                EngineParams(prep=prep, **kw)

    def test_rejects_omega3_mismatch(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        with pytest.raises(ConfigError):
            EngineParams(prep=prep, omega3=0.2, alpha12=0.0, alpha23=0.0,
                         tau_comp=1.0, tau_h=0.1, tau_c=0.1)

    def test_finite_ramps_need_duration(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        with pytest.raises(ConfigError):
            EngineParams(prep=prep, alpha12=0.0, alpha23=0.0, tau_comp=0.0,
                         tau_h=0.1, tau_c=0.1, ramp=RampMode.QUASI_STATIC)

    def test_rejects_negative_cycle_count(self):
        with pytest.raises(ConfigError):
            FixedCycles(-1)

    def test_rejects_bad_sample_dt_and_cap(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        with pytest.raises(ConfigError):
            EngineParams(prep=prep, alpha12=0.0, alpha23=0.0, tau_comp=1.0,
                         tau_h=0.1, tau_c=0.1, sample_dt=0.0)
        with pytest.raises(ConfigError):
            EngineParams(prep=prep, alpha12=0.0, alpha23=0.0, tau_comp=1.0,
                         tau_h=0.1, tau_c=0.1, max_cycles=0)

    def test_rejects_non_finite_knobs(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        for field in ("alpha12", "alpha23", "tau_comp", "tau_h", "tau_c",
                      "sample_dt"):
            for bad in (math.nan, math.inf):
                kw = dict(alpha12=0.0, alpha23=0.0, tau_comp=1.0, tau_h=0.1,
                          tau_c=0.1)
                kw[field] = bad
                with pytest.raises(ConfigError):
                    EngineParams(prep=prep, **kw)

    def test_cycle_duration(self):
        p = optimized_params()
        assert_allclose(p.cycle_duration, 2 * 85.02 + 0.59 + 0.9996, rtol=1e-15)
        assert sudden_params(tau_h=0.5).cycle_duration == 0.5


class TestStrokes:
    def test_sudden_compression_work_on_vacuum_medium(self):
        eng = Engine(sudden_params())
        res = eng.run_stroke("compression")
        assert_allclose(res.energy_change, 2.475, rtol=1e-14)
        assert (res.omega_start, res.omega_end) == (0.1, 1.0)
        assert eng.phase == "high"

    def test_quasistatic_compression_work_on_vacuum_medium(self):
        eng = Engine(optimized_params())
        res = eng.run_stroke("compression")
        assert_allclose(res.energy_change, 0.45, rtol=1e-14)

    def test_phase_order_enforced(self):
        eng = Engine(sudden_params())
        with pytest.raises(PhaseOrderError):
            eng.run_stroke("heating")
        eng.run_stroke("compression")
        with pytest.raises(PhaseOrderError):
            eng.run_stroke("compression")
        with pytest.raises(PhaseOrderError):
            eng.run_cycle()

    def test_unknown_stroke_kind(self):
        with pytest.raises(ValueError):
            Engine(sudden_params()).run_stroke("quenching")

    def test_uncoupled_heating_leaves_medium_alone(self):
        eng = Engine(sudden_params(alpha12=0.0, tau_h=0.7))
        eng.run_stroke("compression")
        res = eng.run_stroke("heating")
        assert abs(res.energy_change) <= 1e-15 * max(1.0, res.e2_start)

    def test_ramp_stroke_work_equals_total_energy_change(self):
        prep = thermal_preparation(beta1=0.05, omega3=0.25)
        p = EngineParams(prep=prep, alpha12=0.02, alpha23=0.01, tau_comp=9.0,
                         tau_h=0.5, tau_c=0.5, ramp=RampMode.LINEAR_AIRY)
        eng = Engine(p)
        before = np.sum(mode_energies(np.asarray(eng.sigma), (1.0, 0.25, 0.25)))
        res = eng.run_stroke("compression")
        after = np.sum(mode_energies(np.asarray(eng.sigma), (1.0, 1.0, 0.25)))
        assert_allclose(after - before, res.energy_change,
                        atol=1e-10 * max(1.0, abs(res.energy_change)))

    def test_coupling_stroke_conserves_total_energy(self):
        prep = thermal_preparation(beta1=0.05, omega3=0.25)
        p = EngineParams(prep=prep, alpha12=0.04, alpha23=0.02, tau_comp=9.0,
                         tau_h=2.0, tau_c=2.0, ramp=RampMode.LINEAR_AIRY)
        eng = Engine(p)
        eng.run_stroke("compression")
        freqs = (1.0, 1.0, 0.25)
        before = np.sum(mode_energies(np.asarray(eng.sigma), freqs))
        eng.run_stroke("heating")
        after = np.sum(mode_energies(np.asarray(eng.sigma), freqs))
        assert_allclose(after, before, rtol=1e-10)

    def test_stroke_clock(self):
        eng = Engine(optimized_params())
        for kind in ("compression", "heating", "expansion", "cooling"):
            eng.run_stroke(kind)
        assert_allclose(eng.time, eng.params.cycle_duration, rtol=1e-15)
        assert eng.cycles_run == 0  # strokes do not count cycles


class TestSingleCycles:
    def test_zero_coupling_sudden_instant_strokes(self):
        rec = Engine(sudden_params()).run_cycle()
        assert_allclose(rec.w1, 2.475, rtol=1e-14)
        assert rec.w1 == -rec.w2
        assert rec.q1 == 0.0 and rec.q2 == 0.0
        assert rec.w_cycle == 0.0 and rec.du == 0.0
        assert rec.eta is None

    def test_zero_coupling_quasistatic_cycle_is_inert(self):
        p = optimized_params()
        p = EngineParams(prep=p.prep, alpha12=0.0, alpha23=0.0,
                         tau_comp=p.tau_comp, tau_h=p.tau_h, tau_c=p.tau_c,
                         ramp=RampMode.QUASI_STATIC, stop=FixedCycles(3))
        res = Engine(p).run()
        first = res.records[0]
        assert first.w_cycle == 0.0 and first.q1 == 0.0 and first.q2 == 0.0
        for rec in res.records:
            assert_allclose(rec.w1, 0.45, rtol=1e-12)
            assert_allclose(rec.w2, -0.45, rtol=1e-12)
            # rotation round-off creeps in after a few cycles
            for v in (rec.w_cycle, rec.q1, rec.q2, rec.du):
                assert abs(v) <= 1e-14
        assert abs(res.w_total) <= 1e-13

    def test_zero_coupling_sudden_work_oracle(self):
        # free rotation between sudden quenches gives
        # W = sin^2(omega1 tau_h) (omega1^2 - omega3^2)^2 / (4 omega3 omega1^2)
        # for a ground-state medium
        w3 = 0.1
        for tau_h in (0.3, 0.59, 1.7):
            rec = Engine(sudden_params(tau_h=tau_h)).run_cycle()
            expected = math.sin(tau_h) ** 2 * (1.0 - w3**2) ** 2 / (4.0 * w3)
            assert_allclose(rec.w_cycle, expected, rtol=1e-12)

    def test_first_law_of_every_cycle(self):
        p = optimized_params(stop=FixedCycles(12))
        res = Engine(p).run(want_timeseries=False)
        assert np.max(first_law_residuals(res.records)) <= 1e-12

    def test_weak_coupling_work_matches_closed_form(self):
        from otto3.analytics import WeakCouplingInput, work_one_cycle_thermal
        alpha, tau_h, w3 = 1e-3, 0.03, 0.4
        c1 = 1.0 / math.tanh(0.025)
        prep = Preparation((Thermal((c1 - 1) / 2), Thermal(0.0), Thermal(0.0)),
                           omega3=w3)
        sim = sudden_cycle_work(prep, alpha, tau_h)
        ref = work_one_cycle_thermal(WeakCouplingInput(
            1.0, w3, alpha, tau_h, c1=c1, c3=1.0))
        assert abs(sim - ref) / abs(ref) <= 1e-3

    def test_exchange_mixing_during_cooling(self):
        # one cooling stroke mixes medium and cold energies as sin^2
        alpha23, tau_c = 0.05, 4.0
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        p = EngineParams(prep=prep, alpha12=0.5, alpha23=alpha23,
                         tau_comp=0.0, tau_h=1.0, tau_c=tau_c,
                         ramp=RampMode.SUDDEN, stop=FixedCycles(1))
        eng = Engine(p)
        for kind in ("compression", "heating", "expansion"):
            eng.run_stroke(kind)
        sigma = np.asarray(eng.sigma)
        e2, e3 = (mode_energy(sigma, k, 0.1) for k in (2, 3))
        res = eng.run_stroke("cooling")
        sigma = np.asarray(eng.sigma)
        mix = math.sin(alpha23 * tau_c) ** 2
        assert_allclose(mode_energy(sigma, 2, 0.1),
                        (1 - mix) * e2 + mix * e3, rtol=1e-10)
        assert_allclose(res.e2_end - res.e2_start, res.energy_change, atol=0)


class TestRunBookkeeping:
    def test_records_match_cycle_by_cycle_execution(self):
        p = optimized_params(stop=FixedCycles(30))
        res = Engine(p).run(want_timeseries=False)
        eng = Engine(optimized_params(stop=FixedCycles(30)))
        for rec in res.records:
            single = eng.run_cycle()
            assert single.index == rec.index
            assert_allclose(single.w_cycle, rec.w_cycle, rtol=1e-9, atol=1e-12)
            assert_allclose(single.e2, rec.e2, rtol=1e-9, atol=1e-12)
            assert_allclose(single.w_cum, rec.w_cum, rtol=1e-9, atol=1e-12)

    def test_w_total_is_the_cumulative_work(self):
        p = optimized_params(stop=FixedCycles(25))
        res = Engine(p).run(want_timeseries=False)
        assert_allclose(res.w_total, res.records[-1].w_cum, rtol=1e-14)
        assert_allclose(res.w_total, sum(r.w_cycle for r in res.records),
                        rtol=1e-10)

    def test_probe_semantics(self, optimized_run):
        res = optimized_run.result
        assert res.stop_reason == "work_non_negative"
        assert res.probe is not None
        assert res.probe.w_cycle >= 0.0
        assert res.probe.index == res.n_cycles
        assert len(res.records) == res.n_cycles
        assert all(r.w_cycle < 0.0 for r in res.records)
        diffs = np.diff([r.w_cum for r in res.records])
        assert np.all(diffs < 0.0)

    def test_immediate_stop_counts_nothing(self):
        p = optimized_params(stop=WorkNonNegative(eps_stop=1e6))
        res = Engine(p).run(want_timeseries=False)
        assert res.n_cycles == 0
        assert res.records == ()
        assert res.w_total == 0.0
        assert res.probe is not None
        assert res.covariance_distance == 0.0

    def test_cycle_cap(self):
        p = EngineParams(prep=optimized_params().prep, alpha12=0.038,
                         alpha23=1e-4, tau_comp=85.02, tau_h=0.59,
                         tau_c=0.9996, ramp=RampMode.QUASI_STATIC,
                         stop=WorkNonNegative(), max_cycles=5)
        res = Engine(p).run(want_timeseries=False)
        assert res.stop_reason == "cycle_cap"
        assert res.n_cycles == 5

    def test_fixed_cycles_zero(self):
        res = Engine(optimized_params(stop=FixedCycles(0))).run()
        assert res.n_cycles == 0
        assert res.stop_reason == "fixed_cycles"
        assert res.w_total == 0.0

    def test_run_requires_low_phase(self):
        eng = Engine(sudden_params())
        eng.run_stroke("compression")
        with pytest.raises(PhaseOrderError):
            eng.run(want_timeseries=False)

    def test_final_record_energies_match_final_state(self):
        p = optimized_params(stop=FixedCycles(8))
        res = Engine(p).run(want_timeseries=False)
        last = res.records[-1]
        sigma = res.sigma_final
        assert_allclose(last.e1, mode_energy(sigma, 1, 1.0), rtol=1e-12)
        assert_allclose(last.e2, mode_energy(sigma, 2, 0.1), rtol=1e-12)
        assert_allclose(last.e3, mode_energy(sigma, 3, 0.1), rtol=1e-12)

    def test_final_state_stays_physical(self, optimized_run):
        nus = optimized_run.result.sigma_final.symplectic_eigenvalues()
        assert np.min(nus) >= 0.5 - 1e-9

    def test_run_level_correlation_maxima_cover_records(self, optimized_run):
        res = optimized_run.result
        rec_max = max(r.d12_max for r in res.records)
        assert res.discord_max[0] >= rec_max - 1e-15
        rec_neg = max(r.n12_max for r in res.records)
        assert res.negativity_max[0] >= rec_neg - 1e-15

    def test_cold_mode_frozen_without_cold_coupling(self):
        p = optimized_params(stop=FixedCycles(20), alpha23=0.0)
        res = Engine(p).run(want_timeseries=False)
        e3 = np.array([r.e3 for r in res.records])
        assert np.max(e3) - np.min(e3) <= 1e-12


class TestEfficiencyClaim:
    def test_eta_none_without_absorption(self):
        rec = Engine(sudden_params(tau_h=0.4)).run_cycle()
        assert rec.q1 == 0.0
        assert rec.eta is None

    def test_extracting_cycles_have_unit_eta(self, optimized_run):
        recs = optimized_run.result.records
        assert all(r.eta is not None for r in recs)
        assert max(abs(r.eta - 1.0) for r in recs) <= 1e-3


class TestTimeSeries:
    def test_layout_and_clock(self):
        p = optimized_params(stop=FixedCycles(4))
        res = Engine(p).run()
        ts = res.timeseries
        assert isinstance(ts, TimeSeries)
        assert ts.COLUMNS == ("t", "E1", "E2", "E3", "D12", "D23", "D13",
                              "N12", "N23", "N13")
        cols = ts.columns()
        assert len(cols) == 10
        assert all(c.shape == ts.t.shape for c in cols)
        assert ts.t[0] == 0.0
        assert_allclose(ts.t[-1], 4 * p.cycle_duration, rtol=1e-12)
        assert np.all(np.diff(ts.t) >= 0.0)

    def test_first_row_is_the_initial_state(self):
        p = optimized_params(stop=FixedCycles(2))
        res = Engine(p).run()
        ts = res.timeseries
        prep = p.prep
        sigma0 = np.asarray(res.sigma_initial)
        assert_allclose(ts.e1[0], mode_energy(sigma0, 1, 1.0), rtol=1e-14)
        assert_allclose(ts.e2[0], mode_energy(sigma0, 2, prep.omega3), rtol=1e-14)

    def test_sudden_quench_shows_as_e2_jump(self):
        p = sudden_params(tau_h=0.4, tau_c=0.3, stop=FixedCycles(1))
        res = Engine(p).run()
        ts = res.timeseries
        jumps = np.where(np.diff(ts.t) == 0.0)[0]
        assert jumps.size >= 2  # both quenches contribute twin rows
        k = jumps[0]
        assert_allclose(ts.e2[k + 1] - ts.e2[k], 2.475, rtol=1e-12)

    def test_sample_dt_controls_row_count(self):
        coarse = Engine(optimized_params(stop=FixedCycles(2))).run()
        p = EngineParams(prep=optimized_params().prep, alpha12=0.038,
                         alpha23=1e-4, tau_comp=85.02, tau_h=0.59,
                         tau_c=0.9996, ramp=RampMode.QUASI_STATIC,
                         stop=FixedCycles(2), sample_dt=0.01)
        fine = Engine(p).run()
        assert len(fine.timeseries) > len(coarse.timeseries)

    def test_disabled_tracking_leaves_nan(self):
        p = optimized_params(stop=FixedCycles(2))
        res = Engine(p).run(correlations=False)
        assert math.isnan(res.records[0].d12_max)
        assert np.all(np.isnan(res.timeseries.d12))
        assert np.all(np.isnan(res.discord_max))

    def test_want_timeseries_false(self):
        res = Engine(optimized_params(stop=FixedCycles(2))).run(
            want_timeseries=False)
        assert res.timeseries is None


class TestModuleLevelRunners:
    def test_run_engine_equals_engine_run(self):
        p = optimized_params(stop=FixedCycles(6))
        a = run_engine(p, want_timeseries=False)
        b = Engine(p).run(want_timeseries=False)
        assert a.w_total == b.w_total
        assert a.n_cycles == b.n_cycles

    def test_run_reduced_keeps_totals_only(self):
        p = optimized_params(stop=FixedCycles(6))
        full = Engine(p).run(want_timeseries=False)
        red = run_reduced(p)
        assert red.records == ()
        assert red.timeseries is None
        assert_allclose(red.w_total, full.w_total, rtol=1e-12)
        assert red.n_cycles == full.n_cycles

    def test_reduced_correlation_maxima_are_subsampled(self):
        p = optimized_params(stop=FixedCycles(6))
        full = Engine(p).run(want_timeseries=False)
        red = run_reduced(p)
        assert red.discord_max[0] <= full.discord_max[0] + 1e-12
        assert red.discord_max[0] > 0.0


RECURRENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "recurrence_140.json"
ENERGY_FIELDS = ("w1", "w2", "q1", "q2", "du", "w_cycle", "w_cum", "e1", "e2", "e3")


def _recurrence_params():
    return build_engine_params(load_config(str(RECURRENCE_CONFIG)),
                               argparse.Namespace(ramp=None, cycles=None))


class TestChunkSizeInvariance:
    """The first chunk size changes only how cycles are batched, never the
    stop decision; values agree to 1e-12 of the run's energy scale, the
    first-law budget's own scale."""

    @pytest.mark.parametrize("make_params", [optimized_params, _recurrence_params],
                             ids=["work_non_negative", "recurrence_140"])
    def test_runs_agree_across_first_chunk_sizes(self, make_params, monkeypatch):
        params = make_params()
        results = {}
        for start in (1, 4, 32):
            monkeypatch.setattr(engine, "_CHUNK_START", start)
            results[start] = Engine(params).run()
        ref = results[32]
        assert ref.n_cycles > 32  # the run crosses several chunk boundaries
        ref_rows = ref.records + ((ref.probe,) if ref.probe is not None else ())
        scale = max(r.e1 + r.e2 + r.e3 for r in ref_rows)
        for start in (1, 4):
            res = results[start]
            assert res.n_cycles == ref.n_cycles
            assert res.stop_reason == ref.stop_reason
            assert len(res.records) == len(ref.records)
            assert (res.probe is None) == (ref.probe is None)
            assert_allclose(res.w_total, ref.w_total, rtol=1e-12, atol=1e-12 * scale)
            rows = res.records + ((res.probe,) if res.probe is not None else ())
            for field in ENERGY_FIELDS:
                assert_allclose([getattr(r, field) for r in rows],
                                [getattr(r, field) for r in ref_rows],
                                rtol=1e-12, atol=1e-12 * scale, err_msg=field)


class TestSampleBudget:
    def test_too_fine_sample_dt_is_refused_before_allocation(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        kw = dict(prep=prep, alpha12=0.038, alpha23=1e-4, tau_comp=85.02,
                  tau_h=0.59, tau_c=0.9996, ramp=RampMode.QUASI_STATIC)
        with pytest.raises(ConfigError, match="interior points per cycle"):
            EngineParams(**kw, sample_dt=1e-7)
        # ramp interiors count too, but only for the finite-time sweep
        dt = 2.0 * 85.02 / _BATCH_POINT_BUDGET
        EngineParams(**kw, sample_dt=dt)
        with pytest.raises(ConfigError):
            EngineParams(**dict(kw, ramp=RampMode.LINEAR_AIRY), sample_dt=dt)
        with pytest.raises(ConfigError):
            EngineParams(**kw, sample_dt=5e-324)


class TestReducedEnsemble:
    def test_each_engine_gets_what_run_reduced_gives_it(self, monkeypatch):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        base = optimized_params()
        params = [
            base,
            optimized_params(stop=FixedCycles(3)),
            EngineParams(prep=prep, alpha12=0.02, alpha23=0.01, tau_comp=40.0,
                         tau_h=0.0, tau_c=0.7, ramp=RampMode.QUASI_STATIC),
            optimized_params(stop=WorkNonNegative(eps_stop=1e6)),
            EngineParams(prep=prep, alpha12=0.038, alpha23=1e-4, tau_comp=85.02,
                         tau_h=0.59, tau_c=0.9996, ramp=RampMode.QUASI_STATIC,
                         max_cycles=7),
            optimized_params(ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(5)),
        ]
        monkeypatch.setattr(engine, "_ENSEMBLE_SIZE", 4)
        totals = run_reduced_ensemble(params)
        for e, p in enumerate(params):
            alone = run_reduced(p)
            assert totals.n_cycles[e] == alone.n_cycles
            assert totals.w_total[e] == alone.w_total
            assert tuple(totals.discord_max[e]) == alone.discord_max
            assert tuple(totals.negativity_max[e]) == alone.negativity_max


class TestSeriesChunkCap:
    def test_time_series_rows_per_chunk_stay_within_the_budget(self, monkeypatch):
        # Airy sweeps sampled every 0.5 add about 340 ramp rows per cycle
        # to the series, which the kernel's own point count leaves out
        params = EngineParams(
            prep=thermal_preparation(beta1=0.01, omega3=0.1), alpha12=0.038,
            alpha23=1e-4, tau_comp=85.02, tau_h=0.59, tau_c=0.9996,
            ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(12), sample_dt=0.5)
        free = Engine(params).run()
        budget = 1000
        monkeypatch.setattr(engine, "_BATCH_POINT_BUDGET", budget)
        chunk_rows = []
        add_chunk = engine._TimeSeriesBuilder.add_chunk

        def counting_add_chunk(self, chunk, rows, *args):
            chunk_rows.append(rows * self.rows_per_cycle)
            return add_chunk(self, chunk, rows, *args)

        monkeypatch.setattr(engine._TimeSeriesBuilder, "add_chunk", counting_add_chunk)
        capped = Engine(params).run()
        assert len(chunk_rows) > 1
        assert max(chunk_rows) <= budget
        assert capped.n_cycles == free.n_cycles == 12
        assert len(capped.records) == len(free.records)
        assert len(capped.timeseries) == len(free.timeseries)
