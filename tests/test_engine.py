import argparse
import dataclasses
import inspect
import json
import math
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from numpy.testing import assert_allclose

from otto3 import engine
from otto3.cli import build_engine_params, load_config
from otto3.energetics import mode_energy
from otto3.engine import (Engine, EngineParams, FixedCycles, TimeSeries,
                          WorkNonNegative, run_reduced)
from otto3.errors import (ConfigError, EnergyBalanceError, PhysicalityError,
                          SymplecticityError)
from otto3.explore import ParameterBox, PrepFamily, optimize, random_scan
from otto3.engine import _BATCH_POINT_BUDGET, run_reduced_ensemble
from otto3.propagators import (SYMPLECTIC_TOL, CouplingSide, RampMode, RampSchedule,
                               _symplectic_defect, coupling_propagator, ramp_propagator)
from otto3.states import (PHYSICALITY_TOL, Preparation, SqueezedVacuum, Thermal, product_state,
                          product_states, squeezed_preparation, thermal_preparation)

from helpers import (C1_BETA_001, assert_numbers_close, box_engines, first_law_residuals,
                     optimized_params, spectral_cycle_work, sudden_cycle_work)


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

    def test_finite_ramps_need_duration(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        with pytest.raises(ConfigError):
            EngineParams(prep=prep, alpha12=0.0, alpha23=0.0, tau_comp=0.0,
                         tau_h=0.1, tau_c=0.1, ramp=RampMode.QUASI_STATIC)

    def test_rejects_negative_cycle_count(self):
        with pytest.raises(ConfigError):
            FixedCycles(-1)

    @pytest.mark.parametrize("eps_stop", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_eps_stop(self, eps_stop):
        with pytest.raises(ConfigError, match="eps_stop must be finite"):
            WorkNonNegative(eps_stop)

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

    @pytest.mark.parametrize("field", ["tau_comp", "tau_h", "tau_c"])
    def test_rejects_durations_that_overflow_the_clock(self, field):
        # finite durations whose run (probe cycle included) ends past the
        # largest float would put inf and nan times into the series
        kw = dict(alpha12=0.0, alpha23=0.0, tau_comp=1.0, tau_h=0.1, tau_c=0.1,
                  ramp=RampMode.QUASI_STATIC, stop=FixedCycles(2))
        kw[field] = 1e308
        with pytest.raises(ConfigError, match="clock overflows"):
            EngineParams(prep=thermal_preparation(beta1=0.01, omega3=0.1), **kw)
        kw[field] = 1e300
        EngineParams(prep=thermal_preparation(beta1=0.01, omega3=0.1), **kw)

    @pytest.mark.parametrize("limit", [2**63, 10**400], ids=["int64", "past-float"])
    def test_rejects_a_cycle_limit_past_int64(self, limit):
        # the stepping loop holds cycle limits as int64; 10**400 once raised
        # a bare OverflowError from the clock rule
        with pytest.raises(ConfigError, match=r"^max_cycles must be below 2\*\*63$"):
            dataclasses.replace(optimized_params(), max_cycles=limit)
        with pytest.raises(ConfigError, match=r"^cycle count must be below 2\*\*63$"):
            optimized_params(stop=FixedCycles(limit))
        widest = dataclasses.replace(optimized_params(), max_cycles=2**63 - 1)
        assert (run_reduced(widest, correlations=False).n_cycles
                == run_reduced(optimized_params(), correlations=False).n_cycles)

    def test_rejects_a_ramp_given_by_its_value(self):
        # "quasistatic" is no RampMode: it would run the Airy sweep
        with pytest.raises(ConfigError, match="^ramp must be a RampMode, got 'quasistatic'$"):
            optimized_params(ramp="quasistatic")

    def test_rejects_a_prep_that_is_not_a_preparation(self):
        with pytest.raises(ConfigError, match="^prep must be a Preparation, got 'x'$"):
            dataclasses.replace(optimized_params(), prep="x")

    def test_rejects_an_unknown_stop_rule(self):
        with pytest.raises(ConfigError, match="^unknown stop rule 'forever'$"):
            optimized_params(stop="forever")

    def test_cycle_duration(self):
        p = optimized_params()
        assert_allclose(p.cycle_duration, 2 * 85.02 + 0.59 + 0.9996, rtol=1e-15)
        assert sudden_params(tau_h=0.5).cycle_duration == 0.5


def first_record(params):
    """The record of a one-cycle run, counted whatever its work balance."""
    return Engine(params).run(want_timeseries=False).records[0]


class TestStrokes:
    """Stroke energies of a first cycle, read off its record."""

    def test_sudden_compression_work_on_vacuum_medium(self):
        # the first stroke acts on the preparation, whatever the couplings
        rec = first_record(sudden_params(alpha12=0.05, alpha23=0.03, tau_h=0.4, tau_c=0.3))
        assert_allclose(rec.w1, 2.475, rtol=1e-14)

    def test_quasistatic_compression_work_on_vacuum_medium(self):
        rec = first_record(optimized_params(stop=FixedCycles(1)))
        assert_allclose(rec.w1, 0.45, rtol=1e-14)

    def test_uncoupled_heating_leaves_medium_alone(self):
        rec = first_record(sudden_params(alpha12=0.0, tau_h=0.7))
        assert abs(rec.q1) <= 1e-15 * max(1.0, rec.e2 + rec.q2)

    def test_coupling_stroke_conserves_total_energy(self):
        # every sampled instant of the heating stroke, read off the time
        # series, carries the energy the stroke started with
        prep = thermal_preparation(beta1=0.05, omega3=0.25)
        p = EngineParams(prep=prep, alpha12=0.04, alpha23=0.02, tau_comp=9.0,
                         tau_h=2.0, tau_c=2.0, ramp=RampMode.LINEAR_AIRY,
                         stop=FixedCycles(1))
        ts = Engine(p).run().timeseries
        heating = (ts.t >= p.tau_comp) & (ts.t <= p.tau_comp + p.tau_h)
        assert np.count_nonzero(heating) >= 3
        total = (ts.e1 + ts.e2 + ts.e3)[heating]
        assert_allclose(total, total[0], rtol=1e-10)


class TestSingleCycles:
    def test_zero_coupling_sudden_instant_strokes(self):
        rec = first_record(sudden_params())
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
            rec = first_record(sudden_params(tau_h=tau_h))
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
        res = Engine(p).run(want_timeseries=False)
        rec = res.records[0]
        # entering the cooling stroke: the medium holds its energy after
        # cooling plus the heat it gives off there, and the cold spectator
        # still holds its initial energy
        e2 = rec.e2 + rec.q2
        e3 = mode_energy(res.sigma_initial, 3, 0.1)
        mix = math.sin(alpha23 * tau_c) ** 2
        assert_allclose(rec.e2, (1 - mix) * e2 + mix * e3, rtol=1e-10)
        assert_allclose(rec.e3, mix * e2 + (1 - mix) * e3, rtol=1e-10)


class TestRunBookkeeping:
    @pytest.mark.parametrize("ramp", list(RampMode), ids=lambda mode: mode.value)
    def test_shorter_runs_are_prefixes_of_longer_ones(self, ramp):
        full = Engine(optimized_params(stop=FixedCycles(30), ramp=ramp)).run(
            want_timeseries=False).records
        for n in (1, 3, 5, 13, 29):
            res = Engine(optimized_params(stop=FixedCycles(n), ramp=ramp)).run(
                want_timeseries=False)
            assert repr(res.records) == repr(full[:n]), n

    @pytest.mark.parametrize("want_timeseries", [True, False],
                             ids=["with_series", "without_series"])
    def test_repeated_runs_start_from_the_initial_state(self, want_timeseries):
        eng = Engine(optimized_params(stop=FixedCycles(3)))
        first = fingerprint(eng.run(want_timeseries=want_timeseries))
        assert fingerprint(eng.run(want_timeseries=want_timeseries)) == first

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
        rec = first_record(sudden_params(tau_h=0.4))
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
        # zero cycles: the one row of the initial state is not scored either
        for cycles in (2, 0):
            res = Engine(optimized_params(stop=FixedCycles(cycles))).run(correlations=False)
            assert len(res.records) == cycles
            assert all(math.isnan(r.d12_max) for r in res.records)
            for column in res.timeseries.columns()[4:]:
                assert np.all(np.isnan(column)), cycles
            assert np.all(np.isnan(res.discord_max))

    def test_last_row_energies_equal_the_last_record(self):
        # x**2 and x*x differ in the last bit for this frequency
        params = EngineParams(
            prep=thermal_preparation(beta1=0.01, omega3=0.9503546630566793),
            alpha12=0.038, alpha23=0.02, tau_comp=5.0, tau_h=0.59, tau_c=0.9996,
            ramp=RampMode.QUASI_STATIC, stop=FixedCycles(2))
        res = Engine(params).run()
        last = res.records[-1]
        assert res.timeseries.e1[-1] == last.e1
        assert res.timeseries.e2[-1] == last.e2
        assert res.timeseries.e3[-1] == last.e3

    def test_want_timeseries_false(self):
        res = Engine(optimized_params(stop=FixedCycles(2))).run(
            want_timeseries=False)
        assert res.timeseries is None

    def test_a_series_follows_exactly_one_engine(self):
        batch = engine.EngineBatch.of([optimized_params(stop=FixedCycles(1))] * 2)
        with pytest.raises(ValueError, match="^a time series follows exactly one engine$"):
            engine._run_engines(engine._Strokes(batch), np.zeros((2, 6, 6)),
                                totals=batch.totals, eps_stop=batch.eps_stop, interior=(0, 0),
                                times=None, correlations=False, keep_records=True,
                                series=object())


FROZEN_SERIES = Path(__file__).resolve().parent / "data" / "timeseries_frozen.json"

# Time series that no shipped config covers (every shipped one is
# quasi-static at the default sample counts).
PINNED_SERIES = {
    "airy_sample_dt": lambda: EngineParams(
        prep=thermal_preparation(beta1=0.01, omega3=0.1), alpha12=0.038,
        alpha23=1e-4, tau_comp=85.02, tau_h=0.59, tau_c=0.9996,
        ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(3), sample_dt=0.5),
    "sudden": lambda: sudden_params(alpha12=0.05, alpha23=0.03, tau_h=0.4,
                                    tau_c=0.3, stop=FixedCycles(6)),
    "squeezed_sample_dt": lambda: EngineParams(
        prep=squeezed_preparation(beta1=0.01, omega3=0.1), alpha12=0.038,
        alpha23=1e-4, tau_comp=85.02, tau_h=0.59, tau_c=0.9996,
        ramp=RampMode.QUASI_STATIC, stop=FixedCycles(3), sample_dt=0.05),
    "no_heating": lambda: EngineParams(
        prep=thermal_preparation(beta1=0.01, omega3=0.1), alpha12=0.038,
        alpha23=0.02, tau_comp=20.0, tau_h=0.0, tau_c=0.9996,
        ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(4)),
}


def series_digest(ts):
    """Row count, per-column sums of |value| and rows sampled at a fixed
    stride (plus the last row) of a time series."""
    table = np.column_stack(ts.columns())
    stride = max(1, len(table) // 16)
    return {"rows": len(table), "abs_sum": np.abs(table).sum(axis=0).tolist(),
            "sampled": table[::stride].tolist() + [table[-1].tolist()]}


class TestPinnedTimeSeries:
    """Time series of ramp interiors, sudden twin rows, fine coupling
    samples and an absent heating stroke, frozen from a reference run at
    the simulate pins' tolerance."""

    @pytest.mark.parametrize("name", sorted(PINNED_SERIES))
    def test_series_match_frozen(self, name):
        frozen = json.loads(FROZEN_SERIES.read_text())[name]
        ts = Engine(PINNED_SERIES[name]()).run().timeseries
        assert_numbers_close(series_digest(ts), frozen, name)

    def test_ramp_interior_rows_read_the_sweep_at_their_instant(self):
        # E2 of the stroke start evolved to each instant by the sweep's own
        # propagator, at the sweep's frequency then; E1 and E3 repeat the
        # stroke start's, which a sweep of the medium alone conserves
        params = PINNED_SERIES["airy_sample_dt"]()
        ts = Engine(params).run().timeseries
        w1, w3, tau = params.prep.omega1, params.prep.omega3, params.tau_comp
        spectators = dict(spectator_omega1=w1, spectator_omega3=w3)
        instants = np.arange(params.sample_dt, tau, params.sample_dt)
        sweeps = (RampSchedule(w3, w1, tau), RampSchedule(w1, w3, tau))
        couplings = (coupling_propagator(params.alpha12, w1, w3, params.tau_h,
                                         CouplingSide.HOT_PAIR),
                     coupling_propagator(params.alpha23, w3, w1, params.tau_c,
                                         CouplingSide.COLD_PAIR))
        # a cycle's rows: compression start and interiors, heating start and
        # its one interior, expansion start and interiors, then cooling's
        per_cycle = (len(ts) - 1) // params.stop.n
        assert per_cycle == 2 * instants.size + 6
        state = product_state(params.prep).matrix
        for c in range(params.stop.n):
            for sweep, coupling, first in zip(sweeps, couplings, (0, instants.size + 3)):
                start = c * per_cycle + first
                rows = start + 1 + np.arange(instants.size)
                assert_allclose(ts.t[rows] - ts.t[start], instants, rtol=0, atol=1e-9)
                e2 = [mode_energy(ramp_propagator(sweep, t=t, **spectators).apply(state), 2,
                                  math.sqrt(sweep.omega_sq(t))) for t in instants]
                assert_allclose(ts.e2[rows], e2, rtol=1e-12, atol=0)
                assert np.all(ts.e1[rows] == ts.e1[start]) and np.all(ts.e3[rows] == ts.e3[start])
                state = coupling.apply(ramp_propagator(sweep, **spectators).apply(state))


class TestModuleLevelRunners:
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RECURRENCE_CONFIG = CONFIGS / "recurrence_140.json"
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


def _reference_instants(tau, n, dt):
    """The interior instants of one stroke as np.arange builds them."""
    if tau <= 0.0 or n <= 0:
        return np.empty(0)
    if dt is None:
        return tau * np.arange(1, n + 1) / (n + 1)
    times = np.arange(dt, tau, dt)
    return times[times < tau * (1.0 - 1e-12)]


class TestInteriorCounts:
    def test_counts_equal_the_instants(self):
        rng = np.random.default_rng(3)
        taus = np.concatenate([rng.uniform(0.0, 3.0, 300), [0.0, 0.5, 0.59, 0.9996, 1.0, 3.0]])
        for tau in taus:
            for dt in (None, 0.05, 0.1, 0.5, tau / 7, tau / 3, tau, 2.0 * tau,
                       rng.uniform(1e-3, 1.0)):
                if dt is not None and not dt > 0.0:
                    continue
                for n in (0, 2, 4, 20):
                    want = _reference_instants(tau, n, dt)
                    args = np.array([tau]), n, np.array([math.nan if dt is None else dt])
                    (count,), none = engine._interior(*args)
                    (again,), (times,) = engine._interior(*args, instants=True)
                    assert none is None
                    assert count == again == want.size, (tau, n, dt)
                    assert times.tobytes() == want.tobytes(), (tau, n, dt)

    def test_engines_that_share_a_count_get_their_own_instants(self):
        # one count, three ways: four evenly spaced, and dt = 0.2 or 0.25 short of tau
        tau, dt = np.array([0.7, 1.0, 1.2]), np.array([math.nan, 0.2, 0.25])
        counts, times = engine._interior(tau, 4, dt, instants=True)
        assert counts.tolist() == [4, 4, 4]
        for row, t, step in zip(times, tau.tolist(), dt.tolist()):
            want = _reference_instants(t, 4, None if math.isnan(step) else step)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sample_dt", [None, 0.05])
    def test_a_run_read_by_neither_correlations_nor_a_series_builds_no_instants(
            self, sample_dt, monkeypatch):
        params = dataclasses.replace(optimized_params(stop=FixedCycles(12)), sample_dt=sample_dt)
        want = [fingerprint(Engine(params).run(want_timeseries=False, correlations=False,
                                               keep_records=keep)) for keep in (True, False)]
        interior = engine._interior

        def refuse(*args, instants=False):
            if instants:
                raise AssertionError("interior instants built")
            return interior(*args)

        monkeypatch.setattr(engine, "_interior", refuse)
        assert [fingerprint(Engine(params).run(want_timeseries=False, correlations=False,
                                               keep_records=keep))
                for keep in (True, False)] == want
        assert run_reduced_ensemble([params, params], correlations=False).n_cycles.tolist() == [
            12, 12]


# A parametrically unstable Airy draw: its entries pass 1e10 by cycle 17 and
# reach about 1e93 by cycle 161, where the pair scores overflow.
UNSTABLE_AIRY = EngineParams(
    prep=thermal_preparation(beta1=0.01, omega3=0.10591284932289952),
    alpha12=0.01910751023014956, alpha23=0.02262126351955793, tau_h=0.6850724371510978,
    tau_c=0.7286986689303567, tau_comp=1.322798073661256, ramp=RampMode.LINEAR_AIRY,
    stop=FixedCycles(161))


class TestNonFiniteScores:
    def test_a_run_is_refused_at_its_first_non_finite_score(self):
        with pytest.raises(PhysicalityError,
                           match=r"engine 0, cycle 17: pair correlations are not finite"):
            Engine(UNSTABLE_AIRY).run()

    def test_an_ensemble_names_the_engine_by_its_position(self):
        with pytest.raises(PhysicalityError,
                           match=r"engine 1, cycle 21: pair correlations are not finite"):
            run_reduced_ensemble([optimized_params(stop=FixedCycles(3)), UNSTABLE_AIRY])

    def test_a_run_without_correlations_scores_nothing(self):
        assert Engine(UNSTABLE_AIRY).run(correlations=False).n_cycles == 161


def mixed_ensemble():
    """Engines of different stop rules, lengths and ramps."""
    prep = thermal_preparation(beta1=0.01, omega3=0.1)
    return [
        optimized_params(),
        optimized_params(stop=FixedCycles(3)),
        EngineParams(prep=prep, alpha12=0.02, alpha23=0.01, tau_comp=40.0,
                     tau_h=0.0, tau_c=0.7, ramp=RampMode.QUASI_STATIC),
        optimized_params(stop=WorkNonNegative(eps_stop=1e6)),
        EngineParams(prep=prep, alpha12=0.038, alpha23=1e-4, tau_comp=85.02,
                     tau_h=0.59, tau_c=0.9996, ramp=RampMode.QUASI_STATIC,
                     max_cycles=7),
        optimized_params(ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(5)),
    ]


def assert_ensemble_matches_lone_runs(params, correlations=True):
    totals = run_reduced_ensemble(params, correlations=correlations)
    for e, p in enumerate(params):
        alone = run_reduced(p, correlations=correlations)
        assert totals.n_cycles[e] == alone.n_cycles
        assert totals.w_total[e] == alone.w_total
        # NaN maxima without correlations: compare them as bytes
        assert totals.discord_max[e].tobytes() == np.array(alone.discord_max).tobytes()
        assert totals.negativity_max[e].tobytes() == np.array(alone.negativity_max).tobytes()


class TestReducedEnsemble:
    def test_each_engine_gets_what_run_reduced_gives_it(self, monkeypatch):
        monkeypatch.setattr(engine, "_ENSEMBLE_SIZE", 4)
        assert_ensemble_matches_lone_runs(mixed_ensemble())

    def test_each_engine_gets_what_run_reduced_gives_it_without_correlations(self, monkeypatch):
        monkeypatch.setattr(engine, "_ENSEMBLE_SIZE", 4)
        assert_ensemble_matches_lone_runs(mixed_ensemble(), correlations=False)

    @staticmethod
    def _refusing(monkeypatch, bad):
        """Make the engine of batch id `bad` end its run in an unphysical state."""
        run = engine._run_engines

        def refusing(strokes, sigma0, **kwargs):
            runs = run(strokes, sigma0, **kwargs)
            runs.sigma[strokes.ids == bad] = 0.25 * np.eye(6)  # below the uncertainty bound
            return runs

        monkeypatch.setattr(engine, "_run_engines", refusing)

    @pytest.mark.parametrize("first", ["no_heat", "quasi_static"])
    def test_a_refused_final_state_names_its_engine(self, first, monkeypatch):
        # without heating an engine runs in a cohort of its own, so engine 2
        # is second in its cohort after no_heat, and alone after quasi_static
        airy = optimized_params(ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(3))
        others = {"no_heat": [dataclasses.replace(airy, tau_h=0.0), airy],
                  "quasi_static": [optimized_params(stop=FixedCycles(3)),
                                   dataclasses.replace(airy, tau_h=0.0)]}
        params = others[first] + [dataclasses.replace(airy, alpha12=0.03)]
        self._refusing(monkeypatch, 2)
        for run in (lambda: run_reduced_ensemble(params, correlations=False),
                    lambda: engine._reduced_results(params)):
            with pytest.raises(PhysicalityError, match="^state 2: covariance matrix violates"):
                run()

    def test_a_lone_run_names_no_engine(self, monkeypatch):
        params = optimized_params(ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(3))
        self._refusing(monkeypatch, 0)
        for run in (lambda: run_reduced_ensemble([params], correlations=False),
                    lambda: engine._reduced_results([params]),
                    lambda: run_reduced(params, correlations=False)):
            with pytest.raises(PhysicalityError, match="^covariance matrix violates"):
                run()


def squeezed_mixed_ensemble():
    """mixed_ensemble plus squeezed engines: both families, three ramps."""
    prep = squeezed_preparation(beta1=0.01, omega3=0.3)
    return mixed_ensemble() + [
        EngineParams(prep=prep, alpha12=0.03, alpha23=0.02, tau_comp=0.0, tau_h=0.4,
                     tau_c=0.6, ramp=RampMode.SUDDEN, stop=FixedCycles(4)),
        EngineParams(prep=prep, alpha12=0.04, alpha23=0.03, tau_comp=20.0, tau_h=0.8,
                     tau_c=0.3, ramp=RampMode.LINEAR_AIRY, max_cycles=30),
        optimized_params(stop=FixedCycles(6)),
    ]


# A batch row that every rule accepts, and edge values of each column (a
# few ordinary ones among them) that a row may take instead.
USUAL_ROW = dict(omega1=1.0, omega3=0.1, alpha12=0.01, alpha23=0.02, tau_comp=10.0, tau_h=0.5,
                 tau_c=0.5, sample_dt=math.nan, eps_stop=0.0, totals=100)
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e308, 0.1, 0.5, 1.0, 10.0]
EDGE_CHANGES = st.sampled_from(
    [(name, value) for name in USUAL_ROW if name != "totals" for value in EDGE_FLOATS]
    + [("sample_dt", 1e-9)] + [("totals", n) for n in (0, 1, -1, 2.0, -3.0, 10**6)])


def lone_refusal(ramp, omega1, omega3, alpha12, alpha23, tau_comp, tau_h, tau_c, sample_dt,
                 eps_stop, totals):
    """The ConfigError text with which a lone engine refuses one batch row,
    built as a caller builds it (preparation, stop rule, params), or None."""
    try:
        prep = Preparation((Thermal(0.0),) * 3, omega3, omega1)
        work = eps_stop != -math.inf
        stop = WorkNonNegative(eps_stop) if work else FixedCycles(totals)
        EngineParams(prep, alpha12, alpha23, tau_comp, tau_h, tau_c, ramp, stop,
                     None if math.isnan(sample_dt) else sample_dt,
                     **({"max_cycles": totals} if work else {}))
    except ConfigError as exc:
        return str(exc)
    return None


class TestEngineBatch:
    """A batch checks its columns at once and refuses as a lone engine would."""

    N = 4

    def columns(self, **changed):
        cols = dict(omega1=1.0, omega3=0.1, alpha12=0.01, alpha23=0.02, tau_comp=10.0,
                    tau_h=0.5, tau_c=0.5, sample_dt=math.nan, totals=100, eps_stop=0.0)
        for name, (k, value) in changed.items():
            col = np.full(self.N, cols[name])
            col[k] = value
            cols[name] = col
        return cols

    def batch(self, ramp=RampMode.LINEAR_AIRY, **changed):
        cols = self.columns(**changed)
        return engine.EngineBatch(ramp, cols.pop("omega1"), cols.pop("omega3"),
                                  thermal_preparation(0.01, 0.1).factors(), **cols)

    @pytest.mark.parametrize("name, value", [
        ("alpha12", math.nan), ("alpha23", -1e-3), ("tau_h", math.inf), ("tau_c", -0.5),
        ("tau_comp", 0.0), ("omega3", 1.5), ("omega1", math.inf), ("sample_dt", 0.0),
        ("sample_dt", 1e-9), ("eps_stop", math.nan), ("totals", 0), ("tau_comp", 1e308)])
    def test_engine_k_is_refused_with_its_lone_error(self, name, value):
        cols = self.columns(**{name: (2, value)})
        lone = {n: (c[2] if np.ndim(c) else c).item() if hasattr(c, "item") else c
                for n, c in cols.items()}
        dt = lone["sample_dt"]
        with pytest.raises(ConfigError) as alone:
            EngineParams(prep=Preparation((Thermal(0.0),) * 3, lone["omega3"], lone["omega1"]),
                         alpha12=lone["alpha12"], alpha23=lone["alpha23"],
                         tau_comp=lone["tau_comp"], tau_h=lone["tau_h"], tau_c=lone["tau_c"],
                         ramp=RampMode.LINEAR_AIRY, stop=WorkNonNegative(lone["eps_stop"]),
                         sample_dt=None if math.isnan(dt) else dt, max_cycles=lone["totals"])
        with pytest.raises(ConfigError) as batch:
            self.batch(**{name: (2, value)})
        assert str(batch.value) == f"engine 2: {alone.value}"

    def test_a_cycle_limit_past_the_float_range_is_refused_by_its_row(self):
        # 10**400 makes an object column, 2**63 a float64 one
        for limit in (10**400, 2**63):
            cols = self.columns()
            cols["totals"] = [100, 100, limit, 100]
            with pytest.raises(ConfigError,
                               match=r"^engine 2: max_cycles must be below 2\*\*63$"):
                engine.EngineBatch(RampMode.LINEAR_AIRY, cols.pop("omega1"), cols.pop("omega3"),
                                   thermal_preparation(0.01, 0.1).factors(), **cols)

    def test_the_first_bad_engine_is_named_by_its_id(self):
        cols = self.columns(alpha12=(3, math.nan), tau_h=(1, -1.0))
        with pytest.raises(ConfigError, match=r"^engine 11: tau_h must be finite"):
            engine.EngineBatch(RampMode.QUASI_STATIC, cols.pop("omega1"), cols.pop("omega3"),
                               thermal_preparation(0.01, 0.1).factors(), **cols,
                               ids=[10, 11, 12, 13])

    @pytest.mark.parametrize("name, rows", [("alpha12", 2), ("ids", 3), ("ids", 5),
                                            ("modes", 2)])
    def test_columns_of_unequal_lengths_are_refused(self, name, rows):
        cols = dict(self.columns(omega3=(0, 0.1)), modes=thermal_preparation(0.01, 0.1).factors())
        cols[name] = {"alpha12": np.full(rows, 0.01), "ids": np.arange(rows),
                      "modes": np.broadcast_to(cols["modes"], (rows, 3, 2))}[name]
        with pytest.raises(ConfigError, match=rf"^column {name} has {rows} rows where "
                                              rf"column omega3 has {self.N}$"):
            engine.EngineBatch(RampMode.QUASI_STATIC, **cols)

    def test_a_lone_engine_batch_gives_the_bare_text(self):
        with pytest.raises(ConfigError, match=r"^finite-time ramps need tau_comp > 0$"):
            engine.EngineBatch(RampMode.QUASI_STATIC, 1.0, 0.1, thermal_preparation(0.01, 0.1)
                               .factors(), 0.01, 0.02, 0.0, 0.5, 0.5, math.nan, 100, 0.0)

    def test_fixed_cycles_and_a_sudden_ramp_pass(self):
        batch = self.batch(ramp=RampMode.SUDDEN, tau_comp=(0, 0.0), eps_stop=(1, -math.inf),
                           totals=(1, 0))
        assert batch.size == self.N and batch.ids.tolist() == list(range(self.N))

    def test_a_mixed_list_equals_lone_runs(self):
        params = squeezed_mixed_ensemble()
        assert len({p.ramp for p in params}) == 3
        assert_ensemble_matches_lone_runs(params)
        assert_ensemble_matches_lone_runs(params, correlations=False)

    def test_a_ramp_given_by_its_value_is_refused(self):
        with pytest.raises(ConfigError, match="^engine 0: ramp must be a RampMode"):
            self.batch(ramp="quasistatic", alpha12=(0, 0.01))

    def test_modes_alone_count_the_engines(self):
        preps = [thermal_preparation(beta1, 0.1) for beta1 in (0.01, 0.1, 1.0)]
        params = [EngineParams(prep=prep, alpha12=0.01, alpha23=0.02, tau_comp=10.0, tau_h=0.5,
                               tau_c=0.5, max_cycles=100) for prep in preps]
        batch = engine.EngineBatch(RampMode.LINEAR_AIRY, 1.0, 0.1,
                                   np.array([prep.factors() for prep in preps]), 0.01, 0.02,
                                   10.0, 0.5, 0.5, math.nan, 100, 0.0)
        assert batch.size == 3
        lone = engine.EngineBatch.of(params)
        for name in (*engine._FLOAT_COLUMNS, "totals", "modes", "ids"):
            assert np.array_equal(getattr(batch, name), getattr(lone, name), equal_nan=True)
        assert_ensemble_matches_lone_runs(params)

    def test_shared_columns_alone_are_one_engine(self):
        cols = self.columns()
        batch = engine.EngineBatch(RampMode.SUDDEN, **cols, modes=thermal_preparation(0.01, 0.1)
                                   .factors())
        assert batch.size == 1 and batch.modes.shape == (1, 3, 2) and batch.ids.tolist() == [0]

    def test_a_batch_of_no_engines(self):
        cols = dict(self.columns(), omega3=np.empty(0))
        batch = engine.EngineBatch(RampMode.QUASI_STATIC, **cols, modes=thermal_preparation(
            0.01, 0.1).factors())
        assert batch.size == 0 and batch.modes.shape == (0, 3, 2)
        assert all(getattr(batch, name).size == 0 for name in (*engine._FLOAT_COLUMNS, "totals"))
        assert run_reduced_ensemble(batch).n_cycles.size == 0

    def test_of_refuses_an_empty_list_and_mixed_ramps(self):
        with pytest.raises(ValueError, match="empty"):
            engine.EngineBatch.of([])
        with pytest.raises(ValueError, match="share their ramp mode"):
            engine.EngineBatch.of([optimized_params(), optimized_params(ramp=RampMode.SUDDEN)])

    def test_a_map_that_is_not_symplectic_names_its_stroke_and_engine(self):
        # check=False trusts its columns: a NaN coupling reaches the stroke maps
        cols = self.columns(alpha23=(1, math.nan))
        batch = engine.EngineBatch(RampMode.LINEAR_AIRY, **cols, modes=thermal_preparation(
            0.01, 0.1).factors(), ids=[5, 6, 7, 8], check=False)
        with pytest.raises(SymplecticityError, match="^cooling map of engine 6: propagator"):
            engine._Strokes(batch)

    @settings(max_examples=300)
    @given(st.sampled_from(list(RampMode)), st.lists(st.lists(EDGE_CHANGES, max_size=3).map(
        lambda changes: {**USUAL_ROW, **dict(changes)}), min_size=1, max_size=4))
    def test_a_row_is_refused_exactly_when_a_lone_engine_is(self, ramp, rows):
        ids = np.arange(len(rows)) + 10
        cols = {name: np.array([row[name] for row in rows]) for name in rows[0]}
        refusal = None
        for k, lone in zip(ids.tolist(), zip(*(col.tolist() for col in cols.values()))):
            refusal = lone_refusal(ramp, **dict(zip(cols, lone)))
            if refusal is not None:
                refusal = f"engine {k}: {refusal}" if len(rows) > 1 else refusal
                break
        event(f"refused: {refusal is not None}")
        try:
            engine.EngineBatch(ramp, **cols, modes=thermal_preparation(0.01, 0.1).factors(),
                               ids=ids)
        except ConfigError as exc:
            assert str(exc) == refusal
        else:
            assert refusal is None

    def test_a_scan_box_that_draws_tau_comp_zero_is_refused(self):
        box = ParameterBox(tau_comp=(0.0, 0.0), omega3=(0.1, 0.5))
        with pytest.raises(ConfigError, match=r"^engine 0: finite-time ramps need tau_comp > 0$"):
            random_scan(5, 0, box=box, ramp=RampMode.LINEAR_AIRY)
        assert len(random_scan(5, 0, box=box, ramp=RampMode.SUDDEN)) == 5


def result_bytes(res):
    """An EngineResult's reduced-run fields, NaN-safe."""
    return (res.n_cycles, res.stop_reason, np.float64(res.w_total).tobytes(),
            res.sigma_initial.matrix.tobytes(), res.sigma_final.matrix.tobytes(),
            np.array(res.discord_max).tobytes(), np.array(res.negativity_max).tobytes())


class TestPrepared:
    """engine.prepared: run_reduced answers from one ensemble inside the block."""

    def test_each_engine_is_served_once_with_its_lone_numbers(self, monkeypatch):
        params = mixed_ensemble()
        lone = [result_bytes(run_reduced(p, correlations=False)) for p in params]
        calls, kernel = [], engine._simulate_chunk

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(engine, "_simulate_chunk", counting)
        with engine.prepared(params):
            del calls[:]
            served = [result_bytes(run_reduced(p, correlations=False)) for p in params]
            assert calls == [], "a prepared engine was run again"
            for again in (lambda: run_reduced(params[0], correlations=False),
                          lambda: run_reduced(params[1]),
                          lambda: run_reduced(dataclasses.replace(params[2]),
                                              correlations=False)):
                del calls[:]
                again()
                assert calls, "served twice, with correlations or to an equal copy"
        assert served == lone
        assert engine._prepared.get() is None

    def test_the_results_are_local_to_the_calling_context(self):
        params = mixed_ensemble()[:2]
        seen = []
        with engine.prepared(params):
            worker = threading.Thread(target=lambda: seen.append(engine._prepared.get()))
            worker.start()
            worker.join()
            assert seen == [None]
            assert len(engine._prepared.get()) == 2

    def test_an_error_in_the_block_drops_the_results(self):
        params = mixed_ensemble()[:2]
        with pytest.raises(KeyError):
            with engine.prepared(params):
                table = engine._prepared.get()
                raise KeyError("in the block")
        assert table == {} and engine._prepared.get() is None


# Box draws on which both box properties below fail, by the refusals of
# parametrically unstable Airy engines (CHANGES.md FOUND): a physical final
# state refused by the scale-blind uncertainty check, and pair scores that
# are not finite once the entries pass about 1e9.
UNSTABLE_BOX_DRAWS = {
    "uncertainty-check": ([
        EngineParams(prep=thermal_preparation(beta1=0.01, omega3=0.5), alpha12=0.03125,
                     alpha23=0.03125, tau_comp=1.0, tau_h=1.0, tau_c=1.0,
                     ramp=RampMode.SUDDEN, stop=WorkNonNegative(), max_cycles=1),
        EngineParams(prep=thermal_preparation(beta1=0.01, omega3=0.5), alpha12=0.0234375,
                     alpha23=0.0390625, tau_comp=1.5, tau_h=0.5, tau_c=1.0,
                     ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(38), max_cycles=38),
    ], False),
    "non-finite-scores": ([
        EngineParams(prep=thermal_preparation(beta1=0.01, omega3=0.125), alpha12=0.03125,
                     alpha23=0.03125, tau_comp=2.0, tau_h=0.5, tau_c=1.0,
                     ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(16), max_cycles=16),
    ], True),
}


@pytest.mark.xfail(strict=True, raises=PhysicalityError,
                   reason="unstable Airy engines are refused (CHANGES.md FOUND)")
@pytest.mark.parametrize("draw", list(UNSTABLE_BOX_DRAWS))
def test_unstable_airy_box_draws_match_their_lone_runs(draw):
    params, correlations = UNSTABLE_BOX_DRAWS[draw]
    assert_ensemble_matches_lone_runs(params, correlations=correlations)


def assert_lean_run_equals_tracked_run(params):
    """run_reduced without correlations takes the lean kernel, which
    computes only the entries the medium's energies read; a run with records
    sandwiches whole states.  Both give the same numbers, bit for bit, or
    the same refusal of an unstable engine's final state."""
    outcomes = []
    for run in (lambda: run_reduced(params, correlations=False),
                lambda: Engine(params).run(want_timeseries=False, correlations=False)):
        try:
            res = run()
        except PhysicalityError as exc:
            outcomes.append(str(exc))
            event("refused: an unstable engine")
        else:
            outcomes.append((res.w_total, res.n_cycles, res.sigma_final.matrix.tobytes()))
    lean, tracked = outcomes
    assert lean == tracked


class TestBoxProperties:
    @settings(max_examples=40)
    @given(st.lists(box_engines(), min_size=1, max_size=6))
    def test_ensemble_equals_lone_runs_and_records_keep_the_first_law(self, params):
        assert_ensemble_matches_lone_runs(params)
        for p in params:
            records = Engine(p).run(want_timeseries=False).records
            assert np.all(first_law_residuals(records) <= 1e-12)

    @settings(max_examples=40)
    @given(st.lists(box_engines(), min_size=2, max_size=8))
    def test_correlation_free_ensemble_equals_lone_runs(self, params):
        # every work-rule engine is predicted before its first call, and each
        # engine of a shared call computes only up to its own planned probe
        assert_ensemble_matches_lone_runs(params, correlations=False)

    @pytest.mark.parametrize("ramp", list(RampMode))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_lean_runs_equal_tracked_runs(self, ramp, data):
        params = data.draw(box_engines().filter(lambda p: p.ramp is ramp))
        assert_lean_run_equals_tracked_run(params)

    @pytest.mark.parametrize("ramp", list(RampMode))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_lean_calls_give_the_stage_energies_of_calls_that_keep_states(self, ramp, data):
        # the cooling stage's energy feeds only q2, du and the first-law
        # identity, so no run-level number would show a fault there
        params = data.draw(st.lists(box_engines().filter(lambda p: p.ramp is ramp),
                                    min_size=1, max_size=4))
        n = len(params)
        batch = engine.EngineBatch.of(params)
        sigma = product_states(batch.modes, batch.omega1, batch.omega3)
        lengths = np.array(data.draw(st.lists(st.integers(2, 12), min_size=n, max_size=n)))
        lean, kept = (engine._simulate_chunk(engine._Strokes(batch), np.arange(n), sigma, (4, 8),
                                             lengths, np.zeros(n, dtype=int),
                                             np.full(n, -np.inf), ends)
                      for ends in (False, True))
        assert lean.sig_e is None and kept.sig_e is not None
        # the cycle starts and closing states, from which the next call starts
        for name in ("sig_a", "e_a", "e_b", "e_c", "e_d", "e_e", "q2", "du"):
            assert getattr(lean, name).tobytes() == getattr(kept, name).tobytes(), name

    def test_lean_run_equals_tracked_run_at_zero_coupling(self):
        # both coupling strokes exchange exactly zero heat
        params = build_engine_params(load_config(str(CONFIGS / "zero_coupling.json")),
                                     argparse.Namespace(ramp=None, cycles=None))
        assert run_reduced(params, correlations=False).n_cycles == 5
        assert_lean_run_equals_tracked_run(params)

    @settings(max_examples=40)
    @given(box_engines())
    def test_stroke_maps_are_symplectic(self, params):
        maps = engine._Strokes(engine.EngineBatch.of([params])).maps.reshape(-1, 6, 6)
        assert np.all(_symplectic_defect(maps) <= SYMPLECTIC_TOL)

    @settings(max_examples=40)
    @given(box_engines())
    def test_final_states_are_physical(self, params):
        res = Engine(params).run(want_timeseries=False, correlations=False)
        assert res.sigma_final.symplectic_eigenvalues()[0] >= 0.5 - PHYSICALITY_TOL


def dense_ramp_maps(blocks):
    """The element-first (2K, 2K, N) maps whose oscillator blocks are the
    (2, 2, K, N) blocks, exact zeros elsewhere."""
    k = blocks.shape[2]
    maps = np.zeros((2, k, 2, k, blocks.shape[3]))
    for j in range(k):
        maps[:, j, :, j] = blocks[:, :, j]
    return maps.reshape(2 * k, 2 * k, -1)


def einsum_ramp_sandwich(blocks, states, *work):
    """_ramp_sandwich through the dense maps and einsum, as every ramp was
    sandwiched before the block form, into the same buffers if given."""
    return engine._sandwich_stack(dense_ramp_maps(blocks), states, *work)


# Oscillators whose block of the state a ramp sandwich reads, and the
# columns of the map the dense sandwich read in their place: all three (a
# call that keeps states, and a lean compression), the medium and the cold
# oscillator (a lean expansion), and the medium alone, whose rows of the
# whole map sandwiched the whole state (a time series' ramp interiors).
RAMP_OSCILLATORS = {"all": ((0, 1, 2), engine._ALL), "lean": ((1, 2), (1, 2, 4, 5)),
                    "medium": ((1,), engine._ALL)}


class TestRampSandwich:
    @pytest.mark.parametrize("block", sorted(RAMP_OSCILLATORS))
    @pytest.mark.parametrize("ramp", list(RampMode))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_blocks_give_the_dense_sandwich_byte_for_byte(self, ramp, block, data):
        oscillators, columns = RAMP_OSCILLATORS[block]
        params = data.draw(st.lists(box_engines().filter(lambda p: p.ramp is ramp),
                                    min_size=1, max_size=4))
        batch = engine.EngineBatch.of(params)
        rows = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        at = rng.integers(len(params), size=rows)
        # product states (exact zeros off their oscillators' blocks) and
        # dense ones with exact zeros, every entry's sign drawn: +0.0 and -0.0
        g = rng.normal(size=(rows, 6, 6))
        dense = np.where(rng.random((rows, 6, 6)) < 0.3, 0.0, g @ g.transpose(0, 2, 1))
        product = product_states(batch.modes, batch.omega1, batch.omega3)[at]
        states = np.where(rng.random((rows, 1, 1)) < 0.5, product, dense)
        states = engine._by_element(states * rng.choice([-1.0, 1.0], size=states.shape))
        entries = [*oscillators, *(k + 3 for k in oscillators)]
        for maps in engine._Strokes(batch).stroke_maps[::2]:  # compression, expansion
            blocks = maps.take(at, axis=-1)
            got = engine._ramp_sandwich(blocks[:, :, list(oscillators)],
                                        states[np.ix_(entries, entries)])
            whole = dense_ramp_maps(blocks)
            want = engine._sandwich_stack(np.ascontiguousarray(whole[np.ix_(entries, columns)]),
                                          np.ascontiguousarray(states[np.ix_(columns, columns)]))
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_trailing_axes_broadcast(self):
        rng = np.random.default_rng(7)
        blocks, states = rng.normal(size=(2, 2, 1, 1, 5)), rng.normal(size=(2, 2, 3, 1))
        got = engine._ramp_sandwich(blocks, states)
        assert got.shape == (2, 2, 3, 5)
        for m in range(3):
            want = engine._ramp_sandwich(blocks[..., 0, :], np.repeat(states[:, :, m], 5, axis=2))
            assert got[:, :, m].tobytes() == want.tobytes()


# Engines of one call that stop at cycles 0, 1, 2 and 3 of their first
# chunk, and one that runs it out: a ragged call that keeps every cycle it
# computes.
RAGGED_CALL = [
    EngineParams(prep=thermal_preparation(beta1=0.01, omega3=omega3), alpha12=alpha12,
                 alpha23=alpha23, tau_comp=tau_comp, tau_h=tau_h, tau_c=tau_c,
                 ramp=RampMode.QUASI_STATIC)
    for omega3, alpha12, alpha23, tau_comp, tau_h, tau_c in (
        (0.585, 0.0, 0.036, 69.054, 0.677, 0.657),
        (0.644, 0.015, 0.021, 67.392, 0.029, 0.125),
        (0.905, 0.032, 0.014, 81.514, 0.042, 0.018),
        (0.013, 0.03, 0.037, 81.77, 0.544, 0.935))
] + [optimized_params(stop=FixedCycles(4))]


def _ragged_call(monkeypatch) -> dict:
    """The first _step call of run_reduced_ensemble(RAGGED_CALL): its
    arguments, its kernel chunk and a copy of the points it scores."""
    calls, step, kernel, score = [], engine._step, engine._simulate_chunk, engine.pair_correlations

    def spy_step(*args, **kwargs):
        calls.append(dict(inspect.signature(step).bind(*args, **kwargs).arguments))
        return step(*args, **kwargs)

    def spy_kernel(*args, **kwargs):
        calls[-1]["chunk"] = kernel(*args, **kwargs)
        return calls[-1]["chunk"]

    def spy_score(points):
        calls[-1]["points"] = np.array(points)
        return score(points)

    monkeypatch.setattr(engine, "_step", spy_step)
    monkeypatch.setattr(engine, "_simulate_chunk", spy_kernel)
    monkeypatch.setattr(engine, "pair_correlations", spy_score)
    run_reduced_ensemble(RAGGED_CALL)
    return calls[0]


def test_a_ragged_call_scores_the_points_of_explicitly_gathered_sandwiches(monkeypatch):
    """Every point a state-keeping call scores, against the state it is
    read off or one _sandwich_stack over interior maps and stroke states
    gathered one by one, in cycle-major order."""
    call = _ragged_call(monkeypatch)
    chunk, heat, cool = call["chunk"], call["heat_mats"], call["cool_mats"]
    lengths = call["lengths"]
    assert lengths.tolist() == [1, 2, 3, 4, 4]
    # the engines that stop keep their last computed cycle: every cycle is scored
    assert chunk.keep.tolist() == [0, 1, 2, 3, 4]
    owner = call["idx"].repeat(lengths)
    nh, nc = heat.shape[3], cool.shape[3]
    want = np.empty((3 + nh + nc, owner.size, 6, 6))
    for at, sig in ((0, chunk.sig_a), (1 + nh, chunk.sig_c), (2 + nh + nc, chunk.sig_e)):
        for r in range(owner.size):
            want[at, r] = sig[:, :, r]
    for lo, mats, sig in ((1, heat, chunk.sig_b), (2 + nh, cool, chunk.sig_d)):
        pairs = [(r, i) for r in range(owner.size) for i in range(mats.shape[3])]
        out = engine._sandwich_stack(np.stack([mats[:, :, owner[r], i] for r, i in pairs], axis=-1),
                                     np.stack([sig[:, :, r] for r, _ in pairs], axis=-1))
        for j, (r, i) in enumerate(pairs):
            want[lo + i, r] = out[:, :, j]
    assert call["points"].shape == want.shape
    assert call["points"].tobytes() == want.tobytes()


def _poison_scratch(monkeypatch) -> None:
    """Fill every scratch buffer of this thread with NaN before each kernel
    call."""
    kernel = engine._simulate_chunk

    def poisoned(*args, **kwargs):
        for buffer in engine._SCRATCH.buffers:
            buffer.fill(np.nan)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(engine, "_simulate_chunk", poisoned)


def _scratch_runs() -> tuple:
    """Every number of a 50-sample scan and of a tracked recurrence_140 run."""
    return repr(random_scan(50, seed=23)), fingerprint(Engine(_recurrence_params()).run())


class TestScratch:
    """A state-keeping call builds its scored points, and a lean call its
    stages, in per-thread scratch buffers (engine._Scratch): no number may
    depend on what they held before, and no result may share their
    memory."""

    def test_stale_scratch_changes_no_number(self, monkeypatch):
        """A read of a scratch entry the call did not write first reads NaN."""
        clean = _scratch_runs(), _ragged_call(monkeypatch)["points"].tobytes()
        monkeypatch.undo()
        _poison_scratch(monkeypatch)
        assert (_scratch_runs(), _ragged_call(monkeypatch)["points"].tobytes()) == clean

    def test_no_result_shares_the_scratch(self):
        res = Engine(_recurrence_params()).run()
        totals = run_reduced_ensemble(RAGGED_CALL)
        arrays = [res.sigma_final.matrix, *res.timeseries.columns(),
                  *(getattr(totals, f.name) for f in dataclasses.fields(totals)),
                  *(getattr(r, f.name) for r in res.records for f in dataclasses.fields(r))]
        buffers = engine._SCRATCH.buffers
        assert all(b.size for b in buffers)
        assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)

    def test_stale_scratch_changes_no_lean_number(self, monkeypatch):
        """Lean calls keep every array of their stages in the scratch too."""
        def lean_runs():
            results = engine._reduced_results(mixed_ensemble())
            return ([fingerprint(res) for res in results],
                    [res.sigma_initial.matrix.tobytes() for res in results],
                    repr(optimize(omega3=0.1, budget=200, restarts=4)))

        clean = lean_runs()
        _poison_scratch(monkeypatch)
        assert lean_runs() == clean

    def test_no_result_shares_the_scratch(self):
        res = Engine(_recurrence_params()).run()
        totals = run_reduced_ensemble(RAGGED_CALL)
        params = mixed_ensemble()
        with engine.prepared(params):
            lean = [run_reduced(p, correlations=False) for p in params]
        lean.append(run_reduced(optimized_params(), correlations=False))
        arrays = [res.sigma_final.matrix, *res.timeseries.columns(),
                  *(getattr(totals, f.name) for f in dataclasses.fields(totals)),
                  *(getattr(r, f.name) for r in res.records for f in dataclasses.fields(r)),
                  *(r.sigma_initial.matrix for r in lean), *(r.sigma_final.matrix for r in lean)]
        buffers = engine._SCRATCH.buffers
        assert all(b.size for b in buffers)
        assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)

    def test_a_later_larger_run_leaves_earlier_results_alone(self):
        """The later runs write further into every buffer than the earlier
        ones did (a run leaves the NaN past its last write)."""
        def extents():
            return [int(np.flatnonzero(~np.isnan(b)).max(initial=-1)) + 1
                    for b in engine._SCRATCH.buffers]

        def poison():
            for buffer in engine._SCRATCH.buffers:
                buffer.fill(np.nan)

        poison()
        small = Engine(optimized_params(stop=FixedCycles(4))).run()
        totals = run_reduced_ensemble(RAGGED_CALL[:2])
        earlier = extents()

        def numbers():
            return fingerprint(small), [getattr(totals, f.name).tobytes()
                                        for f in dataclasses.fields(totals)]
        before = numbers()
        poison()
        _scratch_runs()
        assert all(later > extent > 0 for later, extent in zip(extents(), earlier))
        assert numbers() == before

    def test_lean_and_state_keeping_runs_interleave(self):
        """A lean run between two state-keeping runs on one thread, or the
        reverse: each run gets its own numbers, and no later run changes
        an earlier one's."""
        runs = {"tracked": lambda: Engine(_recurrence_params()).run(),
                "lean": lambda: run_reduced(optimized_params(), correlations=False)}
        alone = {name: fingerprint(run()) for name, run in runs.items()}
        for order in (("tracked", "lean", "tracked"), ("lean", "tracked", "lean")):
            results = [runs[name]() for name in order]
            assert [fingerprint(res) for res in results] == [alone[name] for name in order]

    def test_threads_running_scans_at_once_get_their_serial_bytes(self):
        """Each thread has its own scratch: two threads stepping different
        scan blocks at the same time, with thread switches forced often,
        each get the block's serial samples."""
        serial = {seed: repr(random_scan(50, seed=seed)) for seed in (31, 37)}
        got, errors = {}, []
        start = threading.Barrier(len(serial))

        def scan(seed):
            try:
                start.wait(timeout=60)
                got[seed] = [repr(random_scan(50, seed=seed)) for _ in range(3)]
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan, args=(seed,)) for seed in serial]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert got == {seed: [block] * 3 for seed, block in serial.items()}


# Runs that refuse a parametrically unstable Airy engine, or may: einsum
# turns 0 x inf into NaN where the ramps' block form skips the term, so
# both must reach the same outcome.
REFUSED_RUNS = {
    "lone": lambda: Engine(UNSTABLE_AIRY).run(want_timeseries=False),
    "ensemble": lambda: run_reduced_ensemble([optimized_params(stop=FixedCycles(3)),
                                              UNSTABLE_AIRY]),
    **{f"box-{name}": (lambda params=params, correlations=correlations: run_reduced_ensemble(
        params, correlations=correlations)) for name, (params, correlations)
       in UNSTABLE_BOX_DRAWS.items()},
    **{f"box-{name}-lone": (lambda params=params, correlations=correlations: [
        run_reduced(p, correlations=correlations) for p in params]) for name, (params, correlations)
       in UNSTABLE_BOX_DRAWS.items()},
}


@pytest.mark.parametrize("run", sorted(REFUSED_RUNS))
def test_unstable_airy_refusals_keep_their_error_and_message(run, monkeypatch):
    def outcome():
        try:
            result = REFUSED_RUNS[run]()
        except PhysicalityError as exc:
            return str(exc)
        if isinstance(result, engine.EnsembleTotals):
            return [column.tobytes() for column in vars(result).values()]
        return [fingerprint(res) for res in (result if isinstance(result, list) else [result])]

    blocks = outcome()
    monkeypatch.setattr(engine, "_ramp_sandwich", einsum_ramp_sandwich)
    assert outcome() == blocks
    if run in ("lone", "ensemble"):
        assert "pair correlations are not finite" in blocks


# Largest gap between the kernel and the spectral oracle, relative to the
# first-law scale max(1, |w1| + |w2|) of a cycle (of the counted cycles, for
# w_total).  Measured over 500 box engines of up to 50 cycles: 4.7e-15 per
# cycle and 1.8e-16 for w_total; the bounds keep a factor of 10.
CYCLE_WORK_RTOL = 5e-14
W_TOTAL_RTOL = 2e-15


def assert_matches_spectral_form(res, cycle_rtol=CYCLE_WORK_RTOL):
    """The kernel's w_cycle, w_total and stop against the 50-digit spectral
    form of the run's cycle map.  A run whose stop the kernel's rounding
    could decide either way, w(k) within cycle_rtol of -eps_stop, is a tie:
    reported as a hypothesis event, not asserted on."""
    rows = res.records + ((res.probe,) if res.probe is not None else ())
    oracle = spectral_cycle_work(res.params, len(rows))
    scale = np.array([max(1.0, abs(r.w1) + abs(r.w2)) for r in rows])
    gap = np.array([abs(r.w_cycle - float(w)) for r, w in zip(rows, oracle)])
    assert np.all(gap <= cycle_rtol * scale)
    n = res.n_cycles
    w_total = float(mpmath.fsum(oracle[:n]))
    assert abs(res.w_total - w_total) <= W_TOTAL_RTOL * max(1.0, scale[:n].sum())
    if isinstance(res.params.stop, WorkNonNegative):
        eps = res.params.stop.eps_stop
        margin = np.array([float(w) + eps for w in oracle])
        if np.any(np.abs(margin) <= cycle_rtol * scale):
            event("tie: w(k) within the kernel's rounding of -eps_stop")
            return
        hits = np.flatnonzero(margin >= 0)
        assert (res.probe is not None) == (hits.size > 0)
        assert n == (hits[0] if hits.size else len(rows))


class TestSpectralOracle:
    """The kernel's chunked powers against the spectral form of each
    engine's cycle map at 50 digits."""

    @settings(max_examples=30)
    @given(box_engines())
    def test_work_and_stop_over_the_box(self, params):
        assert_matches_spectral_form(Engine(params).run(want_timeseries=False, correlations=False))

    def test_long_run(self):
        # measured over 2,500 cycles: 1.9e-16 at first, 6.6e-15 past cycle 2,000
        res = Engine(optimized_params(stop=FixedCycles(2500))).run(
            want_timeseries=False, correlations=False)
        assert_matches_spectral_form(res, cycle_rtol=1e-13)


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


def fingerprint(res):
    """Every number of a run, bit for bit (repr round-trips floats and NaN)."""
    series = None if res.timeseries is None else [c.tobytes() for c in res.timeseries.columns()]
    return (repr(res.records), repr(res.probe), res.stop_reason, res.n_cycles,
            repr(res.w_total), repr(res.discord_max), repr(res.negativity_max),
            res.sigma_final.matrix.tobytes(), series)


# Bounds on one kernel call: its kernel points (_CALL_POINTS) and its
# engine-cycles when it keeps states (_STACK_CYCLES): one chunk per call,
# the defaults, and none.
CALL_BOUNDS = {"one_chunk": (1, 1),
               "default": (engine._CALL_POINTS, engine._STACK_CYCLES),
               "unbounded": (10**9, 10**9)}


def _no_prediction(self, idx, sigma0, eps_stop, horizon):
    return np.full(idx.size, -1)


class TestSpans:
    """A kernel call may run several consecutive chunks of the schedule (a
    span); no number depends on how the chunks are grouped into calls."""

    RUNS = {
        "work_non_negative": optimized_params,
        "fixed_300": lambda: optimized_params(stop=FixedCycles(300)),
        "airy": lambda: optimized_params(ramp=RampMode.LINEAR_AIRY, stop=FixedCycles(20)),
    }

    def _by_bound(self, monkeypatch, run):
        out = {}
        for name, (points, stack) in CALL_BOUNDS.items():
            monkeypatch.setattr(engine, "_CALL_POINTS", points)
            monkeypatch.setattr(engine, "_STACK_CYCLES", stack)
            out[name] = run()
        return out

    @pytest.mark.parametrize("correlations", [True, False])
    @pytest.mark.parametrize("make", sorted(RUNS))
    def test_run_reduced_is_bit_identical(self, make, correlations, monkeypatch):
        params = self.RUNS[make]()
        out = self._by_bound(monkeypatch, lambda: fingerprint(
            run_reduced(params, correlations=correlations)))
        assert out["default"] == out["one_chunk"]
        assert out["unbounded"] == out["one_chunk"]

    @pytest.mark.parametrize("make", sorted(RUNS))
    def test_records_and_time_series_are_bit_identical(self, make, monkeypatch):
        params = self.RUNS[make]()
        out = self._by_bound(monkeypatch, lambda: fingerprint(Engine(params).run()))
        assert out["default"] == out["one_chunk"]
        assert out["unbounded"] == out["one_chunk"]

    def test_ensemble_is_bit_identical(self, monkeypatch):
        params = mixed_ensemble()
        out = self._by_bound(monkeypatch, lambda: [
            column.tobytes() for column in vars(run_reduced_ensemble(params)).values()])
        assert out["default"] == out["one_chunk"]
        assert out["unbounded"] == out["one_chunk"]

    def test_each_engine_of_a_lean_round_gets_its_lone_run(self, monkeypatch):
        """A round's engines run as lean calls of all their rows at once
        (here 20 engines within 0.1% of the optimized point, in one call
        past 1,000 rows); each engine gets the numbers of its lone lean
        run, bit for bit."""
        rng = np.random.default_rng(5)
        best = optimized_params()
        round_ = [dataclasses.replace(best, **{
            name: getattr(best, name) * float(rng.uniform(0.999, 1.001))
            for name in ("alpha12", "alpha23", "tau_h", "tau_c", "tau_comp")}) for _ in range(20)]
        rows, kernel = [], engine._simulate_chunk

        def recording(strokes, idx, sigma, span, lengths, *args):
            rows.append(int(lengths.sum()))
            return kernel(strokes, idx, sigma, span, lengths, *args)

        for params in (mixed_ensemble(), round_):
            monkeypatch.setattr(engine, "_simulate_chunk", recording)
            results = [fingerprint(res) for res in engine._reduced_results(params)]
            monkeypatch.undo()
            assert results == [fingerprint(run_reduced(p, correlations=False)) for p in params]
        assert max(rows) > 1000

    def test_a_lone_engine_spans_and_a_scan_block_does_not(self, monkeypatch):
        spans = []
        kernel = engine._simulate_chunk

        def recording(strokes, idx, sigma, span, *args):
            spans.append((idx.size, span))
            return kernel(strokes, idx, sigma, span, *args)

        monkeypatch.setattr(engine, "_simulate_chunk", recording)
        # no work rule: the doubling chunks, spanned to the run's known end
        run_reduced(optimized_params(stop=FixedCycles(300)), correlations=False)
        assert spans == [(1, (4, 8, 16, 32, 64, 128, 48))]
        spans.clear()
        # a predicted probe at cycle 70: one call that cuts its last chunk there
        run_reduced(optimized_params(), correlations=False)
        assert spans == [(1, (4, 8, 16, 32, 11))]
        spans.clear()
        run_reduced_ensemble([optimized_params(stop=FixedCycles(12))] * 50)
        assert spans[0] == (50, (4,))

    def test_chunks_after_the_stop_are_never_first_law_checked(self, monkeypatch):
        """Stroke states of every cycle after the first chunk of a lone
        engine's 4+8+16+32 span (calls held to 60 cycles) are poisoned
        with NaN, which fails the first-law check wherever it looks.
        Without a prediction, the span runs on past the stop; with one,
        the call ends at the stop and computes no later cycle at all."""
        monkeypatch.setattr(engine._Strokes, "probe_cycles", _no_prediction)
        monkeypatch.setattr(engine, "_STACK_CYCLES", 60)
        sandwich = engine._sandwich_stack

        def poisoned(mats, states, *work):
            out = sandwich(mats, states, *work)
            if out.shape[2] == 60:  # a stroke stack of the span's 60 cycles
                out[:, :, 4:] = np.nan
            return out

        stops_at_once = optimized_params(stop=WorkNonNegative(eps_stop=1e6))
        clean = fingerprint(run_reduced(stops_at_once))
        monkeypatch.setattr(engine, "_sandwich_stack", poisoned)
        assert fingerprint(run_reduced(stops_at_once)) == clean
        with pytest.raises(EnergyBalanceError, match="cycle 4: first-law residual nan"):
            run_reduced(optimized_params(stop=FixedCycles(60)))


_PREDICT = engine._Strokes.probe_cycles


def _shifted_prediction(shift):
    """The predictor, moved by shift(idx) cycles (clipped at 0) where it predicts."""
    def probe_cycles(self, idx, sigma0, eps_stop, horizon):
        cycle = _PREDICT(self, idx, sigma0, eps_stop, horizon)
        return np.where(cycle >= 0, np.maximum(cycle + shift(idx), 0), -1)
    return probe_cycles


MISPREDICTIONS = {
    "default": _PREDICT,
    "early": _shifted_prediction(lambda idx: -1 - idx % 5),
    "late": _shifted_prediction(lambda idx: 1 + 7 * (idx % 5)),
    "zero": lambda self, idx, *args: np.zeros(idx.size, dtype=int),
}


class TestPredictedCalls:
    """A predicted probe only plans the kernel's calls: whether it is right,
    early, late or absent, every run gives the numbers of the unpredicted
    schedule, bit for bit."""

    RUNS = {
        "work_non_negative": optimized_params,
        "eps_stop": lambda: optimized_params(stop=WorkNonNegative(eps_stop=0.05)),
        "airy": lambda: optimized_params(ramp=RampMode.LINEAR_AIRY),
        "capped": lambda: dataclasses.replace(optimized_params(), max_cycles=40),
    }

    def _unpredicted_and(self, predictor, monkeypatch, run):
        monkeypatch.setattr(engine._Strokes, "probe_cycles", _no_prediction)
        plain = run()
        monkeypatch.setattr(engine._Strokes, "probe_cycles", MISPREDICTIONS[predictor])
        return plain, run()

    @pytest.mark.parametrize("predictor", sorted(MISPREDICTIONS))
    @pytest.mark.parametrize("correlations", [True, False])
    def test_run_reduced(self, predictor, correlations, monkeypatch):
        for make in self.RUNS.values():
            params = make()
            plain, planned = self._unpredicted_and(predictor, monkeypatch, lambda: fingerprint(
                run_reduced(params, correlations=correlations)))
            assert planned == plain

    @pytest.mark.parametrize("predictor", sorted(MISPREDICTIONS))
    def test_records_and_time_series(self, predictor, monkeypatch):
        for make in self.RUNS.values():
            params = make()
            plain, planned = self._unpredicted_and(
                predictor, monkeypatch, lambda: fingerprint(Engine(params).run()))
            assert planned == plain

    def test_fixed_cycles_engines_are_never_predicted(self, monkeypatch):
        """A FixedCycles engine's end is its cycle count; only work-rule
        engines reach the predictor."""
        predicted = []

        def probe_cycles(self, idx, sigma0, eps_stop, horizon):
            predicted.append(eps_stop)
            return _PREDICT(self, idx, sigma0, eps_stop, horizon)

        monkeypatch.setattr(engine._Strokes, "probe_cycles", probe_cycles)
        fixed = optimized_params(stop=FixedCycles(140))
        for correlations in (True, False):
            run_reduced(fixed, correlations=correlations)
        Engine(fixed).run()
        assert not predicted
        run_reduced_ensemble(mixed_ensemble(), correlations=False)
        assert predicted and all((eps > -np.inf).all() for eps in predicted)

    @pytest.mark.parametrize("predictor", sorted(MISPREDICTIONS))
    def test_ensemble_and_scan(self, predictor, monkeypatch):
        params = mixed_ensemble() + [make() for make in self.RUNS.values()]
        plain, planned = self._unpredicted_and(predictor, monkeypatch, lambda: (
            [column.tobytes() for correlations in (True, False) for column in
             vars(run_reduced_ensemble(params, correlations=correlations)).values()],
            repr(random_scan(40, 7, family=PrepFamily.THERMAL, beta1=0.01))))
        assert planned == plain
