"""Seeded-scan determinism and optimizer bookkeeping."""

import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from otto3.errors import ConfigError, EnergyBalanceError
from otto3.explore import (DIMENSIONS, Objective, OptimizeOutcome,
                           ParameterBox, PrepFamily, ScanSample, optimize,
                           random_scan)
from otto3.states import SqueezedVacuum, Thermal
from otto3 import engine, explore
from otto3.engine import EngineParams, WorkNonNegative, run_reduced
from otto3.explore import DEFAULT_BETA1
from otto3.propagators import RampMode

from helpers import (MATCHED_R1, NBAR_BETA_001, OPT_ALPHA12, OPT_ALPHA23,
                     OPT_TAU_C, OPT_TAU_COMP, OPT_TAU_H, SWEEP_OMEGA3, SWEEP_OPTIMIZE,
                     W_TOTAL_BASELINE, frozen_optimize_runs, frozen_scan_runs,
                     optimize_digest, scan_csv_sha256)

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
        with pytest.raises(ConfigError):
            random_scan(4, seed=-1)

    def test_box_needs_omega3(self):
        with pytest.raises(ConfigError):
            random_scan(4, seed=1, box=ParameterBox())

    def test_rejects_a_cycle_limit_past_the_float_range(self):
        with pytest.raises(ConfigError, match="max_cycles must be below 2"):
            random_scan(4, seed=1, max_cycles=10**400)

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

    # (alpha23, tau_c) of random_scan(12, seed=13, min_alpha23_tau_c=0.02),
    # frozen from the unbounded redraw loop
    FILTERED_DRAWS = [
        (0.04226210151188994, 0.70377647766229), (0.037297716077045434, 0.6490256002346179),
        (0.04344633414232947, 0.8177810128809653), (0.03172412715273926, 0.9607513198170013),
        (0.0381884270927186, 0.889311433216436), (0.041882617715467724, 0.6292894434399497),
        (0.037119974163744233, 0.8776831800322816), (0.041918153733380446, 0.7349859226299144),
        (0.0326912150965806, 0.899222474936577), (0.046262468342529034, 0.9775536096779724),
        (0.03193454668247221, 0.7860208683078633), (0.02710018499555667, 0.9210264325317404)]

    def test_weak_cold_contact_filter(self):
        samples = random_scan(12, seed=13, min_alpha23_tau_c=0.02)
        assert all(s.alpha23 * s.tau_c >= 0.02 for s in samples)
        assert [(s.alpha23, s.tau_c) for s in samples] == self.FILTERED_DRAWS
        unfiltered = random_scan(12, seed=13)
        assert samples != unfiltered

    @pytest.mark.parametrize("threshold", [float("nan"), 1.0])
    def test_unreachable_filter_is_refused(self, threshold):
        # the default box reaches alpha23 * tau_c = 0.05 at most
        with pytest.raises(ConfigError, match=f"sample 0: .* min_alpha23_tau_c = {threshold}"):
            random_scan(3, seed=1, min_alpha23_tau_c=threshold)

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


def _scan_settings(seed, min_alpha23_tau_c=0.0):
    return explore.ScanSettings(seed=seed, box=ParameterBox(omega3=explore.OMEGA3_RANGE),
                                family=PrepFamily.THERMAL, beta1=DEFAULT_BETA1,
                                ramp=RampMode.QUASI_STATIC, max_cycles=10,
                                min_alpha23_tau_c=min_alpha23_tau_c)


def _fresh_generator_draws(indices, settings):
    """explore._draws with one default_rng(SeedSequence(seed, spawn_key=(i,)))
    per sample, and the attempts each sample took."""
    lo, hi = np.array([settings.box.interval(name) for name in DIMENSIONS]).T
    (a_lo, t_lo), (a_span, t_span) = lo[[1, 3]].tolist(), (hi - lo)[[1, 3]].tolist()
    u, attempts = np.empty((len(indices), len(DIMENSIONS))), []
    for row, index in zip(u, indices):
        rng = np.random.default_rng(np.random.SeedSequence(settings.seed, spawn_key=(index,)))
        for attempt in range(1, explore.MAX_DRAWS + 1):
            rng.random(out=row)
            if (a_lo + a_span * row[1]) * (t_lo + t_span * row[3]) >= settings.min_alpha23_tau_c:
                break
        attempts.append(attempt)
    return lo[:, None] + (hi - lo)[:, None] * u.T, attempts


SUBSTREAM_SEEDS = (0, 1, 12345, 2**32, 2**64 + 5, 2**130 + 1)
# single indices, with one- and two-word spawn keys, and blocks, one of
# them crossing into two words
SUBSTREAM_INDICES = [range(i, i + 1) for i in (0, 1, 49, 2**31, 2**32 + 3)] + [
    range(50), range(2**32 - 2, 2**32 + 2)]


class TestSubstreams:
    """A scan block hashes its samples' SeedSequences in one pass and
    reuses one generator; every sample must still draw numpy's stream
    default_rng(SeedSequence(seed, spawn_key=(i,)))."""

    @pytest.mark.parametrize("seed", SUBSTREAM_SEEDS)
    def test_states_are_numpys_spawned_streams(self, seed):
        for indices in SUBSTREAM_INDICES:
            assert explore._substreams(seed, indices) == [
                np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))).bit_generator.state
                for i in indices], indices

    @pytest.mark.parametrize("seed", SUBSTREAM_SEEDS)
    def test_draws_are_those_of_a_fresh_generator_per_sample(self, seed):
        settings = _scan_settings(seed)
        for indices in SUBSTREAM_INDICES:
            want, _ = _fresh_generator_draws(indices, settings)
            assert explore._draws(indices, settings).tobytes() == want.tobytes(), indices

    @pytest.mark.parametrize("indices", [range(50), range(2**32 - 25, 2**32 + 25)])
    def test_filtered_samples_redraw_their_own_streams(self, indices):
        settings = _scan_settings(12345, min_alpha23_tau_c=0.02)
        want, attempts = _fresh_generator_draws(indices, settings)
        assert max(attempts) > 1
        assert explore._draws(indices, settings).tobytes() == want.tobytes()


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
        with pytest.raises(ConfigError):
            optimize(omega3=0.5, seed=-1)
        with pytest.raises(ConfigError, match="^max_cycles must be below 2"):
            optimize(omega3=0.5, budget=4, max_cycles=10**400)

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

    @pytest.mark.parametrize("budget", [128, 255, 256, 300])
    def test_differential_evolution_stays_within_its_budget(self, budget):
        # init="sobol" rounds five free parameters' 75 members up to 128
        out = optimize(omega3=0.5, method="differential-evolution",
                       budget=budget, seed=2, max_cycles=300)
        assert 128 <= out.evaluations <= budget

    @pytest.mark.parametrize("budget", [10, 127])
    def test_differential_evolution_refuses_a_budget_below_one_population(self, budget):
        with pytest.raises(ConfigError, match="at least one population, 128 evaluations"):
            optimize(omega3=0.5, method="differential-evolution", budget=budget)

    @pytest.mark.parametrize("method, budget", [("nelder-mead", 60),
                                                ("differential-evolution", 128)])
    def test_one_run_reduced_call_per_evaluation(self, method, budget, monkeypatch):
        """The optimizer benchmark slices its runs by counting calls of
        explore.run_reduced: one per evaluation plus the final rerun of the
        best point.  Batching evaluations would break that count."""
        calls = []
        inner = explore.run_reduced

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(explore, "run_reduced", counting)
        out = optimize(omega3=0.5, budget=budget, restarts=2, seed=0, method=method,
                       max_cycles=300)
        assert len(calls) == out.evaluations + 1

    def test_the_points_of_a_fixed_omega3_share_one_preparation(self, monkeypatch):
        """Each point gets its own checked EngineParams, and a fixed omega3
        one Preparation object, built once; an omega3 interval gets one
        per point."""
        preps, inner = [], explore.run_reduced

        def recording(params, **kwargs):
            preps.append(params.prep)
            return inner(params, **kwargs)

        monkeypatch.setattr(explore, "run_reduced", recording)
        optimize(omega3=0.5, budget=60, restarts=2, seed=0, max_cycles=300)
        assert len(preps) == 61 and all(prep is preps[0] for prep in preps)
        preps.clear()
        optimize(box=ParameterBox(omega3=(0.3, 0.6)), budget=60, restarts=2, seed=0,
                 max_cycles=300)
        assert preps[0] is not preps[1] and preps[0].omega3 != preps[1].omega3

    def test_the_kernel_computes_few_cycles_past_each_stop(self, monkeypatch):
        """Predicted probes end each run's kernel call at its stop: the
        engine-cycles the kernel computes stay within 5% of those the runs
        simulate, probe included."""
        computed, simulated = [], []
        kernel, inner = engine._simulate_chunk, explore.run_reduced

        def counting_kernel(strokes, idx, sigma, span, lengths, *args):
            computed.append(int(lengths.sum()))
            return kernel(strokes, idx, sigma, span, lengths, *args)

        def counting_run(*args, **kwargs):
            res = inner(*args, **kwargs)
            simulated.append(res.n_cycles + (res.stop_reason == "work_non_negative"))
            return res

        monkeypatch.setattr(engine, "_simulate_chunk", counting_kernel)
        monkeypatch.setattr(explore, "run_reduced", counting_run)
        out = optimize(omega3=0.1, budget=300)
        assert len(simulated) == out.evaluations + 1
        assert sum(simulated) > 10 * len(simulated)  # runs of many cycles
        assert sum(computed) <= 1.05 * sum(simulated)

    def test_each_round_runs_in_one_kernel_call(self, monkeypatch):
        """A round's engines run as one lean ensemble, and one kernel call
        holds all of it, its longest runs included (late rounds here
        compute up to about 1,000 engine-cycles)."""
        calls, in_round = [], []  # kernel calls per round
        kernel, results = engine._simulate_chunk, engine._reduced_results

        def round_results(params):
            calls.append(0)
            in_round.append(True)
            try:
                return results(params)
            finally:
                in_round.pop()

        def counting_kernel(*args):
            if in_round:
                calls[-1] += 1
            return kernel(*args)

        monkeypatch.setattr(engine, "_reduced_results", round_results)
        monkeypatch.setattr(engine, "_simulate_chunk", counting_kernel)
        optimize(omega3=0.1, budget=800, restarts=16, seed=0)
        assert len(calls) > 40
        assert calls == [1] * len(calls)

    def test_squeezed_family_optimization_runs(self):
        out = optimize(omega3=0.1, box=published_box(),
                       family=PrepFamily.SQUEEZED)
        assert isinstance(out.best_params.prep.modes[0], SqueezedVacuum)
        assert out.w_total < 0.0


FROZEN_RUNS = frozen_optimize_runs()


class TestBestEvaluated:
    """optimize returns the best point it evaluated, so its value is the
    last value of its own trace."""

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(omega3=0.1, budget=100, seed=0), id="omega3-0.1-budget-100"),
        pytest.param(dict(omega3=0.3, budget=600, restarts=40, seed=1), id="forty-restarts"),
        pytest.param(dict(omega3=0.5, budget=384, seed=1, method="differential-evolution"),
                     id="differential-evolution"),
    ])
    def test_value_is_the_last_trace_value(self, kwargs):
        outcome = optimize(objective=Objective.WORK_ERGOTROPY_RATIO, **kwargs)
        assert outcome.value == outcome.trace[-1][1]
        # best_params evaluates to that value
        assert outcome.ratio == outcome.value


class TestRestartLanes:
    """The Nelder-Mead restarts that the budget cannot cut run side by side
    on the calling thread, each a lane of one ensemble per round, as does
    each differential-evolution generation; no outcome may notice."""

    def test_sweep_points_match_the_frozen_outcomes(self, sweep_outcomes):
        for w3, out, (kwargs, frozen) in zip(SWEEP_OMEGA3, sweep_outcomes, FROZEN_RUNS):
            assert kwargs == dict(omega3=w3, **SWEEP_OPTIMIZE)
            assert optimize_digest(out) == frozen, f"omega3 = {w3}"

    # budget 100: n_pre = 50 and per_restart = 7, so restarts 0-6 run in
    # rounds and the budget cuts restart 7, which runs after them alone;
    # restarts 40: forty lanes per round; budget 384: three generations
    @pytest.mark.parametrize("index", [5, 6, 7],
                             ids=["cut-restart", "forty-restarts", "differential-evolution"])
    def test_small_runs_match_the_frozen_outcomes(self, index, monkeypatch):
        kwargs, frozen = FROZEN_RUNS[index]  # after the five sweep points
        threads, started = [], []
        inner, start = explore.run_reduced, threading.Thread.start

        def counting(*args, **kw):
            threads.append(threading.active_count())
            return inner(*args, **kw)

        def starting(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(explore, "run_reduced", counting)
        monkeypatch.setattr(threading.Thread, "start", starting)
        before = threading.active_count()
        out = optimize(**kwargs)
        assert optimize_digest(out) == frozen
        assert len(threads) == out.evaluations + 1
        assert started == [], "optimize starts no thread"
        assert set(threads) == {before}

    # A clean run makes 18 kernel calls in its 12 rounds; the 9th is the
    # first of the fifth round.
    @pytest.mark.parametrize("where, nth", [("ensemble", 1), ("ensemble", 9),
                                            ("evaluation", 300)])
    def test_a_failure_leaves_no_prepared_result(self, where, nth, monkeypatch):
        """The nth kernel call of the rounds' ensembles, or the nth
        evaluation, raises: optimize raises that very error, and only it,
        no prepared result survives, and a later run_reduced of a params
        the failed round prepared computes it afresh."""
        calls, injected, rounds, in_round = 0, [], [], []

        def fail_on_nth():
            nonlocal calls
            calls += 1
            if calls == nth:
                injected.append(EnergyBalanceError("injected"))
                raise injected[-1]

        kernel, results, inner = (engine._simulate_chunk, engine._reduced_results,
                                  explore.run_reduced)

        def round_results(params):
            rounds.append(list(params))
            in_round.append(True)
            try:
                return results(params)
            finally:
                in_round.pop()

        def failing_kernel(*args):
            if where == "ensemble" and in_round:
                fail_on_nth()
            return kernel(*args)

        def failing_run(*args, **kwargs):
            if where == "evaluation":
                fail_on_nth()
            return inner(*args, **kwargs)

        monkeypatch.setattr(engine, "_reduced_results", round_results)
        monkeypatch.setattr(engine, "_simulate_chunk", failing_kernel)
        monkeypatch.setattr(explore, "run_reduced", failing_run)
        with pytest.raises(EnergyBalanceError) as raised:
            optimize(omega3=0.3, budget=600, restarts=40, seed=1)
        assert len(injected) == 1 and raised.value is injected[0]
        assert engine._prepared.get() is None

        computed = []

        def counting_kernel(*args):
            computed.append(1)
            return kernel(*args)

        monkeypatch.setattr(engine, "_simulate_chunk", counting_kernel)
        for p in rounds[-1]:  # the round that failed
            del computed[:]
            again = engine.run_reduced(p, correlations=False)
            assert computed, "a prepared result survived the failure"
            alone = engine.Engine(p).run(want_timeseries=False, correlations=False,
                                         keep_records=False)
            assert again.w_total == alone.w_total and again.n_cycles == alone.n_cycles


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
        for bound in (1, 10**9):
            monkeypatch.setattr(engine, "_CALL_POINTS", bound)
            assert random_scan(**self.SCAN) == reference, f"calls of {bound} kernel points"
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
            alone = run_reduced(params)
            assert s.cycles == alone.n_cycles
            assert s.w_total == alone.w_total
            assert (s.d12_max, s.d23_max, s.d13_max) == alone.discord_max
            assert (s.n12_max, s.n23_max, s.n13_max) == alone.negativity_max


_FROZEN_SCANS = frozen_scan_runs()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kwargs, digest", _FROZEN_SCANS, ids=[
    f"{kw['family'].value}-{kw['ramp'].value}-min{kw['min_alpha23_tau_c']}"
    for kw, _ in _FROZEN_SCANS])
def test_scan_csv_matches_the_frozen_bytes(kwargs, digest, workers, tmp_path):
    """scan.csv of four 200-sample scans, one of them redrawing samples
    under the weak-cold-contact filter, is byte-identical to the frozen
    file, with one worker and with two."""
    kwargs = dict(kwargs)
    n_samples, seed = kwargs.pop("n_samples"), kwargs.pop("seed")
    samples = random_scan(n_samples, seed, workers=workers, **kwargs)
    assert scan_csv_sha256(samples, tmp_path) == digest


@pytest.mark.parametrize("name, interval", [
    ("alpha12", (0.0, float("nan"))), ("tau_h", (0.0, float("inf"))),
    ("omega3", (float("nan"), 0.5)), ("tau_comp", (float("-inf"), 1.0))])
def test_parameter_box_rejects_non_finite_endpoints(name, interval):
    with pytest.raises(ConfigError, match=f"{name} interval .* has a non-finite endpoint"):
        ParameterBox(**{name: interval})


def _engine_with(**kwargs):
    return EngineParams(prep=PrepFamily.THERMAL.preparation(0.1, DEFAULT_BETA1), alpha12=0.01,
                        alpha23=0.0, tau_comp=1.0, tau_h=0.5, tau_c=0.5, **kwargs)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: engine.FixedCycles(2.5), id="FixedCycles-float"),
    pytest.param(lambda: engine.FixedCycles(float("nan")), id="FixedCycles-nan"),
    pytest.param(lambda: engine.FixedCycles(True), id="FixedCycles-bool"),
    pytest.param(lambda: _engine_with(max_cycles=2.5), id="max_cycles-float"),
    pytest.param(lambda: _engine_with(max_cycles=True), id="max_cycles-bool"),
    pytest.param(lambda: random_scan(2.5, 0), id="n_samples"),
    pytest.param(lambda: random_scan(3, 1.5), id="scan-seed"),
    pytest.param(lambda: random_scan(3, 0, workers=1.5), id="workers"),
    pytest.param(lambda: optimize(omega3=0.1, budget=2.5), id="budget"),
    pytest.param(lambda: optimize(omega3=0.1, restarts=1.5), id="restarts"),
    pytest.param(lambda: optimize(omega3=0.1, seed=1.5), id="optimize-seed"),
])
def test_counts_are_refused_unless_integers(make):
    # a count that is not an integer fails where it enters, never deep inside a run
    with pytest.raises(ConfigError, match="must be an integer"):
        make()


def test_numpy_integer_counts_are_accepted():
    params = _engine_with(stop=engine.FixedCycles(np.int64(2)), max_cycles=np.int32(5))
    assert run_reduced(params).n_cycles == 2
