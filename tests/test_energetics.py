import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from otto3 import energetics
from otto3.energetics import (_ascending_levels, efficiency, ergotropy, initial_spectrum,
                              mode_energies, mode_energy, spectral_shortfall)
from otto3.errors import ConvergenceError, PhysicalityError
from otto3.states import (Preparation, SqueezedVacuum, Thermal, product_state,
                          squeezed_preparation, thermal_preparation)

from helpers import (C1_BETA_001, ERGOTROPY_BASELINE, heap_ascending_levels,
                     heap_ergotropy, heap_initial_spectrum)


def vacuum_prep(omega3=0.1):
    return Preparation((Thermal(0.0),) * 3, omega3=omega3)


class TestModeEnergy:
    def test_vacuum(self):
        sigma = product_state(vacuum_prep())
        assert_allclose(mode_energy(sigma, 1, 1.0), 0.5, rtol=1e-15)

    def test_hot_thermal(self):
        sigma = product_state(thermal_preparation(beta1=0.01, omega3=0.1))
        assert_allclose(mode_energy(sigma, 1, 1.0), C1_BETA_001 / 2, rtol=1e-13)

    def test_squeezed(self):
        prep = Preparation((SqueezedVacuum(1.0), Thermal(0.0), Thermal(0.0)),
                           omega3=0.1)
        sigma = product_state(prep)
        assert_allclose(mode_energy(sigma, 1, 1.0), math.cosh(2.0) / 2, rtol=1e-14)

    def test_mode_energies_vector(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        sigma = product_state(prep)
        es = mode_energies(sigma, prep.frequencies)
        assert es.shape == (3,)
        assert_allclose(es[1], 0.05, rtol=1e-14)
        assert_allclose(es[2], 0.05, rtol=1e-14)

    def test_rejects_bad_mode_index(self):
        sigma = product_state(vacuum_prep())
        with pytest.raises(ValueError):
            mode_energy(sigma, 0, 1.0)
        with pytest.raises(ValueError):
            mode_energy(sigma, 4, 1.0)


class TestEfficiency:
    def test_all_work_from_absorbed_heat(self):
        res = efficiency(-5.0, 0.0, -5.0, 0.0)
        assert res.is_defined
        assert res.as_float() == 1.0

    def test_common_formula_branch(self):
        # reduces to 1 - Q2/|Q1| when Q1 < 0, Q2 > 0, dU = 0
        res = efficiency(-4.0, 0.0, -5.0, 1.0)
        assert_allclose(res.as_float(), 0.8, rtol=1e-15)

    def test_clamped_at_zero(self):
        assert efficiency(2.0, 0.0, -1.0, 0.0).as_float() == 0.0

    def test_undefined_when_no_heat_absorbed(self):
        res = efficiency(-1.0, 0.0, 0.0, 0.5)
        assert not res.is_defined
        assert res.value is None
        assert math.isnan(res.as_float())

    def test_bounded_on_random_first_law_tuples(self):
        # dU closes the books (W = Q1 + Q2 + dU), which is the regime the
        # engine feeds this function
        rng = np.random.default_rng(0)
        draws = rng.normal(size=(100_000, 3))
        n_defined = 0
        for w, q1, q2 in draws:
            res = efficiency(w, w - q1 - q2, q1, q2)
            if res.is_defined:
                n_defined += 1
                val = res.as_float()
                assert 0.0 <= val <= 1.0 + 1e-12
        assert n_defined > 50_000


class TestInitialSpectrum:
    def test_vacuum_single_population(self):
        spec = initial_spectrum(vacuum_prep())
        assert_allclose(spec.populations, [1.0], atol=0)
        assert spec.tail_mass <= 1e-8

    def test_thermal_geometric_law(self):
        # nbar = 1 corresponds to beta * omega = ln 2, halving per level
        prep = Preparation((Thermal(1.0), Thermal(0.0), Thermal(0.0)), omega3=0.1)
        spec = initial_spectrum(prep)
        assert_allclose(spec.populations[:3], [0.5, 0.25, 0.125], rtol=1e-12)

    def test_squeezed_prep_is_pure(self):
        prep = Preparation((SqueezedVacuum(1.5), Thermal(0.0), Thermal(0.0)),
                           omega3=0.1)
        spec = initial_spectrum(prep)
        assert_allclose(spec.populations, [1.0], atol=0)

    def test_descending_and_normalized(self):
        prep = thermal_preparation(beta1=0.5, omega3=0.3)
        spec = initial_spectrum(prep)
        assert np.all(np.diff(spec.populations) <= 0)
        assert_allclose(np.sum(spec.populations) + spec.tail_mass, 1.0, atol=1e-12)

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(ValueError):
            initial_spectrum(vacuum_prep(), 0.0)


class TestSpectralShortfall:
    def test_passive_assignment_is_zero(self):
        assert spectral_shortfall([0.5, 0.3, 0.2], [0.0, 1.0, 2.0]) == 0.0

    def test_inverted_assignment(self):
        assert_allclose(spectral_shortfall([0.2, 0.3, 0.5], [0.0, 1.0, 2.0]),
                        0.6, rtol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectral_shortfall([0.5, 0.5], [0.0])


class TestErgotropy:
    def test_vacuum_is_exactly_zero(self):
        assert ergotropy(vacuum_prep()) == 0.0

    def test_baseline_value(self):
        val = ergotropy(thermal_preparation(beta1=0.01, omega3=0.1))
        assert_allclose(val, ERGOTROPY_BASELINE, rtol=1e-9)

    def test_stable_under_tail_refinement(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        coarse = ergotropy(prep)
        fine = ergotropy(prep, tail_mass=1e-12)
        assert abs(fine - coarse) / abs(coarse) < 1e-6

    def test_globally_thermal_prep_is_passive(self):
        # every mode at the same temperature: the state is its own passive
        # rearrangement, so nothing is unitarily extractable
        beta = 3.0
        prep = Preparation(
            (Thermal(1.0 / math.expm1(beta)),
             Thermal(1.0 / math.expm1(beta * 0.5)),
             Thermal(1.0 / math.expm1(beta * 0.5))),
            omega3=0.5)
        assert abs(ergotropy(prep)) < 1e-6

    def test_pure_prep_yields_everything(self):
        prep = squeezed_preparation(beta1=0.01, omega3=0.1)
        e_init = sum(m.energy_above_ground(w)
                     for m, w in zip(prep.modes, prep.frequencies))
        assert_allclose(ergotropy(prep), e_init, rtol=1e-12)

    def test_decreases_with_cooling(self):
        betas = [5e-3, 1e-2, 2e-2, 5e-2, 0.1]
        vals = [ergotropy(thermal_preparation(beta1=b, omega3=0.1)) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert_allclose(vals[1], ERGOTROPY_BASELINE, rtol=1e-9)

    def test_bounded_by_initial_energy(self):
        for beta1 in (0.05, 0.5):
            prep = thermal_preparation(beta1=beta1, omega3=0.3)
            e_init = sum(m.energy_above_ground(w)
                         for m, w in zip(prep.modes, prep.frequencies))
            val = ergotropy(prep)
            assert 0.0 <= val <= e_init + 1e-12

    def test_level_budget_exhaustion(self):
        prep = thermal_preparation(beta1=0.01, omega3=0.1)
        with pytest.raises(ConvergenceError):
            ergotropy(prep, level_budget=100)

    def test_floors_that_keep_too_many_products_are_refined(self):
        # three equal hot modes: a floor below the top product keeps more than
        # twice the budget, so the step down shrinks until a floor fits; the
        # first floor that keeps the budget or more is refused
        prep = Preparation((Thermal(1.0),) * 3, omega3=0.5)
        with pytest.raises(ConvergenceError, match=r"needs more than \d+ levels, budget is 30$"):
            ergotropy(prep, level_budget=30)

    def test_more_populations_than_the_budget_refuse_the_levels(self):
        # a coarse tail keeps between budget and twice budget populations
        prep = Preparation((Thermal(7.0), Thermal(0.5), Thermal(0.1)), omega3=0.5)
        with pytest.raises(ConvergenceError, match=r"^level enumeration needs 28 levels, "
                                                   r"budget is 16$"):
            ergotropy(prep, tail_mass=0.3, level_budget=16)

    def test_an_exhausted_floor_step_is_refused(self, monkeypatch):
        # every floor keeps too many products: the step down halves (in log
        # scale) until it no longer moves the floor, and the loop ends there
        tried = []

        def too_many(per_mode, floor, limit):
            tried.append(floor)
            return None

        monkeypatch.setattr(energetics, "_products_at_least", too_many)
        with pytest.raises(ConvergenceError, match=r"^level enumeration needs more than 1000 "
                                                   r"levels$"):
            ergotropy(thermal_preparation(beta1=0.5, omega3=0.3), level_budget=1000)
        assert 1 < len(tried) < 100
        assert all(low < high for low, high in zip(tried, tried[1:]))

    def test_a_whole_tail_keeps_no_population_and_still_converges(self):
        prep = thermal_preparation(beta1=0.5, omega3=0.3)
        assert initial_spectrum(prep, tail_mass=1.0).populations.size == 0
        assert ergotropy(prep, tail_mass=1.0) == ergotropy(prep)

    def test_rejects_nonpositive_convergence(self):
        with pytest.raises(ValueError):
            ergotropy(vacuum_prep(), convergence=0.0)


# Preparations the array enumeration must reproduce exactly.
_betas = st.floats(1e-3, 10.0)
_omega3 = st.floats(0.01, 0.99, exclude_min=True, exclude_max=True)
_family_preps = st.builds(lambda f, b, w: f(beta1=b, omega3=w),
                          st.sampled_from([thermal_preparation, squeezed_preparation]),
                          _betas, _omega3)
_mixed_preps = st.builds(
    lambda nbars, w: Preparation(tuple(Thermal(n) for n in nbars), omega3=w),
    st.tuples(*[st.floats(0.0, 1.0)] * 3), _omega3)


class TestHeapOracle:
    """The array enumeration gives the heap enumeration's floats, not
    merely close ones: populations, tail mass, levels and ergotropy."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.one_of(_family_preps, _mixed_preps),
           st.sampled_from([1e-8, 1e-10, 1e-12, 0.3]))
    def test_spectrum_and_levels_equal_the_heap(self, prep, tail):
        populations, tail_mass = heap_initial_spectrum(prep, tail)
        spec = initial_spectrum(prep, tail)
        assert spec.populations.tobytes() == populations.tobytes()
        assert spec.tail_mass == tail_mass
        levels = _ascending_levels(prep.frequencies, len(populations), 10**6)
        assert levels.tobytes() == heap_ascending_levels(prep.frequencies,
                                                         len(populations)).tobytes()

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.one_of(_family_preps, _mixed_preps))
    def test_ergotropy_equals_the_heap(self, prep):
        assert ergotropy(prep) == heap_ergotropy(prep)

    @pytest.mark.parametrize("prep", [
        thermal_preparation(beta1=0.01, omega3=0.1),
        Preparation((Thermal(5.0), Thermal(2.0), Thermal(1.0)), omega3=0.3),
        Preparation((Thermal(0.3), Thermal(0.7), Thermal(0.05)), omega3=0.37, omega1=1.3),
    ], ids=["pinned", "three_hot_modes", "mixed"])
    def test_pinned_and_three_mode_preparations(self, prep):
        assert ergotropy(prep) == heap_ergotropy(prep)

    def test_baseline_bits(self):
        assert ergotropy(thermal_preparation(beta1=0.01, omega3=0.1)) == ERGOTROPY_BASELINE

    def test_tail_of_one_or_more_keeps_nothing(self):
        for tail in (1.0, 5.0):
            spec = initial_spectrum(thermal_preparation(beta1=0.5, omega3=0.3), tail)
            assert spec.populations.size == 0 and spec.tail_mass == 1.0


class TestOverBudgetSpectrum:
    def test_refused_before_allocation(self):
        # beta1 = 1e-6 needs about 18M levels per refinement
        prep = thermal_preparation(beta1=1e-6, omega3=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="needs at least"):
                ergotropy(prep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("call", [ergotropy, initial_spectrum])
    def test_occupation_too_large_for_a_distinct_ratio(self, call):
        # nbar / (1 + nbar) rounds to 1: the spectrum is flat in double precision
        prep = Preparation((Thermal(1e17), Thermal(0.0), Thermal(0.0)), omega3=0.1)
        with pytest.raises(ConvergenceError):
            call(prep)

    def test_three_hot_modes_refused_within_bounded_memory(self):
        # every mode alone needs fewer levels than the budget; together they
        # need far more, found without building their outer product
        prep = Preparation((Thermal(2000.0),) * 3, omega3=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError):
                ergotropy(prep, level_budget=10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestNonFiniteFrequencies:
    @pytest.mark.parametrize("omega3, omega1", [
        (0.5, math.inf), (0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0),
        (-math.inf, 1.0), (math.inf, math.inf)])
    def test_preparation_rejects(self, omega3, omega1):
        with pytest.raises(ValueError, match="finite"):
            Preparation((Thermal(1.0), Thermal(0.0), Thermal(0.0)),
                        omega3=omega3, omega1=omega1)

    def test_overflowing_energy_is_refused_with_its_preparation(self):
        # finite frequencies whose initial energy overflows: the hot
        # block b omega1 / 2 is not finite, so no ergotropy is asked of it
        with pytest.raises(PhysicalityError, match=r"^oscillator 1: .* not finite"):
            Preparation((Thermal(2.0), Thermal(0.0), Thermal(0.0)), omega3=0.5, omega1=1e308)
