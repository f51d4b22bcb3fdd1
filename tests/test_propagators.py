import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from otto3.energetics import mode_energies, mode_energy
from otto3 import propagators
from otto3.errors import DegenerateRampError, IntegrationError, SymplecticityError
from otto3.propagators import ramp_propagators
from otto3.propagators import (CouplingSide, RampMode, RampSchedule,
                               SymplecticPropagator, coupling_propagator,
                               coupling_propagators_at, harmonic_propagator,
                               ode_propagator, ramp_phase_integral, ramp_propagator,
                               ramp_propagators_at, ramp_xy)
from otto3.states import (Preparation, SqueezedVacuum, Thermal, product_state,
                          symplectic_form, thermal_preparation)

OMEGA6 = symplectic_form(3)


def symplectic_defect(mat):
    return float(np.max(np.abs(mat @ OMEGA6 @ mat.T - OMEGA6)))


class TestSymplecticPropagator:
    def test_identity_accepted(self):
        p = SymplecticPropagator(np.eye(6), duration=0.0)
        assert p.duration == 0.0

    def test_rejects_non_symplectic(self):
        with pytest.raises(SymplecticityError):
            SymplecticPropagator(1.001 * np.eye(6), duration=1.0)

    def test_rejects_nan_matrix(self):
        with pytest.raises(SymplecticityError):
            SymplecticPropagator(np.full((6, 6), np.nan), duration=1.0)
        mat = np.eye(6)
        mat[2, 4] = np.nan
        with pytest.raises(SymplecticityError):
            SymplecticPropagator(mat, duration=1.0)

    def test_rejects_bad_shape_and_duration(self):
        with pytest.raises(ValueError):
            SymplecticPropagator(np.eye(4), duration=1.0)
        with pytest.raises(ValueError):
            SymplecticPropagator(np.eye(6), duration=-1.0)

    def test_apply_symmetrizes(self):
        s = harmonic_propagator((1.0, 0.5, 0.1), 3.0)
        sigma = np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        out = s.apply(sigma)
        assert_allclose(out, out.T, atol=0)


class TestRampSchedule:
    def test_sudden_needs_zero_tau(self):
        with pytest.raises(ValueError):
            RampSchedule(1.0, 0.1, 1.0, mode=RampMode.SUDDEN)
        with pytest.raises(ValueError):
            RampSchedule(1.0, 0.1, 0.0, mode=RampMode.LINEAR_AIRY)

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            RampSchedule(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            RampSchedule(1.0, -0.1, 1.0)

    def test_rejects_a_mode_that_is_not_a_ramp_mode(self):
        # a mode given by its value would build the Airy map and fail later
        with pytest.raises(ValueError, match="^ramp mode must be a RampMode, got 'quasistatic'$"):
            RampSchedule(0.1, 1.0, 5.0, "quasistatic")

    def test_omega_sq_is_linear_in_time(self):
        sched = RampSchedule(1.0, 0.1, 10.0)
        assert_allclose(sched.omega_sq(0.0), 1.0, rtol=1e-15)
        assert_allclose(sched.omega_sq(10.0), 0.01, rtol=1e-12)
        assert_allclose(sched.omega_sq(5.0), 0.5 * (1.0 + 0.01), rtol=1e-14)


class TestCouplingPropagator:
    def test_zero_time_is_identity(self):
        p = coupling_propagator(0.038, 1.0, 0.1, 0.0, CouplingSide.HOT_PAIR)
        assert_allclose(p.matrix, np.eye(6), atol=0)

    def test_half_period_swaps_pair_energies(self):
        alpha = 0.04
        t = math.pi / (2.0 * alpha)
        p = coupling_propagator(alpha, 1.0, 0.1, t, CouplingSide.HOT_PAIR)
        prep = Preparation((Thermal(3.0), Thermal(1.0), Thermal(0.2)), omega3=0.1)
        sigma = np.asarray(product_state(prep))
        # mid-stroke both pair modes run at the resonant frequency
        sigma_res = sigma.copy()
        sigma_res[1, 1] = sigma[1, 1] * 0.1 / 1.0
        sigma_res[4, 4] = sigma[4, 4] / 0.1 * 1.0
        out = p.apply(sigma_res)
        e1 = mode_energy(out, 1, 1.0)
        e2 = mode_energy(out, 2, 1.0)
        assert_allclose(e1, 1.5, rtol=1e-12)
        assert_allclose(e2, 3.5, rtol=1e-12)

    def test_pair_energy_conserved(self):
        alpha, w = 0.05, 1.0
        prep = Preparation((Thermal(2.0), Thermal(0.5), Thermal(0.1)), omega3=1.0 - 1e-9)
        sigma = np.asarray(product_state(prep))
        for side, pair, omega_spec in ((CouplingSide.HOT_PAIR, (1, 2), 1.0 - 1e-9),
                                       (CouplingSide.COLD_PAIR, (2, 3), 1.0)):
            start = sum(mode_energy(sigma, k, w) for k in pair)
            for t in np.linspace(0.0, 40.0, 17):
                out = coupling_propagator(alpha, w, omega_spec, t, side).apply(sigma)
                assert_allclose(sum(mode_energy(out, k, w) for k in pair), start,
                                rtol=1e-10, err_msg=side.value)

    def test_exchange_follows_sin_squared(self):
        alpha, w = 0.03, 0.4
        e2_0, e3_0 = 1.7, 0.3
        # equal-split (thermal-like) blocks at the resonant frequency
        sigma = np.diag([0.5, e2_0 / w**2, e3_0 / w**2, 0.5, e2_0, e3_0])
        for t in (0.7, 3.0, 11.0):
            out = coupling_propagator(alpha, w, 1.0, t, CouplingSide.COLD_PAIR).apply(sigma)
            mix = math.sin(alpha * t) ** 2
            assert_allclose(mode_energy(out, 2, w),
                            (1 - mix) * e2_0 + mix * e3_0, rtol=1e-12)
            assert_allclose(mode_energy(out, 3, w),
                            mix * e2_0 + (1 - mix) * e3_0, rtol=1e-12)

    def test_spectator_only_rotates(self):
        p = coupling_propagator(0.05, 1.0, 0.1, 7.0, CouplingSide.HOT_PAIR).matrix
        block = p[np.ix_((2, 5), (2, 5))]
        c, s = math.cos(0.7), math.sin(0.7)
        assert_allclose(block, [[c, s / 0.1], [-0.1 * s, c]], rtol=1e-12)
        assert np.max(np.abs(p[np.ix_((0, 1, 3, 4), (2, 5))])) == 0.0

    def test_batch_matches_singles(self):
        times = np.array([0.0, 1.3, 2.9])
        stack = coupling_propagators_at(0.02, 0.5, 1.0, times, CouplingSide.COLD_PAIR)
        for t, mat in zip(times, stack):
            single = coupling_propagator(0.02, 0.5, 1.0, float(t), CouplingSide.COLD_PAIR)
            assert_allclose(mat, single.matrix, atol=0)

    def test_defect_within_tolerance(self):
        for t in (0.3, 8.0, 55.0):
            p = coupling_propagator(0.05, 1.0, 0.1, t, CouplingSide.HOT_PAIR)
            assert symplectic_defect(p.matrix) <= 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            coupling_propagator(-0.1, 1.0, 0.1, 1.0, CouplingSide.HOT_PAIR)
        with pytest.raises(ValueError):
            coupling_propagator(0.1, 1.0, 0.1, -1.0, CouplingSide.HOT_PAIR)
        with pytest.raises(ValueError):
            coupling_propagator(0.1, 0.0, 0.1, 1.0, CouplingSide.HOT_PAIR)


class TestRampXY:
    def test_initial_conditions(self):
        x, y, xd, yd = ramp_xy(1.0, 0.1, 10.0, 0.0)
        assert_allclose([x, y, xd, yd], [0.0, 1.0, 1.0, 0.0], atol=1e-14)

    def test_wronskian_stays_one(self):
        t = np.linspace(0.0, 20.0, 101)
        x, y, xd, yd = ramp_xy(0.3, 0.9, 20.0, t)
        assert_allclose(xd * y - x * yd, 1.0, atol=1e-12)

    def test_rejects_degenerate_sweep(self):
        with pytest.raises(DegenerateRampError):
            ramp_xy(0.5, 0.5 + 1e-12, 1.0, 0.5)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            ramp_xy(1.0, 0.1, 0.0, 0.0)

    def test_matches_adaptive_integration(self):
        sched = RampSchedule(0.8, 0.2, 6.0)
        closed = ramp_propagator(sched).matrix
        numeric = ode_propagator(sched).matrix
        assert np.max(np.abs(closed - numeric)) < 1e-8


class TestRampPropagator:
    def test_sudden_is_identity(self):
        sched = RampSchedule(1.0, 0.1, 0.0, mode=RampMode.SUDDEN)
        p = ramp_propagator(sched)
        assert_allclose(p.matrix, np.eye(6), atol=0)
        assert p.duration == 0.0

    def test_degenerate_sweep_is_free_rotation(self):
        sched = RampSchedule(0.5, 0.5 + 1e-10, 7.0)
        p = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1)
        free = harmonic_propagator((1.0, 0.5, 0.1), 7.0)
        assert_allclose(p.matrix, free.matrix, atol=0)

    def test_middle_block_is_ramp_solution(self):
        sched = RampSchedule(1.0, 0.1, 12.0)
        t = 7.3
        p = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1, t=t)
        x, y, xd, yd = ramp_xy(1.0, 0.1, 12.0, t)
        assert_allclose(p.matrix[np.ix_((1, 4), (1, 4))], [[y, x], [yd, xd]],
                        rtol=1e-14)
        # spectators are free rotations over the same interior time
        c = math.cos(t)
        assert_allclose(p.matrix[0, 0], c, rtol=1e-14)

    def test_composition_of_partial_sweeps(self):
        # chaining a head sweep with the matching tail reproduces the full one
        w_in, w_fin, tau, frac = 1.0, 0.1, 9.0, 0.4
        full = ramp_propagator(RampSchedule(w_in, w_fin, tau),
                               spectator_omega1=1.0, spectator_omega3=0.1,
                               t=tau).matrix
        head = ramp_propagator(RampSchedule(w_in, w_fin, tau),
                               spectator_omega1=1.0, spectator_omega3=0.1,
                               t=frac * tau).matrix
        w_mid = math.sqrt(w_in**2 + (w_fin**2 - w_in**2) * frac)
        tail = ramp_propagator(RampSchedule(w_mid, w_fin, (1 - frac) * tau),
                               spectator_omega1=1.0, spectator_omega3=0.1,
                               t=(1 - frac) * tau).matrix
        assert np.max(np.abs(tail @ head - full)) < 1e-9

    def test_determinant_and_defect(self):
        for sched in (RampSchedule(1.0, 0.1, 85.02), RampSchedule(0.2, 0.9, 3.0)):
            p = ramp_propagator(sched)
            assert_allclose(np.linalg.det(p.matrix), 1.0, rtol=1e-9)
            assert symplectic_defect(p.matrix) <= 1e-10

    @pytest.mark.parametrize("mode", list(RampMode), ids=lambda mode: mode.value)
    def test_outer_oscillator_energies_unchanged(self, mode):
        # the ramp drives the medium alone; the outer oscillators, squeezed
        # so their states are not stationary, rotate at their own frequencies
        prep = Preparation((SqueezedVacuum(0.7), SqueezedVacuum(0.3), SqueezedVacuum(0.4)),
                           omega3=0.25)
        sigma = np.asarray(product_state(prep))
        tau = 0.0 if mode is RampMode.SUDDEN else 9.0
        out = ramp_propagator(RampSchedule(0.25, 1.0, tau, mode=mode)).apply(sigma)
        for k, w in ((1, 1.0), (3, 0.25)):
            assert_allclose(mode_energy(out, k, w), mode_energy(sigma, k, w), rtol=1e-12)

    def test_rejects_interior_time_outside_stroke(self):
        sched = RampSchedule(1.0, 0.1, 5.0)
        with pytest.raises(ValueError):
            ramp_propagator(sched, t=6.0)
        with pytest.raises(ValueError):
            ramp_propagator(sched, t=-1.0)

    def test_batch_matches_singles(self):
        sched = RampSchedule(1.0, 0.1, 20.0)
        times = np.array([0.0, 4.0, 17.5])
        stack = ramp_propagators_at(sched, times, spectator_omega1=1.0,
                                    spectator_omega3=0.1)
        for t, mat in zip(times, stack):
            single = ramp_propagator(sched, spectator_omega1=1.0,
                                     spectator_omega3=0.1, t=float(t))
            assert_allclose(mat, single.matrix, rtol=1e-12, atol=1e-14)

    def test_batch_requires_finite_time_mode(self):
        sched = RampSchedule(1.0, 0.1, 3.0, mode=RampMode.QUASI_STATIC)
        with pytest.raises(ValueError):
            ramp_propagators_at(sched, np.array([1.0]))


class TestQuasiStatic:
    def test_defined_only_at_full_duration(self):
        sched = RampSchedule(1.0, 0.1, 85.02, mode=RampMode.QUASI_STATIC)
        with pytest.raises(ValueError):
            ramp_propagator(sched, t=42.0)

    def test_vacuum_lands_on_target_frequency(self):
        # the adiabatic map turns the omega_in vacuum into the omega_fin one
        sched = RampSchedule(1.0, 0.1, 85.02, mode=RampMode.QUASI_STATIC)
        p = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1)
        sigma = np.diag([0.5, 0.5, 5.0, 0.5, 0.5, 0.05])
        out = p.apply(sigma)
        assert_allclose(mode_energy(out, 2, 0.1), 0.05, rtol=1e-14)

    def test_singular_values_do_not_depend_on_phase(self):
        sched_a = RampSchedule(1.0, 0.1, 10.0, mode=RampMode.QUASI_STATIC)
        sched_b = RampSchedule(1.0, 0.1, 23.0, mode=RampMode.QUASI_STATIC)
        block = np.ix_((1, 4), (1, 4))
        sa = np.linalg.svd(ramp_propagator(sched_a).matrix[block], compute_uv=False)
        sb = np.linalg.svd(ramp_propagator(sched_b).matrix[block], compute_uv=False)
        expected = [math.sqrt(1.0 / 0.1), math.sqrt(0.1 / 1.0)]
        assert_allclose(sa, expected, rtol=1e-12)
        assert_allclose(sb, expected, rtol=1e-12)

    def test_slow_sweep_approaches_adiabatic_map(self):
        block = np.ix_((1, 4), (1, 4))
        slow = ramp_propagator(RampSchedule(1.0, 0.1, 5000.0)).matrix[block]
        ideal = ramp_propagator(
            RampSchedule(1.0, 0.1, 5000.0, mode=RampMode.QUASI_STATIC)).matrix[block]
        s_slow = np.linalg.svd(slow, compute_uv=False)
        s_ideal = np.linalg.svd(ideal, compute_uv=False)
        assert np.max(np.abs(s_slow / s_ideal - 1.0)) < 0.02

    def test_slow_sweep_vacuum_energy_within_two_percent(self):
        sched = RampSchedule(1.0, 0.1, 1000.0)
        p = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1)
        sigma = np.diag([0.5, 0.5, 5.0, 0.5, 0.5, 0.05])
        e2 = mode_energy(p.apply(sigma), 2, 0.1)
        assert abs(e2 / 0.05 - 1.0) < 0.02

    def test_published_duration_is_not_adiabatic(self):
        # at tau = 85.02 the finite sweep is far from the adiabatic map,
        # which is why the idealised mode exists as its own ramp flavour
        block = np.ix_((1, 4), (1, 4))
        finite = ramp_propagator(RampSchedule(1.0, 0.1, 85.02)).matrix[block]
        s_fin = np.linalg.svd(finite, compute_uv=False)
        expected = np.array([math.sqrt(10.0), math.sqrt(0.1)])
        assert np.max(np.abs(s_fin / expected - 1.0)) > 0.2


class TestRampPhase:
    def test_integral_matches_quadrature(self):
        for w_in, w_fin, tau in ((1.0, 0.1, 85.02), (0.2, 0.9, 7.0)):
            num, _ = quad(lambda t: math.sqrt(w_in**2 + (w_fin**2 - w_in**2) * t / tau),
                          0.0, tau, epsabs=1e-13, epsrel=1e-13)
            assert_allclose(ramp_phase_integral(w_in, w_fin, tau), num, rtol=1e-10)

    def test_slow_limit_selects_the_integral_form(self):
        # negative control: the phase grouping (2/3) tau (2 w_fin^2 +
        # w_in w_fin) / (w_in + w_fin), off from the integral by
        # (2/3) tau (w_fin - w_in), misses the slow sweep
        sched = RampSchedule(0.5, 1.0, 2000.0)
        airy = ramp_propagator(sched, spectator_omega1=1.0,
                               spectator_omega3=0.5).matrix
        block = np.ix_((1, 4), (1, 4))
        wi, wf = sched.omega_in, sched.omega_fin
        diffs = {}
        for name, fn in (("integral", ramp_phase_integral),
                         ("variant", lambda wi, wf, tau:
                          (2.0 / 3.0) * tau * (2.0 * wf**2 + wi * wf) / (wi + wf))):
            phi = fn(wi, wf, sched.tau)
            qs = np.array([
                [math.sqrt(wi / wf) * math.cos(phi), math.sin(phi) / math.sqrt(wi * wf)],
                [-math.sqrt(wi * wf) * math.sin(phi), math.sqrt(wf / wi) * math.cos(phi)],
            ])
            diffs[name] = np.max(np.abs(airy[block] - qs))
        assert diffs["integral"] < 5e-3
        assert diffs["variant"] > 0.1


class TestOdePropagator:
    def test_nan_solution_fails_defect_check(self, monkeypatch):
        nan_solution = SimpleNamespace(success=True, message="",
                                       y=np.full((36, 1), np.nan))
        monkeypatch.setattr("scipy.integrate.solve_ivp",
                            lambda *args, **kwargs: nan_solution)
        with pytest.raises(IntegrationError):
            ode_propagator(RampSchedule(0.2, 0.9, 5.0))

    def test_tolerance_domain(self):
        sched = RampSchedule(1.0, 0.1, 5.0)
        with pytest.raises(ValueError):
            ode_propagator(sched, tol=1e-13)
        with pytest.raises(ValueError):
            ode_propagator(sched, tol=1e-5)

    def test_short_sweep_stays_near_identity(self):
        sched = RampSchedule(1.0, 0.1, 1e-6)
        p = ode_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1)
        assert np.max(np.abs(p.matrix - np.eye(6))) < 1e-5

    def test_sudden_mode_is_identity(self):
        sched = RampSchedule(1.0, 0.1, 0.0, mode=RampMode.SUDDEN)
        assert_allclose(ode_propagator(sched).matrix, np.eye(6), atol=0)

    def test_defect_bounded_by_solver_tolerance(self):
        sched = RampSchedule(0.4, 0.9, 30.0)
        p = ode_propagator(sched, tol=1e-11)
        assert symplectic_defect(p.matrix) <= 1e-10


class TestHarmonicPropagator:
    def test_rotation_entries(self):
        t = 2.2
        p = harmonic_propagator((1.0, 0.5, 0.1), t).matrix
        for k, w in enumerate((1.0, 0.5, 0.1)):
            c, s = math.cos(w * t), math.sin(w * t)
            assert_allclose(p[np.ix_((k, k + 3), (k, k + 3))],
                            [[c, s / w], [-w * s, c]], rtol=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            harmonic_propagator((1.0, 0.5, 0.1), -0.1)

    def test_preserves_thermal_energies(self):
        prep = thermal_preparation(beta1=0.5, omega3=0.3)
        sigma = np.asarray(product_state(prep))
        out = harmonic_propagator(prep.frequencies, 13.7).apply(sigma)
        assert_allclose(mode_energies(out, prep.frequencies),
                        mode_energies(sigma, prep.frequencies), rtol=1e-12)


@pytest.mark.parametrize("field", ["omega_in", "omega_fin", "tau"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ramp_schedule_rejects_non_finite(field, bad):
    kw = dict(omega_in=1.0, omega_fin=0.1, tau=5.0)
    kw[field] = bad
    with pytest.raises(ValueError):
        RampSchedule(**kw)


class TestStackedBuilders:
    """Stacked builders give every entry exactly its single-map value."""

    @pytest.mark.parametrize("mode", list(RampMode))
    def test_ramp_stack_matches_singles(self, mode):
        w_in = np.array([0.1, 0.5, 0.3, 0.7])
        w_fin = np.array([1.0, 0.5 + 1e-12, 0.9, 0.2])
        tau = np.zeros(4) if mode is RampMode.SUDDEN else np.array([3.0, 7.0, 40.0, 0.5])
        stack = ramp_propagators(mode, w_in, w_fin, tau, tau, 1.0, 0.1)
        for k in range(4):
            single = ramp_propagator(RampSchedule(w_in[k], w_fin[k], tau[k], mode),
                                     spectator_omega1=1.0, spectator_omega3=0.1)
            assert np.array_equal(stack[k], single.matrix)

    def test_coupling_stack_over_parameters(self):
        alpha = np.array([[0.0], [0.02], [0.05]])
        omega = np.array([[1.0], [0.4], [0.9]])
        times = np.array([[0.1, 0.4], [1.0, 3.0], [0.0, 7.5]])
        stack = coupling_propagators_at(alpha, omega, 0.3, times, CouplingSide.HOT_PAIR)
        assert stack.shape == (3, 2, 6, 6)
        for e in range(3):
            for n in range(2):
                single = coupling_propagator(float(alpha[e, 0]), float(omega[e, 0]), 0.3,
                                             float(times[e, n]), CouplingSide.HOT_PAIR)
                assert np.array_equal(stack[e, n], single.matrix)

    def test_stacked_symplectic_check_names_the_map(self):
        stack = np.stack([np.eye(6), np.eye(6), 2.0 * np.eye(6)])
        with pytest.raises(SymplecticityError, match="map 2"):
            propagators._check_symplectic(stack)
