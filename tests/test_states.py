import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from otto3.correlations import gaussian_discord, pair_correlations
from otto3.energetics import mode_energies, mode_energy
from otto3.errors import ConfigError, PhysicalityError
from otto3.states import product_states, validate_covariances
from otto3.propagators import CouplingSide, coupling_propagator
from otto3.states import (CovarianceMatrix, Preparation, SqueezedVacuum, Thermal,
                          beta_from_nbar, matched_squeezing, nbar_from_beta,
                          product_state, restrict, squeezed_preparation,
                          squeezed_vacuum_covariance, symplectic_eigenvalues,
                          symplectic_form, thermal_covariance,
                          thermal_preparation)

from helpers import C1_BETA_001, MATCHED_R1, NBAR_BETA_001, random_covariance


class TestSymplecticForm:
    def test_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = symplectic_form(n)
            assert_allclose(omega @ omega, -np.eye(2 * n), atol=0)

    def test_block_layout(self):
        omega = symplectic_form(3)
        assert_allclose(omega[:3, 3:], np.eye(3), atol=0)
        assert_allclose(omega[3:, :3], -np.eye(3), atol=0)
        assert_allclose(omega[:3, :3], 0, atol=0)

    def test_cached_and_read_only(self):
        omega = symplectic_form(3)
        assert symplectic_form(3) is omega
        with pytest.raises(ValueError):
            omega[0, 3] = 2.0
        assert omega[0, 3] == 1.0


class TestThermalCovariance:
    def test_vacuum_unit_frequency(self):
        assert_allclose(thermal_covariance(0.0, 1.0), np.diag([0.5, 0.5]), atol=0)

    def test_vacuum_low_frequency(self):
        assert_allclose(thermal_covariance(0.0, 0.1), np.diag([5.0, 0.05]),
                        rtol=1e-15)

    def test_hot_block_matches_coth(self):
        block = thermal_covariance(NBAR_BETA_001, 1.0)
        assert_allclose(np.diag(block), [C1_BETA_001 / 2] * 2, rtol=1e-13)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            thermal_covariance(-0.1, 1.0)
        with pytest.raises(ValueError):
            thermal_covariance(0.0, -1.0)


class TestSqueezedVacuumCovariance:
    def test_zero_squeezing_is_vacuum(self):
        assert_allclose(squeezed_vacuum_covariance(0.0, 1.0),
                        np.diag([0.5, 0.5]), atol=0)

    def test_unit_squeezing_block(self):
        block = squeezed_vacuum_covariance(1.0, 1.0).matrix
        assert_allclose(np.diag(block),
                        [math.exp(-2) / 2, math.exp(2) / 2], rtol=1e-15)
        assert block[0, 1] == 0.0

    def test_energy_grows_as_sinh_squared(self):
        for r, omega in ((0.3, 1.0), (1.0, 0.4), (2.0, 0.1)):
            block = squeezed_vacuum_covariance(r, omega).matrix
            e = 0.5 * (omega ** 2 * block[0, 0] + block[1, 1])
            assert_allclose(e, omega * (0.5 + math.sinh(r) ** 2), rtol=1e-13)

    def test_extreme_squeezing_overflows(self):
        with pytest.raises(PhysicalityError):
            squeezed_vacuum_covariance(400.0, 1.0)


class TestModeDescriptors:
    def test_thermal_energy_above_ground(self):
        mode = Thermal(2.5)
        assert_allclose(mode.energy_above_ground(0.4), 1.0, rtol=1e-15)
        assert not mode.is_pure()
        assert Thermal(0.0).is_pure()

    def test_squeezed_is_pure(self):
        assert SqueezedVacuum(1.3).is_pure()
        assert_allclose(SqueezedVacuum(1.0).energy_above_ground(1.0),
                        math.sinh(1.0) ** 2, rtol=1e-14)

    def test_matched_squeezing_reproduces_thermal_energy(self):
        nbar = 3.7
        r = matched_squeezing(nbar)
        assert_allclose(math.sinh(r) ** 2, nbar, rtol=1e-13)

    def test_matched_squeezing_baseline(self):
        assert_allclose(matched_squeezing(NBAR_BETA_001), MATCHED_R1, rtol=1e-14)


class TestPreparation:
    def test_frequency_layout(self):
        prep = Preparation((Thermal(1.0), Thermal(0.0), Thermal(0.0)), omega3=0.2)
        assert prep.frequencies == (1.0, 0.2, 0.2)

    def test_rejects_bad_frequency_order(self):
        with pytest.raises(ValueError):
            Preparation((Thermal(0.0),) * 3, omega3=1.0)
        with pytest.raises(ValueError):
            Preparation((Thermal(0.0),) * 3, omega3=0.0)

    @pytest.mark.parametrize("modes", [(1, 2, 3), (Thermal(0.0), "x", Thermal(0.0))])
    def test_rejects_modes_that_are_not_mode_specs(self, modes):
        with pytest.raises(ConfigError, match="^modes must be Thermal or SqueezedVacuum"):
            Preparation(modes, omega3=0.1)

    def test_hashable(self):
        a = thermal_preparation(beta1=0.01, omega3=0.1)
        b = thermal_preparation(beta1=0.01, omega3=0.1)
        assert len({a, b}) == 1

    def test_squeezed_preparation_matches_thermal_energy(self):
        th = product_state(thermal_preparation(beta1=0.01, omega3=0.1))
        sq = product_state(squeezed_preparation(beta1=0.01, omega3=0.1))
        e_th = mode_energy(th, 1, 1.0)
        e_sq = mode_energy(sq, 1, 1.0)
        assert_allclose(e_sq, e_th, rtol=1e-12)


class TestProductState:
    def test_all_vacuum(self):
        prep = Preparation((Thermal(0.0),) * 3, omega3=0.1)
        sigma = product_state(prep)
        expected = np.diag([0.5, 5.0, 5.0, 0.5, 0.05, 0.05])
        assert_allclose(np.asarray(sigma), expected, rtol=1e-15)

    def test_hot_thermal_block(self):
        sigma = product_state(thermal_preparation(beta1=0.01, omega3=0.1))
        arr = np.asarray(sigma)
        assert_allclose(arr[0, 0], C1_BETA_001 / 2, rtol=1e-13)
        assert_allclose(arr[3, 3], C1_BETA_001 / 2, rtol=1e-13)
        off = arr - np.diag(np.diag(arr))
        assert np.max(np.abs(off)) == 0.0

    def test_squeezed_product_is_pure(self):
        prep = squeezed_preparation(beta1=0.01, omega3=0.1)
        nus = product_state(prep).symplectic_eigenvalues()
        assert_allclose(nus, 0.5, atol=1e-10)

    def test_overflowing_squeeze_still_rejected(self):
        prep = Preparation((SqueezedVacuum(400.0), SqueezedVacuum(0.0),
                            SqueezedVacuum(0.0)), omega3=0.1)
        with pytest.raises(PhysicalityError):
            product_state(prep)

    def test_non_finite_block_caught_by_assembled_check(self):
        # c = 2 nbar + 1 overflows to inf; only the 6x6 validation sees it.
        prep = Preparation((Thermal(1e308), Thermal(0.0), Thermal(0.0)),
                           omega3=0.1)
        with pytest.raises(PhysicalityError):
            product_state(prep)

    def test_energy_additivity(self):
        prep = Preparation((Thermal(1.5), SqueezedVacuum(0.7), Thermal(0.2)),
                           omega3=0.3)
        sigma = np.asarray(product_state(prep))
        w = np.array([1.0, 0.3, 0.3])
        weights = np.concatenate([w ** 2, np.ones(3)])
        total = 0.5 * np.sum(weights * np.diag(sigma))
        assert_allclose(np.sum(mode_energies(sigma, (1.0, 0.3, 0.3))), total,
                        rtol=1e-14)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        prep = Preparation((Thermal(0.0),) * 3, omega3=0.5)
        assert_allclose(product_state(prep).symplectic_eigenvalues(), 0.5,
                        rtol=1e-14)

    def test_thermal_values_are_occupations(self):
        prep = Preparation((Thermal(2.0), Thermal(1.0), Thermal(0.0)), omega3=0.5)
        nus = symplectic_eigenvalues(np.asarray(product_state(prep)))
        assert_allclose(np.sort(nus), [0.5, 1.5, 2.5], rtol=1e-13)

    def test_invariant_under_symplectic_propagation(self):
        prep = Preparation((Thermal(2.0), Thermal(0.5), Thermal(0.1)), omega3=0.4)
        sigma = np.asarray(product_state(prep))
        s = coupling_propagator(0.3, 1.0, 0.4, 2.0, CouplingSide.HOT_PAIR).matrix
        moved = s @ sigma @ s.T
        assert_allclose(np.sort(symplectic_eigenvalues(moved)),
                        np.sort(symplectic_eigenvalues(sigma)), atol=1e-10)

    def test_random_spectrum_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sigma, nus = random_covariance(rng, n_modes=3)
            assert_allclose(np.sort(symplectic_eigenvalues(sigma)), nus,
                            rtol=1e-9)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            symplectic_eigenvalues(np.eye(3))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, value):
        sigma = 0.5 * np.eye(6)
        sigma[2, 4] = sigma[4, 2] = value
        with pytest.raises(PhysicalityError, match="^covariance matrix has non-finite entries$"):
            symplectic_eigenvalues(sigma)


class TestCovarianceMatrix:
    def test_rejects_asymmetric(self):
        bad = np.diag([1.0] * 6)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            CovarianceMatrix(np.diag([0.4] * 6))

    def test_rejects_nonfinite(self):
        bad = np.diag([1.0] * 6)
        bad[2, 2] = np.inf
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)

    def test_read_only_view(self):
        cm = CovarianceMatrix(np.diag([1.0] * 6))
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 2.0

    def test_array_protocol_and_modes(self):
        cm = CovarianceMatrix(np.diag([1.0] * 6))
        assert cm.n_modes == 3
        assert np.asarray(cm).shape == (6, 6)


class TestRestrict:
    def test_product_pair_has_no_cross_block(self):
        prep = Preparation((Thermal(1.0), Thermal(0.5), Thermal(0.0)), omega3=0.3)
        sigma = np.asarray(product_state(prep))
        pair = restrict(sigma, 1, 2).matrix
        assert pair.shape == (4, 4)
        assert np.max(np.abs(pair[np.ix_((0, 2), (1, 3))])) == 0.0

    def test_vacuum_pair_spectrum(self):
        prep = Preparation((Thermal(0.0),) * 3, omega3=0.5)
        pair = restrict(np.asarray(product_state(prep)), 2, 3)
        assert_allclose(symplectic_eigenvalues(pair), [0.5, 0.5], rtol=1e-14)

    def test_index_order_swaps_blocks(self):
        rng = np.random.default_rng(11)
        sigma, _ = random_covariance(rng, n_modes=3)
        a = restrict(sigma, 1, 3).matrix
        b = restrict(sigma, 3, 1).matrix
        perm = [1, 0, 3, 2]
        assert_allclose(b, a[np.ix_(perm, perm)], atol=0)

    def test_discord_path_commutes(self):
        # restricting then measuring equals the batched pair extraction
        rng = np.random.default_rng(42)
        sigma, _ = random_covariance(rng, n_modes=3)
        _, disc = pair_correlations(sigma)
        direct = gaussian_discord(restrict(sigma, 1, 2))
        assert_allclose(direct, disc[0], atol=1e-12)

    def test_rejects_bad_indices(self):
        sigma = np.eye(6)
        with pytest.raises(ValueError):
            restrict(sigma, 0, 1)
        with pytest.raises(ValueError):
            restrict(sigma, 1, 1)
        with pytest.raises(ValueError):
            restrict(sigma, 1, 4)


class TestOccupationConversions:
    def test_nbar_baseline(self):
        assert_allclose(nbar_from_beta(0.01, 1.0), NBAR_BETA_001, rtol=1e-14)

    def test_infinite_beta_is_vacuum(self):
        assert nbar_from_beta(math.inf, 1.0) == 0.0

    def test_cold_mode_past_the_expm1_overflow(self):
        # below the overflow point the value keeps its bits; past it, where
        # expm1 would raise, the occupation is exp(-beta omega), then 0
        for beta in (1.0, 300.0, 709.78):
            assert nbar_from_beta(beta, 1.0) == 1.0 / math.expm1(beta)
        for beta in (709.8, 720.0):
            assert nbar_from_beta(beta, 1.0) == math.exp(-beta) > 0.0
        assert nbar_from_beta(1e308, 1.0) == nbar_from_beta(1e308, 10.0) == 0.0

    def test_round_trip(self):
        for nbar in (0.3, 1.0, 42.0):
            assert_allclose(nbar_from_beta(beta_from_nbar(nbar, 0.7), 0.7),
                            nbar, rtol=1e-12)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            nbar_from_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            nbar_from_beta(-1.0, 1.0)


class TestStackedStates:
    def test_product_states_match_singles(self):
        preps = [thermal_preparation(beta1=0.01, omega3=0.1),
                 squeezed_preparation(beta1=0.05, omega3=0.4)]
        stack = validate_covariances(product_states(
            np.array([p.factors() for p in preps]), np.array([p.omega1 for p in preps]),
            np.array([p.omega3 for p in preps])))
        for prep, sigma in zip(preps, stack):
            assert np.array_equal(sigma, product_state(prep).matrix)

    @pytest.mark.parametrize("defect", ["nan", "asymmetric", "unphysical"])
    def test_validation_names_the_failing_state(self, defect):
        stack = np.stack([0.5 * np.eye(6)] * 3)
        if defect == "nan":
            stack[1, 0, 0] = np.nan
        elif defect == "asymmetric":
            stack[1, 0, 1] = 1e-3
        else:
            stack[1] *= 0.5
        with pytest.raises(PhysicalityError, match="state 1"):
            validate_covariances(stack)
        with pytest.raises(PhysicalityError):
            CovarianceMatrix(stack[1])
