"""Pairwise quantum-correlation measures on two-mode covariance matrices.

The closed-form branches of the discord are cross-checked against each
other near their hand-off surface, and both measures are exercised on
large random families to pin down positivity and invariance.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from otto3.correlations import (entropy_like, discord_from_invariants,
                                gaussian_discord, log_negativity,
                                negativity_from_invariants,
                                pair_correlations, pt_smallest_eigenvalue,
                                two_mode_invariants)
from otto3.errors import PhysicalityError
from otto3.states import restrict, symplectic_eigenvalues

from helpers import local_symplectic, random_covariance


def tmsv(r):
    """Two-mode squeezed vacuum, ordering (x1, x2, p1, p2)."""
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    return np.array([[c, s, 0, 0],
                     [s, c, 0, 0],
                     [0, 0, c, -s],
                     [0, 0, -s, c]])


def product_pair(nu_a, nu_b):
    return np.diag([nu_a, nu_b, nu_a, nu_b])


class TestInvariants:
    def test_product_state_values(self):
        inv = two_mode_invariants(product_pair(1.5, 0.5))
        assert_allclose([inv.i1, inv.i2, inv.i3, inv.i4],
                        [2.25, 0.25, 0.0, 2.25 * 0.25], rtol=1e-14)
        assert_allclose([inv.d_minus, inv.d_plus], [0.5, 1.5], rtol=1e-12)

    def test_symplectic_pair_matches_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            sigma, nus = random_covariance(rng)
            inv = two_mode_invariants(sigma)
            assert_allclose([inv.d_minus, inv.d_plus], nus, rtol=1e-9)

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            two_mode_invariants(product_pair(0.45, 0.6))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            two_mode_invariants(np.eye(6))


class TestEntropyLike:
    def test_exact_zero_at_pure_point(self):
        assert entropy_like(1.0) == 0.0

    def test_clips_roundoff_below_one(self):
        assert entropy_like(1.0 - 5e-10) == 0.0

    def test_strict_rejects_clearly_unphysical(self):
        with pytest.raises(ValueError):
            entropy_like(0.9)

    def test_non_strict_clamps(self):
        assert entropy_like(0.9, strict=False) == 0.0

    def test_monotone_increasing(self):
        xs = np.linspace(1.0, 6.0, 40)
        vals = entropy_like(xs)
        assert np.all(np.diff(vals) > 0)

    def test_known_value(self):
        # f(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2)
        x = 3.0
        expected = 2.0 * math.log(2.0) - 1.0 * math.log(1.0)
        assert_allclose(entropy_like(x), expected, rtol=1e-14)


class TestLogNegativity:
    def test_product_state_is_exactly_zero(self):
        assert log_negativity(product_pair(1.2, 0.7)) == 0.0

    def test_tmsv_value_is_twice_the_squeezing(self):
        for r in (0.25, 0.5, 1.0):
            sigma = tmsv(r)
            assert_allclose(pt_smallest_eigenvalue(sigma),
                            math.exp(-2 * r) / 2, rtol=1e-12)
            assert_allclose(log_negativity(sigma), 2 * r, rtol=1e-12)

    def test_frozen_partially_transposed_eigenvalue(self):
        # nu~ = 0.38247988063561985431 maps to E = 0.267932046184449365
        nu = 0.5 - 0.1 * math.sinh(1.0)
        sigma = tmsv(-0.5 * math.log(2.0 * nu))
        assert_allclose(log_negativity(sigma), 0.267932046184449365, rtol=1e-12)

    def test_invariant_under_local_symplectics(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sigma, _ = random_covariance(rng, nu_lo=0.5, nu_hi=2.0)
            s = local_symplectic(rng)
            moved = s @ sigma @ s.T
            assert abs(log_negativity(moved) - log_negativity(sigma)) <= 1e-9

    def test_agrees_with_eigen_route(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sigma, _ = random_covariance(rng)
            inv = two_mode_invariants(sigma)
            via_inv = negativity_from_invariants(inv.i1, inv.i2, inv.i3, inv.i4)
            nu = pt_smallest_eigenvalue(sigma)
            via_eig = max(0.0, -math.log(2.0 * nu))
            assert_allclose(via_inv, via_eig, atol=1e-10)

    def test_no_negative_zero(self):
        val = log_negativity(product_pair(1.2, 0.7))
        assert math.copysign(1.0, val) == 1.0


class TestGaussianDiscord:
    def test_product_state_is_zero(self):
        assert gaussian_discord(product_pair(2.0, 0.8)) == 0.0

    def test_tmsv_is_positive(self):
        assert_allclose(gaussian_discord(tmsv(0.5)), 0.6594529591680326, rtol=1e-10)
        assert gaussian_discord(tmsv(0.1)) > 0.0

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(42)
        worst = math.inf
        for _ in range(10_000):
            sigma, _ = random_covariance(rng)
            worst = min(worst, gaussian_discord(sigma))
        assert worst >= -1e-10

    def test_orientation_swaps_measured_mode(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            sigma, _ = random_covariance(rng)
            perm = [1, 0, 3, 2]
            swapped = sigma[np.ix_(perm, perm)]
            assert_allclose(gaussian_discord(sigma, measured=1),
                            gaussian_discord(swapped, measured=2), atol=1e-12)

    def test_invariant_under_local_symplectics(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            sigma, _ = random_covariance(rng, nu_lo=0.6, nu_hi=2.0)
            s = local_symplectic(rng)
            moved = s @ sigma @ s.T
            assert abs(gaussian_discord(moved) - gaussian_discord(sigma)) <= 1e-9

    def test_measured_mode_must_be_one_or_two(self):
        with pytest.raises(ValueError):
            gaussian_discord(product_pair(1.0, 1.0), measured=3)

    def test_pure_measured_mode_gives_zero(self):
        sigma = product_pair(1.7, 0.5)
        assert gaussian_discord(sigma, measured=2) == 0.0


class TestBranchHandOff:
    """The conditional-variance minimum switches closed forms on a surface;
    the discord must stay continuous across it."""

    def _boundary_gap(self, j):
        j1, j2, j3, j4 = j
        return (j1 * j2 - j4) ** 2 - (1.0 + j2) * j3 * j3 * (j1 + j4)

    def _doubled_invariants(self, sigma):
        inv = two_mode_invariants(sigma)
        return np.array([4 * inv.i1, 4 * inv.i2, 4 * inv.i3, 16 * inv.i4])

    def _find_boundary_pairs(self, n_pairs=4, max_trials=4000):
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(max_trials):
            a, _ = random_covariance(rng)
            b, _ = random_covariance(rng)
            ga, gb = (self._boundary_gap(self._doubled_invariants(s)) for s in (a, b))
            if ga * gb >= 0:
                continue
            lo, hi = (a, b) if ga < 0 else (b, a)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if self._boundary_gap(self._doubled_invariants(mid)) < 0:
                    lo = mid
                else:
                    hi = mid
            pairs.append((lo, hi))
            if len(pairs) == n_pairs:
                break
        return pairs

    def test_continuous_across_the_switch(self):
        pairs = self._find_boundary_pairs()
        assert len(pairs) >= 2
        for lo, hi in pairs:
            d_lo = gaussian_discord(lo)
            d_hi = gaussian_discord(hi)
            assert abs(d_lo - d_hi) <= 1e-4


class TestPairCorrelations:
    def test_single_matrix_gives_three_pairs(self):
        rng = np.random.default_rng(13)
        sigma, _ = random_covariance(rng, n_modes=3)
        neg, disc = pair_correlations(sigma)
        assert neg.shape == (3,)
        assert disc.shape == (3,)

    def test_matches_restrict_route(self):
        rng = np.random.default_rng(14)
        sigma, _ = random_covariance(rng, n_modes=3)
        neg, disc = pair_correlations(sigma)
        for k, (i, j) in enumerate(((1, 2), (2, 3), (1, 3))):
            pair = restrict(sigma, i, j)
            assert_allclose(neg[k], log_negativity(np.asarray(pair)), atol=1e-12)
            assert_allclose(disc[k], gaussian_discord(np.asarray(pair)), atol=1e-12)

    def test_batched_stack(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_covariance(rng, n_modes=3)[0] for _ in range(6)])
        neg, disc = pair_correlations(stack)
        assert neg.shape == (6, 3)
        single_neg, single_disc = pair_correlations(stack[2])
        assert_allclose(neg[2], single_neg, atol=1e-13)
        assert_allclose(disc[2], single_disc, atol=1e-13)

    def test_product_three_mode_state_has_no_correlations(self):
        sigma = np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        neg, disc = pair_correlations(sigma)
        assert np.all(neg == 0.0)
        assert np.all(disc == 0.0)
