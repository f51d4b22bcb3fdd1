"""Pairwise quantum-correlation measures on two-mode covariance matrices.

The closed-form branches of the discord are cross-checked against each
other near their hand-off surface, and both measures are exercised on
large random families to pin down positivity and invariance.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from otto3 import engine
from otto3.correlations import (_block_dets, entropy_like,
                                gaussian_discord, log_negativity,
                                negativity_from_invariants,
                                pair_correlations, pt_smallest_eigenvalue)
from otto3.engine import Engine
from otto3.errors import PhysicalityError
from otto3.states import CovarianceMatrix, restrict, symplectic_eigenvalues

from helpers import box_engines, local_symplectic, pair_oracle, random_covariance


def tmsv(r):
    """Two-mode squeezed vacuum, ordering (x1, x2, p1, p2)."""
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    return np.array([[c, s, 0, 0],
                     [s, c, 0, 0],
                     [0, 0, c, -s],
                     [0, 0, -s, c]])


def product_pair(nu_a, nu_b):
    return np.diag([nu_a, nu_b, nu_a, nu_b])


def _eigensolves(measure, monkeypatch):
    """np.linalg.eigvals calls made by one call of measure."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    measure(tmsv(0.5))
    return len(calls)


class TestInvariants:
    def test_product_state_values(self):
        sigma = product_pair(1.5, 0.5)
        # a product state's invariants are exact: t = 0 and i4 = i1 * i2
        assert np.array_equal(_block_dets(sigma), [2.25, 0.25, 0.0, 2.25 * 0.25, 0.0])
        assert_allclose(CovarianceMatrix(sigma).symplectic_eigenvalues(), [0.5, 1.5],
                        rtol=1e-12)

    def test_symplectic_pair_matches_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            sigma, nus = random_covariance(rng)
            assert_allclose(CovarianceMatrix(sigma).symplectic_eigenvalues(), nus, rtol=1e-9)

    def test_kept_spectrum_equals_a_fresh_eigensolve(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            sigma, _ = random_covariance(rng)
            assert_allclose(CovarianceMatrix(sigma).symplectic_eigenvalues(),
                            symplectic_eigenvalues(sigma), rtol=0, atol=1e-14)

    def test_rejects_unphysical(self):
        for measure in (log_negativity, gaussian_discord):
            with pytest.raises(PhysicalityError, match="uncertainty bound"):
                measure(product_pair(0.45, 0.6))

    def test_rejects_wrong_shape(self):
        for measure in (log_negativity, gaussian_discord):
            with pytest.raises(ValueError, match="4x4"):
                measure(np.eye(6))

    @pytest.mark.parametrize("measure", (log_negativity, gaussian_discord))
    def test_rejects_asymmetric(self, measure):
        sigma = tmsv(0.5)
        sigma[0, 1] += 1e-6
        with pytest.raises(PhysicalityError, match="not symmetric"):
            measure(sigma)

    @pytest.mark.parametrize("measure", (log_negativity, gaussian_discord))
    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite(self, measure, bad):
        sigma = tmsv(0.5)
        sigma[2, 3] = sigma[3, 2] = bad
        with pytest.raises(PhysicalityError, match="non-finite"):
            measure(sigma)

    @pytest.mark.parametrize("measure", (log_negativity, gaussian_discord))
    def test_one_eigensolve_per_call(self, measure, monkeypatch):
        assert _eigensolves(measure, monkeypatch) == 1

    def test_pt_smallest_eigenvalue_takes_a_second_eigensolve(self, monkeypatch):
        """One validates the pair, one finds the partial transpose's spectrum."""
        assert _eigensolves(pt_smallest_eigenvalue, monkeypatch) == 2

    def test_pt_smallest_eigenvalue_validates_its_input(self):
        with pytest.raises(PhysicalityError, match="uncertainty bound"):
            pt_smallest_eigenvalue(np.diag([0.1, 0.1, 0.1, 0.1]))
        sigma = tmsv(0.5)
        sigma[1, 1] = math.nan
        with pytest.raises(PhysicalityError, match="non-finite"):
            pt_smallest_eigenvalue(sigma)
        with pytest.raises(ValueError, match="4x4"):
            pt_smallest_eigenvalue(np.eye(6))


class TestEntropyLike:
    def test_exact_zero_at_pure_point(self):
        assert entropy_like(1.0) == 0.0

    def test_clips_roundoff_below_one(self):
        assert entropy_like(1.0 - 5e-10) == 0.0

    def test_strict_rejects_clearly_unphysical(self):
        with pytest.raises(ValueError):
            entropy_like(0.9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_strict_rejects_non_finite(self, value):
        with pytest.raises(PhysicalityError, match="is not finite"):
            entropy_like(value)
        with pytest.raises(PhysicalityError, match="is not finite"):
            entropy_like(np.array([2.0, value]))

    def test_non_strict_passes_nan_through(self):
        assert math.isnan(entropy_like(math.nan, strict=False))

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
            via_inv = negativity_from_invariants(*_block_dets(sigma))
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
        i1, i2, i3, i4, _ = _block_dets(sigma)
        return np.array([4 * i1, 4 * i2, 4 * i3, 16 * i4])

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
        # pair_correlations measures mode j of pair (i, j): the second slot of
        # restrict(sigma, i, j) and the first of restrict(sigma, j, i)
        rng = np.random.default_rng(14)
        for _ in range(10):
            sigma, _ = random_covariance(rng, n_modes=3)
            neg, disc = pair_correlations(sigma)
            for k, (i, j) in enumerate(((1, 2), (2, 3), (1, 3))):
                pair = np.asarray(restrict(sigma, i, j))
                swapped = np.asarray(restrict(sigma, j, i))
                assert_allclose(neg[k], log_negativity(pair), atol=1e-12)
                assert_allclose(neg[k], log_negativity(swapped), atol=1e-12)
                assert_allclose(disc[k], gaussian_discord(pair, measured=2), atol=1e-12)
                assert_allclose(disc[k], gaussian_discord(swapped, measured=1), atol=1e-12)

    def test_batched_stack(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_covariance(rng, n_modes=3)[0] for _ in range(6)])
        neg, disc = pair_correlations(stack)
        assert neg.shape == (6, 3)
        single_neg, single_disc = pair_correlations(stack[2])
        assert np.array_equal(neg[2], single_neg)
        assert np.array_equal(disc[2], single_disc)

    def test_element_first_view_scores_like_its_copy(self):
        # the engine scores np.moveaxis of an element-first (6, 6, R, n) stack
        rng = np.random.default_rng(16)
        stack = np.stack([random_covariance(rng, n_modes=3)[0] for _ in range(12)])
        element_first = np.ascontiguousarray(np.moveaxis(stack.reshape(3, 4, 6, 6), (2, 3), (0, 1)))
        view = np.moveaxis(element_first, (0, 1), (-2, -1))
        assert not view.flags.c_contiguous
        for got, want in zip(pair_correlations(view), pair_correlations(np.ascontiguousarray(view))):
            assert got.shape == (3, 4, 3)
            assert np.array_equal(got, want)

    def test_product_three_mode_state_has_no_correlations(self):
        sigma = np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        neg, disc = pair_correlations(sigma)
        assert np.all(neg == 0.0)
        assert np.all(disc == 0.0)


# Largest gaps to pair_oracle over the 458 scored states below ORACLE_SCALE
# of this test's 40 box engines: i4 5.5e-9 relative, negativity 4.6e-11 and
# discord 2.6e-5 absolute (2.5e-8, 1.4e-6 and 0.73 by LAPACK's det and the
# textbook discriminants, the route before the closed forms).  The bounds
# keep a factor of 10.  Above ORACLE_SCALE (parametrically unstable Airy
# engines) the entries' own rounding leaves both measures undetermined at
# float64.
ORACLE_SCALE = 1e4
I4_RTOL = 6e-8
NEG_ATOL = 5e-10
DISC_ATOL = 3e-4
_PAIRS = ((0, 1, 3, 4), (1, 2, 4, 5), (0, 2, 3, 5))


def scored_states(params, keep=12):
    """Up to `keep` of the states a run of params scores, evenly spaced."""
    seen = []
    score = engine.pair_correlations

    def record(sigmas):
        seen.append(np.array(sigmas).reshape(-1, 6, 6))
        return score(sigmas)

    with mock.patch.object(engine, "pair_correlations", record):
        try:
            Engine(params).run(want_timeseries=False)
        except PhysicalityError:  # an unstable engine's refused run; its scored states count
            pass
    states = np.concatenate(seen) if seen else np.empty((0, 6, 6))
    return states[np.linspace(0, len(states) - 1, min(keep, len(states))).astype(int)]


class TestOracle:
    """The closed forms against a 50-digit evaluation of the same formulas
    on engine states across the parameter box."""

    @settings(max_examples=40)
    @given(box_engines())
    def test_engine_states_match_the_oracle(self, params):
        states = scored_states(params)
        states = states[np.abs(states).max(axis=(1, 2)) < ORACLE_SCALE]
        neg, disc = pair_correlations(states)
        for n, state in enumerate(states):
            for k, idx in enumerate(_PAIRS):
                block = state[np.ix_(idx, idx)]
                i4 = _block_dets(block)[3]
                _, _, _, o_i4, o_neg, o_disc = pair_oracle(block)
                assert abs(i4 - o_i4) <= I4_RTOL * abs(o_i4)
                assert abs(neg[n, k] - o_neg) <= NEG_ATOL
                assert abs(disc[n, k] - o_disc) <= DISC_ATOL

    def test_product_states_score_exactly_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            modes = [random_covariance(rng, n_modes=1)[0] for _ in range(3)]
            sigma = np.zeros((6, 6))
            for m, block in enumerate(modes):
                sigma[np.ix_((m, m + 3), (m, m + 3))] = block
            neg, disc = pair_correlations(sigma)
            assert np.all(neg == 0.0) and np.all(disc == 0.0)
