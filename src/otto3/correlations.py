"""Two-mode correlation measures on covariance restrictions.

Both measures work on the 4x4 restriction of a covariance matrix to a pair
of modes in the (x_i, x_j, p_i, p_j) ordering produced by states.restrict.

Logarithmic negativity uses the smallest symplectic eigenvalue of the
partially transposed matrix; discord uses the standard Gaussian-measurement
minimisation expressed through the four symplectic invariants det A, det B,
det C, det sigma.  All logarithms are natural.  Entropic terms are evaluated
in the doubled convention (vacuum determinant 1) where h(1) = 0; invariants
are reported in the raw convention (vacuum determinant 1/4) and doubled
internally.  Array-valued inputs broadcast over leading axes so the engine
can score whole time series in one call.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .errors import PhysicalityError
from .states import CovarianceMatrix, symplectic_eigenvalues

H_CLIP_TOL = 1e-9
_PURE_B_TOL = 1e-12

# Pair restrictions (1,2), (2,3), (1,3) of a 6x6 matrix, (x_i, x_j, p_i, p_j) per pair.
_PAIR_IDX = np.array([[0, 1, 3, 4], [1, 2, 4, 5], [0, 2, 3, 5]])


def _block_dets(sig: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Determinants (i1, i2, i3, i4) of a stack of 4x4 pair restrictions."""
    i1 = sig[..., 0, 0] * sig[..., 2, 2] - sig[..., 0, 2] ** 2
    i2 = sig[..., 1, 1] * sig[..., 3, 3] - sig[..., 1, 3] ** 2
    i3 = sig[..., 0, 1] * sig[..., 2, 3] - sig[..., 0, 3] * sig[..., 2, 1]
    i4 = np.linalg.det(sig)
    return i1, i2, i3, i4


def _sympl_pair(i1, i2, i3, i4) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues (d-, d+) from invariants, elementwise."""
    lam = i1 + i2 + 2.0 * i3
    root = np.sqrt(np.maximum(lam * lam - 4.0 * i4, 0.0))
    d_minus = np.sqrt(np.maximum(0.5 * (lam - root), 0.0))
    d_plus = np.sqrt(0.5 * (lam + root))
    return d_minus, d_plus


def _pair_state(sigma2: np.ndarray) -> CovarianceMatrix:
    """A 4x4 pair restriction, validated: finite, symmetric and physical."""
    mat = np.asarray(sigma2, dtype=float)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 restriction, got {mat.shape}")
    return CovarianceMatrix(mat)


def entropy_like(x, *, strict: bool = True):
    """h(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2) for x >= 1.

    Arguments within H_CLIP_TOL below 1 are clipped to 1 (pure-mode limit);
    anything lower is rejected in strict mode and clipped otherwise.
    """
    arr = np.asarray(x, dtype=float)
    if strict and np.any(arr < 1.0 - H_CLIP_TOL):
        bad = float(np.min(arr))
        raise PhysicalityError(f"entropy argument {bad!r} below the pure-state value 1")
    arr = np.maximum(arr, 1.0)
    out = xlogy(0.5 * (arr + 1.0), 0.5 * (arr + 1.0)) - xlogy(0.5 * (arr - 1.0), 0.5 * (arr - 1.0))
    return out if out.ndim else float(out)


def negativity_from_invariants(i1, i2, i3, i4) -> np.ndarray:
    """max(0, -ln 2 nu~) with nu~ the smallest PT symplectic eigenvalue.

    Partial transposition of the second mode flips the sign of det C only.
    """
    delta = i1 + i2 - 2.0 * i3
    root = np.sqrt(np.maximum(delta * delta - 4.0 * i4, 0.0))
    nu_sq = np.maximum(0.5 * (delta - root), 0.0)
    with np.errstate(divide="ignore"):
        val = -0.5 * np.log(4.0 * nu_sq)
    return np.maximum(0.0, val) + 0.0  # drop negative zero


def log_negativity(sigma2: np.ndarray) -> float:
    return float(negativity_from_invariants(*_block_dets(_pair_state(sigma2).matrix)))


_PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def pt_smallest_eigenvalue(sigma2: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the partial transpose of a 4x4 pair
    restriction; below 1/2 signals entanglement.

    The input is validated like log_negativity's.  Uses
    states.symplectic_eigenvalues of Lambda sigma Lambda, an eigensolve
    that keeps full precision on nearly pure states where the invariant
    formula cancels.
    """
    mat = _pair_state(sigma2).matrix
    return float(symplectic_eigenvalues(_PT_FLIP @ mat @ _PT_FLIP)[0])


def _emin_branch1(j1, j2, j3, j4):
    """Conditional-determinant minimum on the first branch (doubled invariants)."""
    den = j2 - 1.0
    rad = np.sqrt(np.maximum(j3 * j3 + den * (j4 - j1), 0.0))
    safe = np.where(np.abs(den) > _PURE_B_TOL, den, 1.0)
    return np.where(np.abs(den) > _PURE_B_TOL, ((np.abs(j3) + rad) / safe) ** 2, j1)


def _emin_branch2(j1, j2, j3, j4):
    """Conditional-determinant minimum on the second branch (doubled invariants)."""
    s = j1 * j2 + j4 - j3 * j3
    rad = np.sqrt(np.maximum(s * s - 4.0 * j1 * j2 * j4, 0.0))
    return (j1 * j2 - j3 * j3 + j4 - rad) / (2.0 * j2)


def discord_from_invariants(i1, i2, i3, i4, *, d_minus=None, d_plus=None) -> np.ndarray:
    """Gaussian discord with the measurement on the second mode.

    Invariants are taken in the raw convention and doubled internally
    (j_k scale as det of 2 sigma).  The branch condition compares
    (j1 j2 - j4)^2 with (1 + j2) j3^2 (j1 + j4).  Precomputed symplectic
    eigenvalues may be supplied when a more accurate route is available.
    Entropy arguments below 1 are clipped as cancellation noise.
    """
    j1, j2, j3, j4 = 4.0 * np.asarray(i1), 4.0 * np.asarray(i2), 4.0 * np.asarray(i3), 16.0 * np.asarray(i4)
    branch1 = (j1 * j2 - j4) ** 2 <= (1.0 + j2) * j3 * j3 * (j1 + j4)
    emin = np.where(branch1, _emin_branch1(j1, j2, j3, j4), _emin_branch2(j1, j2, j3, j4))
    # A pure measured mode forces a product state; the conditional state is A itself.
    emin = np.where(np.abs(j2 - 1.0) <= _PURE_B_TOL, j1, emin)
    if d_minus is None or d_plus is None:
        d_minus, d_plus = _sympl_pair(i1, i2, i3, i4)
    return (
        entropy_like(np.sqrt(j2), strict=False)
        - entropy_like(2.0 * np.asarray(d_minus), strict=False)
        - entropy_like(2.0 * np.asarray(d_plus), strict=False)
        + entropy_like(np.sqrt(np.maximum(emin, 0.0)), strict=False)
    )


def gaussian_discord(sigma2: np.ndarray, measured: int = 2) -> float:
    """Discord of a two-mode restriction, measuring the chosen side (1 or 2).

    d-, d+ are the validation's spectrum, not the cancelling invariant formula."""
    if measured not in (1, 2):
        raise ValueError(f"measured must be 1 or 2, got {measured}")
    state = _pair_state(sigma2)
    i1, i2, i3, i4 = _block_dets(state.matrix)
    if measured == 1:
        # Swapping the modes exchanges det A and det B; det C and det sigma are unchanged.
        i1, i2 = i2, i1
    d = state.symplectic_eigenvalues()
    return max(0.0, float(discord_from_invariants(i1, i2, i3, i4, d_minus=d[0], d_plus=d[1])))


def pair_correlations(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativity and discord for mode pairs (1,2), (2,3), (1,3) of 6x6 stacks.

    Accepts shape (..., 6, 6) and returns two arrays of shape (..., 3).
    Discord measures the second mode of each pair.  No physicality checks;
    intended for trusted engine output.
    """
    arr = np.asarray(sigmas, dtype=float)
    sub = arr[..., _PAIR_IDX[:, :, None], _PAIR_IDX[:, None, :]]
    i1, i2, i3, i4 = _block_dets(sub)
    neg = negativity_from_invariants(i1, i2, i3, i4)
    disc = np.maximum(0.0, discord_from_invariants(i1, i2, i3, i4))
    return neg, disc
