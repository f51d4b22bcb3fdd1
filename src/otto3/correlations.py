"""Two-mode correlation measures on covariance restrictions.

Both measures work on the 4x4 restriction of a covariance matrix to a pair
of modes in the (x_i, x_j, p_i, p_j) ordering produced by states.restrict,
with blocks A (mode i), B (mode j) and C (mode i's rows, mode j's columns).

Both read five invariants off ten entries of the pair, in closed form:
i1 = det A, i2 = det B, i3 = det C, i4 = det sigma and
t = tr(A J C J B J C^T J), J = [[0, 1], [-1, 0]], so that
i4 = i1 i2 + i3^2 - t.  i4 comes from the Schur complement of A
(det sigma = det A det(B - C^T A^-1 C)), eliminated in the order x_i, p_i,
which keeps its rounding within a few units of the determinant's own
condition; t is read off the same elimination.  No LAPACK call is made.
Each later quantity is taken in whichever algebraically equal form has the
smaller terms: where correlations are weak (i3^2 <= i4) the symplectic
discriminant is (i1 - i2)^2 +- 4 i3 (i1 + i2) + 4 t, whose terms vanish
with C, so a product state (C = 0) gets its local determinants back
exactly and scores exactly 0; elsewhere the textbook forms have the
smaller terms.  Checked against a 50-digit evaluation of the same formulas
(tests/helpers.py).

Logarithmic negativity uses the smallest symplectic eigenvalue of the
partially transposed matrix; discord uses the standard Gaussian-measurement
minimisation expressed through the invariants (Adesso and Datta, PRL 105,
030501 (2010)).  All logarithms are natural.  Entropic terms are evaluated
in the doubled convention (vacuum determinant 1) where h(1) = 0;
invariants are reported in the raw convention (vacuum determinant 1/4) and
doubled internally.  Array-valued inputs broadcast over leading axes so the
engine can score whole time series in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import PhysicalityError
from .states import CovarianceMatrix, symplectic_eigenvalues

H_CLIP_TOL = 1e-9
# A measured mode with |4 det B - 1| <= _PURE_B_TOL counts as pure, which
# forces a product state.  The first branch divides by 4 det B - 1, whose
# rounding (about 1e-16) it amplifies; at 1e-8 that error and the discord
# dropped by the convention are both about 1e-7.
_PURE_B_TOL = 1e-8
_TINY = np.finfo(float).tiny
# A pure mode's determinant 1/4 carries a few units of rounding, so a
# product state's nu~^2 may land just below 1/4: negativities up to this
# floor are reported as 0.
_NEG_FLOOR = 4.0 * np.finfo(float).eps

# The ten entries the invariants read, as (row, column) of a 4x4 pair block
# (x_i, x_j, p_i, p_j): A's xx, xp, pp; B's xx, xp, pp; C's xx, xp, px, pp.
_BLOCK_ENTRIES = ((0, 0), (0, 2), (2, 2), (1, 1), (1, 3), (3, 3), (0, 1), (0, 3), (2, 1), (2, 3))

# The same entries of the pairs (1,2), (2,3), (1,3) of a 6x6 matrix, as flat
# offsets 6 row + column: (10, 3), entry by pair.
_PAIR_ENTRIES = np.array([[6 * idx[r] + idx[c] for idx in ((0, 1, 3, 4), (1, 2, 4, 5), (0, 2, 3, 5))]
                          for r, c in _BLOCK_ENTRIES])


def _invariants(a1, a2, a3, b1, b2, b3, c1, c2, c3, c4):
    """(i1, i2, i3, i4, t) of pair blocks from their ten entries, elementwise.

    Every term of t and of i1 i2 - i4 carries two entries of C, so both are
    exactly 0, and i4 is exactly i1 * i2, when C = 0.
    """
    i1 = a1 * a3
    i1 -= a2 * a2
    i2 = b1 * b3
    i2 -= b2 * b2
    i3 = c1 * c4
    i3 -= c2 * c3
    x11, x12, x22 = _schur_cross(a1, a2, a3, c1, c2, c3, c4)
    # i4 = det A det S, S = B - X
    s12 = b2 - x12
    i4 = b1 - x11
    i4 *= b3 - x22
    i4 -= s12 * s12
    i4 *= i1
    # t = det A tr(adj(B) X)
    t = b1 * x22
    t += b3 * x11
    t -= 2.0 * b2 * x12
    t *= i1
    return i1, i2, i3, i4, t


def _schur_cross(a1, a2, a3, c1, c2, c3, c4):
    """X = C^T A^-1 C, (x11, x12, x22), by eliminating x_i, then p_i (pivots
    a1 and a3 - a2^2 / a1)."""
    la = a2 / a1
    d2 = a3 - la * a2
    m1 = c3 - la * c1
    m2 = c4 - la * c2
    x11 = c1 / a1
    x12 = x11 * c2
    x11 *= c1
    x22 = c2 / a1
    x22 *= c2
    k = m1 / d2
    x11 += k * m1
    x12 += k * m2
    k = m2 / d2
    x22 += k * m2
    return x11, x12, x22


def _block_dets(sig: np.ndarray):
    """Invariants (i1, i2, i3, i4, t) of a stack of 4x4 pair restrictions."""
    return _invariants(*(sig[..., r, c] for r, c in _BLOCK_ENTRIES))


def _squared_spectrum(i1, i2, i3, i4, t, sign):
    """Squared symplectic eigenvalues (smaller, larger) of pair states
    (sign = 1) or of their partial transposes (sign = -1), elementwise, for
    array invariants; an array of signs broadcasts against them.

    They solve nu^4 - lam nu^2 + i4 = 0, lam = i1 + i2 + 2 s, s = sign * i3,
    so they are lo + s -+ x, lo and hi the smaller and larger of i1, i2,
    gap = hi - lo and x = (sqrt(lam^2 - 4 i4) - gap) / 2.  Where
    correlations are weak (i3^2 <= i4) the discriminant is taken as
    gap^2 + 4 (s (i1 + i2) + t) and x in rationalised form, exact for a
    product state; elsewhere lam^2 - 4 i4 has the smaller terms.  The
    smaller root comes from i4 / larger where subtracting x would cancel.
    """
    lo, hi = np.minimum(i1, i2), np.maximum(i1, i2)
    gap = hi - lo
    s = sign * i3
    total = i1 + i2
    num = s * total
    num += t
    x = 4.0 * num
    x += gap * gap
    lam = 2.0 * s
    lam += total
    lam *= lam
    lam -= 4.0 * i4
    strong = ~(i3 * i3 <= i4)  # NaN counts as strong, so it propagates
    np.copyto(x, lam, where=strong)
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    # x = (root - gap) / 2; rationalised where correlations are weak, and at
    # least -gap / 2, its value where rounding takes the discriminant to 0
    # or below (fmax also drops the 0 / 0 of gap = root = 0)
    num *= 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        num /= x + gap
    np.fmax(num, -0.5 * gap, out=num)
    x -= gap
    x *= 0.5
    np.copyto(x, num, where=~strong)
    larger = hi + s
    larger += x
    smaller = lo + s
    smaller -= x
    np.copyto(smaller, i4 / larger, where=~(smaller >= np.abs(x)))
    return smaller, larger


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
    Strict mode rejects non-finite arguments too; otherwise they pass
    through for the caller to refuse.
    """
    arr = np.asarray(x, dtype=float)
    if strict and not np.isfinite(arr).all():
        bad = float(arr[~np.isfinite(arr)][0])
        raise PhysicalityError(f"entropy argument {bad!r} is not finite")
    if strict and np.any(arr < 1.0 - H_CLIP_TOL):
        bad = float(np.min(arr))
        raise PhysicalityError(f"entropy argument {bad!r} below the pure-state value 1")
    v = np.maximum(np.atleast_1d(arr), 1.0)
    u = v + 1.0
    u *= 0.5
    v -= 1.0
    v *= 0.5
    out = np.log(u)
    out *= u
    np.maximum(v, _TINY, out=u)  # 0 ln 0 = 0
    np.log(u, out=u)
    u *= v
    out -= u
    return out if arr.ndim else float(out[0])


def negativity_from_invariants(i1, i2, i3, i4, t) -> np.ndarray:
    """max(0, -ln 2 nu~) with nu~ the smallest PT symplectic eigenvalue.

    Partial transposition of the second mode flips the sign of det C only.
    """
    return _negativity(_squared_spectrum(*np.atleast_1d(i1, i2, i3, i4, t), -1.0)[0])


def _negativity(nu_sq):
    """-ln 2 nu~ from nu~^2, or 0 where that is at most _NEG_FLOOR; NaN stays NaN."""
    with np.errstate(divide="ignore"):
        val = np.log(4.0 * nu_sq)
    val *= -0.5
    val *= val > _NEG_FLOOR
    val += 0.0  # drops negative zero
    return val


def log_negativity(sigma2: np.ndarray) -> float:
    return negativity_from_invariants(*_block_dets(_pair_state(sigma2).matrix)).item()


_PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def pt_smallest_eigenvalue(sigma2: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the partial transpose of a 4x4 pair
    restriction; below 1/2 signals entanglement.

    The input is validated like log_negativity's.  Uses
    states.symplectic_eigenvalues of Lambda sigma Lambda, an independent
    eigensolve route to the value the invariants give.
    """
    mat = _pair_state(sigma2).matrix
    return float(symplectic_eigenvalues(_PT_FLIP @ mat @ _PT_FLIP)[0])


def discord_from_invariants(i1, i2, i3, i4, t, *, squared_spectrum=None) -> np.ndarray:
    """Gaussian discord with the measurement on the second mode.

    Invariants are taken in the raw convention and doubled internally
    (j_k scale as det of 2 sigma).  The branch condition compares
    (j1 j2 - j4)^2 with (1 + j2) j3^2 (j1 + j4), j1 j2 - j4 = 16 (t - i3^2).
    The first branch's radicand j3^2 + (j2 - 1)(j4 - j1) is taken as
    4 (D+ - D-)^2 + 2 (i1 + i2)(1 - 4 D-)(1 - 4 D+) + g (4 g + 2 (1 - j4)),
    D-+ the squared symplectic eigenvalues and g = i1 - i2, which does not
    cancel near a pure pair.  Where correlations are weak (i3^2 <= i4)
    the second branch is taken in forms whose terms vanish with C, so a
    product state gets emin = j1 exactly; elsewhere in the forms of Adesso
    and Datta, whose terms are smaller there.  The squared spectrum
    (D-, D+) may be supplied when it is at hand.  Entropy arguments below
    1 are clipped as cancellation noise.
    """
    i1, i2, i3, i4, t = np.atleast_1d(i1, i2, i3, i4, t)
    if squared_spectrum is None:
        squared_spectrum = _squared_spectrum(i1, i2, i3, i4, t, 1.0)
    d_minus, d_plus = squared_spectrum
    weak = i3 * i3 <= i4
    j1, j2, j4 = 4.0 * i1, 4.0 * i2, 16.0 * i4
    j3 = 4.0 * i3
    q = t - i3 * i3
    q *= 16.0
    r = j3 * j3
    q2 = q * q
    branch1 = (1.0 + j2) * r
    branch1 *= j1 + j4
    branch1 = q2 < branch1
    den = j2 - 1.0
    pure_b = np.abs(den) <= _PURE_B_TOL
    with np.errstate(divide="ignore", invalid="ignore"):  # den = 0 only where pure_b
        emin = np.where(branch1, _first_branch(i1, i2, d_minus, d_plus, weak, j1, j3, j4, q, r, den),
                        _second_branch(weak, j1, j2, j4, q, r, q2))
    # A pure measured mode forces a product state; the conditional state is A itself.
    np.copyto(emin, j1, where=pure_b)
    np.maximum(emin, 0.0, out=emin)
    h_b, h_plus, h_emin, h_minus = (entropy_like(np.sqrt(x, out=x), strict=False) for x in (
        j2, 4.0 * d_plus, emin, 4.0 * d_minus))
    # grouped so that a product state's terms cancel exactly
    h_b -= h_plus
    h_emin -= h_minus
    h_b += h_emin
    return h_b


def _first_branch(i1, i2, d_minus, d_plus, weak, j1, j3, j4, q, r, den):
    """((|j3| + rad) / den)^2, rad^2 = r + den (j4 - j1) in the form with the
    smaller terms: the squared spectrum's where the pair is closer to pure
    than the measured mode; else as written, with j4 - j1 = j1 den - q
    where correlations are weak."""
    g = i1 - i2
    lo, hi = 1.0 - 4.0 * d_minus, 1.0 - 4.0 * d_plus
    spectral = d_plus - d_minus
    spectral *= spectral
    spectral *= 4.0
    spectral += 2.0 * (i1 + i2) * lo * hi
    spectral += g * (4.0 * g + 2.0 * (1.0 - j4))
    rad = j1 * den
    rad -= q
    np.copyto(rad, j4 - j1, where=~weak)
    rad *= den
    rad += r
    np.copyto(rad, spectral, where=np.abs(lo) + np.abs(hi) < np.abs(den))
    np.maximum(rad, 0.0, out=rad)
    np.sqrt(rad, out=rad)
    rad += np.abs(j3)
    rad /= den
    rad *= rad
    return rad


def _second_branch(weak, j1, j2, j4, q, r, q2):
    """(s - sqrt(s^2 - 4 p j4)) / (2 j2), s = p + j4 - r, p = j1 j2: where
    correlations are weak as j1 - (q + r + rad) / (2 j2) with
    rad^2 = q^2 - 2 r (p + j4) + r^2, elsewhere as 2 j1 j4 / (s + rad)."""
    p = j1 * j2
    s = p + j4
    s -= r
    rad = p + j4
    rad *= 2.0 * r
    rad = q2 - rad
    rad += r * r
    np.copyto(rad, s * s - 4.0 * p * j4, where=~weak)
    np.maximum(rad, 0.0, out=rad)
    np.sqrt(rad, out=rad)
    weak_form = q + r
    weak_form += rad
    weak_form /= 2.0 * j2
    weak_form = j1 - weak_form
    rad += s
    s = 2.0 * j1 * j4
    s /= rad
    np.copyto(weak_form, s, where=~weak)
    return weak_form


def gaussian_discord(sigma2: np.ndarray, measured: int = 2) -> float:
    """Discord of a two-mode restriction, measuring the chosen side (1 or 2).

    d-, d+ are the validation's spectrum, not the invariant formula."""
    if measured not in (1, 2):
        raise ValueError(f"measured must be 1 or 2, got {measured}")
    state = _pair_state(sigma2)
    i1, i2, i3, i4, t = _block_dets(state.matrix)
    if measured == 1:
        # Swapping the modes exchanges det A and det B; det C, det sigma and t are unchanged.
        i1, i2 = i2, i1
    d = state.symplectic_eigenvalues()
    disc = discord_from_invariants(i1, i2, i3, i4, t, squared_spectrum=(d * d)[:, None])
    return max(0.0, disc.item())


_STATE_AND_PT = np.array([1.0, -1.0])[:, None, None]


def pair_correlations(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativity and discord for mode pairs (1,2), (2,3), (1,3) of 6x6 stacks.

    Accepts shape (..., 6, 6) and returns two arrays of shape (..., 3).
    Discord measures the second mode of each pair.  No physicality checks;
    intended for trusted engine output.  A non-finite or overflowing entry
    gives non-finite scores without a warning; the caller refuses them.

    The ten entries of each pair are read as whole rows of the (36, N)
    element-first view of the stack, a contiguous one for an element-first
    stack (np.moveaxis of a (6, 6, ...) array).
    """
    arr = np.asarray(sigmas, dtype=float)
    lead = arr.shape[:-2]
    with np.errstate(all="ignore"):
        inv = _invariants(*arr.reshape(-1, 36).T[_PAIR_ENTRIES])
        # the states' and the partial transposes' spectra in one pass
        smaller, larger = _squared_spectrum(*inv, _STATE_AND_PT)
        neg = _negativity(smaller[1])
        disc = discord_from_invariants(*inv, squared_spectrum=(smaller[0], larger[0]))
        np.maximum(disc, 0.0, out=disc)
    return neg.T.reshape(*lead, 3), disc.T.reshape(*lead, 3)
