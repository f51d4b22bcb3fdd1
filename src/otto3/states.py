"""Gaussian states of three harmonic oscillators as covariance matrices.

Units: hbar = k_B = m = 1.  Quadratures are ordered (x1, x2, x3, p1, p2, p3),
and a covariance matrix holds the symmetrised second moments
sigma_ab = <R_a R_b + R_b R_a>/2 (first moments vanish everywhere in this
package).  The vacuum satisfies sigma = I/2 for unit frequency, and a matrix
is physical iff its symplectic eigenvalues are all >= 1/2.

Temperatures are stored as mean occupation numbers nbar, which keeps T = 0
exact (nbar = 0) instead of pushing beta to infinity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, PhysicalityError

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9


@functools.cache
def symplectic_form(n_modes: int = 3) -> np.ndarray:
    """Symplectic form Omega in the (x..., p...) ordering; Omega @ Omega = -I.

    Built once per mode count and shared, so the array is read-only.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be positive, got {n_modes}")
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    omega = np.block([[zero, eye], [-eye, zero]])
    omega.flags.writeable = False
    return omega


def symplectic_eigenvalues(sigma: Union[np.ndarray, "CovarianceMatrix"]) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    The 2n eigenvalues of i*Omega*sigma come in +/- pairs; the n distinct
    moduli are returned.  Physical states have every value >= 1/2.  A
    (..., 2n, 2n) stack gives a (..., n) stack of spectra.
    """
    mat = sigma.matrix if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, dtype=float)
    n = mat.shape[-1] // 2
    if mat.ndim < 2 or mat.shape[-2:] != (2 * n, 2 * n) or n == 0:
        raise ValueError(f"covariance matrix must be square with even dimension, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise PhysicalityError("covariance matrix has non-finite entries")
    if np.any(_asymmetric(mat, _scale(mat))):
        raise PhysicalityError("covariance matrix is not symmetric")
    return _spectrum(mat)


def _scale(mat: np.ndarray) -> np.ndarray:
    """max(1, largest |entry|) of each matrix of a stack."""
    return np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))


def _asymmetric(mat: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """True for each matrix of a stack asymmetric beyond SYMMETRY_TOL * scale."""
    return np.abs(mat - np.swapaxes(mat, -1, -2)).max(axis=(-2, -1)) > SYMMETRY_TOL * scale


def _spectrum(mat: np.ndarray) -> np.ndarray:
    ev = np.sort(np.abs(np.linalg.eigvals(symplectic_form(mat.shape[-1] // 2) @ mat)), axis=-1)
    return ev[..., ::2]


def validate_covariances(mats: np.ndarray, ids: Optional[Sequence[int]] = None) -> np.ndarray:
    """Check a (E, 2n, 2n) stack of covariance matrices; return it symmetrised.

    Each matrix must be finite, symmetric to 1e-12 relative to its largest
    entry, and physical: min symplectic eigenvalue >= 1/2 - 1e-9, and
    positive definite to within the symmetry tolerance.  The
    first failing matrix is named by ids[its stack index] where ids are
    given, else by that index in a stack of more than one.
    """
    return _validated(mats, ids)[0]


def _validated(mats: np.ndarray,
               ids: Optional[Sequence[int]] = None) -> tuple[np.ndarray, np.ndarray]:
    """validate_covariances, plus the (E, n) symplectic spectra it checked."""
    mat = np.asarray(mats, dtype=float)
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2] or mat.shape[1] % 2 or mat.shape[1] == 0:
        raise PhysicalityError(f"expected a stack of 2n x 2n matrices, got {mat.shape}")

    def fail(bad: np.ndarray, what: str) -> None:
        k = int(np.flatnonzero(bad)[0])
        named = ids is not None or len(mat) > 1
        where = f"state {k if ids is None else ids[k]}: " if named else ""
        raise PhysicalityError(f"{where}covariance matrix {what}")

    finite = np.isfinite(mat).all(axis=(1, 2))
    if not finite.all():
        fail(~finite, "has non-finite entries")
    scale = _scale(mat)
    asym = _asymmetric(mat, scale)
    if asym.any():
        fail(asym, "is not symmetric to 1e-12")
    mat = 0.5 * (mat + mat.transpose(0, 2, 1))
    nus = _spectrum(mat)
    low = ~(nus[:, 0] >= 0.5 - PHYSICALITY_TOL)
    if low.any():
        fail(low, f"violates the uncertainty bound: min symplectic eigenvalue "
                  f"{float(nus[np.flatnonzero(low)[0], 0])!r} < 1/2")
    # The spectrum is the uncertainty relation only for sigma > 0 (Williamson;
    # -sigma has sigma's spectrum).  So sigma, or else, to within the
    # rounding the symmetry check allows, sigma + 2n SYMMETRY_TOL scale I,
    # must have a Cholesky factor: the shift follows the state's scale, as
    # rounding does, and keeps the exact states of unstable engines, which
    # reach 1e93 and lose their smallest eigenvalues to rounding.
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        dim = mat.shape[1]
        shifted = mat.copy()
        shifted.reshape(len(mat), -1)[:, ::dim + 1] += (dim * SYMMETRY_TOL * scale)[:, None]
        bad = np.array([not _has_cholesky(m) for m in shifted])
        if bad.any():
            fail(bad, "is not positive definite")
    return mat, nus


def _has_cholesky(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class CovarianceMatrix:
    """Validated covariance matrix of one, two or three modes.

    Construction checks symmetry (to 1e-12 relative to the largest entry)
    and physicality (min symplectic eigenvalue >= 1/2 - 1e-9, and positive
    definite), as
    validate_covariances does for a stack, keeping the spectrum it computed.
    The arrays are read-only so instances can be shared freely.
    """

    matrix: np.ndarray
    _nus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise PhysicalityError(f"expected a 2n x 2n matrix, got shape {mat.shape}")
        (mat,), (nus,) = _validated(mat[None])
        mat.flags.writeable = nus.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_nus", nus)

    @classmethod
    def stack(cls, mats: np.ndarray,
              ids: Optional[Sequence[int]] = None) -> list[CovarianceMatrix]:
        """One instance per matrix of a (E, 2n, 2n) stack, validated as a
        stack (validate_covariances, which ids name) rather than one by one."""
        mats, nus = _validated(mats, ids)
        mats.flags.writeable = nus.flags.writeable = False
        out = []
        for mat, nu in zip(mats, nus):
            instance = object.__new__(cls)
            object.__setattr__(instance, "matrix", mat)
            object.__setattr__(instance, "_nus", nu)
            out.append(instance)
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is not None and dtype != self.matrix.dtype:
            return self.matrix.astype(dtype)
        return self.matrix.copy() if copy else self.matrix

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def symplectic_eigenvalues(self) -> np.ndarray:
        return self._nus


def _block(mode: "ModeSpec", omega: float) -> CovarianceMatrix:
    """The validated block diag(a / (2 omega), b omega / 2) of one mode, (a, b) = its factors."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    a, b = mode.factors()
    return CovarianceMatrix(np.diag([a / (2.0 * omega), b * omega / 2.0]))


def thermal_covariance(nbar: float, omega: float) -> CovarianceMatrix:
    """Single-mode thermal block diag(c/(2 omega), c omega/2) with c = 2 nbar + 1."""
    return _block(Thermal(nbar), omega)


def squeezed_vacuum_covariance(r: float, omega: float) -> CovarianceMatrix:
    """Single-mode squeezed vacuum block diag(e^{-2r}/(2 omega), omega e^{2r}/2)."""
    return _block(SqueezedVacuum(r), omega)


@dataclass(frozen=True)
class Thermal:
    """Thermal mode population; nbar = 0 is the (T = 0) ground state."""

    nbar: float

    def __post_init__(self) -> None:
        if self.nbar < 0 or not math.isfinite(self.nbar):
            raise ConfigError(f"nbar must be finite and >= 0, got {self.nbar}")

    def factors(self) -> tuple[float, float]:
        """(a, b) of the mode's block diag(a / (2 omega), b omega / 2)."""
        c = 2.0 * self.nbar + 1.0
        return c, c

    def energy_above_ground(self, omega: float) -> float:
        return self.nbar * omega

    def is_pure(self) -> bool:
        return self.nbar == 0


@dataclass(frozen=True)
class SqueezedVacuum:
    """Pure squeezed vacuum mode exp[r (a^2 - a^dag^2)/2]|0>."""

    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ConfigError(f"r must be finite, got {self.r}")

    def factors(self) -> tuple[float, float]:
        """(a, b) of the mode's block diag(a / (2 omega), b omega / 2)."""
        try:
            return math.exp(-2.0 * self.r), math.exp(2.0 * self.r)
        except OverflowError as exc:
            raise PhysicalityError(f"squeezing r={self.r} overflows double precision") from exc

    def energy_above_ground(self, omega: float) -> float:
        return omega * math.sinh(self.r) ** 2

    def is_pure(self) -> bool:
        return True


ModeSpec = Union[Thermal, SqueezedVacuum]


def check_frequencies(omega3: float, omega1: float) -> None:
    """Refuse a cold frequency omega3 and a hot omega1 unless finite 0 < omega3 < omega1."""
    if not (0 < omega3 < omega1 and math.isfinite(omega1)):
        raise ConfigError(f"need finite 0 < omega3 < omega1, got omega3={omega3}, "
                          f"omega1={omega1}")


@dataclass(frozen=True)
class Preparation:
    """Initial product state of the three oscillators.

    Oscillator 1 sits at omega1, oscillators 2 and 3 at omega3; the working
    medium (oscillator 2) always starts at the cold frequency.  Its state is
    checked on construction (check_product_factors): a preparation whose
    blocks overflow or vanish raises PhysicalityError.
    """

    modes: tuple[ModeSpec, ModeSpec, ModeSpec]
    omega3: float
    omega1: float = 1.0

    def __post_init__(self) -> None:
        if len(self.modes) != 3:
            raise ConfigError("exactly three mode specifications required")
        if not all(isinstance(mode, ModeSpec) for mode in self.modes):
            raise ConfigError(f"modes must be Thermal or SqueezedVacuum, got {self.modes!r}")
        check_frequencies(self.omega3, self.omega1)
        check_product_factors(self.factors(), self.omega1, self.omega3)

    @property
    def frequencies(self) -> tuple[float, float, float]:
        return (self.omega1, self.omega3, self.omega3)

    def factors(self) -> tuple[tuple[float, float], ...]:
        """Each oscillator's (a, b), its block diag(a / (2 omega), b omega / 2)."""
        return tuple(mode.factors() for mode in self.modes)


def product_states(factors: np.ndarray, omega1: np.ndarray, omega3: np.ndarray) -> np.ndarray:
    """Unvalidated (E, 6, 6) stack of product states, oscillator i of state e
    in the block diag(a / (2 omega), b omega / 2), (a, b) = factors[e, i],
    at the frequencies (omega1[e], omega3[e], omega3[e]).

    Its symplectic spectrum is the union of the blocks' spectra, sqrt(ab)/2
    each, so check_product_factors checks a state in closed form.
    """
    omega = np.stack((omega1, omega3, omega3), axis=1)
    sigma = np.zeros((omega.shape[0], 6, 6))
    diag = sigma.reshape(-1, 36)[:, ::7]
    diag[:, :3] = factors[..., 0] / (2.0 * omega)
    diag[:, 3:] = factors[..., 1] * omega / 2.0
    return sigma


def check_product_factors(factors: Sequence[Sequence[float]], omega1: float,
                          omega3: float) -> None:
    """Refuse, with PhysicalityError, the product state of oscillators with
    factors (a, b) at (omega1, omega3, omega3), finite 0 < omega3 < omega1,
    unless each block diag(a / (2 omega), b omega / 2) is finite and
    positive and its symplectic eigenvalue sqrt(ab)/2 is >= 1/2 - 1e-9:
    validate_covariances' checks of that state, without its eigensolve."""
    for mode, ((a, b), omega) in enumerate(zip(factors, (omega1, omega3, omega3)), 1):
        x, p = a / (2.0 * omega), b * omega / 2.0
        if not (0 < x < math.inf and 0 < p < math.inf):
            raise PhysicalityError(f"oscillator {mode}: factors ({a!r}, {b!r}) give the initial "
                                   f"block {(x, p)}, which is not finite and positive")
        nu = math.sqrt(a * b) / 2.0
        if not nu >= 0.5 - PHYSICALITY_TOL:
            raise PhysicalityError(f"oscillator {mode}: factors ({a!r}, {b!r}) give the initial "
                                   f"symplectic eigenvalue {nu!r} < 1/2")


@functools.lru_cache(maxsize=256)
def product_state(prep: Preparation) -> CovarianceMatrix:
    """The validated 6x6 covariance matrix of one initial product state.

    Cached: an optimizer's engines share their preparation, so it is
    validated once.  The result is read-only.
    """
    return CovarianceMatrix(product_states(np.array([prep.factors()]), np.array([prep.omega1]),
                                           np.array([prep.omega3]))[0])


def restrict(sigma: Union[np.ndarray, CovarianceMatrix], i: int, j: int) -> CovarianceMatrix:
    """Two-mode restriction of a 6x6 covariance matrix.

    Modes are numbered 1..3; the result is ordered (x_i, x_j, p_i, p_j), so
    the first mode named keeps the first slot.
    """
    mat = sigma.matrix if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, dtype=float)
    if mat.shape != (6, 6):
        raise ValueError(f"restriction needs a 6x6 covariance matrix, got {mat.shape}")
    if i not in (1, 2, 3) or j not in (1, 2, 3) or i == j:
        raise ValueError(f"mode indices must be distinct members of {{1,2,3}}, got ({i}, {j})")
    idx = [i - 1, j - 1, i + 2, j + 2]
    return CovarianceMatrix(mat[np.ix_(idx, idx)])


def nbar_from_beta(beta: float, omega: float) -> float:
    """Mean occupation of a mode at inverse temperature beta; beta = inf -> 0."""
    if not omega > 0:
        raise ConfigError(f"omega must be > 0, got {omega}")
    if not beta > 0:
        raise ConfigError(f"beta must be > 0 (use math.inf for T = 0), got {beta}")
    if math.isinf(beta):
        return 0.0
    try:
        return 1.0 / math.expm1(beta * omega)
    except OverflowError:  # beta * omega > ~709.8, where 1 / expm1 is exp(-beta * omega)
        return math.exp(-beta * omega)


def beta_from_nbar(nbar: float, omega: float) -> float:
    """Inverse temperature reproducing a mean occupation; nbar = 0 -> inf."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if nbar == 0:
        return math.inf
    return math.log1p(1.0 / nbar) / omega


def matched_squeezing(nbar: float) -> float:
    """Squeezing r with the same mode energy as a thermal state of given nbar.

    (omega/2) cosh 2r = (nbar + 1/2) omega  =>  r = arccosh(2 nbar + 1)/2.
    """
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    return math.acosh(2.0 * nbar + 1.0) / 2.0


def thermal_preparation(beta1: float, omega3: float, omega1: float = 1.0) -> Preparation:
    """Hot thermal oscillator 1, oscillators 2 and 3 in their ground states."""
    return Preparation(
        (Thermal(nbar_from_beta(beta1, omega1)), Thermal(0.0), Thermal(0.0)),
        omega3=omega3,
        omega1=omega1,
    )


def squeezed_preparation(beta1: float, omega3: float, omega1: float = 1.0) -> Preparation:
    """Like thermal_preparation but with oscillator 1 squeezed to equal energy."""
    r1 = matched_squeezing(nbar_from_beta(beta1, omega1))
    return Preparation(
        (SqueezedVacuum(r1), SqueezedVacuum(0.0), SqueezedVacuum(0.0)),
        omega3=omega3,
        omega1=omega1,
    )
