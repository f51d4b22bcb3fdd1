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
from typing import Sequence, Union

import numpy as np

from .errors import PhysicalityError

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
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    if np.any(np.max(np.abs(mat - np.swapaxes(mat, -1, -2)), axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise PhysicalityError("covariance matrix is not symmetric")
    return _spectrum(mat)


def _spectrum(mat: np.ndarray) -> np.ndarray:
    ev = np.sort(np.abs(np.linalg.eigvals(symplectic_form(mat.shape[-1] // 2) @ mat)), axis=-1)
    return ev[..., ::2]


def validate_covariances(mats: np.ndarray) -> np.ndarray:
    """Check a (E, 2n, 2n) stack of covariance matrices; return it symmetrised.

    Each matrix must be finite, symmetric to 1e-12 relative to its largest
    entry, and physical: min symplectic eigenvalue >= 1/2 - 1e-9.  The
    first failing matrix is named by its stack index.
    """
    mat = np.array(mats, dtype=float)
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2] or mat.shape[1] % 2 or mat.shape[1] == 0:
        raise PhysicalityError(f"expected a stack of 2n x 2n matrices, got {mat.shape}")
    if mat.shape[0] == 0:
        return mat

    def fail(bad: np.ndarray, what: str) -> None:
        where = f"state {int(np.flatnonzero(bad)[0])}: " if mat.shape[0] > 1 else ""
        raise PhysicalityError(f"{where}covariance matrix {what}")

    flat = mat.reshape(mat.shape[0], -1)
    finite = np.isfinite(flat).all(axis=1)
    if not finite.all():
        fail(~finite, "has non-finite entries")
    mat_t = mat.transpose(0, 2, 1)
    scale = np.maximum(1.0, np.abs(flat).max(axis=1))
    asym = np.abs(mat - mat_t).reshape(flat.shape).max(axis=1) > SYMMETRY_TOL * scale
    if asym.any():
        fail(asym, "is not symmetric to 1e-12")
    mat = 0.5 * (mat + mat_t)
    nu_min = _spectrum(mat)[:, 0]
    low = ~(nu_min >= 0.5 - PHYSICALITY_TOL)
    if low.any():
        fail(low, f"violates the uncertainty bound: min symplectic eigenvalue "
                  f"{float(nu_min[np.flatnonzero(low)[0]])!r} < 1/2")
    return mat


@dataclass(frozen=True)
class CovarianceMatrix:
    """Validated covariance matrix of one, two or three modes.

    Construction checks symmetry (to 1e-12 relative to the largest entry)
    and physicality (min symplectic eigenvalue >= 1/2 - 1e-9), as
    validate_covariances does for a stack.  The wrapped array is made
    read-only so instances can be shared freely.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise PhysicalityError(f"expected a 2n x 2n matrix, got shape {mat.shape}")
        mat = validate_covariances(mat[None])[0]
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is not None and dtype != self.matrix.dtype:
            return self.matrix.astype(dtype)
        return self.matrix.copy() if copy else self.matrix

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def symplectic_eigenvalues(self) -> np.ndarray:
        return symplectic_eigenvalues(self.matrix)


def _thermal_block(nbar: float, omega: float) -> np.ndarray:
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    c = 2.0 * nbar + 1.0
    return np.diag([c / (2.0 * omega), c * omega / 2.0])


def _squeezed_block(r: float, omega: float) -> np.ndarray:
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    try:
        mat = np.diag([math.exp(-2.0 * r) / (2.0 * omega), omega * math.exp(2.0 * r) / 2.0])
    except OverflowError as exc:
        raise PhysicalityError(f"squeezing r={r} overflows double precision") from exc
    if not np.isfinite(mat).all():
        raise PhysicalityError(f"squeezing r={r} overflows double precision")
    return mat


def thermal_covariance(nbar: float, omega: float) -> CovarianceMatrix:
    """Single-mode thermal block diag(c/(2 omega), c omega/2) with c = 2 nbar + 1."""
    return CovarianceMatrix(_thermal_block(nbar, omega))


def squeezed_vacuum_covariance(r: float, omega: float) -> CovarianceMatrix:
    """Single-mode squeezed vacuum block diag(e^{-2r}/(2 omega), omega e^{2r}/2)."""
    return CovarianceMatrix(_squeezed_block(r, omega))


@dataclass(frozen=True)
class Thermal:
    """Thermal mode population; nbar = 0 is the (T = 0) ground state."""

    nbar: float

    def __post_init__(self) -> None:
        if self.nbar < 0 or not math.isfinite(self.nbar):
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")

    def block(self, omega: float) -> np.ndarray:
        """Unvalidated 2x2 block; thermal_covariance gives the validated one."""
        return _thermal_block(self.nbar, omega)

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
            raise ValueError(f"r must be finite, got {self.r}")

    def block(self, omega: float) -> np.ndarray:
        """Unvalidated 2x2 block; squeezed_vacuum_covariance gives the validated one."""
        return _squeezed_block(self.r, omega)

    def energy_above_ground(self, omega: float) -> float:
        return omega * math.sinh(self.r) ** 2

    def is_pure(self) -> bool:
        return True


ModeSpec = Union[Thermal, SqueezedVacuum]


@dataclass(frozen=True)
class Preparation:
    """Initial product state of the three oscillators.

    Oscillator 1 sits at omega1, oscillators 2 and 3 at omega3; the working
    medium (oscillator 2) always starts at the cold frequency.
    """

    modes: tuple[ModeSpec, ModeSpec, ModeSpec]
    omega3: float
    omega1: float = 1.0

    def __post_init__(self) -> None:
        if len(self.modes) != 3:
            raise ValueError("exactly three mode specifications required")
        if not (0 < self.omega3 < self.omega1 and math.isfinite(self.omega1)):
            raise ValueError(f"need finite 0 < omega3 < omega1, got omega3={self.omega3}, "
                             f"omega1={self.omega1}")

    @property
    def frequencies(self) -> tuple[float, float, float]:
        return (self.omega1, self.omega3, self.omega3)


def product_states(preps: Sequence[Preparation]) -> np.ndarray:
    """Unvalidated (E, 6, 6) stack of initial product states, one per preparation.

    Pass the stack through validate_covariances before trusting it; its
    symplectic spectrum is the union of the blocks' spectra, so checking
    each block first adds nothing.
    """
    sigma = np.zeros((len(preps), 6, 6))
    for e, prep in enumerate(preps):
        for i, (mode, omega) in enumerate(zip(prep.modes, prep.frequencies)):
            b = mode.block(omega)
            sigma[e, i, i] = b[0, 0]
            sigma[e, i + 3, i + 3] = b[1, 1]
            sigma[e, i, i + 3] = sigma[e, i + 3, i] = b[0, 1]
    return sigma


def product_state(prep: Preparation) -> CovarianceMatrix:
    """The validated 6x6 covariance matrix of one initial product state."""
    return CovarianceMatrix(product_states([prep])[0])


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
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if beta <= 0:
        raise ValueError(f"beta must be > 0 (use math.inf for T = 0), got {beta}")
    if math.isinf(beta):
        return 0.0
    return 1.0 / math.expm1(beta * omega)


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
