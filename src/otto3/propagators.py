"""Exact symplectic propagators for the engine strokes.

Everything here acts on first-order moments as R(t) = S R(0), so covariance
matrices evolve as sigma -> S sigma S^T.  Three generators appear:

* a resonant excitation-swapping coupling between two oscillators of equal
  frequency, with the third oscillator rotating freely;
* a linear-in-omega^2 frequency sweep of the middle oscillator, solved in
  closed form with Airy functions;
* the idealised infinitely slow sweep, where the middle-mode block reduces
  to a rescaling plus a rotation by the accumulated phase integral(omega dt).

A Dormand-Prince integrator of the same linear system is provided as an
independent cross-check for the closed forms.  scipy is imported where it
is first used, by the Airy sweep and the integrator, so quasi-static runs
never load it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateRampError, IntegrationError, SymplecticityError
from .states import symplectic_form

SYMPLECTIC_TOL = 1e-10
DEGENERATE_OMEGA_TOL = 1e-9

_OMEGA6 = symplectic_form(3)


def _symplectic_defect(mat: np.ndarray) -> np.ndarray:
    """Largest entry of |S Omega S^T - Omega| for a 6x6 map or each map of a stack."""
    return np.max(np.abs(mat @ _OMEGA6 @ np.swapaxes(mat, -1, -2) - _OMEGA6), axis=(-2, -1))


def _check_symplectic(mat: np.ndarray, tol: float = SYMPLECTIC_TOL, *,
                      name: Optional[Callable[[int], str]] = None) -> None:
    """Raise on the first map (of a 6x6 map or an (N, 6, 6) stack) whose defect is
    not <= tol, so a NaN fails too; map k of a stack is named name(k) or "map k"."""
    defect = _symplectic_defect(np.asarray(mat, dtype=float))
    bad = np.flatnonzero(~(defect <= tol))
    if bad.size:
        k = int(bad[0])
        where = "" if defect.ndim == 0 else f"{name(k) if name else f'map {k}'}: "
        raise SymplecticityError(f"{where}propagator defect |S Omega S^T - Omega| = "
                                 f"{defect.flat[k]:.3e} > {tol:.1e}")


def _sandwich(mat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """mat @ sigma @ mat.T, symmetrised."""
    out = mat @ sigma @ mat.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class SymplecticPropagator:
    """A 6x6 symplectic matrix with the stroke duration it represents."""

    matrix: np.ndarray
    duration: float
    label: str = ""

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (6, 6):
            raise ValueError(f"expected a 6x6 matrix, got {mat.shape}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        _check_symplectic(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def apply(self, sigma: np.ndarray) -> np.ndarray:
        return _sandwich(self.matrix, sigma)


class RampMode(enum.Enum):
    SUDDEN = "sudden"
    LINEAR_AIRY = "airy"
    QUASI_STATIC = "quasistatic"


@dataclass(frozen=True)
class RampSchedule:
    """Frequency sweep omega^2(t) = omega_in^2 + (omega_fin^2 - omega_in^2) t/tau."""

    omega_in: float
    omega_fin: float
    tau: float
    mode: RampMode = RampMode.LINEAR_AIRY

    def __post_init__(self) -> None:
        if not isinstance(self.mode, RampMode):
            raise ValueError(f"ramp mode must be a RampMode, got {self.mode!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.omega_in, self.omega_fin)):
            raise ValueError(f"ramp frequencies must be finite and > 0, got {self.omega_in}, {self.omega_fin}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.mode is RampMode.SUDDEN and self.tau != 0.0:
            raise ValueError("a sudden ramp has zero duration; set tau = 0")
        if self.mode is not RampMode.SUDDEN and self.tau == 0.0:
            raise ValueError("a finite-time ramp needs tau > 0")

    def omega_sq(self, t: "float | np.ndarray") -> "float | np.ndarray":
        return self.omega_in**2 + (self.omega_fin**2 - self.omega_in**2) * np.asarray(t) / self.tau


class CouplingSide(enum.Enum):
    HOT_PAIR = "hot"    # oscillators 1 and 2, resonant at omega1
    COLD_PAIR = "cold"  # oscillators 2 and 3, resonant at omega3


_PAIR_OF: dict[CouplingSide, tuple[tuple[int, int], int]] = {
    CouplingSide.HOT_PAIR: ((0, 1), 2),
    CouplingSide.COLD_PAIR: ((1, 2), 0),
}


def coupling_propagator(alpha: float, omega: float, omega_spec: float, t: float,
                        side: CouplingSide) -> SymplecticPropagator:
    """Closed-form propagator of a resonant pair plus a free spectator.

    The coupled pair splits into normal modes at omega +/- alpha, giving the
    product structure cos(alpha t) cos(omega t) etc.; the spectator rotates
    at its own frequency.  Excitation exchange is exact: the pair's mode
    energies mix as cos^2(alpha t), sin^2(alpha t) for product inputs.
    """
    if alpha < 0:
        raise ValueError(f"coupling strength must be >= 0, got {alpha}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if omega <= 0 or omega_spec <= 0:
        raise ValueError("frequencies must be > 0")
    mat = coupling_propagators_at(alpha, omega, omega_spec, np.asarray([t]), side)[0]
    return SymplecticPropagator(mat, duration=t, label=f"coupling-{side.value}")


def coupling_propagators_at(alpha, omega, omega_spec, times, side: CouplingSide) -> np.ndarray:
    """Stack of unvalidated coupling propagators, shape broadcast(args) + (6, 6).

    alpha, omega and omega_spec may be arrays (one entry per engine) that
    broadcast against times: scalars with times of shape (n,) give (n, 6, 6),
    and (E, 1) parameters with (E, n) times give (E, n, 6, 6).
    """
    (a, b), k = _PAIR_OF[side]
    t = np.asarray(times, dtype=float)
    alpha, omega, omega_spec = (np.asarray(v, dtype=float) for v in (alpha, omega, omega_spec))
    ca, sa = np.cos(alpha * t), np.sin(alpha * t)
    cw, sw = np.cos(omega * t), np.sin(omega * t)
    cc, ss, cs, sc = ca * cw, sa * sw, ca * sw, sa * cw
    ck, sk = np.cos(omega_spec * t), np.sin(omega_spec * t)
    nss, cso, sco, ocs, osc = -ss, cs / omega, sc / omega, -omega * cs, -omega * sc
    out = np.zeros(np.broadcast(t, alpha, omega, omega_spec).shape + (6, 6))
    for i, j, val in (
        (a, a, cc), (a, b, nss), (b, a, nss), (b, b, cc),
        (a, a + 3, cso), (a, b + 3, sco), (b, a + 3, sco), (b, b + 3, cso),
        (a + 3, a, ocs), (a + 3, b, osc), (b + 3, a, osc), (b + 3, b, ocs),
        (a + 3, a + 3, cc), (a + 3, b + 3, nss), (b + 3, a + 3, nss), (b + 3, b + 3, cc),
        (k, k, ck), (k, k + 3, sk / omega_spec), (k + 3, k, -omega_spec * sk), (k + 3, k + 3, ck),
    ):
        out[..., i, j] = val
    return out


def ramp_xy(omega_in, omega_fin, tau, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fundamental solutions of xddot = -omega^2(t) x on the linear-omega^2 sweep.

    Returns (x, y, xdot, ydot) with x(0) = 0, xdot(0) = 1, y(0) = 1,
    ydot(0) = 0.  Both are Airy-function combinations in the rescaled
    variable z(t) = -omega^2(t) (tau/(omega_in^2 - omega_fin^2))^{2/3};
    the Wronskian xdot*y - x*ydot stays exactly 1.  The sweep parameters
    may be arrays that broadcast against t, one sweep per entry.
    """
    omega_in, omega_fin, tau = (np.asarray(v, dtype=float) for v in (omega_in, omega_fin, tau))
    gap = np.abs(omega_in - omega_fin)
    if np.any(gap < DEGENERATE_OMEGA_TOL):
        raise DegenerateRampError(
            f"|omega_in - omega_fin| = {np.min(gap):.2e} too small; use a constant-frequency rotation"
        )
    if np.any(tau <= 0):
        raise ValueError(f"tau must be > 0, got {np.min(tau)}")
    s = tau / (omega_in**2 - omega_fin**2)
    cube = np.cbrt(s)
    s23 = cube * cube
    t = np.asarray(t, dtype=float)
    omega_sq_t = omega_in**2 + (omega_fin**2 - omega_in**2) * t / tau
    w = -(omega_in**2) * s23
    z = -omega_sq_t * s23
    # imported here, not at module level: only Airy sweeps need scipy.special, a slow import
    from scipy.special import airy
    ai_z, aip_z, bi_z, bip_z = airy(z)
    ai_w, aip_w, bi_w, bip_w = airy(w)
    x = -math.pi * cube * (ai_z * bi_w - ai_w * bi_z)
    y = -math.pi * (bi_z * aip_w - ai_z * bip_w)
    xdot = -math.pi * (aip_z * bi_w - ai_w * bip_z)
    ydot = -math.pi * (bip_z * aip_w - aip_z * bip_w) / cube
    return x, y, xdot, ydot


def ramp_phase_integral(omega_in, omega_fin, tau):
    """Accumulated phase integral(0..tau) omega(t) dt of the sweep, in closed form.

    Equals (2/3) tau (omega_in^2 + omega_in omega_fin + omega_fin^2)
    / (omega_in + omega_fin).
    """
    return (2.0 / 3.0) * tau * (omega_in**2 + omega_in * omega_fin + omega_fin**2) / (omega_in + omega_fin)


def _place_block(out: np.ndarray, mode: int, m00, m01, m10, m11) -> None:
    """Write one mode's 2x2 (x_i, p_i) block into a (..., 6, 6) stack."""
    out[..., mode, mode] = m00
    out[..., mode, mode + 3] = m01
    out[..., mode + 3, mode] = m10
    out[..., mode + 3, mode + 3] = m11


def _place_free(out: np.ndarray, mode: int, omega, t) -> None:
    c, s = np.cos(omega * t), np.sin(omega * t)
    _place_block(out, mode, c, s / omega, -omega * s, c)


def harmonic_propagator(omegas: tuple[float, float, float], t: float) -> SymplecticPropagator:
    """Free rotation of three uncoupled oscillators for time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    out = np.zeros((6, 6))
    for mode, w in enumerate(omegas):
        _place_free(out, mode, w, t)
    return SymplecticPropagator(out, duration=t, label="free")


def ramp_propagators(mode: RampMode, omega_in, omega_fin, tau, t, omega_hi, omega_lo) -> np.ndarray:
    """Stack of unvalidated ramp-stroke propagators, shape broadcast(args) + (6, 6).

    The middle oscillator is swept from omega_in to omega_fin over tau and
    the outer ones rotate freely at omega_hi (hot) and omega_lo (cold); t is
    the time into the stroke.  Every argument may be an array, one entry per
    engine or per instant.  A sudden ramp is the identity, and the
    quasi-static map exists only at t = tau.  A finite-time sweep whose
    endpoints agree to DEGENERATE_OMEGA_TOL is a constant-frequency rotation
    at omega_in, entry by entry.
    """
    args = [np.asarray(v, dtype=float) for v in (omega_in, omega_fin, tau, t, omega_hi, omega_lo)]
    omega_in, omega_fin, tau, t, omega_hi, omega_lo = args
    out = np.zeros(np.broadcast(*args).shape + (6, 6))
    if mode is RampMode.SUDDEN:
        out[...] = np.eye(6)
        return out
    if mode is RampMode.QUASI_STATIC:
        if np.any(t != tau):
            raise ValueError("the quasi-static map is defined only at the full stroke duration")
        phi = ramp_phase_integral(omega_in, omega_fin, tau)
        root, prod = np.sqrt(omega_in / omega_fin), np.sqrt(omega_in * omega_fin)
        c, s = np.cos(phi), np.sin(phi)
        _place_block(out, 1, root * c, s / prod, -prod * s, c / root)
    else:
        omega_in, omega_fin, tau, t = np.broadcast_arrays(omega_in, omega_fin, tau, t)
        degenerate = np.abs(omega_in - omega_fin) < DEGENERATE_OMEGA_TOL
        _place_free(out, 1, omega_in, t)
        if not np.all(degenerate):
            sweep = ~degenerate
            x, y, xd, yd = ramp_xy(omega_in[sweep], omega_fin[sweep], tau[sweep], t[sweep])
            mid = out[sweep]
            _place_block(mid, 1, y, x, yd, xd)
            out[sweep] = mid
    _place_free(out, 0, omega_hi, t)
    _place_free(out, 2, omega_lo, t)
    return out


def _spectators(schedule: RampSchedule, omega1: float | None,
                omega3: float | None) -> tuple[float, float]:
    """Spectator frequencies of a ramp stroke: omega1 and omega3 if given,
    else the hot oscillator at the larger sweep end and the cold one at the
    smaller."""
    return (max(schedule.omega_in, schedule.omega_fin) if omega1 is None else omega1,
            min(schedule.omega_in, schedule.omega_fin) if omega3 is None else omega3)


def ramp_propagator(schedule: RampSchedule, *, spectator_omega1: float | None = None,
                    spectator_omega3: float | None = None,
                    t: float | None = None) -> SymplecticPropagator:
    """Propagator of a ramp stroke: middle oscillator swept, outer ones free.

    Spectator frequencies default to the sweep endpoints (the hot oscillator
    at the larger, the cold one at the smaller), which is always the case in
    the engine.  `t` selects an interior time of the stroke; it defaults to
    the full duration and must equal it for the idealised quasi-static map,
    which is an endpoint-only construction.
    """
    w_hi, w_lo = _spectators(schedule, spectator_omega1, spectator_omega3)
    if t is None:
        t = schedule.tau
    if t < 0 or t > schedule.tau:
        raise ValueError(f"t must lie in [0, tau], got {t}")
    mat = ramp_propagators(schedule.mode, schedule.omega_in, schedule.omega_fin, schedule.tau,
                           t, w_hi, w_lo)
    duration = 0.0 if schedule.mode is RampMode.SUDDEN else t
    return SymplecticPropagator(mat, duration=duration, label=f"ramp-{schedule.mode.value}")


def ramp_propagators_at(schedule: RampSchedule, times: np.ndarray, *,
                        spectator_omega1: float | None = None,
                        spectator_omega3: float | None = None) -> np.ndarray:
    """Stack of finite-time ramp propagators at interior times, (len(times), 6, 6).

    Only the swept mode has interior maps; the sudden quench has no interior
    and the quasi-static map exists at the endpoint alone.
    """
    if schedule.mode is not RampMode.LINEAR_AIRY:
        raise ValueError("interior ramp maps exist only for the finite-time sweep")
    w_hi, w_lo = _spectators(schedule, spectator_omega1, spectator_omega3)
    return ramp_propagators(RampMode.LINEAR_AIRY, schedule.omega_in, schedule.omega_fin,
                            schedule.tau, np.asarray(times, dtype=float).reshape(-1), w_hi, w_lo)


def ode_propagator(schedule: RampSchedule, tol: float = 1e-11, *,
                   spectator_omega1: float | None = None,
                   spectator_omega3: float | None = None) -> SymplecticPropagator:
    """Ramp propagator from direct integration of dS/dt = A(t) S.

    This is the package's independent oracle for the Airy closed form: an
    adaptive eighth-order Dormand-Prince solve of the same linear system.
    Symplecticity is checked afterwards (never projected) and must hold to
    10*tol.
    """
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol}")
    w_hi, w_lo = _spectators(schedule, spectator_omega1, spectator_omega3)
    if schedule.mode is RampMode.SUDDEN:
        return SymplecticPropagator(np.eye(6), duration=0.0, label="ramp-ode")

    def rhs(t: float, flat: np.ndarray) -> np.ndarray:
        s = flat.reshape(6, 6)
        omega2 = np.array([w_hi**2, schedule.omega_sq(t), w_lo**2])
        ds = np.empty_like(s)
        ds[:3] = s[3:]
        ds[3:] = -omega2[:, None] * s[:3]
        return ds.reshape(-1)

    # imported here, not at module level: only this cross-check needs scipy.integrate, a slow import
    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (0.0, schedule.tau), np.eye(6).reshape(-1), method="DOP853",
                    rtol=tol, atol=tol * 1e-3, dense_output=False)
    if not sol.success:
        raise IntegrationError(f"propagator integration failed: {sol.message}")
    mat = sol.y[:, -1].reshape(6, 6)
    defect = float(_symplectic_defect(mat))
    if not defect <= 10.0 * tol:
        raise IntegrationError(f"integrated propagator defect {defect:.3e} exceeds "
                               f"10*tol = {10 * tol:.1e}")
    return SymplecticPropagator(mat, duration=schedule.tau, label="ramp-ode")
