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
independent cross-check for the closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import airy

from .errors import DegenerateRampError, IntegrationError, SymplecticityError
from .states import symplectic_form

SYMPLECTIC_TOL = 1e-10
DEGENERATE_OMEGA_TOL = 1e-9

_OMEGA6 = symplectic_form(3)


def _check_symplectic(mat: np.ndarray, tol: float = SYMPLECTIC_TOL) -> float:
    defect = float(np.max(np.abs(mat @ _OMEGA6 @ mat.T - _OMEGA6)))
    if not defect <= tol:
        raise SymplecticityError(f"propagator defect |S Omega S^T - Omega| = {defect:.3e} > {tol:.1e}")
    return defect


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
        out = self.matrix @ sigma @ self.matrix.T
        return 0.5 * (out + out.T)


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
        if self.omega_in <= 0 or self.omega_fin <= 0:
            raise ValueError(f"ramp frequencies must be > 0, got {self.omega_in}, {self.omega_fin}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.mode is RampMode.SUDDEN and self.tau != 0.0:
            raise ValueError("a sudden ramp has zero duration; set tau = 0")
        if self.mode is not RampMode.SUDDEN and self.tau == 0.0:
            raise ValueError("a finite-time ramp needs tau > 0")

    def omega_sq(self, t: "float | np.ndarray") -> "float | np.ndarray":
        return self.omega_in**2 + (self.omega_fin**2 - self.omega_in**2) * np.asarray(t) / self.tau


def coupling_matrix_generator(alpha: float, omega: float, omega_spec: float,
                              pair: tuple[int, int], spectator: int) -> np.ndarray:
    """Quadratic-form Hamiltonian matrix h of the resonant coupling stroke.

    H = sum_i (p_i^2/2 + omega_i^2 x_i^2/2) + alpha (omega x_a x_b + p_a p_b / omega)
    written as H = R^T h R / 2; the equations of motion use A = Omega h.
    """
    a, b = pair
    hx = np.zeros((3, 3))
    hp = np.zeros((3, 3))
    hx[a, a] = hx[b, b] = omega**2
    hx[spectator, spectator] = omega_spec**2
    hp[a, a] = hp[b, b] = hp[spectator, spectator] = 1.0
    hx[a, b] = hx[b, a] = alpha * omega
    hp[a, b] = hp[b, a] = alpha / omega
    return np.block([[hx, np.zeros((3, 3))], [np.zeros((3, 3)), hp]])


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


def coupling_propagators_at(alpha: float, omega: float, omega_spec: float,
                            times: np.ndarray, side: CouplingSide) -> np.ndarray:
    """Stack of coupling propagators at the given times, shape (len(times), 6, 6)."""
    (a, b), k = _PAIR_OF[side]
    t = np.asarray(times, dtype=float)
    ca, sa = np.cos(alpha * t), np.sin(alpha * t)
    cw, sw = np.cos(omega * t), np.sin(omega * t)
    cc, ss, cs, sc = ca * cw, sa * sw, ca * sw, sa * cw
    ck, sk = np.cos(omega_spec * t), np.sin(omega_spec * t)
    out = np.zeros((t.size, 6, 6))
    for i, j, val in (
        (a, a, cc), (a, b, -ss), (b, a, -ss), (b, b, cc),
        (a, a + 3, cs / omega), (a, b + 3, sc / omega),
        (b, a + 3, sc / omega), (b, b + 3, cs / omega),
        (a + 3, a, -omega * cs), (a + 3, b, -omega * sc),
        (b + 3, a, -omega * sc), (b + 3, b, -omega * cs),
        (a + 3, a + 3, cc), (a + 3, b + 3, -ss), (b + 3, a + 3, -ss), (b + 3, b + 3, cc),
        (k, k, ck), (k, k + 3, sk / omega_spec), (k + 3, k, -omega_spec * sk), (k + 3, k + 3, ck),
    ):
        out[:, i, j] = val
    return out


def ramp_xy(omega_in: float, omega_fin: float, tau: float,
            t: "float | np.ndarray") -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fundamental solutions of xddot = -omega^2(t) x on the linear-omega^2 sweep.

    Returns (x, y, xdot, ydot) with x(0) = 0, xdot(0) = 1, y(0) = 1,
    ydot(0) = 0.  Both are Airy-function combinations in the rescaled
    variable z(t) = -omega^2(t) (tau/(omega_in^2 - omega_fin^2))^{2/3};
    the Wronskian xdot*y - x*ydot stays exactly 1.
    """
    dsq = omega_in**2 - omega_fin**2
    if abs(omega_in - omega_fin) < DEGENERATE_OMEGA_TOL:
        raise DegenerateRampError(
            f"|omega_in - omega_fin| = {abs(omega_in - omega_fin):.2e} too small; use a constant-frequency rotation"
        )
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    s = tau / dsq
    cube = math.copysign(abs(s) ** (1.0 / 3.0), s)
    s23 = cube * cube
    t = np.asarray(t, dtype=float)
    omega_sq_t = omega_in**2 + (omega_fin**2 - omega_in**2) * t / tau
    w = -(omega_in**2) * s23
    z = -omega_sq_t * s23
    ai_z, aip_z, bi_z, bip_z = airy(z)
    ai_w, aip_w, bi_w, bip_w = airy(w)
    x = -math.pi * cube * (ai_z * bi_w - ai_w * bi_z)
    y = -math.pi * (bi_z * aip_w - ai_z * bip_w)
    xdot = -math.pi * (aip_z * bi_w - ai_w * bip_z)
    ydot = -math.pi * (bip_z * aip_w - aip_z * bip_w) / cube
    return x, y, xdot, ydot


def ramp_phase_integral(omega_in: float, omega_fin: float, tau: float) -> float:
    """Accumulated phase integral(0..tau) omega(t) dt of the sweep, in closed form.

    Equals (2/3) tau (omega_in^2 + omega_in omega_fin + omega_fin^2)
    / (omega_in + omega_fin).
    """
    return (2.0 / 3.0) * tau * (omega_in**2 + omega_in * omega_fin + omega_fin**2) / (omega_in + omega_fin)


def ramp_phase_variant(omega_in: float, omega_fin: float, tau: float) -> float:
    """Alternative phase grouping (2/3) tau (2 omega_fin^2 + omega_in omega_fin) / (omega_in + omega_fin).

    Kept only so the validation report can show which expression tracks the
    exact sweep; see validate_quasistatic_phase.
    """
    return (2.0 / 3.0) * tau * (2.0 * omega_fin**2 + omega_in * omega_fin) / (omega_in + omega_fin)


def _middle_block_quasistatic(omega_in: float, omega_fin: float, phi: float) -> np.ndarray:
    root = math.sqrt(omega_in / omega_fin)
    prod = math.sqrt(omega_in * omega_fin)
    return np.array([
        [root * math.cos(phi), math.sin(phi) / prod],
        [-prod * math.sin(phi), math.cos(phi) / root],
    ])


def _free_block(omega: float, t: float) -> np.ndarray:
    return np.array([
        [math.cos(omega * t), math.sin(omega * t) / omega],
        [-omega * math.sin(omega * t), math.cos(omega * t)],
    ])


def _assemble_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """Interleave per-mode 2x2 (x_i, p_i) blocks into the global 6x6 ordering."""
    out = np.zeros((6, 6))
    for i, blk in enumerate(blocks):
        out[i, i] = blk[0, 0]
        out[i, i + 3] = blk[0, 1]
        out[i + 3, i] = blk[1, 0]
        out[i + 3, i + 3] = blk[1, 1]
    return out


def harmonic_propagator(omegas: tuple[float, float, float], t: float) -> SymplecticPropagator:
    """Free rotation of three uncoupled oscillators for time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return SymplecticPropagator(
        _assemble_blocks([_free_block(w, t) for w in omegas]), duration=t, label="free"
    )


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
    w_hi = spectator_omega1 if spectator_omega1 is not None else max(schedule.omega_in, schedule.omega_fin)
    w_lo = spectator_omega3 if spectator_omega3 is not None else min(schedule.omega_in, schedule.omega_fin)
    if t is None:
        t = schedule.tau
    if t < 0 or t > schedule.tau:
        raise ValueError(f"t must lie in [0, tau], got {t}")

    if schedule.mode is RampMode.SUDDEN:
        return SymplecticPropagator(np.eye(6), duration=0.0, label="ramp-sudden")

    if schedule.mode is RampMode.QUASI_STATIC:
        if t != schedule.tau:
            raise ValueError("the quasi-static map is defined only at the full stroke duration")
        phi = ramp_phase_integral(schedule.omega_in, schedule.omega_fin, schedule.tau)
        mid = _middle_block_quasistatic(schedule.omega_in, schedule.omega_fin, phi)
        blocks = [_free_block(w_hi, schedule.tau), mid, _free_block(w_lo, schedule.tau)]
        return SymplecticPropagator(_assemble_blocks(blocks), duration=schedule.tau, label="ramp-quasistatic")

    if abs(schedule.omega_in - schedule.omega_fin) < DEGENERATE_OMEGA_TOL:
        # Degenerate sweep: constant frequency to numerical accuracy.
        return harmonic_propagator((w_hi, schedule.omega_in, w_lo), t)

    x, y, xd, yd = ramp_xy(schedule.omega_in, schedule.omega_fin, schedule.tau, t)
    mid = np.array([[float(y), float(x)], [float(yd), float(xd)]])
    blocks = [_free_block(w_hi, t), mid, _free_block(w_lo, t)]
    return SymplecticPropagator(_assemble_blocks(blocks), duration=t, label="ramp-airy")


def ramp_propagators_at(schedule: RampSchedule, times: np.ndarray, *,
                        spectator_omega1: float | None = None,
                        spectator_omega3: float | None = None) -> np.ndarray:
    """Stack of finite-time ramp propagators at interior times, (len(times), 6, 6).

    Only the swept mode has interior maps; the sudden quench has no interior
    and the quasi-static map exists at the endpoint alone.
    """
    if schedule.mode is not RampMode.LINEAR_AIRY:
        raise ValueError("interior ramp maps exist only for the finite-time sweep")
    w_hi = spectator_omega1 if spectator_omega1 is not None else max(schedule.omega_in, schedule.omega_fin)
    w_lo = spectator_omega3 if spectator_omega3 is not None else min(schedule.omega_in, schedule.omega_fin)
    t = np.asarray(times, dtype=float)
    out = np.zeros((t.size, 6, 6))
    if abs(schedule.omega_in - schedule.omega_fin) < DEGENERATE_OMEGA_TOL:
        x = np.sin(schedule.omega_in * t) / schedule.omega_in
        y = np.cos(schedule.omega_in * t)
        xd = np.cos(schedule.omega_in * t)
        yd = -schedule.omega_in * np.sin(schedule.omega_in * t)
    else:
        x, y, xd, yd = ramp_xy(schedule.omega_in, schedule.omega_fin, schedule.tau, t)
    out[:, 1, 1] = y
    out[:, 1, 4] = x
    out[:, 4, 1] = yd
    out[:, 4, 4] = xd
    for k, w in ((0, w_hi), (2, w_lo)):
        out[:, k, k] = np.cos(w * t)
        out[:, k, k + 3] = np.sin(w * t) / w
        out[:, k + 3, k] = -w * np.sin(w * t)
        out[:, k + 3, k + 3] = np.cos(w * t)
    return out


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
    w_hi = spectator_omega1 if spectator_omega1 is not None else max(schedule.omega_in, schedule.omega_fin)
    w_lo = spectator_omega3 if spectator_omega3 is not None else min(schedule.omega_in, schedule.omega_fin)
    if schedule.mode is RampMode.SUDDEN:
        return SymplecticPropagator(np.eye(6), duration=0.0, label="ramp-ode")

    win2, wfin2, tau = schedule.omega_in**2, schedule.omega_fin**2, schedule.tau

    def rhs(t: float, flat: np.ndarray) -> np.ndarray:
        s = flat.reshape(6, 6)
        omega2 = np.array([w_hi**2, win2 + (wfin2 - win2) * t / tau, w_lo**2])
        ds = np.empty_like(s)
        ds[:3] = s[3:]
        ds[3:] = -omega2[:, None] * s[:3]
        return ds.reshape(-1)

    sol = solve_ivp(rhs, (0.0, tau), np.eye(6).reshape(-1), method="DOP853",
                    rtol=tol, atol=tol * 1e-3, dense_output=False)
    if not sol.success:
        raise IntegrationError(f"propagator integration failed: {sol.message}")
    mat = sol.y[:, -1].reshape(6, 6)
    defect = float(np.max(np.abs(mat @ _OMEGA6 @ mat.T - _OMEGA6)))
    if not defect <= 10.0 * tol:
        raise IntegrationError(
            f"integrated propagator defect {defect:.3e} exceeds 10*tol = {10 * tol:.1e}"
        )
    return SymplecticPropagator(mat, duration=tau, label="ramp-ode")
