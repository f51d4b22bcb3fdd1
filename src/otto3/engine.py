"""Four-stroke engine on the three-oscillator chain.

The working medium is oscillator 2; its frequency is driven between the
cold value omega3 and the hot oscillator's omega1.  One cycle is
compression (sweep up), heating (resonant exchange with oscillator 1),
expansion (sweep down), cooling (resonant exchange with oscillator 3).
Stroke energies are read off the medium before and after each stroke with
the frequency in force at that instant:

    W1 = E2(after compression) - E2(cycle start)
    Q1 = E2(after compression) - E2(after heating)
    W2 = E2(after expansion)   - E2(after heating)
    Q2 = E2(after expansion)   - E2(cycle end)

Negative work is work produced, negative heat is heat absorbed by the
medium, and W1 + W2 - Q1 - Q2 equals the medium's energy change over the
cycle.  The engine checks that identity on every cycle it simulates.

All four stroke propagators are fixed symplectic matrices, so a whole cycle
is a single 6x6 sandwich and long runs evaluate matrix-power batches
instead of stepping stroke by stroke.  Many independent engines (a scan)
step together along an engine axis through the same cycle kernel and
stepping loop that run one Engine; no engine's numbers depend on the
others.  Pair correlations move only while a coupling stroke acts (ramps
drive each oscillator separately, and local maps cannot change a two-mode
correlation measure), so interior sampling effort goes to the coupling
strokes; ramp interiors reuse stroke-start correlation values, which is
exact rather than an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .correlations import pair_correlations
from .energetics import efficiency
from .errors import ConfigError, EnergyBalanceError, PhaseOrderError
from .propagators import (
    CouplingSide,
    RampMode,
    RampSchedule,
    _check_symplectic,
    coupling_propagators_at,
    ramp_propagators,
    ramp_propagators_at,
)
from .states import (CovarianceMatrix, Preparation, product_state, product_states,
                     validate_covariances)

FIRST_LAW_RTOL = 1e-12
DEFAULT_STROKE_SAMPLES = 20
# Cap on (cycles per batch) x (sampled points, or time-series rows, per
# cycle); keeps the batched interior-state stacks and one chunk's series
# rows bounded when sample_dt is very fine.  EngineParams refuses a
# sample_dt whose interior points per cycle exceed it.
_BATCH_POINT_BUDGET = 200_000
# Chunks double from a small first one: most scan engines stop within a few
# cycles, while each chunk carries a fixed correlation-scoring cost.
_CHUNK_START, _CHUNK_MAX = 4, 256
# Engines stepped together: one kernel call holds at most this many
# engine-cycles (times the points per cycle), which is one engine's largest
# chunk, however many engines share the call.
_STACK_CYCLES = _CHUNK_MAX
# Engines per ensemble of run_reduced_ensemble; bounds the stacked stroke
# maps and cursors of a long scan.
_ENSEMBLE_SIZE = _CHUNK_MAX


@dataclass(frozen=True)
class WorkNonNegative:
    """Stop before the first cycle whose total work is >= -eps_stop.

    That cycle is still simulated (it is the evidence for stopping); it is
    reported separately as the probe and excluded from the records, so the
    recorded cumulative work can only decrease cycle over cycle.
    """

    eps_stop: float = 0.0


@dataclass(frozen=True)
class FixedCycles:
    """Run exactly n cycles regardless of their work balance."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigError(f"cycle count must be >= 0, got {self.n}")


StopRule = Union[WorkNonNegative, FixedCycles]


def _points_within(tau: float, dt: float) -> float:
    """Length of np.arange(dt, tau, dt), computed without allocating it."""
    span = (tau - dt) / dt
    if not math.isfinite(span):
        return math.inf
    return max(0, math.ceil(span))


@dataclass(frozen=True)
class EngineParams:
    """Static description of one engine configuration.

    omega3 may be left None to inherit the preparation's value; giving both
    a value is allowed only when they agree.  tau_comp is the wall-clock
    ramp duration for the finite-time and quasi-static modes; the sudden
    quench takes no time and ignores it.  max_cycles caps open-ended runs
    under WorkNonNegative and does not limit FixedCycles.
    """

    prep: Preparation
    alpha12: float
    alpha23: float
    tau_comp: float
    tau_h: float
    tau_c: float
    ramp: RampMode = RampMode.LINEAR_AIRY
    omega3: Optional[float] = None
    stop: StopRule = WorkNonNegative()
    sample_dt: Optional[float] = None
    max_cycles: int = 10_000

    def __post_init__(self) -> None:
        if self.omega3 is not None and self.omega3 != self.prep.omega3:
            raise ConfigError(
                f"omega3={self.omega3} disagrees with the preparation's {self.prep.omega3}"
            )
        for name in ("alpha12", "alpha23", "tau_comp", "tau_h", "tau_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.ramp is not RampMode.SUDDEN and self.tau_comp <= 0:
            raise ConfigError("finite-time ramps need tau_comp > 0")
        if self.sample_dt is not None:
            if not (math.isfinite(self.sample_dt) and self.sample_dt > 0):
                raise ConfigError(f"sample_dt must be finite and > 0, got {self.sample_dt}")
            strokes = [self.tau_h, self.tau_c]
            if self.ramp is RampMode.LINEAR_AIRY:
                strokes += [self.tau_comp, self.tau_comp]
            points = sum(_points_within(tau, self.sample_dt) for tau in strokes)
            if points > _BATCH_POINT_BUDGET:
                raise ConfigError(
                    f"sample_dt={self.sample_dt} samples {points} interior points per "
                    f"cycle; at most {_BATCH_POINT_BUDGET} are allowed")
        if self.max_cycles < 1:
            raise ConfigError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if not isinstance(self.stop, (WorkNonNegative, FixedCycles)):
            raise ConfigError(f"unknown stop rule {self.stop!r}")

    @property
    def ramp_duration(self) -> float:
        """Wall-clock length of one ramp stroke."""
        return 0.0 if self.ramp is RampMode.SUDDEN else self.tau_comp

    @property
    def cycle_duration(self) -> float:
        return 2.0 * self.ramp_duration + self.tau_h + self.tau_c


@dataclass(frozen=True)
class StrokeResult:
    """Edge energies of a single stroke.

    energy_change is e2_end - e2_start: the work supplied by a ramp, or
    minus the heat taken up by the medium during a coupling stroke.
    """

    kind: str
    duration: float
    omega_start: float
    omega_end: float
    e2_start: float
    e2_end: float

    @property
    def energy_change(self) -> float:
        return self.e2_end - self.e2_start


@dataclass(frozen=True)
class CycleRecord:
    """Bookkeeping of one completed cycle.

    Mode energies are taken at cycle end; the correlation columns are maxima
    over the cycle's sampled instants.  eta is None when no stroke absorbed
    heat.  NaN correlation columns mean the run was driven with correlation
    tracking disabled.
    """

    index: int
    w1: float
    w2: float
    q1: float
    q2: float
    du: float
    w_cycle: float
    w_cum: float
    eta: Optional[float]
    e1: float
    e2: float
    e3: float
    d12_max: float
    d23_max: float
    d13_max: float
    n12_max: float
    n23_max: float
    n13_max: float


@dataclass(frozen=True)
class TimeSeries:
    """Columnar samples along a run, one row per sampled instant.

    Ramp-interior rows reuse the stroke-start pair correlations and
    spectator energies, both exactly conserved there.  A sudden ramp
    contributes two rows at the same instant, one per frequency, so the
    quench in E2 stays visible; quasi-static ramps are endpoint maps and
    contribute no interior rows.
    """

    t: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    d12: np.ndarray
    d23: np.ndarray
    d13: np.ndarray
    n12: np.ndarray
    n23: np.ndarray
    n13: np.ndarray

    COLUMNS = ("t", "E1", "E2", "E3", "D12", "D23", "D13", "N12", "N23", "N13")

    def __len__(self) -> int:
        return int(self.t.size)

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.t, self.e1, self.e2, self.e3, self.d12, self.d23,
                self.d13, self.n12, self.n23, self.n13)


@dataclass(frozen=True)
class EngineResult:
    """Everything one run produces.

    records hold the counted cycles only.  Under WorkNonNegative the
    deciding cycle appears as probe: simulated, never counted, but its
    samples still feed the run-level correlation maxima and the tail of the
    time series.  sigma_final is the state after the last counted cycle.
    """

    params: EngineParams
    records: tuple[CycleRecord, ...]
    probe: Optional[CycleRecord]
    stop_reason: str
    n_cycles: int
    w_total: float
    timeseries: Optional[TimeSeries]
    sigma_initial: CovarianceMatrix
    sigma_final: CovarianceMatrix
    discord_max: tuple[float, float, float]
    negativity_max: tuple[float, float, float]

    @property
    def covariance_distance(self) -> float:
        """Max-norm distance between the final and the initial covariance."""
        return float(np.max(np.abs(self.sigma_final.matrix - self.sigma_initial.matrix)))


def _stop_limits(params: EngineParams) -> tuple[int, float]:
    """(cycle limit, eps_stop) of a run under params.stop; -inf means no work rule."""
    if isinstance(params.stop, FixedCycles):
        return params.stop.n, -math.inf
    return params.max_cycles, params.stop.eps_stop


def _sandwich(mat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    out = mat @ sigma @ mat.T
    return 0.5 * (out + out.T)


# Batched states and maps are held matrix-element first, as (6, 6, N)
# stacks, so that every einsum's inner loop runs along the stack and not
# along a 6-long matrix row.  A sandwich is a left and a right two-operand
# product, each summing over its contracted index in a fixed order whatever
# N is (in sequence on the left; even and odd terms apart, then added, on
# the right), so no engine's numbers depend on which engines share a call.
# matmul would be faster, but its fused multiply-adds turn exact zeros (the
# heat of a zero-coupling stroke) into rounding noise.

def _sandwich_stack(mats: np.ndarray, states: np.ndarray) -> np.ndarray:
    """mats[..., n] @ states[..., n] @ mats[..., n].T for (6, 6, N) stacks."""
    x = np.einsum("abn,bcn->acn", mats, states)
    out = np.einsum("acn,dcn->adn", x[:, 0::2], mats[:, 0::2])
    out += np.einsum("acn,dcn->adn", x[:, 1::2], mats[:, 1::2])
    return out


def _by_element(stack: np.ndarray) -> np.ndarray:
    """(..., 6, 6) -> contiguous (6, 6, N), N = the product of the leading axes."""
    flat = stack.reshape(-1, 36)
    return np.ascontiguousarray(flat.T).reshape(6, 6, flat.shape[0])


def _by_matrix(stack: np.ndarray) -> np.ndarray:
    """(6, 6, ...) -> contiguous (..., 6, 6)."""
    lead = stack.shape[2:]
    return np.ascontiguousarray(stack.reshape(36, -1).T).reshape(*lead, 6, 6)


def _ramp_interior_weights(schedule: RampSchedule, times: np.ndarray,
                           w1: float, w3: float) -> np.ndarray:
    """Weights G_n with E2(t_n) = sum_ab G_n[a,b] sigma[a,b] for sweep interiors.

    The medium's interior energy needs only one row of the interior
    propagator and the instantaneous squared frequency, never the full
    evolved state.
    """
    if times.size == 0:
        return np.empty((0, 6, 6))
    mats = ramp_propagators_at(schedule, times, spectator_omega1=w1, spectator_omega3=w3)
    wsq = np.asarray(schedule.omega_sq(times), dtype=float)
    px = mats[:, 4, :]
    xx = mats[:, 1, :]
    return 0.5 * (px[:, :, None] * px[:, None, :]
                  + wsq[:, None, None] * xx[:, :, None] * xx[:, None, :])


def _interior_times(tau: float, fallback_n: int, dt: Optional[float]) -> np.ndarray:
    """Strictly interior sample instants of one stroke."""
    if tau <= 0.0 or fallback_n <= 0:
        return np.empty(0)
    if dt is None:
        return tau * np.arange(1, fallback_n + 1) / (fallback_n + 1)
    times = np.arange(dt, tau, dt)
    return times[times < tau * (1.0 - 1e-12)]


_STROKE_NAMES = ("compression", "heating", "expansion", "cooling")


class _Strokes:
    """The four stroke maps and the cycle map of E engines, each (E, 6, 6).

    Every map of every engine is checked to be symplectic when built.  ids
    name the engines in errors (default: their positions).
    """

    def __init__(self, params: Sequence[EngineParams],
                 ids: Optional[Sequence[int]] = None) -> None:
        mode = params[0].ramp
        if any(p.ramp is not mode for p in params):
            raise ValueError("the engines of one ensemble share their ramp mode")
        self.params = tuple(params)
        self.ids = range(len(params)) if ids is None else ids
        self.w1 = w1 = np.array([p.prep.omega1 for p in params])
        self.w3 = w3 = np.array([p.prep.omega3 for p in params])
        self.w1sq, self.w3sq = w1**2, w3**2
        self.alpha12 = np.array([p.alpha12 for p in params])
        self.alpha23 = np.array([p.alpha23 for p in params])
        tau = np.array([p.ramp_duration for p in params])
        self.comp, self.exp = ramp_propagators(mode, np.stack((w3, w1)), np.stack((w1, w3)),
                                               tau, tau, w1, w3)
        self.heat = coupling_propagators_at(self.alpha12, w1, w3,
                                            np.array([p.tau_h for p in params]),
                                            CouplingSide.HOT_PAIR)
        self.cool = coupling_propagators_at(self.alpha23, w3, w1,
                                            np.array([p.tau_c for p in params]),
                                            CouplingSide.COLD_PAIR)
        maps = np.stack((self.comp, self.heat, self.exp, self.cool), axis=1)
        _check_symplectic(maps.reshape(-1, 6, 6), name=lambda k: (
            f"{_STROKE_NAMES[k % 4]} map of engine {self.ids[k // 4]}"))
        self.cycle = self.cool @ self.exp @ self.heat @ self.comp
        # (6, 6, E) copies for the kernel; run_stroke reads the (E, 6, 6) maps.
        self.comp_el, self.heat_el, self.exp_el, self.cool_el = (
            np.ascontiguousarray(x) for x in _by_element(maps).reshape(6, 6, -1, 4)
            .transpose(3, 0, 1, 2))


@dataclass
class _Chunk:
    """Stage states and per-cycle energies of G engines over `count` cycles each.

    States are element-first: sig_b[:, :, g, k] is engine g's state after
    compression in its k-th cycle of the chunk.
    """

    sig_a: np.ndarray      # (6, 6, G, count + 1); entry `count` starts the next chunk
    sig_b: np.ndarray      # (6, 6, G, count)
    sig_c: np.ndarray
    sig_d: np.ndarray
    sig_e: np.ndarray
    e_a: np.ndarray        # (G, count)
    e_b: np.ndarray
    e_c: np.ndarray
    e_d: np.ndarray
    e_e: np.ndarray
    w1: np.ndarray
    q1: np.ndarray
    w2: np.ndarray
    q2: np.ndarray
    du: np.ndarray
    w_cycle: np.ndarray


def _simulate_chunk(strokes: _Strokes, idx: np.ndarray, sigma: np.ndarray, count: int,
                    first_cycle: np.ndarray) -> _Chunk:
    """The cycle kernel: evolve engines `idx` by `count` cycles from `sigma`.

    Cycle starts come from powers of each engine's cycle map applied to its
    cursor; the five stage energies of each cycle derive from one
    consistent chain of stroke sandwiches, which keeps the first-law
    residual at rounding level.  The first law is checked on every cycle.
    """
    n_eng = idx.size
    cycle = strokes.cycle[idx]
    powers = np.empty((n_eng, count + 1, 6, 6))
    powers[:, 0] = np.eye(6)
    for j in range(count):
        np.matmul(cycle, powers[:, j], out=powers[:, j + 1])
    sig_a = _sandwich_stack(_by_element(powers),
                            np.repeat(_by_element(sigma), count + 1, axis=2))
    sig_a = sig_a.reshape(6, 6, n_eng, count + 1)
    starts = sig_a[:, :, :, :count].reshape(6, 6, -1)
    states = [starts]
    for maps in (strokes.comp_el, strokes.heat_el, strokes.exp_el, strokes.cool_el):
        states.append(_sandwich_stack(np.repeat(maps[:, :, idx], count, axis=2), states[-1]))

    w1sq = np.repeat(strokes.w1sq[idx], count)
    w3sq = np.repeat(strokes.w3sq[idx], count)
    e_a, e_b, e_c, e_d, e_e = (
        (0.5 * (st[4, 4] + wsq * st[1, 1])).reshape(n_eng, count)
        for st, wsq in zip(states, (w3sq, w1sq, w1sq, w3sq, w3sq)))
    w1, q1 = e_b - e_a, e_b - e_c
    w2, q2 = e_d - e_c, e_d - e_e
    du = e_e - e_a
    w_cycle = w1 + w2

    residual = np.abs(w1 + w2 - q1 - q2 - du)
    budget = FIRST_LAW_RTOL * np.maximum(1.0, np.abs(w1) + np.abs(w2))
    bad = ~(residual <= budget)
    if bad.any():
        g, k = np.argwhere(bad)[0]
        raise EnergyBalanceError(
            f"engine {strokes.ids[idx[g]]}, cycle {first_cycle[g] + k}: first-law residual "
            f"{residual[g, k]:.3e} exceeds {budget[g, k]:.3e}"
        )
    sig_b, sig_c, sig_d, sig_e = (st.reshape(6, 6, n_eng, count) for st in states[1:])
    return _Chunk(sig_a, sig_b, sig_c, sig_d, sig_e,
                  e_a, e_b, e_c, e_d, e_e, w1, q1, w2, q2, du, w_cycle)


_RECORD_COLUMNS = ("w1", "q1", "w2", "q2", "du", "w_cycle", "e1", "e2", "e3", "neg", "disc")


@dataclass
class _Runs:
    """Per-engine outcome of the stepping loop, row e for engine e.

    columns[e] maps each record column to its values over every simulated
    cycle, probe included (w_cycle alone unless records were kept).
    """

    simulated: np.ndarray   # (E,) cycles simulated, probe included
    probe: np.ndarray       # (E,) bool: the work stop rule fired
    sigma: np.ndarray       # (E, 6, 6) cursor after the last counted cycle
    neg_max: np.ndarray     # (E, 3) run-level maxima; NaN without correlations
    disc_max: np.ndarray
    columns: list[dict[str, np.ndarray]]

    def w_total(self, e: int) -> float:
        return float(np.sum(self.columns[e]["w_cycle"][:self.simulated[e] - self.probe[e]]))


def _run_engines(strokes: _Strokes, sigma0: np.ndarray, *, totals: np.ndarray,
                 eps_stop: np.ndarray, first_cycle: np.ndarray, heat_times: np.ndarray,
                 cool_times: np.ndarray, correlations: bool, keep_records: bool,
                 series: Optional["_TimeSeriesBuilder"] = None) -> _Runs:
    """The stepping loop: run E engines in lockstep until each one stops.

    Engine e runs at most totals[e] cycles and stops before its first cycle
    with w_cycle >= -eps_stop[e] (that probe cycle is still simulated; pass
    -inf for no work rule).  Every engine follows the same chunk schedule,
    doubling from _CHUNK_START to _CHUNK_MAX and capped by
    _BATCH_POINT_BUDGET, so its numbers do not depend on the engines beside
    it.  Engines sharing a chunk size are stepped together in sub-batches
    of at most _STACK_CYCLES engine-cycles.  Correlations are scored only at
    the kept cycles' points, batched across engines.  heat_times and
    cool_times are (E, nh) and (E, nc); series, if given, receives every
    chunk of a one-engine run.
    """
    n_eng = len(strokes.params)
    if series is not None and n_eng != 1:
        raise ValueError("a time series follows exactly one engine")
    if correlations or series is not None:
        heat_mats = _by_element(coupling_propagators_at(
            strokes.alpha12[:, None], strokes.w1[:, None], strokes.w3[:, None], heat_times,
            CouplingSide.HOT_PAIR)).reshape(6, 6, *heat_times.shape)
        cool_mats = _by_element(coupling_propagators_at(
            strokes.alpha23[:, None], strokes.w3[:, None], strokes.w1[:, None], cool_times,
            CouplingSide.COLD_PAIR)).reshape(6, 6, *cool_times.shape)
    else:
        heat_mats = cool_mats = None
    nh, nc = heat_times.shape[1], cool_times.shape[1]
    # Points held per cycle: the kernel's, or the rows of a time series,
    # which add the ramp interiors.
    per_cycle = 3 + nh + nc if series is None else series.rows_per_cycle
    chunk_cap = max(1, min(_CHUNK_MAX, _BATCH_POINT_BUDGET // per_cycle))
    stack_cap = max(1, min(_STACK_CYCLES, chunk_cap))

    sigma = np.array(sigma0, dtype=float)
    simulated = np.zeros(n_eng, dtype=int)
    probe = np.zeros(n_eng, dtype=bool)
    fill = 0.0 if correlations else np.nan
    neg_max, disc_max = np.full((n_eng, 3), fill), np.full((n_eng, 3), fill)
    names = _RECORD_COLUMNS if keep_records else ("w_cycle",)
    parts: list[dict[str, list[np.ndarray]]] = [{n: [] for n in names} for _ in range(n_eng)]

    chunk_size = _CHUNK_START
    active = np.flatnonzero(totals > 0)
    while active.size:
        counts = np.minimum(min(chunk_size, chunk_cap), totals[active] - simulated[active])
        for count in sorted(set(counts.tolist())):
            same = active[counts == count]
            per_call = max(1, stack_cap // count)
            for lo in range(0, same.size, per_call):
                idx = same[lo:lo + per_call]
                _step(strokes, idx, count, sigma, simulated, probe, neg_max, disc_max,
                      parts, heat_mats, cool_mats, first_cycle, eps_stop, correlations,
                      series)
        chunk_size = min(chunk_size * 2, _CHUNK_MAX)
        active = active[~probe[active] & (simulated[active] < totals[active])]

    columns = [{name: np.concatenate(p[name]) if p[name] else
                np.empty((0, 3) if name in ("neg", "disc") else 0) for name in names}
               for p in parts]
    return _Runs(simulated, probe, sigma, neg_max, disc_max, columns)


def _interior_states(mats: np.ndarray, owner: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Interior states (6, 6, R, n) of R kept cycles: mats[:, :, owner[r], i]
    sandwiching states[:, :, r], for element-first (6, 6, E, n) maps."""
    n = mats.shape[3]
    out = _sandwich_stack(mats[:, :, owner].reshape(6, 6, -1),
                          np.repeat(states, n, axis=2))
    return out.reshape(6, 6, owner.size, n)


def _step(strokes: _Strokes, idx: np.ndarray, count: int, sigma: np.ndarray,
          simulated: np.ndarray, probe: np.ndarray, neg_max: np.ndarray,
          disc_max: np.ndarray, parts: list, heat_mats: Optional[np.ndarray],
          cool_mats: Optional[np.ndarray], first_cycle: np.ndarray, eps_stop: np.ndarray,
          correlations: bool, series: Optional["_TimeSeriesBuilder"]) -> None:
    """One chunk of `count` cycles for engines `idx`; updates the loop state in place.

    Interior states are built only for the cycles each engine keeps, and
    only when correlations or a time series read them.
    """
    chunk = _simulate_chunk(strokes, idx, sigma[idx], count, first_cycle[idx] + simulated[idx])
    hit = chunk.w_cycle >= -eps_stop[idx, None]
    stopped = hit.any(axis=1)
    keep = np.where(stopped, hit.argmax(axis=1), count)
    rows = keep + stopped

    heat_states = cool_states = neg = disc = None
    if heat_mats is not None:
        # Kept cycles, engine by engine, as one row axis.
        first = np.cumsum(rows) - rows
        kept = np.arange(count) < rows[:, None]
        owner = idx[np.repeat(np.arange(idx.size), rows)]
        heat_states = _interior_states(heat_mats, owner, chunk.sig_b[:, :, kept])
        cool_states = _interior_states(cool_mats, owner, chunk.sig_d[:, :, kept])
    if correlations:
        # Points per cycle: start, heating interiors, after heating, cooling
        # interiors, end.  Ramp interiors carry no new correlation values.
        pts = np.concatenate([
            chunk.sig_a[:, :, :, :count][:, :, kept][..., None],
            heat_states,
            chunk.sig_c[:, :, kept][..., None],
            cool_states,
            chunk.sig_e[:, :, kept][..., None],
        ], axis=3)
        neg, disc = pair_correlations(np.moveaxis(pts, (0, 1), (-2, -1)))
        cyc_neg, cyc_disc = neg.max(axis=1), disc.max(axis=1)
        neg_max[idx] = np.maximum(neg_max[idx], np.maximum.reduceat(cyc_neg, first, axis=0))
        disc_max[idx] = np.maximum(disc_max[idx], np.maximum.reduceat(cyc_disc, first, axis=0))

    for g, e in enumerate(idx):
        m = int(rows[g])
        cols = parts[e]
        cols["w_cycle"].append(chunk.w_cycle[g, :m])
        if "w1" in cols:
            for name in ("w1", "q1", "w2", "q2", "du"):
                cols[name].append(getattr(chunk, name)[g, :m])
            ends = chunk.sig_e[:, :, g, :m]
            cols["e1"].append(0.5 * (ends[3, 3] + strokes.w1sq[e] * ends[0, 0]))
            cols["e2"].append(chunk.e_e[g, :m])
            cols["e3"].append(0.5 * (ends[5, 5] + strokes.w3sq[e] * ends[2, 2]))
            if correlations:
                cols["neg"].append(cyc_neg[first[g]:first[g] + m])
                cols["disc"].append(cyc_disc[first[g]:first[g] + m])
            else:
                cols["neg"].append(np.full((m, 3), np.nan))
                cols["disc"].append(np.full((m, 3), np.nan))
    if series is not None:
        series.add_chunk(chunk, int(rows[0]), heat_states, cool_states, neg, disc)

    final = _by_matrix(chunk.sig_a[:, :, np.arange(idx.size), keep])
    sigma[idx] = 0.5 * (final + np.swapaxes(final, -1, -2))
    simulated[idx] += rows
    probe[idx] = stopped


class Engine:
    """Stateful driver holding the covariance state, phase and clocks.

    The phase is the medium's current frequency slot, "low" (omega3) or
    "high" (omega1); strokes check it instead of trusting call order, so a
    heating stroke cannot act on an uncompressed medium.  Whole runs go
    through the same cycle kernel and stepping loop as an ensemble of
    engines, here an ensemble of one.
    """

    def __init__(self, params: EngineParams) -> None:
        self.params = params
        self._w1 = params.prep.omega1
        self._w3 = params.prep.omega3
        self._strokes = _Strokes([params])
        self.sigma_initial = product_state(params.prep)
        self._sigma = np.array(self.sigma_initial.matrix)
        self._phase = "low"
        self._t = 0.0
        self._cycle = 0
        self._w_cum = 0.0

    @property
    def sigma(self) -> CovarianceMatrix:
        return CovarianceMatrix(self._sigma.copy())

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def time(self) -> float:
        return self._t

    @property
    def cycles_run(self) -> int:
        return self._cycle

    # -- stroke-level interface -------------------------------------------

    def run_stroke(self, kind: str) -> StrokeResult:
        """Advance by one named stroke and return its edge energies.

        Ramps require the matching phase and flip it; coupling strokes keep
        it.  A sudden compression changes e2 without touching the state,
        because the energy is re-evaluated at the new frequency.
        """
        maps = self._strokes
        table = {
            "compression": (maps.comp[0], self.params.ramp_duration,
                            self._w3, self._w1, "low", "high"),
            "heating": (maps.heat[0], self.params.tau_h,
                        self._w1, self._w1, "high", "high"),
            "expansion": (maps.exp[0], self.params.ramp_duration,
                          self._w1, self._w3, "high", "low"),
            "cooling": (maps.cool[0], self.params.tau_c,
                        self._w3, self._w3, "low", "low"),
        }
        if kind not in table:
            raise ValueError(f"unknown stroke kind {kind!r}")
        mat, duration, w_start, w_end, needed, after = table[kind]
        if self._phase != needed:
            raise PhaseOrderError(
                f"{kind} needs the medium at "
                f"{'omega3' if needed == 'low' else 'omega1'} but the engine is "
                f"in the {self._phase!r} phase"
            )
        e_start = 0.5 * (self._sigma[4, 4] + w_start**2 * self._sigma[1, 1])
        self._sigma = _sandwich(mat, self._sigma)
        e_end = 0.5 * (self._sigma[4, 4] + w_end**2 * self._sigma[1, 1])
        self._phase = after
        self._t += duration
        return StrokeResult(kind, duration, w_start, w_end, e_start, e_end)

    # -- whole runs ----------------------------------------------------------

    def run(self, *, want_timeseries: bool = True, correlations: bool = True,
            keep_records: bool = True, heat_samples: Optional[int] = None,
            cool_samples: Optional[int] = None) -> EngineResult:
        """Repeat cycles from the current state until the stop rule fires.

        heat_samples and cool_samples override the interior sample count of
        the coupling strokes (sample_dt, when set, wins).  correlations=False
        reduces the run to pure energy bookkeeping, the fastest mode, leaving
        NaN in every correlation field.
        """
        if self._phase != "low":
            raise PhaseOrderError("a run must start with the medium at omega3")
        return self._advance(*_stop_limits(self.params), want_timeseries, correlations,
                             keep_records, heat_samples, cool_samples)

    def run_cycle(self) -> CycleRecord:
        """Execute one full cycle from the current state and record it.

        Unlike a run, a single cycle is always counted, whatever its work
        balance.
        """
        if self._phase != "low":
            raise PhaseOrderError("a cycle must start with the medium at omega3")
        return self._advance(1, -math.inf, False, True, True, None, None).records[0]

    def _advance(self, total: int, eps_stop: float, want_timeseries: bool,
                 correlations: bool, keep_records: bool, heat_samples: Optional[int],
                 cool_samples: Optional[int]) -> EngineResult:
        params = self.params
        heat_times = _interior_times(
            params.tau_h, DEFAULT_STROKE_SAMPLES if heat_samples is None else heat_samples,
            params.sample_dt)
        cool_times = _interior_times(
            params.tau_c, DEFAULT_STROKE_SAMPLES if cool_samples is None else cool_samples,
            params.sample_dt)
        ts = _TimeSeriesBuilder(self, heat_times, cool_times) if want_timeseries else None
        runs = _run_engines(
            self._strokes, self._sigma[None], totals=np.array([total]),
            eps_stop=np.array([eps_stop]), first_cycle=np.array([self._cycle]),
            heat_times=heat_times[None], cool_times=cool_times[None],
            correlations=correlations, keep_records=keep_records, series=ts)

        simulated = int(runs.simulated[0])
        probe_seen = bool(runs.probe[0])
        n_counted = simulated - int(probe_seen)
        cycle_start_index = self._cycle
        self._sigma = runs.sigma[0]
        self._cycle += n_counted
        self._t += n_counted * params.cycle_duration

        if probe_seen:
            stop_reason = "work_non_negative"
        elif isinstance(params.stop, FixedCycles):
            stop_reason = "fixed_cycles"
        else:
            stop_reason = "cycle_cap"

        flat = runs.columns[0]
        records: list[CycleRecord] = []
        probe: Optional[CycleRecord] = None
        if keep_records:
            w_cum = self._w_cum
            for i in range(simulated):
                w_cum += float(flat["w_cycle"][i])
                record = CycleRecord(
                    index=cycle_start_index + i,
                    w1=float(flat["w1"][i]), w2=float(flat["w2"][i]),
                    q1=float(flat["q1"][i]), q2=float(flat["q2"][i]),
                    du=float(flat["du"][i]),
                    w_cycle=float(flat["w_cycle"][i]), w_cum=w_cum,
                    eta=efficiency(float(flat["w_cycle"][i]), float(flat["du"][i]),
                                   float(flat["q1"][i]), float(flat["q2"][i])).value,
                    e1=float(flat["e1"][i]), e2=float(flat["e2"][i]),
                    e3=float(flat["e3"][i]),
                    d12_max=float(flat["disc"][i, 0]), d23_max=float(flat["disc"][i, 1]),
                    d13_max=float(flat["disc"][i, 2]),
                    n12_max=float(flat["neg"][i, 0]), n23_max=float(flat["neg"][i, 1]),
                    n13_max=float(flat["neg"][i, 2]),
                )
                if probe_seen and i == simulated - 1:
                    probe = record
                else:
                    records.append(record)

        w_total = runs.w_total(0)
        self._w_cum += w_total
        run_neg, run_disc = runs.neg_max[0], runs.disc_max[0]

        return EngineResult(
            params=params,
            records=tuple(records),
            probe=probe,
            stop_reason=stop_reason,
            n_cycles=n_counted,
            w_total=w_total,
            timeseries=ts.finish() if ts is not None else None,
            sigma_initial=self.sigma_initial,
            sigma_final=CovarianceMatrix(self._sigma.copy()),
            discord_max=(float(run_disc[0]), float(run_disc[1]), float(run_disc[2])),
            negativity_max=(float(run_neg[0]), float(run_neg[1]), float(run_neg[2])),
        )


class _TimeSeriesBuilder:
    """Accumulates time-series rows chunk by chunk.

    Row layout per cycle: cycle start, compression interiors, after
    compression, heating interiors, after heating, expansion interiors,
    after expansion, cooling interiors.  The closing edge of a cycle is the
    next cycle's first row; finish() appends the one of the last simulated
    cycle.
    """

    def __init__(self, engine: Engine, heat_times: np.ndarray,
                 cool_times: np.ndarray) -> None:
        params = engine.params
        w1, w3 = engine._w1, engine._w3
        self._engine = engine
        self._w1sq = w1**2
        self._w3sq = w3**2
        self._cycle_duration = params.cycle_duration
        self._t0 = engine._t
        self._cycles_added = 0
        if params.ramp is RampMode.LINEAR_AIRY:
            ramp_times = _interior_times(params.tau_comp, DEFAULT_STROKE_SAMPLES,
                                         params.sample_dt)
            self._comp_weights = _ramp_interior_weights(
                RampSchedule(w3, w1, params.tau_comp, params.ramp), ramp_times, w1, w3)
            self._exp_weights = _ramp_interior_weights(
                RampSchedule(w1, w3, params.tau_comp, params.ramp), ramp_times, w1, w3)
        else:
            ramp_times = np.empty(0)
            self._comp_weights = self._exp_weights = np.empty((0, 6, 6))
        nr, nh, nc = ramp_times.size, heat_times.size, cool_times.size
        self._nh, self._nc = nh, nc
        tau_r = params.ramp_duration
        self._i_a = 0
        self._s_comp = slice(1, 1 + nr)
        self._i_b = 1 + nr
        self._s_heat = slice(self._i_b + 1, self._i_b + 1 + nh)
        self._i_c = self._i_b + 1 + nh
        self._s_exp = slice(self._i_c + 1, self._i_c + 1 + nr)
        self._i_d = self._i_c + 1 + nr
        self._s_cool = slice(self._i_d + 1, self._i_d + 1 + nc)
        self.rows_per_cycle = self._i_d + 1 + nc
        offsets = np.empty(self.rows_per_cycle)
        offsets[self._i_a] = 0.0
        offsets[self._s_comp] = ramp_times
        offsets[self._i_b] = tau_r
        offsets[self._s_heat] = tau_r + heat_times
        offsets[self._i_c] = tau_r + params.tau_h
        offsets[self._s_exp] = tau_r + params.tau_h + ramp_times
        offsets[self._i_d] = 2.0 * tau_r + params.tau_h
        offsets[self._s_cool] = 2.0 * tau_r + params.tau_h + cool_times
        self._offsets = offsets
        self._parts: dict[str, list[np.ndarray]] = {
            name: [] for name in ("t", "e1", "e2", "e3", "neg", "disc")}
        self._closing: Optional[tuple] = None

    def _mode_energies(self, states: np.ndarray) -> tuple[np.ndarray, ...]:
        e1 = 0.5 * (states[..., 3, 3] + self._w1sq * states[..., 0, 0])
        e3 = 0.5 * (states[..., 5, 5] + self._w3sq * states[..., 2, 2])
        return e1, e3

    def add_chunk(self, chunk: _Chunk, rows: int, heat_states: np.ndarray,
                  cool_states: np.ndarray, neg: Optional[np.ndarray],
                  disc: Optional[np.ndarray]) -> None:
        """Rows of the engine's first `rows` cycles of a one-engine chunk.

        heat_states and cool_states hold those cycles' interior states,
        (6, 6, rows, n); neg and disc their scored points, (rows, points,
        3), or None without correlations.
        """
        g, m, length = 0, rows, self.rows_per_cycle
        t_start = self._t0 + self._cycles_added * self._cycle_duration
        self._cycles_added += m
        sig_a, sig_b, sig_c, sig_d = (_by_matrix(st[:, :, g, :m]) for st in (
            chunk.sig_a, chunk.sig_b, chunk.sig_c, chunk.sig_d))
        e1 = np.empty((m, length))
        e2 = np.empty((m, length))
        e3 = np.empty((m, length))

        e1_a, e3_a = self._mode_energies(sig_a)
        e1_c, e3_c = self._mode_energies(sig_c)
        e1[:, self._i_a], e2[:, self._i_a], e3[:, self._i_a] = e1_a, chunk.e_a[g, :m], e3_a
        e1[:, self._s_comp] = e1_a[:, None]
        e3[:, self._s_comp] = e3_a[:, None]
        e2[:, self._s_comp] = np.einsum("nab,kab->kn", self._comp_weights, sig_a)
        e1_b, e3_b = self._mode_energies(sig_b)
        e1[:, self._i_b], e2[:, self._i_b], e3[:, self._i_b] = e1_b, chunk.e_b[g, :m], e3_b
        hs = _by_matrix(heat_states)
        e1_h, e3_h = self._mode_energies(hs)
        e1[:, self._s_heat] = e1_h
        e2[:, self._s_heat] = 0.5 * (hs[..., 4, 4] + self._w1sq * hs[..., 1, 1])
        e3[:, self._s_heat] = e3_h
        e1[:, self._i_c], e2[:, self._i_c], e3[:, self._i_c] = e1_c, chunk.e_c[g, :m], e3_c
        e1[:, self._s_exp] = e1_c[:, None]
        e3[:, self._s_exp] = e3_c[:, None]
        e2[:, self._s_exp] = np.einsum("nab,kab->kn", self._exp_weights, sig_c)
        e1_d, e3_d = self._mode_energies(sig_d)
        e1[:, self._i_d], e2[:, self._i_d], e3[:, self._i_d] = e1_d, chunk.e_d[g, :m], e3_d
        cs = _by_matrix(cool_states)
        e1_k, e3_k = self._mode_energies(cs)
        e1[:, self._s_cool] = e1_k
        e2[:, self._s_cool] = 0.5 * (cs[..., 4, 4] + self._w3sq * cs[..., 1, 1])
        e3[:, self._s_cool] = e3_k

        nh = self._nh
        corr_rows = {}
        for name, src in (("neg", neg), ("disc", disc)):
            out = np.empty((m, length, 3))
            if src is None:
                out.fill(np.nan)
            else:
                point_a = src[:, 0]
                point_c = src[:, 1 + nh]
                out[:, self._i_a] = point_a
                out[:, self._s_comp] = point_a[:, None]
                out[:, self._i_b] = point_a
                out[:, self._s_heat] = src[:, 1:1 + nh]
                out[:, self._i_c] = point_c
                out[:, self._s_exp] = point_c[:, None]
                out[:, self._i_d] = point_c
                out[:, self._s_cool] = src[:, 2 + nh:2 + nh + self._nc]
            corr_rows[name] = out

        t = t_start + self._cycle_duration * np.arange(m)[:, None] + self._offsets[None, :]
        self._parts["t"].append(t.reshape(-1))
        self._parts["e1"].append(e1.reshape(-1))
        self._parts["e2"].append(e2.reshape(-1))
        self._parts["e3"].append(e3.reshape(-1))
        self._parts["neg"].append(corr_rows["neg"].reshape(-1, 3))
        self._parts["disc"].append(corr_rows["disc"].reshape(-1, 3))

        last = _by_matrix(chunk.sig_e[:, :, g, m - 1])
        e1_e, e3_e = self._mode_energies(last[None])
        self._closing = (
            t_start + m * self._cycle_duration,
            float(e1_e[0]), float(chunk.e_e[g, m - 1]), float(e3_e[0]),
            neg[m - 1, -1].copy() if neg is not None else np.full(3, np.nan),
            disc[m - 1, -1].copy() if disc is not None else np.full(3, np.nan),
        )

    def finish(self) -> TimeSeries:
        if self._closing is None:
            # Nothing simulated: a single row for the current state.
            engine = self._engine
            sig = engine._sigma
            e1, e3 = self._mode_energies(sig[None])
            neg, disc = pair_correlations(sig)
            return TimeSeries(
                t=np.array([engine._t]),
                e1=np.array([float(e1[0])]),
                e2=np.array([0.5 * (sig[4, 4] + self._w3sq * sig[1, 1])]),
                e3=np.array([float(e3[0])]),
                d12=np.array([disc[0]]), d23=np.array([disc[1]]), d13=np.array([disc[2]]),
                n12=np.array([neg[0]]), n23=np.array([neg[1]]), n13=np.array([neg[2]]),
            )
        t_end, e1_end, e2_end, e3_end, neg_end, disc_end = self._closing
        self._parts["t"].append(np.array([t_end]))
        self._parts["e1"].append(np.array([e1_end]))
        self._parts["e2"].append(np.array([e2_end]))
        self._parts["e3"].append(np.array([e3_end]))
        self._parts["neg"].append(neg_end[None])
        self._parts["disc"].append(disc_end[None])
        t = np.concatenate(self._parts["t"])
        e1 = np.concatenate(self._parts["e1"])
        e2 = np.concatenate(self._parts["e2"])
        e3 = np.concatenate(self._parts["e3"])
        neg = np.concatenate(self._parts["neg"])
        disc = np.concatenate(self._parts["disc"])
        return TimeSeries(t=t, e1=e1, e2=e2, e3=e3,
                          d12=disc[:, 0], d23=disc[:, 1], d13=disc[:, 2],
                          n12=neg[:, 0], n23=neg[:, 1], n13=neg[:, 2])


def run_engine(params: EngineParams, *, want_timeseries: bool = True) -> EngineResult:
    """Run a fresh engine to its stop rule with full tracking."""
    return Engine(params).run(want_timeseries=want_timeseries)


def run_reduced(params: EngineParams, *, correlations: bool = True,
                heat_samples: int = 4, cool_samples: int = 2) -> EngineResult:
    """Run a fresh engine with sparse correlation sampling and no records.

    Intended for parameter scans and optimization loops: totals, cycle
    count and run-level correlation maxima survive; per-cycle records and
    the time series are dropped.
    """
    return Engine(params).run(
        want_timeseries=False, correlations=correlations, keep_records=False,
        heat_samples=heat_samples, cool_samples=cool_samples)


@dataclass(frozen=True)
class EnsembleTotals:
    """What run_reduced keeps of each engine of an ensemble; row e is params[e]."""

    n_cycles: np.ndarray        # (E,) counted cycles
    w_total: np.ndarray         # (E,)
    discord_max: np.ndarray     # (E, 3) pairs (1,2), (2,3), (1,3)
    negativity_max: np.ndarray  # (E, 3)


def run_reduced_ensemble(params: Sequence[EngineParams], *, heat_samples: int = 4,
                         cool_samples: int = 2) -> EnsembleTotals:
    """run_reduced for many engines at once, stepped together in lockstep.

    Every engine gets exactly the numbers run_reduced gives it alone: the
    engines share one cycle kernel and stepping loop, never their
    arithmetic.  Engines are taken _ENSEMBLE_SIZE at a time.  Every initial
    and final state is checked for physicality once; errors name engines by
    their position in `params`.
    """
    n_eng = len(params)
    sigma0 = validate_covariances(product_states([p.prep for p in params]))
    final = np.empty_like(sigma0)
    n_cycles = np.zeros(n_eng, dtype=int)
    w_total = np.zeros(n_eng)
    disc_max = np.zeros((n_eng, 3))
    neg_max = np.zeros((n_eng, 3))
    for lo in range(0, n_eng, _ENSEMBLE_SIZE):
        block = range(lo, min(lo + _ENSEMBLE_SIZE, n_eng))
        heat = {e: _interior_times(params[e].tau_h, heat_samples, params[e].sample_dt)
                for e in block}
        cool = {e: _interior_times(params[e].tau_c, cool_samples, params[e].sample_dt)
                for e in block}
        # Engines with the same ramp mode and interior point counts share stacks.
        cohorts: dict[tuple, list[int]] = {}
        for e in block:
            cohorts.setdefault((params[e].ramp, heat[e].size, cool[e].size), []).append(e)
        for rows in cohorts.values():
            group = [params[e] for e in rows]
            limits = [_stop_limits(p) for p in group]
            runs = _run_engines(
                _Strokes(group, ids=rows), sigma0[rows],
                totals=np.array([total for total, _ in limits]),
                eps_stop=np.array([eps for _, eps in limits]),
                first_cycle=np.zeros(len(group), dtype=int),
                heat_times=np.stack([heat[e] for e in rows]),
                cool_times=np.stack([cool[e] for e in rows]),
                correlations=True, keep_records=False)
            final[rows] = runs.sigma
            n_cycles[rows] = runs.simulated - runs.probe
            w_total[rows] = [runs.w_total(k) for k in range(len(rows))]
            disc_max[rows] = runs.disc_max
            neg_max[rows] = runs.neg_max
    validate_covariances(final)
    return EnsembleTotals(n_cycles, w_total, disc_max, neg_max)
