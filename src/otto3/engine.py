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
instead of stepping stroke by stroke.  Pair correlations move only while a
coupling stroke acts (ramps drive each oscillator separately, and local
maps cannot change a two-mode correlation measure), so interior sampling
effort goes to the coupling strokes; ramp interiors reuse stroke-start
correlation values, which is exact rather than an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .correlations import pair_correlations
from .energetics import efficiency
from .errors import ConfigError, EnergyBalanceError, PhaseOrderError
from .propagators import (
    CouplingSide,
    RampMode,
    RampSchedule,
    coupling_propagator,
    coupling_propagators_at,
    ramp_propagator,
    ramp_propagators_at,
)
from .states import CovarianceMatrix, Preparation, product_state

FIRST_LAW_RTOL = 1e-12
DEFAULT_STROKE_SAMPLES = 20
# Cap on (cycles per batch) x (sampled points per cycle); keeps the batched
# interior-state stacks bounded when sample_dt is very fine.
_BATCH_POINT_BUDGET = 200_000
# Chunks double from a small first one: most scan engines stop within a few
# cycles, while each chunk carries a fixed correlation-scoring cost.
_CHUNK_START, _CHUNK_MAX = 4, 256


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
        if self.sample_dt is not None and not (math.isfinite(self.sample_dt)
                                               and self.sample_dt > 0):
            raise ConfigError(f"sample_dt must be finite and > 0, got {self.sample_dt}")
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


def _sandwich(mat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    out = mat @ sigma @ mat.T
    return 0.5 * (out + out.T)


# The batched sandwiches below run as two two-operand einsums: about half the
# cost of one three-operand einsum.  matmul would be faster still, but its
# fused multiply-adds turn exact zeros (the heat of a zero-coupling stroke)
# into rounding noise; einsum keeps them exact.

def _stage_sandwich(mat: np.ndarray, states: np.ndarray) -> np.ndarray:
    """mat @ states[k] @ mat.T for a (K, 6, 6) stack of states."""
    return np.einsum("kac,dc->kad", np.einsum("ab,kbc->kac", mat, states), mat)


def _interior_sandwich(mats: np.ndarray, states: np.ndarray) -> np.ndarray:
    """mats[n] @ states[k] @ mats[n].T, shaped (K, N, 6, 6)."""
    return np.einsum("knac,ndc->knad", np.einsum("nab,kbc->knac", mats, states), mats)


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


@dataclass
class _Chunk:
    """Stage states and per-cycle energies for a batch of consecutive cycles."""

    sig_a: np.ndarray      # (count + 1, 6, 6); the extra entry starts the next batch
    sig_b: np.ndarray
    sig_c: np.ndarray
    sig_d: np.ndarray
    sig_e: np.ndarray
    heat_states: np.ndarray  # (count, nh, 6, 6)
    cool_states: np.ndarray
    e_a: np.ndarray
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


class Engine:
    """Stateful driver holding the covariance state, phase and clocks.

    The phase is the medium's current frequency slot, "low" (omega3) or
    "high" (omega1); strokes check it instead of trusting call order, so a
    heating stroke cannot act on an uncompressed medium.
    """

    def __init__(self, params: EngineParams) -> None:
        self.params = params
        self._w1 = params.prep.omega1
        self._w3 = params.prep.omega3
        tau_ramp = 0.0 if params.ramp is RampMode.SUDDEN else params.tau_comp
        self._comp_sched = RampSchedule(self._w3, self._w1, tau_ramp, params.ramp)
        self._exp_sched = RampSchedule(self._w1, self._w3, tau_ramp, params.ramp)
        self._s_comp = ramp_propagator(self._comp_sched, spectator_omega1=self._w1,
                                       spectator_omega3=self._w3).matrix
        self._s_exp = ramp_propagator(self._exp_sched, spectator_omega1=self._w1,
                                      spectator_omega3=self._w3).matrix
        self._s_heat = coupling_propagator(params.alpha12, self._w1, self._w3,
                                           params.tau_h, CouplingSide.HOT_PAIR).matrix
        self._s_cool = coupling_propagator(params.alpha23, self._w3, self._w1,
                                           params.tau_c, CouplingSide.COLD_PAIR).matrix
        self._cycle_map = self._s_cool @ self._s_exp @ self._s_heat @ self._s_comp
        self._mpow = [np.eye(6)]
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
        table = {
            "compression": (self._s_comp, self.params.ramp_duration,
                            self._w3, self._w1, "low", "high"),
            "heating": (self._s_heat, self.params.tau_h,
                        self._w1, self._w1, "high", "high"),
            "expansion": (self._s_exp, self.params.ramp_duration,
                          self._w1, self._w3, "high", "low"),
            "cooling": (self._s_cool, self.params.tau_c,
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

    # -- batched core ------------------------------------------------------

    def _powers(self, n: int) -> np.ndarray:
        """cycle_map ** j for j = 0..n, stacked as (n + 1, 6, 6)."""
        while len(self._mpow) <= n:
            self._mpow.append(self._cycle_map @ self._mpow[-1])
        return np.asarray(self._mpow[: n + 1])

    def _interior_times(self, tau: float, fallback_n: int) -> np.ndarray:
        """Strictly interior sample instants of one stroke."""
        if tau <= 0.0 or fallback_n <= 0:
            return np.empty(0)
        dt = self.params.sample_dt
        if dt is None:
            return tau * np.arange(1, fallback_n + 1) / (fallback_n + 1)
        times = np.arange(dt, tau, dt)
        return times[times < tau * (1.0 - 1e-12)]

    def _simulate_chunk(self, count: int, heat_mats: np.ndarray,
                        cool_mats: np.ndarray) -> _Chunk:
        """Evolve `count` cycles from the current state without committing.

        Cycle starts come from powers of the cycle map applied to the
        cursor; the five stage energies of each cycle derive from one
        consistent chain of stroke sandwiches, which keeps the first-law
        residual at rounding level.
        """
        powers = self._powers(count)
        sig_a = _interior_sandwich(powers, self._sigma[None])[0]
        starts = sig_a[:count]
        sig_b = _stage_sandwich(self._s_comp, starts)
        sig_c = _stage_sandwich(self._s_heat, sig_b)
        sig_d = _stage_sandwich(self._s_exp, sig_c)
        sig_e = _stage_sandwich(self._s_cool, sig_d)
        heat_states = _interior_sandwich(heat_mats, sig_b)
        cool_states = _interior_sandwich(cool_mats, sig_d)

        w1sq, w3sq = self._w1**2, self._w3**2
        e_a = 0.5 * (starts[:, 4, 4] + w3sq * starts[:, 1, 1])
        e_b = 0.5 * (sig_b[:, 4, 4] + w1sq * sig_b[:, 1, 1])
        e_c = 0.5 * (sig_c[:, 4, 4] + w1sq * sig_c[:, 1, 1])
        e_d = 0.5 * (sig_d[:, 4, 4] + w3sq * sig_d[:, 1, 1])
        e_e = 0.5 * (sig_e[:, 4, 4] + w3sq * sig_e[:, 1, 1])
        w1, q1 = e_b - e_a, e_b - e_c
        w2, q2 = e_d - e_c, e_d - e_e
        du = e_e - e_a
        w_cycle = w1 + w2

        residual = np.abs(w1 + w2 - q1 - q2 - du)
        budget = FIRST_LAW_RTOL * np.maximum(1.0, np.abs(w1) + np.abs(w2))
        if np.any(residual > budget):
            k = int(np.argmax(residual - budget))
            raise EnergyBalanceError(
                f"cycle {self._cycle + k}: first-law residual {residual[k]:.3e} "
                f"exceeds {budget[k]:.3e}"
            )
        return _Chunk(sig_a, sig_b, sig_c, sig_d, sig_e, heat_states, cool_states,
                      e_a, e_b, e_c, e_d, e_e, w1, q1, w2, q2, du, w_cycle)

    @staticmethod
    def _score_correlations(chunk: _Chunk, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Negativity and discord at the sampled points of the first `upto`
        cycles, each of shape (upto, points, 3).

        Points per cycle: cycle start, heating interiors, after heating,
        cooling interiors, cycle end.  Ramp interiors carry no new
        correlation values and are not scored.
        """
        pts = np.concatenate([
            chunk.sig_a[:upto, None],
            chunk.heat_states[:upto],
            chunk.sig_c[:upto, None],
            chunk.cool_states[:upto],
            chunk.sig_e[:upto, None],
        ], axis=1)
        return pair_correlations(pts)

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
        params = self.params
        rule = params.stop
        total = rule.n if isinstance(rule, FixedCycles) else params.max_cycles
        t_run_start = self._t
        cycle_start_index = self._cycle

        heat_times = self._interior_times(
            params.tau_h, DEFAULT_STROKE_SAMPLES if heat_samples is None else heat_samples)
        cool_times = self._interior_times(
            params.tau_c, DEFAULT_STROKE_SAMPLES if cool_samples is None else cool_samples)
        heat_mats = coupling_propagators_at(params.alpha12, self._w1, self._w3,
                                            heat_times, CouplingSide.HOT_PAIR)
        cool_mats = coupling_propagators_at(params.alpha23, self._w3, self._w1,
                                            cool_times, CouplingSide.COLD_PAIR)

        ts = _TimeSeriesBuilder(self, heat_times, cool_times) if want_timeseries else None

        points_per_cycle = 3 + heat_times.size + cool_times.size
        chunk_cap = max(1, min(_CHUNK_MAX, _BATCH_POINT_BUDGET // points_per_cycle))

        cols: dict[str, list[np.ndarray]] = {
            name: [] for name in ("w1", "q1", "w2", "q2", "du", "w_cycle",
                                  "e1", "e2", "e3")}
        neg_cycle_max: list[np.ndarray] = []
        disc_cycle_max: list[np.ndarray] = []
        run_neg = np.zeros(3) if correlations else np.full(3, np.nan)
        run_disc = np.zeros(3) if correlations else np.full(3, np.nan)

        simulated = 0
        probe_seen = False
        chunk_size = _CHUNK_START
        w1sq, w3sq = self._w1**2, self._w3**2
        while simulated < total:
            count = min(chunk_size, chunk_cap, total - simulated)
            chunk = self._simulate_chunk(count, heat_mats, cool_mats)
            chunk_size = min(chunk_size * 2, _CHUNK_MAX)

            keep = count
            if isinstance(rule, WorkNonNegative):
                hits = np.flatnonzero(chunk.w_cycle >= -rule.eps_stop)
                if hits.size:
                    keep = int(hits[0])
                    probe_seen = True
            rows = keep + 1 if probe_seen else keep

            cols["w1"].append(chunk.w1[:rows])
            cols["q1"].append(chunk.q1[:rows])
            cols["w2"].append(chunk.w2[:rows])
            cols["q2"].append(chunk.q2[:rows])
            cols["du"].append(chunk.du[:rows])
            cols["w_cycle"].append(chunk.w_cycle[:rows])
            ends = chunk.sig_e[:rows]
            cols["e1"].append(0.5 * (ends[:, 3, 3] + w1sq * ends[:, 0, 0]))
            cols["e2"].append(chunk.e_e[:rows])
            cols["e3"].append(0.5 * (ends[:, 5, 5] + w3sq * ends[:, 2, 2]))

            neg = disc = None
            if rows:
                if correlations:
                    neg, disc = self._score_correlations(chunk, rows)
                    neg_cycle_max.append(neg.max(axis=1))
                    disc_cycle_max.append(disc.max(axis=1))
                    np.maximum(run_neg, neg.max(axis=(0, 1)), out=run_neg)
                    np.maximum(run_disc, disc.max(axis=(0, 1)), out=run_disc)
                else:
                    neg_cycle_max.append(np.full((rows, 3), np.nan))
                    disc_cycle_max.append(np.full((rows, 3), np.nan))
                if ts is not None:
                    ts.add_chunk(chunk, rows, neg, disc,
                                 t_run_start + simulated * params.cycle_duration)

            simulated += rows
            if probe_seen:
                final = chunk.sig_a[keep]
                self._sigma = 0.5 * (final + final.T)
                break
            self._sigma = 0.5 * (chunk.sig_a[count] + chunk.sig_a[count].T)

        n_counted = simulated - int(probe_seen)
        self._cycle += n_counted
        self._t += n_counted * params.cycle_duration

        if probe_seen:
            stop_reason = "work_non_negative"
        elif isinstance(rule, FixedCycles):
            stop_reason = "fixed_cycles"
        else:
            stop_reason = "cycle_cap"

        flat = {name: (np.concatenate(parts) if parts else np.empty(0))
                for name, parts in cols.items()}
        neg_max = np.concatenate(neg_cycle_max) if neg_cycle_max else np.empty((0, 3))
        disc_max = np.concatenate(disc_cycle_max) if disc_cycle_max else np.empty((0, 3))

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
                    d12_max=float(disc_max[i, 0]), d23_max=float(disc_max[i, 1]),
                    d13_max=float(disc_max[i, 2]),
                    n12_max=float(neg_max[i, 0]), n23_max=float(neg_max[i, 1]),
                    n13_max=float(neg_max[i, 2]),
                )
                if probe_seen and i == simulated - 1:
                    probe = record
                else:
                    records.append(record)

        w_total = float(np.sum(flat["w_cycle"][:n_counted]))
        self._w_cum += w_total

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

    def run_cycle(self) -> CycleRecord:
        """Execute one full cycle from the current state and record it.

        Unlike a run, a single cycle is always counted, whatever its work
        balance.
        """
        if self._phase != "low":
            raise PhaseOrderError("a cycle must start with the medium at omega3")
        params = self.params
        heat_times = self._interior_times(params.tau_h, DEFAULT_STROKE_SAMPLES)
        cool_times = self._interior_times(params.tau_c, DEFAULT_STROKE_SAMPLES)
        heat_mats = coupling_propagators_at(params.alpha12, self._w1, self._w3,
                                            heat_times, CouplingSide.HOT_PAIR)
        cool_mats = coupling_propagators_at(params.alpha23, self._w3, self._w1,
                                            cool_times, CouplingSide.COLD_PAIR)
        chunk = self._simulate_chunk(1, heat_mats, cool_mats)
        neg, disc = self._score_correlations(chunk, 1)
        neg_pk, disc_pk = neg.max(axis=1)[0], disc.max(axis=1)[0]
        self._w_cum += float(chunk.w_cycle[0])
        record = CycleRecord(
            index=self._cycle,
            w1=float(chunk.w1[0]), w2=float(chunk.w2[0]),
            q1=float(chunk.q1[0]), q2=float(chunk.q2[0]), du=float(chunk.du[0]),
            w_cycle=float(chunk.w_cycle[0]), w_cum=self._w_cum,
            eta=efficiency(float(chunk.w_cycle[0]), float(chunk.du[0]),
                           float(chunk.q1[0]), float(chunk.q2[0])).value,
            e1=float(0.5 * (chunk.sig_e[0, 3, 3] + self._w1**2 * chunk.sig_e[0, 0, 0])),
            e2=float(chunk.e_e[0]),
            e3=float(0.5 * (chunk.sig_e[0, 5, 5] + self._w3**2 * chunk.sig_e[0, 2, 2])),
            d12_max=float(disc_pk[0]), d23_max=float(disc_pk[1]),
            d13_max=float(disc_pk[2]),
            n12_max=float(neg_pk[0]), n23_max=float(neg_pk[1]),
            n13_max=float(neg_pk[2]),
        )
        self._sigma = 0.5 * (chunk.sig_e[0] + chunk.sig_e[0].T)
        self._cycle += 1
        self._t += params.cycle_duration
        return record


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
        self._engine = engine
        self._w1sq = engine._w1**2
        self._w3sq = engine._w3**2
        self._cycle_duration = params.cycle_duration
        ramp_times = (engine._interior_times(params.tau_comp, DEFAULT_STROKE_SAMPLES)
                      if params.ramp is RampMode.LINEAR_AIRY else np.empty(0))
        self._comp_weights = _ramp_interior_weights(
            engine._comp_sched, ramp_times, engine._w1, engine._w3)
        self._exp_weights = _ramp_interior_weights(
            engine._exp_sched, ramp_times, engine._w1, engine._w3)
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
        self._length = self._i_d + 1 + nc
        offsets = np.empty(self._length)
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

    def add_chunk(self, chunk: _Chunk, rows: int, neg: Optional[np.ndarray],
                  disc: Optional[np.ndarray], t_start: float) -> None:
        m, length = rows, self._length
        sig_a, sig_b = chunk.sig_a[:m], chunk.sig_b[:m]
        sig_c, sig_d = chunk.sig_c[:m], chunk.sig_d[:m]
        e1 = np.empty((m, length))
        e2 = np.empty((m, length))
        e3 = np.empty((m, length))

        e1_a, e3_a = self._mode_energies(sig_a)
        e1_c, e3_c = self._mode_energies(sig_c)
        e1[:, self._i_a], e2[:, self._i_a], e3[:, self._i_a] = e1_a, chunk.e_a[:m], e3_a
        e1[:, self._s_comp] = e1_a[:, None]
        e3[:, self._s_comp] = e3_a[:, None]
        e2[:, self._s_comp] = np.einsum("nab,kab->kn", self._comp_weights, sig_a)
        e1_b, e3_b = self._mode_energies(sig_b)
        e1[:, self._i_b], e2[:, self._i_b], e3[:, self._i_b] = e1_b, chunk.e_b[:m], e3_b
        hs = chunk.heat_states[:m]
        e1_h, e3_h = self._mode_energies(hs)
        e1[:, self._s_heat] = e1_h
        e2[:, self._s_heat] = 0.5 * (hs[..., 4, 4] + self._w1sq * hs[..., 1, 1])
        e3[:, self._s_heat] = e3_h
        e1[:, self._i_c], e2[:, self._i_c], e3[:, self._i_c] = e1_c, chunk.e_c[:m], e3_c
        e1[:, self._s_exp] = e1_c[:, None]
        e3[:, self._s_exp] = e3_c[:, None]
        e2[:, self._s_exp] = np.einsum("nab,kab->kn", self._exp_weights, sig_c)
        e1_d, e3_d = self._mode_energies(sig_d)
        e1[:, self._i_d], e2[:, self._i_d], e3[:, self._i_d] = e1_d, chunk.e_d[:m], e3_d
        cs = chunk.cool_states[:m]
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

        last = chunk.sig_e[m - 1]
        e1_e, e3_e = self._mode_energies(last[None])
        self._closing = (
            t_start + m * self._cycle_duration,
            float(e1_e[0]), float(chunk.e_e[m - 1]), float(e3_e[0]),
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
