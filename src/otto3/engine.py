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
cycle.  The five energies are read off one chain of stroke sandwiches, so
the balance holds by construction; the engine checks it on every cycle it
computes up to the one where it stops, which catches non-finite or
rounding-level defects but never a wrong stroke map.

All four stroke propagators are fixed symplectic matrices, so a whole cycle
is a single 6x6 sandwich and long runs evaluate matrix-power batches
instead of stepping stroke by stroke.  Every kernel call computes its cycle
starts and the state after each stroke through one function, all its rows
in one pass.  A call whose caller reads no states (no records,
correlations or time series) keeps none and computes of each only the
entries the medium's energies read, bit for bit as the whole sandwich
would, in per-thread scratch buffers that every later call reuses.  A ramp
acts on each oscillator alone, so its sandwich runs through the
oscillators' 2x2 blocks, again bit for bit.  A call that keeps states has
numpy allocate its stage states, lays its kept cycles' scored points out
in one point-major array and sandwiches the coupling strokes' interior
states straight into it; that array, the gathered interior operands and
the sandwiches' temporaries live in the scratch buffers.  Cycles run in chunks
that double from 4 to 256, each starting from the symmetrised end of the
one before.  A kernel call may run several consecutive chunks (a span)
and may cut its last chunk short; either way it computes the same cycles from the same
cursors, so the grouping changes no number.  A call ends where its
engines end (a FixedCycles count, else a probe cycle predicted off the
cycle map), within a bound on the states it holds: a lone engine that
stops on its own runs in one call that ends at its stop, each engine of a
shared call computes no cycle past its own, and a wrong prediction costs
time, never a number, because the kernel's own w_cycle decides every
stop.  Many independent engines (a scan) step together along an engine axis through
the same cycle kernel and stepping loop that run one Engine; no engine's
numbers depend on the others.  Their inputs are an EngineBatch, one array
per parameter, its rows checked by the rules EngineParams uses: the stroke
maps, the initial states and the stepping loop read its columns, and an
engine's record columns stay arrays, engine by engine.  EngineParams is one row at the API
boundary; Engine and run_reduced_ensemble turn params into batches
(EngineBatch.of), and a scan builds its batch from its draws.
prepared() runs an ensemble ahead of run_reduced calls that each evaluate
one of its engines (the optimizer's rounds).  Pair correlations move only
while a coupling stroke acts (ramps drive each oscillator separately, and
local maps cannot change a two-mode correlation measure), so interior
sampling effort goes to the coupling strokes; ramp interiors reuse
stroke-start correlation values, which is exact rather than an
approximation.  Every medium energy is read by one formula (_energy) off
a state the stroke maps carried there.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
from contextvars import ContextVar
from dataclasses import InitVar, dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .correlations import pair_correlations
from .energetics import efficiency
from .errors import ConfigError, EnergyBalanceError, PhysicalityError, check_count
from .propagators import (
    CouplingSide,
    RampMode,
    RampSchedule,
    _check_symplectic,
    coupling_propagators_at,
    ramp_propagators,
    ramp_propagators_at,
)
from .states import (CovarianceMatrix, Preparation, check_frequencies, product_state,
                     product_states, validate_covariances)

FIRST_LAW_RTOL = 1e-12
DEFAULT_STROKE_SAMPLES = 20
# Interior samples of the heating and the cooling stroke in a run without
# records (run_reduced, run_reduced_ensemble): sparse, for scans and optimizers.
_REDUCED_SAMPLES = (4, 2)
# Cap on (cycles per batch) x (sampled points, or time-series rows, per
# cycle); keeps the batched interior-state stacks and one chunk's series
# rows bounded when sample_dt is very fine.  EngineParams refuses a
# sample_dt whose interior points per cycle exceed it.
_BATCH_POINT_BUDGET = 200_000
# Chunks double from a small first one: most scan engines stop within a few
# cycles, while each chunk carries a fixed correlation-scoring cost.
_CHUNK_START, _CHUNK_MAX = 4, 256
# Engines stepped together: a kernel call that keeps states holds at most
# this many engine-cycles, which is one engine's largest chunk, however
# many engines share the call.  A call takes its engines' following chunks
# of the schedule (a span) up to its bound too.  It is also the horizon of
# every probe prediction (_Strokes.probe_cycles).
_STACK_CYCLES = _CHUNK_MAX
# Every kernel call holds at most this many kernel points, engine-cycles x
# (3 + interior points per cycle): a cycle's start, the state after heating,
# its end and the coupling interiors.  A call that keeps states holds them
# all: about 95 cycles of a tracked run, and no bound below _STACK_CYCLES
# at a scan's 9 points.  A lean call (no records, correlations or time
# series) holds no interior points, so up to 1,365 engine-cycles: a whole
# round of the optimizer (16 engines, at most 1,021 engine-cycles at
# ratio_sweep's omega3 = 0.1) runs in one call.
_CALL_POINTS = 4096
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

    def __post_init__(self) -> None:
        if not math.isfinite(self.eps_stop):
            raise ConfigError(f"eps_stop must be finite, got {self.eps_stop}")


@dataclass(frozen=True)
class FixedCycles:
    """Run exactly n cycles regardless of their work balance."""

    n: int

    def __post_init__(self) -> None:
        check_count("cycle count", self.n, 0)


StopRule = Union[WorkNonNegative, FixedCycles]


def _points_within(tau, dt):
    """Length of np.arange(dt, tau, dt), elementwise, computed without
    allocating it; inf where it is not finite."""
    with np.errstate(all="ignore"):
        span = np.divide(np.subtract(tau, dt), dt)
    return np.where(np.isfinite(span), np.maximum(0.0, np.ceil(span)), math.inf)


def _durations(ramp: RampMode, tau_comp, tau_h=0.0, tau_c=0.0) -> tuple:
    """Wall-clock lengths of one ramp stroke and of one cycle (floats or columns)."""
    ramp_tau = 0.0 * tau_comp if ramp is RampMode.SUDDEN else tau_comp
    return ramp_tau, 2.0 * ramp_tau + tau_h + tau_c


def _check_engine(ramp: RampMode, alpha12: float, alpha23: float, tau_comp: float,
                  tau_h: float, tau_c: float, sample_dt: Optional[float], stop: StopRule,
                  max_cycles: int) -> None:
    """Refuse one engine's strokes and stopping with ConfigError: the rules
    of EngineParams, which every checked EngineBatch row runs too."""
    if not isinstance(ramp, RampMode):
        raise ConfigError(f"ramp must be a RampMode, got {ramp!r}")
    for name, value in zip(_FLOAT_PARAMS, (alpha12, alpha23, tau_comp, tau_h, tau_c)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")
    if ramp is not RampMode.SUDDEN and tau_comp <= 0:
        raise ConfigError("finite-time ramps need tau_comp > 0")
    if sample_dt is not None:
        if not (math.isfinite(sample_dt) and sample_dt > 0):
            raise ConfigError(f"sample_dt must be finite and > 0, got {sample_dt}")
        strokes = (tau_h, tau_c) + (tau_comp, tau_comp) * (ramp is RampMode.LINEAR_AIRY)
        points = sum(_points_within(tau, sample_dt) for tau in strokes)
        if points > _BATCH_POINT_BUDGET:
            raise ConfigError(f"sample_dt={sample_dt} samples {points:.0f} interior points per "
                              f"cycle; at most {_BATCH_POINT_BUDGET} are allowed")
    check_count("max_cycles", max_cycles, 1)
    if not isinstance(stop, (WorkNonNegative, FixedCycles)):
        raise ConfigError(f"unknown stop rule {stop!r}")
    limit = _stop_limits(stop, max_cycles)[0]
    if limit >= 2**63:  # the stepping loop holds cycle limits as int64
        name = "cycle count" if isinstance(stop, FixedCycles) else "max_cycles"
        raise ConfigError(f"{name} must be below 2**63")
    # the probe cycle past the limit must end at a finite time too
    duration = _durations(ramp, tau_comp, tau_h, tau_c)[1]
    if not math.isfinite((limit + 1) * duration):
        raise ConfigError(f"the run's clock overflows at {duration} per cycle")


_FLOAT_PARAMS = ("alpha12", "alpha23", "tau_comp", "tau_h", "tau_c")
_FLOAT_COLUMNS = ("omega1", "omega3", *_FLOAT_PARAMS, "sample_dt", "eps_stop")


@dataclass(frozen=True)
class EngineParams:
    """Static description of one engine configuration.

    The cold frequency omega3 is the preparation's.  tau_comp is the
    wall-clock ramp duration for the finite-time and quasi-static modes; the
    sudden quench takes no time and ignores it.  max_cycles caps open-ended
    runs under WorkNonNegative and does not limit FixedCycles.
    """

    prep: Preparation
    alpha12: float
    alpha23: float
    tau_comp: float
    tau_h: float
    tau_c: float
    ramp: RampMode = RampMode.LINEAR_AIRY
    stop: StopRule = WorkNonNegative()
    sample_dt: Optional[float] = None
    max_cycles: int = 10_000

    def __post_init__(self) -> None:
        if not isinstance(self.prep, Preparation):
            raise ConfigError(f"prep must be a Preparation, got {self.prep!r}")
        _check_engine(self.ramp, self.alpha12, self.alpha23, self.tau_comp, self.tau_h,
                      self.tau_c, self.sample_dt, self.stop, self.max_cycles)

    @property
    def ramp_duration(self) -> float:
        """Wall-clock length of one ramp stroke."""
        return _durations(self.ramp, self.tau_comp)[0]

    @property
    def cycle_duration(self) -> float:
        return _durations(self.ramp, self.tau_comp, self.tau_h, self.tau_c)[1]


def _per_prep(params: Sequence[EngineParams], make) -> list:
    """make(p.prep) of each p in params, made once per preparation object
    (an optimizer's points share one)."""
    made: dict[int, object] = {}
    for p in params:
        if id(p.prep) not in made:
            made[id(p.prep)] = make(p.prep)
    return [made[id(p.prep)] for p in params]


@dataclass(frozen=True)
class EngineBatch:
    """The inputs of E engines that share a ramp mode, one column per
    parameter, row e for engine e: what the stroke maps (_Strokes), the
    initial states (states.product_states) and the stepping loop read.
    EngineParams is one row at the API boundary; EngineBatch.of turns
    params into a batch.

    modes holds each engine's initial state as the (a, b) factors of its
    oscillators (Preparation.factors).  sample_dt is NaN for fixed sample
    counts, totals the cycle limit (FixedCycles.n, else max_cycles) and
    eps_stop the work threshold, -inf under FixedCycles.  A column shared
    by every engine may be given as one value, the others (modes too) need
    a row per engine, and a batch of shared columns is one engine.  Unless
    check=False, each row runs the rules a lone engine runs, in its order,
    and the first failure raises their error, prefixed "engine {id}: " when
    E > 1; ids name engines in every error (default: their positions).
    """

    ramp: RampMode
    omega1: np.ndarray
    omega3: np.ndarray
    modes: np.ndarray      # (E, 3, 2)
    alpha12: np.ndarray
    alpha23: np.ndarray
    tau_comp: np.ndarray
    tau_h: np.ndarray
    tau_c: np.ndarray
    sample_dt: np.ndarray
    totals: np.ndarray
    eps_stop: np.ndarray
    ids: Optional[np.ndarray] = None
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        cols = {name: np.asarray(getattr(self, name), dtype=float) for name in _FLOAT_COLUMNS}
        totals = np.asarray(self.totals)
        if totals.dtype.kind not in "iu":  # keep each row's limit as given, ints past int64 too
            totals = np.asarray(self.totals, dtype=object)
        cols.update(totals=totals, modes=np.asarray(self.modes, dtype=float))
        if self.ids is not None:
            cols["ids"] = np.asarray(self.ids)
        rows = {name: len(col) for name, col in cols.items() if col.ndim > 2 * (name == "modes")}
        first, n_eng = next(iter(rows.items()), (None, 1))
        for name, n in rows.items():
            if n != n_eng:
                raise ConfigError(f"column {name} has {n} rows where column {first} has {n_eng}")
        cols.setdefault("ids", np.arange(n_eng))
        cols["modes"] = np.broadcast_to(cols["modes"], (n_eng, 3, 2))
        for name, col in cols.items():
            object.__setattr__(self, name, col if col.ndim else np.full(n_eng, col))
        if not check:
            return
        for k, w1, w3, *floats, dt, eps, total in zip(self.ids.tolist(), *(
                getattr(self, name).tolist() for name in (*_FLOAT_COLUMNS, "totals"))):
            work = eps != -math.inf
            try:  # engine k's rules, in the order a lone engine meets them
                check_frequencies(w3, w1)
                _check_engine(self.ramp, *floats, None if math.isnan(dt) else dt,
                              WorkNonNegative(eps) if work else FixedCycles(total),
                              total if work else 1)  # max_cycles does not limit FixedCycles
            except ConfigError as exc:
                raise ConfigError(f"engine {k}: {exc}" if n_eng > 1 else str(exc)) from None

    @classmethod
    def of(cls, params: Sequence[EngineParams], ids: Optional[Sequence[int]] = None) -> EngineBatch:
        """The batch of params, engines that share one ramp mode; EngineParams
        checked each of them already."""
        if not params:
            raise ValueError("EngineBatch.of needs engines; the list of params is empty")
        ramp = params[0].ramp
        if any(p.ramp is not ramp for p in params):
            raise ValueError("the engines of one batch share their ramp mode")
        totals, eps_stop = zip(*(_stop_limits(p.stop, p.max_cycles) for p in params))
        omega1, omega3, *floats, dt = np.array([
            (p.prep.omega1, p.prep.omega3, *(getattr(p, name) for name in _FLOAT_PARAMS),
             math.nan if p.sample_dt is None else p.sample_dt) for p in params], dtype=float).T
        modes = np.array(_per_prep(params, Preparation.factors))
        return cls(ramp, omega1, omega3, modes, *floats, dt, totals, eps_stop, ids, check=False)

    @property
    def size(self) -> int:
        return self.omega1.size


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


def _stop_limits(stop: StopRule, max_cycles: int) -> tuple[int, float]:
    """(cycle limit, eps_stop) of a run under stop; -inf means no work rule."""
    if isinstance(stop, FixedCycles):
        return stop.n, -math.inf
    return max_cycles, stop.eps_stop


# Batched states and maps are held matrix-element first, as (6, 6, N)
# stacks, so that every einsum's inner loop runs along the stack and not
# along a 6-long matrix row.  A sandwich is a left and a right two-operand
# product, each summing over its contracted index in a fixed order whatever
# N is (in sequence on the left; even and odd terms apart, then added, on
# the right), so no engine's numbers depend on which engines share a call.
# That order also rests on the operands' memory layout, not only on N:
# einsum orders its loops by the operands' strides, and its rounding
# follows.  Every operand, and an out= slot, is element-first with the
# stack axis innermost (a C-contiguous array, or a slice of one along that
# axis, such as a run of points of a point-major (6, 6, P, R) array).  A
# gathered operand must be built in that layout: maps[:, :, at] returns its
# copy laid out stack-first, and gathering the stroke maps that way moved
# D13 of the pinned optimized_run artifacts by 5e-10 relative, where
# np.take(..., axis=2) keeps every number.  matmul would be faster, but its
# fused multiply-adds turn exact zeros (the heat of a zero-coupling stroke)
# into rounding noise.  A ramp acts on each oscillator alone, so its
# sandwich runs through the oscillators' 2x2 blocks (_ramp_sandwich), in
# the same sums less their exact-zero terms.

# The entries of the state after each stroke that a lean kernel call (no
# records, correlations or time series) computes, as indices of (x1, x2,
# x3, p1, p2, p3): what the medium's energies read.  After compression
# that is the whole state, after heating and after expansion the block of
# the medium and the cold oscillator, which the cooling acts on, and after
# cooling the medium's entries.  The ramps act on each oscillator alone and
# cooling couples only that block, so the terms a lean sandwich leaves out
# are exact zeros; with the sums grouped as below, every entry it computes
# equals the full sandwich's (leaving out a zero term can change only the
# sign of a zero sum).
_ALL = tuple(range(6))
_LEAN_ENTRIES = (_ALL, (1, 2, 4, 5), (1, 2, 4, 5), (1, 4))
# Positions, among a sandwich's input entries (all six, or the block
# (1, 2, 4, 5)), of the even and of the odd indices: the left-hand sums
# run in sequence, the right-hand ones over each group apart, then added.
_SPLIT = {6: (slice(0, None, 2), slice(1, None, 2)), 4: (slice(1, 3), slice(0, None, 3))}
# The scratch buffers.  A state-keeping call's point build (_step) holds
# the points, the gathered interior maps and states, and the interior
# sandwiches' two temporaries in them.  A lean call holds its powers of the
# cycle maps (_simulate_chunk), then its cycle starts, in _POINTS, and
# gathers the powers and cursors into _MAPS and _STATES, each through
# _PRODUCT (_stages); the starts' sandwich forms its left product in
# _PRODUCT and its odd part over the cursors.  Stroke k gathers its maps
# into _LEAN_SLOTS[k][0], forms its left product in _PRODUCT and writes
# its state into _MAPS, over the state before it, and its other temporary
# into _LEAN_SLOTS[k][1]: a sandwich reads its states only while it forms
# its left product.  So a lean call holds at most 36 entries per start, or
# per power, in a buffer.
_POINTS, _MAPS, _STATES, _PRODUCT, _ODD = range(5)
_LEAN_SLOTS = ((_ODD, _STATES), (_STATES, _MAPS), (_STATES, _STATES), (_STATES, _MAPS))
_SCRATCH_SIZE = 36 * _CALL_POINTS


class _Scratch(threading.local):
    """One thread's flat float64 buffers, one per use above, each of
    _SCRATCH_SIZE entries, allocated when the thread first reads them.
    The kernel maps a buffer's pages in as calls first touch them, so it
    takes the memory of the largest call, and every later call reuses
    those pages instead of faulting in fresh ones (freed arrays past
    glibc's mmap threshold go back to the kernel, and a buffer regrown to
    each larger call left heap holes behind).  A call holds at most
    _CALL_POINTS points unless one cycle holds more, and a lean call 36
    entries per start or power in a buffer, so a request past a buffer's
    end is rare; it gets arrays of its own.  The stage states of a call
    that keeps states outlive its point build, so numpy allocates them."""

    def __init__(self) -> None:
        self.buffers = [np.empty(_SCRATCH_SIZE) for _ in range(5)]

    def take(self, use: int, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous (shape) array in buffer `use`, holding whatever
        the last call left there."""
        return self.carve((use,), (shape,))[0]

    def carve(self, uses: Sequence[int],
              shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
        """C-contiguous arrays, of shape shapes[i] in buffer uses[i], those
        of one buffer laid one after another."""
        sizes = [math.prod(shape) for shape in shapes]
        need, starts = dict.fromkeys(uses, 0), []
        for use, size in zip(uses, sizes):
            starts.append(need[use])
            need[use] += size
        return [np.empty(shape) if need[use] > self.buffers[use].size
                else self.buffers[use][start:start + size].reshape(shape)
                for use, shape, start, size in zip(uses, shapes, starts, sizes)]


_SCRATCH = _Scratch()


def _energy(s: np.ndarray, mode: int, wsq: "float | np.ndarray",
            entries: tuple[int, ...] = _ALL) -> np.ndarray:
    """Energy of oscillator `mode` (0, 1, 2) at squared frequency wsq, read off
    a state or an element-first (k, k, ...) stack s of the entries `entries`."""
    x, p = entries.index(mode), entries.index(mode + 3)
    return 0.5 * (s[p, p] + wsq * s[x, x])


def _sandwich_stack(mats: np.ndarray, states: np.ndarray, out: Optional[np.ndarray] = None,
                    x: Optional[np.ndarray] = None, odd: Optional[np.ndarray] = None) -> np.ndarray:
    """mats[..., n] @ states[..., n] @ mats[..., n].T for element-first
    (m, k, N) maps and (k, k, N) states, into out (m, m, N) if given; x
    (m, k, N) and odd (m, m, N), if given, hold the product mats @ states
    and the odd columns' part of the right-hand sum.  states is read only
    into x, so out and odd may overlap it."""
    even_cols, odd_cols = _SPLIT[states.shape[0]]
    x = np.einsum("abn,bcn->acn", mats, states, out=x)
    out = np.einsum("acn,dcn->adn", x[:, even_cols], mats[:, even_cols], out=out)
    out += np.einsum("acn,dcn->adn", x[:, odd_cols], mats[:, odd_cols], out=odd)
    return out


def _ramp_sandwich(blocks: np.ndarray, states: np.ndarray, out: Optional[np.ndarray] = None,
                   x: Optional[np.ndarray] = None,
                   term: Optional[np.ndarray] = None) -> np.ndarray:
    """_sandwich_stack of a map that acts on each of K oscillators alone,
    given as its (x_k, p_k) blocks, (2, 2, K, ...), on element-first
    (2K, 2K, ...) states of those oscillators' entries (x.., p..); the
    trailing axes broadcast.  For (2, 2, K, N) blocks on (2K, 2K, N)
    states, out, x and term, if given, are C-contiguous (2K, 2K, N) arrays
    for the result, the left-hand product and each sum's second term;
    states is read only into x and term, so out may overlap it.

    Each entry is einsum's sum less its exact-zero terms: the left sum
    keeps two terms, and the right sum's even and odd parts one each, so
    each is one two-term sum, the same in either order.  Leaving out the
    zero terms and einsum's starting +0.0 can change only the sign of a
    zero, and the final + 0.0 gives a zero entry einsum's +0.0.  So it
    equals _sandwich_stack of the whole map byte for byte on finite states
    (einsum's 0 x inf is NaN).
    """
    k = blocks.shape[2]

    def slot(buffer: Optional[np.ndarray], *shape: int) -> Optional[np.ndarray]:
        return None if buffer is None else buffer.reshape(*shape, -1)

    x = np.multiply(blocks[:, 0, :, None], states[:k], out=slot(x, 2, k, 2 * k))
    x += np.multiply(blocks[:, 1, :, None], states[k:], out=slot(term, 2, k, 2 * k))
    x = x.reshape(2 * k, 2, k, *x.shape[3:])
    out = np.multiply(x[:, None, 0], blocks[:, 0], out=slot(out, 2 * k, 2, k))
    out += np.multiply(x[:, None, 1], blocks[:, 1], out=slot(term, 2 * k, 2, k))
    out += 0.0
    return out.reshape(2 * k, 2 * k, *out.shape[3:])


def _by_element(stack: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(..., 6, 6) -> contiguous (6, 6, N), N = the product of the leading
    axes, into out if given."""
    flat = stack.reshape(-1, 36)
    if out is None:
        out = np.empty((6, 6, flat.shape[0]))
    out.reshape(36, -1)[...] = flat.T
    return out


def _interior(tau: np.ndarray, n: int, dt: np.ndarray,
              instants: bool = False) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Strictly interior sample points of one stroke of E engines, of
    durations tau (E,): n evenly spaced instants where dt (E,) is NaN, else
    np.arange(dt, tau, dt) less a last instant within 1e-12 of tau; none
    for tau = 0 or n = 0.

    Returns the (E,) counts and, with instants, the (E, count) instants
    (else None), count being the first engine's: callers that ask for
    instants pass engines that share one count.  The counts are computed
    without building the instants.
    """
    with np.errstate(all="ignore"):
        m = _points_within(tau, dt)
        # np.arange's last instant is dt + (m - 1) * dt, dropped within 1e-12 of tau
        m = m - ((m > 0) & (dt + (m - 1) * dt >= tau * (1.0 - 1e-12)))
    counts = np.where((tau <= 0.0) | (n <= 0), 0, np.where(np.isnan(dt), n, m)).astype(int)
    if not instants:
        return counts, None
    count = int(counts[0]) if counts.size else 0
    return counts, np.where(np.isnan(dt)[:, None],
                            tau[:, None] * np.arange(1, count + 1) / (count + 1),
                            dt[:, None] + np.arange(count) * dt[:, None])


_STROKE_NAMES = ("compression", "heating", "expansion", "cooling")


class _Strokes:
    """The stroke maps and the cycle map, (E, 6, 6), of the engines `rows`
    of a batch, read off its columns.  stroke_maps holds them for the
    sandwiches, compression, heating, expansion and cooling: each ramp as
    its oscillators' blocks (2, 2, 3, E), each coupling element-first
    (6, 6, E).

    Every map of every engine is checked to be symplectic when built; errors
    name engines by their batch ids.
    """

    def __init__(self, batch: EngineBatch, rows: Union[slice, np.ndarray] = slice(None)) -> None:
        self.ids = batch.ids[rows]
        self.w1 = w1 = batch.omega1[rows]
        self.w3 = w3 = batch.omega3[rows]
        self.size = w1.size
        self.w1sq, self.w3sq = w1**2, w3**2
        self.alpha12, self.alpha23 = batch.alpha12[rows], batch.alpha23[rows]
        tau = _durations(batch.ramp, batch.tau_comp[rows])[0]
        comp, exp = ramp_propagators(batch.ramp, np.stack((w3, w1)), np.stack((w1, w3)),
                                     tau, tau, w1, w3)
        heat = coupling_propagators_at(self.alpha12, w1, w3, batch.tau_h[rows],
                                       CouplingSide.HOT_PAIR)
        cool = coupling_propagators_at(self.alpha23, w3, w1, batch.tau_c[rows],
                                       CouplingSide.COLD_PAIR)
        self.maps = maps = np.stack((comp, heat, exp, cool), axis=1)
        _check_symplectic(maps.reshape(-1, 6, 6), name=lambda k: (
            f"{_STROKE_NAMES[k % 4]} map of engine {self.ids[k // 4]}"))
        self.cycle = cool @ exp @ heat @ comp
        stages = _by_element(maps).reshape(6, 6, -1, 4).transpose(3, 0, 1, 2)
        osc = np.arange(3) + 3 * np.arange(2)[:, None]  # (x_k, p_k) is entry k + 3r
        comp, exp = stages[::2, osc[:, None], osc]
        self.stroke_maps = (comp, np.ascontiguousarray(stages[1]), exp,
                            np.ascontiguousarray(stages[3]))

    def probe_cycles(self, idx: np.ndarray, sigma0: np.ndarray, eps_stop: np.ndarray,
                     horizon: int) -> np.ndarray:
        """Predicted probe cycle of engines idx run from states sigma0: the
        first cycle below `horizon` whose w_cycle >= -eps_stop, `horizon`
        where there is none, or -1 where a value is not finite.

        Cycle k starts from M^k sigma0 M^kT, M the cycle map, and w_cycle is
        the linear functional tr(W sigma) of that state, W the medium's
        energies pulled back stroke by stroke.  With k = 16 a + b,
        w(k) = tr((M^16a)^T W M^16a  M^b sigma0 M^bT), read off two tables
        of powers built by repeated squaring.  They round differently from
        the kernel's chained powers: the prediction only plans the kernel's
        calls, whose own w_cycle decides every stop.
        """
        n = idx.size
        maps = self.maps[idx]
        comp, heat, exp = maps[:, 0], maps[:, 1], maps[:, 2]
        # quadratic forms of the medium's energy at the hot and cold frequency
        q = np.zeros((2, n, 6, 6))
        q[:, :, 4, 4] = 0.5
        q[0, :, 1, 1], q[1, :, 1, 1] = 0.5 * self.w1sq[idx], 0.5 * self.w3sq[idx]
        # w = E(after expansion) - E(after heating) + E(after compression) - E(start)
        form = exp.transpose(0, 2, 1) @ q[1] @ exp - q[0]
        form = heat.transpose(0, 2, 1) @ form @ heat + q[0]
        form = comp.transpose(0, 2, 1) @ form @ comp - q[1]
        with np.errstate(all="ignore"):  # an overflow leaves w non-finite: no prediction
            cycle = step = self.cycle[idx]
            for _ in range(4):
                step = step @ step  # M^16
            blocks = -(-horizon // 16)
            # M^b and M^16a, engine by engine, as one flat stack
            tables = _powers(np.concatenate((cycle, step), axis=1).reshape(-1, 6, 6),
                             max(16, blocks))
            low, high = tables[0::2, :16], tables[1::2, :blocks]
            starts = low @ sigma0[:, None] @ low.transpose(0, 1, 3, 2)
            forms = high.transpose(0, 1, 3, 2) @ form[:, None] @ high
            w = (forms.reshape(n, -1, 36) @ starts.reshape(n, 16, 36).transpose(0, 2, 1))
            w = w.reshape(n, -1)[:, :horizon]
            finite = np.isfinite(w.sum(axis=1))
        hit = w >= -eps_stop[:, None]
        return np.where(finite, np.where(hit.any(axis=1), hit.argmax(axis=1), horizon), -1)


def _powers(mats: np.ndarray, count: int) -> np.ndarray:
    """Powers 0 .. count - 1 of a (n, 6, 6) stack, (n, count, 6, 6), by
    repeated squaring."""
    out = np.empty((len(mats), count, 6, 6))
    out[:, 0] = np.eye(6)
    have = 1
    while have < count:
        top = min(2 * have, count)
        np.matmul(mats[:, None], out[:, :top - have], out=out[:, have:top])
        have = top
        if have < count:
            mats = mats @ mats
    return out


@dataclass
class _Chunk:
    """Stage states and per-cycle energies of G engines over a span of `count` cycles.

    The cycles are the consecutive chunks `span` of the schedule; engine g
    computes the first lengths[g] of them (live[g]).  States are
    element-first and flat, engine by engine: sig_b[:, :, first[g] + c] is
    engine g's state after compression in its cycle c.  sig_a holds the
    cycle starts the same way, then each engine's closing state, the start
    of its cycle lengths[g] (see start()); a lean call's sig_a is scratch,
    valid until the thread's next kernel call.  Energies are (G, count), NaN
    past an engine's cycles.  Engine g's stop rule fires first on its cycle
    keep[g] (stopped[g]); keep[g] = count otherwise.
    """

    span: tuple[int, ...]
    lengths: np.ndarray    # (G,)
    live: np.ndarray       # (G, count) bool: the cycles each engine computed
    first: np.ndarray      # (G,) each engine's first flat position
    keep: np.ndarray       # (G,)
    stopped: np.ndarray    # (G,) bool
    sig_a: np.ndarray      # (6, 6, R + G), R = lengths.sum()
    # (6, 6, R) each; None unless the caller asked for the ends
    sig_b: Optional[np.ndarray]
    sig_c: Optional[np.ndarray]
    sig_d: Optional[np.ndarray]
    sig_e: Optional[np.ndarray]
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

    def start(self, cycle: np.ndarray) -> np.ndarray:
        """(6, 6, G): engine g's state at the start of its cycle cycle[g],
        where cycle[g] = lengths[g] reads its closing state."""
        closing = self.sig_a.shape[2] - self.lengths.size + np.arange(self.lengths.size)
        return self.sig_a[:, :, np.where(cycle < self.lengths, self.first + cycle, closing)]


def _simulate_chunk(strokes: _Strokes, idx: np.ndarray, sigma: np.ndarray,
                    span: tuple[int, ...], lengths: np.ndarray, first_cycle: np.ndarray,
                    eps_stop: np.ndarray, ends: bool) -> _Chunk:
    """The cycle kernel: evolve engines `idx` from `sigma` through `span`,
    consecutive chunks of the schedule, and return them as one chunk of
    sum(span) cycles, of which engine g computes the first lengths[g].

    Cycle starts come from powers of each engine's cycle map applied to its
    cursor.  Every inner chunk starts from the symmetrised end of the one
    before, the cursor a chunk per call would carry, and an engine's last
    chunk may be cut short, which computes a prefix of the same cycles, so
    no number depends on how the schedule is grouped into calls or on the
    lengths of the other engines.  The five stage energies of each cycle
    derive from one consistent chain of stroke sandwiches, so that the
    first-law residual is an identity that only a non-finite or
    rounding-level defect breaks.  It is checked on every computed cycle of
    each chunk up to and including the one where the engine's stop rule
    (w_cycle >= -eps_stop) fires; later chunks are dropped unchecked, as if
    never run.  One function computes the stages (_stages); `ends` (the
    caller reads the states after each stroke) chooses whether the chunk
    holds them, and without it the kernel computes of each only the entries
    the medium's energies read (_LEAN_ENTRIES).
    """
    n_eng, count = idx.size, sum(span)
    offsets = np.array([0, *itertools.accumulate(span)])
    rows = int(lengths.sum())
    # Every computed cycle start, engine by engine, then each engine's
    # closing state: its chunk, and its power of the cycle map applied to
    # that chunk's cursor.  The closing state ends its last cycle's chunk.
    owner = np.repeat(np.arange(n_eng), lengths)
    first = np.cumsum(lengths) - lengths
    cycles = np.concatenate((np.arange(rows) - first[owner], lengths))
    owner = np.concatenate((owner, np.arange(n_eng)))
    chunk = np.searchsorted(offsets[1:], np.minimum(cycles, lengths[owner] - 1), side="right")
    exponent = cycles - offsets[chunk]
    # A cursor past chunk i needs chunk i's whole power.
    last = int(chunk.max())
    top = max([int(exponent.max()), *span[:last]])
    shape = (n_eng, top + 1, 6, 6)
    powers = np.empty(shape) if ends else _SCRATCH.take(_POINTS, shape)
    powers[:, 0] = np.eye(6)
    cycle = strokes.cycle[idx]
    chain = list(powers.swapaxes(0, 1))  # views made in one go
    for j in range(top):
        np.matmul(cycle, chain[j], out=chain[j + 1])
    cursors = np.empty((n_eng, last + 1, 6, 6))
    cursors[:, 0] = sigma
    cursor = _by_element(sigma)
    for i in range(last):
        end = _sandwich_stack(_by_element(chain[span[i]]), cursor)
        cursor = 0.5 * (end + end.transpose(1, 0, 2))
        cursors[:, i + 1] = cursor.transpose(2, 0, 1)
    live = np.arange(count) < lengths[:, None]
    uniform = rows == live.size

    def by_engine(flat: np.ndarray) -> np.ndarray:
        """(rows,) -> (G, count), NaN past each engine's cycles."""
        if uniform:
            return flat.reshape(n_eng, count)
        out = np.full((n_eng, count), np.nan)
        out[live] = flat
        return out

    w1sq = strokes.w1sq[idx].repeat(lengths)
    w3sq = strokes.w3sq[idx].repeat(lengths)
    wsqs = (w3sq, w1sq, w1sq, w3sq, w3sq)  # at each stage of a cycle
    sig_a, states, energies = _stages(strokes, idx, lengths, powers, cursors,
                                      owner * (top + 1) + exponent, owner * (last + 1) + chunk,
                                      wsqs, ends)
    e_a, e_b, e_c, e_d, e_e = (by_engine(e) for e in energies)
    w1, q1 = e_b - e_a, e_b - e_c
    w2, q2 = e_d - e_c, e_d - e_e
    du = e_e - e_a
    w_cycle = w1 + w2
    hit = w_cycle >= -eps_stop[:, None]
    stopped = hit.any(axis=1)
    keep = np.where(stopped, hit.argmax(axis=1), count)

    residual = np.abs(w_cycle - q1 - q2 - du)
    budget = FIRST_LAW_RTOL * np.maximum(1.0, np.abs(w1) + np.abs(w2))
    bad = ~(residual <= budget) & live
    if bad.any():  # each engine's checks end with the chunk of its stop
        closes = offsets[1:]  # the cycle that ends each inner chunk
        bad &= np.arange(count) < closes[np.searchsorted(closes[:-1], keep, side="right")][:, None]
    if bad.any():
        g, k = np.argwhere(bad)[0]
        raise EnergyBalanceError(
            f"engine {strokes.ids[idx[g]]}, cycle {first_cycle[g] + k}: first-law residual "
            f"{residual[g, k]:.3e} exceeds {budget[g, k]:.3e}"
        )
    return _Chunk(span, lengths, live, first, keep, stopped, sig_a, *states,
                  e_a, e_b, e_c, e_d, e_e, w1, q1, w2, q2, du, w_cycle)


def _stages(strokes: _Strokes, idx: np.ndarray, lengths: np.ndarray, powers: np.ndarray,
            cursors: np.ndarray, power_at: np.ndarray, cursor_at: np.ndarray, wsqs: tuple,
            ends: bool) -> tuple[np.ndarray, list, np.ndarray]:
    """The cycle starts (6, 6, n) of a kernel call, n = power_at.size, the
    states after its four strokes, (6, 6, R) each, R = lengths.sum() (None
    without ends), and the medium's five stage energies of its computed
    cycles, (5, R), read at the squared frequencies wsqs.

    Start r is powers.reshape(-1, 6, 6)[power_at[r]] sandwiching
    cursors.reshape(-1, 6, 6)[cursor_at[r]].  After each stroke the kernel
    computes every entry with ends, else (a lean call) only _LEAN_ENTRIES,
    all rows at once either way.  With ends numpy allocates every array,
    as the states outlive the call's point build.  A lean call keeps no
    state but its starts, which _step reads (_Chunk.start, a copy) before
    the thread's next kernel call, so every array it makes is scratch
    (_LEAN_SLOTS); the gathers take mode="clip", as the default "raise"
    copies through a temporary.
    """
    rows, n = int(lengths.sum()), power_at.size
    energies, states = np.empty((5, rows)), [None] * 4
    at = idx.repeat(lengths)
    if ends:
        entries, stroke_maps = (_ALL,) * 4, strokes.stroke_maps

        def slots(uses: Sequence[int], shapes: Sequence[tuple]) -> list:
            return [None] * len(shapes)  # numpy allocates
    else:
        entries, slots = _LEAN_ENTRIES, _SCRATCH.carve
        # each stroke's maps, restricted to the entries it computes from
        # those before: a ramp's (even k) to the blocks of those entries'
        # oscillators
        stroke_maps = [
            maps[:, :, list(e[:len(e) // 2])] if k % 2 == 0 else maps[np.ix_(e, before)]
            for k, (maps, e, before) in enumerate(zip(strokes.stroke_maps, entries,
                                                      (_ALL, *entries)))]
    shape = (6, 6, n)
    pair = [_by_element(table.reshape(-1, 36).take(
                where, axis=0, out=slots((_PRODUCT,), ((n, 36),))[0], mode="clip"),
                *slots((use,), (shape,)))
            for use, table, where in ((_MAPS, powers, power_at), (_STATES, cursors, cursor_at))]
    odd = None if ends else pair[1]  # over the cursors
    sig_a = _sandwich_stack(*pair, *slots((_POINTS, _PRODUCT), (shape,) * 2), odd)
    state = sig_a[:, :, :rows]  # the computed starts; the closing states come last
    energies[0] = _energy(state, 1, wsqs[0])
    for k, (maps, (gather_use, other_use)) in enumerate(zip(stroke_maps, _LEAN_SLOTS)):
        size = len(entries[k])  # the state after stroke k
        shape = (size, size, rows)
        if k % 2:
            sandwich, product = _sandwich_stack, (size, maps.shape[1], rows)
        else:
            sandwich, product = _ramp_sandwich, shape
        taken, x, out, other = slots((gather_use, _PRODUCT, _MAPS, other_use),
                                     (maps.shape[:-1] + (rows,), product, shape, shape))
        states[k] = state = sandwich(maps.take(at, axis=-1, out=taken, mode="clip"), state,
                                     out, x, other)
        energies[k + 1] = _energy(state, 1, wsqs[k + 1], entries[k])
    return sig_a, states if ends else [None] * 4, energies


# A cycle's record columns, in CycleRecord's order of the floats.
_RECORD_FLOATS = ("w1", "w2", "q1", "q2", "du", "w_cycle", "e1", "e2", "e3")
_RECORD_COLUMNS = _RECORD_FLOATS + ("neg", "disc")


@dataclass
class _Runs:
    """Per-engine outcome of the stepping loop, row e for engine e.

    columns maps each record column to its values over every simulated
    cycle, probe included, engine by engine (w_cycle alone unless records
    were kept).  w_total sums each engine's counted cycles (np.sum).
    """

    simulated: np.ndarray   # (E,) cycles simulated, probe included
    probe: np.ndarray       # (E,) bool: the work stop rule fired
    sigma: np.ndarray       # (E, 6, 6) cursor after the last counted cycle
    neg_max: np.ndarray     # (E, 3) run-level maxima; NaN without correlations
    disc_max: np.ndarray
    columns: dict[str, np.ndarray]
    w_total: np.ndarray     # (E,)


def _run_engines(strokes: _Strokes, sigma0: np.ndarray, *, totals: np.ndarray,
                 eps_stop: np.ndarray, interior: tuple[int, int],
                 times: Optional[tuple[np.ndarray, np.ndarray]], correlations: bool,
                 keep_records: bool, series: Optional["_TimeSeriesBuilder"] = None) -> _Runs:
    """The stepping loop: run E engines in lockstep until each one stops.

    Engine e runs at most totals[e] cycles and stops before its first cycle
    with w_cycle >= -eps_stop[e] (that probe cycle is still simulated; pass
    -inf for no work rule).  Every engine follows the same chunk schedule,
    doubling from _CHUNK_START to _CHUNK_MAX and capped by
    _BATCH_POINT_BUDGET, so its numbers do not depend on the engines beside
    it.  Engines at the same point of the schedule with the same chunk
    size are stepped together in sub-batches of at most _CALL_POINTS
    kernel points, counting the cycles each engine computes; a call that
    keeps states also holds at most _STACK_CYCLES engine-cycles.  A lean
    call (no records, correlations or series read the states) holds three
    points per engine-cycle, so one call runs a whole optimizer round of
    up to 1,365 engine-cycles.  Both kinds of call run the same kernel.

    One rule sizes every kernel call.  Each engine has a planned end:
    totals[e] without a work rule, else its probe, predicted from its cycle
    map (_Strokes.probe_cycles) before a call past its first chunk, before
    any call without correlations, or before a first call with room for
    the second chunk too.  A sub-batch takes its following chunks while
    they share their sizes, within the bound above and short of the latest
    planned end, and cuts its last chunk at that end; each engine computes
    no cycle past its own.  An engine that outlives its cut chunk drops it
    and runs it again in full, from the same cursor, with no planned end;
    any cycle it keeps is computed exactly as without predictions.  A call
    with an engine not yet predicted runs one chunk: with correlations, the
    kernel's first chunk is the cheaper predictor for the engines that stop
    within it, which is most of a scan.

    Correlations are scored only at the kept cycles' points, batched
    across engines; a score that is not finite raises PhysicalityError.
    interior holds the heating and cooling strokes' interior points per
    cycle, (nh, nc); times, their instants, (E, nh) and (E, nc), is read
    only with correlations or a series and may be None without them.
    series, if given, receives every call of a one-engine run.
    """
    n_eng = strokes.size
    if series is not None and n_eng != 1:
        raise ValueError("a time series follows exactly one engine")
    if correlations or series is not None:
        heat_times, cool_times = times
        heat_mats = _by_element(coupling_propagators_at(
            strokes.alpha12[:, None], strokes.w1[:, None], strokes.w3[:, None], heat_times,
            CouplingSide.HOT_PAIR)).reshape(6, 6, *heat_times.shape)
        cool_mats = _by_element(coupling_propagators_at(
            strokes.alpha23[:, None], strokes.w3[:, None], strokes.w1[:, None], cool_times,
            CouplingSide.COLD_PAIR)).reshape(6, 6, *cool_times.shape)
    else:
        heat_mats = cool_mats = None
    nh, nc = interior
    # Points held per cycle: the kernel's, or the rows of a time series,
    # which add the ramp interiors.
    per_cycle = 3 + nh + nc if series is None else series.rows_per_cycle
    ends = correlations or keep_records or series is not None  # read the states after cooling
    chunk_cap = max(1, min(_CHUNK_MAX, _BATCH_POINT_BUDGET // per_cycle))
    # A lean call holds no interior points, only the three of each cycle.
    stack_cap = max(1, min(_STACK_CYCLES, _BATCH_POINT_BUDGET // per_cycle,
                           _CALL_POINTS // (3 + nh + nc)) if ends else _CALL_POINTS // 3)

    def chunk_size(k: int) -> int:
        """Cycles in chunk k of the doubling schedule."""
        return min(_CHUNK_START << min(k, _CHUNK_MAX.bit_length()), chunk_cap)

    def span_of(k: int, count: int, reach: np.ndarray, left: tuple[int, int], cap: int,
                latest: float) -> list[int]:
        """Chunks k, k+1, ... for one call, chunk k of count cycles:
        following chunks join while the engines share their size (left:
        the fewest and the most cycles an engine has left after chunk k),
        the call holds at most cap engine-cycles, an engine none past its
        planned end (reach: cycles to it, inf without one, NaN until
        predicted), and the span falls short of latest cycles (NaN: chunk
        k alone)."""
        def held(cycles: int) -> float:
            return float(np.fmin(reach, cycles).sum())

        span, total = [count], count
        fewest, most = left
        while total < latest and held(total + 1) <= cap:
            size = chunk_size(k + len(span))
            c = min(size, fewest)
            if c == 0 or c != min(size, most) or held(total + c) > cap:
                break
            span.append(c)
            total += c
            fewest, most = fewest - c, most - c
        return span

    sigma = np.array(sigma0, dtype=float)
    simulated = np.zeros(n_eng, dtype=int)
    probe = np.zeros(n_eng, dtype=bool)
    fill = 0.0 if correlations else np.nan
    neg_max, disc_max = np.full((2, n_eng, 3), fill)
    names = _RECORD_COLUMNS if keep_records else ("w_cycle",)
    # (engines, columns) of each call's kept cycles, engine by engine
    parts: list[tuple[np.ndarray, dict[str, np.ndarray]]] = [(np.empty(0, dtype=int), {
        n: np.empty((0, 3) if n in ("neg", "disc") else 0) for n in names})]
    # Cycles each engine is planned to simulate, probe included (at least,
    # where no probe falls below the prediction's horizon): totals without
    # a work rule, else NaN until predicted and inf without a prediction.
    planned = np.where(eps_stop > -np.inf, np.nan, totals)

    step = np.zeros(n_eng, dtype=int)  # each engine's next chunk of the schedule
    active = (totals > 0).nonzero()[0]
    while active.size:
        k = int(step[active].min())
        now = active[step[active] == k]
        # engines at one point of the schedule have simulated the same cycles
        done = int(simulated[now[0]])
        left = totals[now] - done
        counts = np.minimum(chunk_size(k), left)
        for count in sorted(set(counts.tolist())):
            sel = counts == count
            same, rest = now[sel], left[sel] - count
            # Sub-batches of consecutive engines that hold at most stack_cap
            # engine-cycles of chunk k, an engine none past its planned end.
            batches, load = [[]], 0.0
            for g, cycles in enumerate(np.fmin(planned[same] - done, count).tolist()):
                if batches[-1] and load + cycles > stack_cap:
                    batches.append([])
                    load = 0.0
                batches[-1].append(g)
                load += cycles
            for rows in batches:
                idx, sub = same[rows], rest[rows]
                bounds = int(sub.min()), int(sub.max())
                fresh = idx[np.isnan(planned[idx])]
                if fresh.size and (k > 0 or not correlations
                                   or idx.size * (count + chunk_size(1)) <= stack_cap):
                    horizon = int(min(_STACK_CYCLES, totals[fresh].max()))
                    cycle = strokes.probe_cycles(fresh, sigma0[fresh], eps_stop[fresh], horizon)
                    # A probe among the cycles run already was missed; an
                    # engine with no probe below the horizon runs to it at least.
                    planned[fresh] = np.where(cycle >= done, np.minimum(cycle + 1.0, horizon),
                                              np.inf)
                # Cycles to each engine's planned end, inf without a
                # prediction.  The call reaches the latest of them; an
                # engine still unpredicted (NaN) keeps it to one chunk.
                reach = planned[idx] - done
                latest = float(reach.max())
                span = span_of(k, count, reach, bounds, stack_cap, latest)
                cut = sum(span) > latest
                if cut:
                    span[-1] -= sum(span) - int(latest)
                total = sum(span)
                lengths = np.where(reach < total, reach, total).astype(int)
                kept = _step(strokes, idx, tuple(span), lengths, cut, sigma, simulated, probe,
                             neg_max, disc_max, parts, heat_mats, cool_mats, eps_stop,
                             correlations, keep_records, series, ends)
                step[idx] += kept
                # engines that outlive their planned end run its chunk again, in full
                planned[idx[~probe[idx] & (reach <= total)]] = np.inf
        active = active[~probe[active] & (simulated[active] < totals[active])]

    order = np.argsort(np.concatenate([owner for owner, _ in parts]), kind="stable")
    columns = {name: np.concatenate([cols[name] for _, cols in parts])[order] for name in names}
    w, ends = columns["w_cycle"], np.cumsum(simulated)
    w_total = np.array([np.add.reduce(w[a:b]) for a, b in
                        zip((ends - simulated).tolist(), (ends - probe).tolist())], dtype=float)
    return _Runs(simulated, probe, sigma, neg_max, disc_max, columns, w_total)


def _step(strokes: _Strokes, idx: np.ndarray, span: tuple[int, ...], lengths: np.ndarray,
          cut: bool, sigma: np.ndarray, simulated: np.ndarray, probe: np.ndarray,
          neg_max: np.ndarray, disc_max: np.ndarray, parts: list,
          heat_mats: Optional[np.ndarray], cool_mats: Optional[np.ndarray],
          eps_stop: np.ndarray, correlations: bool, records: bool,
          series: Optional["_TimeSeriesBuilder"], ends: bool) -> np.ndarray:
    """One kernel call, the chunks `span`, for engines `idx`, engine g
    computing the first lengths[g] cycles (cut: the last chunk is cut
    short); updates the loop state in place, appends the kept cycles'
    record columns (w_cycle alone without records) to parts, and returns
    the whole chunks each engine kept.  ends: whether correlations, records
    or a time series read the states at the cycles' ends.

    An engine that did not stop keeps only the whole chunks it computed.
    Interior states are built only for the cycles each engine keeps, and
    only when correlations or a time series read them.
    """
    chunk = _simulate_chunk(strokes, idx, sigma[idx], span, lengths, simulated[idx],
                            eps_stop[idx], ends)
    count, keep, stopped = sum(span), chunk.keep, chunk.stopped
    closes = np.cumsum(span[:len(span) - cut], dtype=int)  # the ends of the whole chunks
    whole = np.searchsorted(closes, lengths, side="right")
    rows = np.where(stopped, keep + 1, np.append(0, closes)[whole])
    has = slice(None)  # the engines that keep cycles of this call
    if not rows.all():
        if not rows.any():
            return whole
        has = rows > 0

    points = neg = disc = None
    # Kept cycles, engine by engine, as one row axis: of the (G, count)
    # cycles, and their positions among the computed ones.
    first = np.cumsum(rows) - rows
    keeps = np.arange(count) < rows[:, None]
    kept = np.flatnonzero(keeps[chunk.live])
    owner = idx.repeat(rows)
    if heat_mats is not None:
        # The kept cycles' points, point-major (6, 6, P, R): start, heating
        # interiors, after heating, cooling interiors, end.  Ramp interiors
        # carry no new correlation values.  Interior i of kept cycle r
        # sandwiches the state it starts from by its engine's map i.
        # Every array of the build is scratch (_Scratch); the gathers take
        # mode="clip", as the default "raise" copies through a temporary.
        nh, nc, size = heat_mats.shape[3], cool_mats.shape[3], kept.size
        points = _SCRATCH.take(_POINTS, (6, 6, 3 + nh + nc, size))
        flat = points.reshape(6, 6, -1)
        for at, sig in ((0, chunk.sig_a), (1 + nh, chunk.sig_c), (2 + nh + nc, chunk.sig_e)):
            points[:, :, at] = sig.take(kept, axis=2)
        for lo, mats, sig in ((1, heat_mats, chunk.sig_b), (2 + nh, cool_mats, chunk.sig_d)):
            n = mats.shape[3]
            work = [_SCRATCH.take(use, (6, 6, n * size)) for use in (_MAPS, _STATES, _PRODUCT, _ODD)]
            mats.reshape(6, 6, -1).take((np.arange(n)[:, None] + owner * n).ravel(), axis=2,
                                        out=work[0], mode="clip")
            sig.take(np.tile(kept, n), axis=2, out=work[1], mode="clip")
            _sandwich_stack(work[0], work[1], flat[:, :, lo * size:(lo + n) * size], *work[2:])
    if correlations:
        neg, disc = pair_correlations(np.moveaxis(points, (0, 1), (-2, -1)))
        cyc_neg, cyc_disc = neg.max(axis=0), disc.max(axis=0)
        finite = np.isfinite(cyc_neg).all(axis=1) & np.isfinite(cyc_disc).all(axis=1)
        if not finite.all():
            r = int(np.argmin(finite))
            g = int(np.searchsorted(first, r, side="right")) - 1
            raise PhysicalityError(
                f"engine {strokes.ids[idx[g]]}, cycle {simulated[idx[g]] + r - first[g]}: "
                f"pair correlations are not finite (negativity {cyc_neg[r].tolist()}, "
                f"discord {cyc_disc[r].tolist()})")
        scored = idx[has]
        neg_max[scored] = np.maximum(neg_max[scored],
                                     np.maximum.reduceat(cyc_neg, first[has], axis=0))
        disc_max[scored] = np.maximum(disc_max[scored],
                                      np.maximum.reduceat(cyc_disc, first[has], axis=0))

    cols = {"w_cycle": chunk.w_cycle[keeps]}
    if records:
        for name in ("w1", "q1", "w2", "q2", "du"):
            cols[name] = getattr(chunk, name)[keeps]
        end_states = chunk.sig_e.take(kept, axis=2)
        cols["e1"] = _energy(end_states, 0, strokes.w1sq[owner])
        cols["e2"] = chunk.e_e[keeps]
        cols["e3"] = _energy(end_states, 2, strokes.w3sq[owner])
        cols["neg"], cols["disc"] = ((cyc_neg, cyc_disc) if correlations
                                     else np.full((2, owner.size, 3), np.nan))
    parts.append((owner, cols))
    if series is not None:
        series.add_chunk(chunk, int(rows[0]), points, neg, disc)

    # the state after each engine's last kept cycle, the probe excluded
    final = chunk.start(rows - stopped)
    sigma[idx[has]] = (0.5 * (final + final.transpose(1, 0, 2))).transpose(2, 0, 1)[has]
    simulated[idx] += rows
    probe[idx] = stopped
    return whole


class Engine:
    """One engine configuration and its validated initial state.

    Every run starts from sigma_initial and goes through the same cycle
    kernel and stepping loop as an ensemble of engines, here an ensemble of
    one, so repeated runs give the same result.
    """

    def __init__(self, params: EngineParams) -> None:
        self.params = params
        self._batch = EngineBatch.of([params])
        self._strokes = _Strokes(self._batch)
        self.sigma_initial = product_state(params.prep)

    def run(self, *, want_timeseries: bool = True, correlations: bool = True,
            keep_records: bool = True) -> EngineResult:
        """Repeat cycles from sigma_initial until the stop rule fires.

        correlations=False reduces the run to pure energy bookkeeping, the
        fastest mode, leaving NaN in every correlation field.  A run without
        records samples the coupling strokes sparsely, at 4 heating and 2
        cooling interior instants per cycle, unless sample_dt is set.
        """
        params, batch = self.params, self._batch
        sigma0 = self.sigma_initial.matrix
        samples = (DEFAULT_STROKE_SAMPLES,) * 2 if keep_records else _REDUCED_SAMPLES
        read = correlations or want_timeseries  # the interior instants are read
        (nh, heat_times), (nc, cool_times) = (
            _interior(tau, n, batch.sample_dt, instants=read)
            for tau, n in zip((batch.tau_h, batch.tau_c), samples))
        ts = None
        if want_timeseries:
            ts = _TimeSeriesBuilder(params, self._strokes, sigma0, heat_times[0], cool_times[0],
                                    correlations)
        runs = _run_engines(
            self._strokes, sigma0[None], totals=batch.totals, eps_stop=batch.eps_stop,
            interior=(int(nh[0]), int(nc[0])), times=(heat_times, cool_times) if read else None,
            correlations=correlations, keep_records=keep_records, series=ts)

        records: list[CycleRecord] = []
        if keep_records:
            w1, w2, q1, q2, du, w_cycle, e1, e2, e3 = (runs.columns[name].tolist()
                                                       for name in _RECORD_FLOATS)
            w_cum = list(itertools.accumulate(w_cycle, initial=0.0))[1:]  # summed from 0.0
            eta = [efficiency(*cycle).value for cycle in zip(w_cycle, du, q1, q2)]
            disc, neg = (zip(*runs.columns[name].tolist()) for name in ("disc", "neg"))
            records = [CycleRecord(*row) for row in zip(
                range(len(w1)), w1, w2, q1, q2, du, w_cycle, w_cum, eta, e1, e2, e3, *disc, *neg)]
        probe = records.pop() if keep_records and runs.probe[0] else None
        return _result(params, runs, 0, self.sigma_initial, CovarianceMatrix(runs.sigma[0]),
                       records, probe, ts.finish() if ts is not None else None)


def _result(params: EngineParams, runs: _Runs, e: int, sigma_initial: CovarianceMatrix,
            sigma_final: CovarianceMatrix, records: Sequence[CycleRecord] = (),
            probe: Optional[CycleRecord] = None,
            timeseries: Optional[TimeSeries] = None) -> EngineResult:
    """The EngineResult of engine e of the stepping loop's outcome."""
    probe_seen = bool(runs.probe[e])
    return EngineResult(
        params=params,
        records=tuple(records),
        probe=probe,
        stop_reason=("work_non_negative" if probe_seen else
                     "fixed_cycles" if isinstance(params.stop, FixedCycles) else "cycle_cap"),
        n_cycles=int(runs.simulated[e]) - probe_seen,
        w_total=float(runs.w_total[e]),
        timeseries=timeseries,
        sigma_initial=sigma_initial,
        sigma_final=sigma_final,
        discord_max=tuple(runs.disc_max[e].tolist()),
        negativity_max=tuple(runs.neg_max[e].tolist()),
    )


class _TimeSeriesBuilder:
    """Accumulates time-series rows chunk by chunk.

    Each stroke of a cycle emits one row at its start, then one per interior
    instant.  Ramp interiors keep the start's spectator energies and
    correlations (local maps conserve both) and read E2 off the medium's
    block of the start state sandwiched through the medium's blocks of the
    sweep's interior maps; coupling interiors read the kernel's points.
    A cycle's closing edge is the next cycle's first row; finish() appends
    the newest edge, the initial state sigma0 if no cycle ran.
    """

    def __init__(self, params: EngineParams, strokes: _Strokes, sigma0: np.ndarray,
                 heat_times: np.ndarray, cool_times: np.ndarray, correlations: bool) -> None:
        w1, w3 = params.prep.omega1, params.prep.omega3
        # the kernel's squares, so every E1/E3 equals the cycle records' bit for bit
        self._w1sq, self._w3sq = strokes.w1sq[0], strokes.w3sq[0]
        self._cycle_duration = params.cycle_duration
        self._cycles_added = 0
        self._correlations = correlations
        ramp_times = (_interior(np.array([params.tau_comp]), DEFAULT_STROKE_SAMPLES,
                                np.array([math.nan if params.sample_dt is None
                                          else params.sample_dt]), instants=True)[1][0]
                      if params.ramp is RampMode.LINEAR_AIRY else np.empty(0))

        def sweep(omega_in: float, omega_fin: float) -> tuple[np.ndarray, np.ndarray]:
            """The medium's (x2, p2) blocks of a sweep's interior maps,
            (2, 2, 1, 1, n), and its squared frequency at each instant."""
            if ramp_times.size == 0:
                return np.empty((2, 2, 1, 1, 0)), np.empty(0)
            schedule = RampSchedule(omega_in, omega_fin, params.tau_comp)
            mats = ramp_propagators_at(schedule, ramp_times, spectator_omega1=w1,
                                       spectator_omega3=w3)
            return (_by_element(mats)[np.ix_((1, 4), (1, 4))][:, :, None, None],
                    schedule.omega_sq(ramp_times))

        tau_r, nh = params.ramp_duration, heat_times.size
        # Per stroke: start offset, interior offsets, the sweep's interior maps
        # (None for a coupling stroke), the medium's squared frequency at the
        # interior instants and the scored point of its start; a cycle's
        # scored points are its start, the heating interiors, the state after
        # heating, the cooling interiors and its end.
        self._strokes = (
            (0.0, ramp_times, *sweep(w3, w1), 0),
            (tau_r, heat_times, None, self._w1sq, 0),
            (tau_r + params.tau_h, ramp_times, *sweep(w1, w3), 1 + nh),
            (2.0 * tau_r + params.tau_h, cool_times, None, self._w3sq, 1 + nh),
        )
        self._offsets = np.concatenate([np.append(start, start + times)
                                        for start, times, *_ in self._strokes])
        self._points = np.concatenate([
            np.append(point, np.full(times.size, point) if maps is not None
                      else point + 1 + np.arange(times.size))
            for _, times, maps, _, point in self._strokes])
        self.rows_per_cycle = self._offsets.size
        self._rows: list[tuple[np.ndarray, ...]] = []
        # (time, state, E2, scored pair correlations or None) of the newest edge
        self._end = (0.0, sigma0, _energy(sigma0, 1, self._w3sq), None)

    def add_chunk(self, chunk: _Chunk, rows: int, points: np.ndarray,
                  neg: Optional[np.ndarray], disc: Optional[np.ndarray]) -> None:
        """Rows of the engine's first `rows` cycles of a one-engine chunk.

        points holds those cycles' points, (6, 6, points, rows), and neg
        and disc their scores, (points, rows, 3), or None without
        correlations.  Row times count from the start of each cycle's inner
        chunk of the span, so they do not depend on how chunks are grouped
        into kernel calls.
        """
        m, dur = rows, self._cycle_duration
        # first cycle of each row's inner chunk; the closing edge shares the last's
        first = np.repeat(np.cumsum(chunk.span) - chunk.span, chunk.span)[:m]
        first = np.append(first, first[-1])
        t_cycle = (self._cycles_added + first) * dur + dur * (np.arange(m + 1) - first)
        self._cycles_added += m
        starts = ((chunk.sig_a, chunk.e_a), (chunk.sig_b, chunk.e_b),
                  (chunk.sig_c, chunk.e_c), (chunk.sig_d, chunk.e_d))
        e1, e2, e3 = [], [], []
        for (_, times, maps, wsq, point), (sig, e_start) in zip(self._strokes, starts):
            s = sig[:, :, :m]
            e1.append(_energy(s, 0, self._w1sq)[:, None])
            e2.append(e_start[0, :m, None])
            e3.append(_energy(s, 2, self._w3sq)[:, None])
            if maps is None:  # a coupling stroke's interiors follow its start's point
                inner = points[:, :, point + 1:point + 1 + times.size].transpose(0, 1, 3, 2)
                e1.append(_energy(inner, 0, self._w1sq))
                e2.append(_energy(inner, 1, wsq))
                e3.append(_energy(inner, 2, self._w3sq))
            else:  # a sweep moves the medium alone
                e1.append(np.repeat(e1[-1], times.size, axis=1))
                inner = _ramp_sandwich(maps, s[np.ix_((1, 4), (1, 4))][..., None])
                e2.append(_energy(inner, 1, wsq, entries=(1, 4)))
                e3.append(np.repeat(e3[-1], times.size, axis=1))
        t = t_cycle[:m, None] + self._offsets[None, :]
        energies = [np.concatenate(e, axis=1).reshape(-1) for e in (e1, e2, e3)]
        corr = ([np.full((t.size, 3), np.nan)] * 2 if neg is None
                else [src.transpose(1, 0, 2)[:, self._points].reshape(-1, 3)
                      for src in (neg, disc)])
        self._rows.append((t.reshape(-1), *energies, *corr))
        scored = None if neg is None else (neg[-1, m - 1], disc[-1, m - 1])
        self._end = (t_cycle[m], chunk.sig_e[:, :, m - 1],
                     chunk.e_e[0, m - 1], scored)

    def finish(self) -> TimeSeries:
        t, state, e2, scored = self._end
        if scored is None:  # correlations off, or no cycle ran
            scored = (pair_correlations(state) if self._correlations
                      else (np.full(3, np.nan),) * 2)
        last = (np.array([t]), np.array([_energy(state, 0, self._w1sq)]), np.array([e2]),
                np.array([_energy(state, 2, self._w3sq)]), scored[0][None], scored[1][None])
        t, e1, e2, e3, neg, disc = (np.concatenate(col) for col in zip(*self._rows, last))
        return TimeSeries(t=t, e1=e1, e2=e2, e3=e3,
                          d12=disc[:, 0], d23=disc[:, 1], d13=disc[:, 2],
                          n12=neg[:, 0], n23=neg[:, 1], n13=neg[:, 2])


def run_reduced(params: EngineParams, *, correlations: bool = True) -> EngineResult:
    """Run a fresh engine with sparse correlation sampling and no records.

    Intended for parameter scans and optimization loops: totals, cycle
    count and run-level correlation maxima survive; per-cycle records and
    the time series are dropped.  Inside a prepared(...) block that holds
    params, the correlation-free result comes from that block's ensemble.
    """
    table = _prepared.get()
    if table is not None and not correlations:
        result = table.pop(id(params), None)
        if result is not None:
            return result
    return Engine(params).run(want_timeseries=False, correlations=correlations,
                              keep_records=False)


# The results of the innermost prepared(...) block, by id of their params;
# each result holds its params, so no id is reused while it is listed.
_prepared: ContextVar[Optional[dict[int, EngineResult]]] = ContextVar(
    "otto3_prepared", default=None)


@dataclass(frozen=True)
class EnsembleTotals:
    """What run_reduced keeps of each engine of an ensemble; row e is params[e]."""

    n_cycles: np.ndarray        # (E,) counted cycles
    w_total: np.ndarray         # (E,)
    discord_max: np.ndarray     # (E, 3) pairs (1,2), (2,3), (1,3)
    negativity_max: np.ndarray  # (E, 3)


def _batches(params: Sequence[EngineParams]) -> Iterator[tuple[np.ndarray, EngineBatch]]:
    """The engines of params by ramp mode: each mode's positions in params
    and its batch, which names engines by those positions."""
    by_ramp: dict[RampMode, list[int]] = {}
    for e, p in enumerate(params):
        by_ramp.setdefault(p.ramp, []).append(e)
    for rows in by_ramp.values():
        yield np.array(rows), EngineBatch.of([params[e] for e in rows], ids=rows)


def _cohorts(batch: EngineBatch, sigma0: np.ndarray,
             correlations: bool) -> Iterator[tuple[np.ndarray, _Runs]]:
    """Run run_reduced's engines of a batch together, _ENSEMBLE_SIZE at a
    time; yields the rows and the outcome of each cohort, engines with the
    same interior point counts, which share stacks."""
    strokes = (batch.tau_h, batch.tau_c)
    for lo in range(0, batch.size, _ENSEMBLE_SIZE):
        block = np.arange(lo, min(lo + _ENSEMBLE_SIZE, batch.size))
        nh, nc = (_interior(tau[block], n, batch.sample_dt[block])[0]
                  for tau, n in zip(strokes, _REDUCED_SAMPLES))
        key = nh * (_BATCH_POINT_BUDGET + 1) + nc
        for k in dict.fromkeys(key.tolist()):  # in order of first appearance
            rows = block[key == k]
            times = None
            if correlations:  # the interior instants are read
                times = tuple(_interior(tau[rows], n, batch.sample_dt[rows], instants=True)[1]
                              for tau, n in zip(strokes, _REDUCED_SAMPLES))
            yield rows, _run_engines(
                _Strokes(batch, rows), sigma0[rows], totals=batch.totals[rows],
                eps_stop=batch.eps_stop[rows], interior=divmod(k, _BATCH_POINT_BUDGET + 1),
                times=times, correlations=correlations, keep_records=False)


def run_reduced_ensemble(params: Union[EngineBatch, Sequence[EngineParams]], *,
                         correlations: bool = True) -> EnsembleTotals:
    """run_reduced for many engines at once, stepped together in lockstep.

    params is a batch, or EngineParams that run as one batch per ramp mode.
    Every engine gets exactly the numbers run_reduced gives it alone: the
    engines share one cycle kernel and stepping loop, never their
    arithmetic.  Engines are taken _ENSEMBLE_SIZE at a time.  Every initial
    and final state is checked for physicality once; errors name engines by
    their batch ids, by default their position in `params`, whenever the
    run holds more than one engine.
    """
    if isinstance(params, EngineBatch):
        n_eng, batches = params.size, [(np.arange(params.size), params)]
    else:
        n_eng, batches = len(params), _batches(params)
    out = EnsembleTotals(np.zeros(n_eng, dtype=int), np.zeros(n_eng), *np.zeros((2, n_eng, 3)))
    for positions, batch in batches:
        ids = batch.ids if n_eng > 1 else None
        sigma0 = validate_covariances(product_states(batch.modes, batch.omega1, batch.omega3),
                                      ids)
        for rows, runs in _cohorts(batch, sigma0, correlations):
            validate_covariances(runs.sigma, None if ids is None else ids[rows])
            at = positions[rows]
            out.n_cycles[at], out.w_total[at] = runs.simulated - runs.probe, runs.w_total
            out.discord_max[at], out.negativity_max[at] = runs.disc_max, runs.neg_max
    return out


def _reduced_results(params: Sequence[EngineParams]) -> list[EngineResult]:
    """run_reduced(p, correlations=False) of every p in params, run as one
    correlation-free ensemble (run_reduced_ensemble's stepping, which names
    the engine of a refused final state the same way)."""
    initial = _per_prep(params, product_state)
    results: list[Optional[EngineResult]] = [None] * len(params)
    for positions, batch in _batches(params):
        ids = batch.ids if len(params) > 1 else None
        sigma0 = np.array([initial[e].matrix for e in positions])
        for rows, runs in _cohorts(batch, sigma0, False):
            final = CovarianceMatrix.stack(runs.sigma, None if ids is None else ids[rows])
            for k, e in enumerate(positions[rows].tolist()):
                results[e] = _result(params[e], runs, k, initial[e], final[k])
    return results


@contextlib.contextmanager
def prepared(params: Sequence[EngineParams]) -> Iterator[None]:
    """Run params as one correlation-free ensemble on entry; inside the
    block, run_reduced(p, correlations=False) of each of these very objects
    returns its result, once, with the numbers it computes alone.

    Callers that evaluate many points one call at a time (the optimizer)
    get ensemble throughput this way while still making one run_reduced
    call per evaluation.  The results are local to the calling context and
    are dropped when the block ends, normally or by an error.
    """
    table = {id(r.params): r for r in _reduced_results(params)}
    token = _prepared.set(table)
    try:
        yield
    finally:
        table.clear()
        _prepared.reset(token)
