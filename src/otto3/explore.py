"""Parameter-space exploration: seeded random scans and bounded optimization.

Scans draw engine parameters uniformly from a box, run each engine to its
stop rule, and record total work next to the run's correlation maxima.
Sample i always uses the random substream spawned as (seed, spawn_key=(i,)),
so results are bit-identical however the samples are distributed over
workers.  A block of samples is drawn into one array, one column per
sample, run as one engine.EngineBatch and read back from its result
arrays; no sample becomes an EngineParams.

The optimizer minimizes total work (most negative is best) with bounded
Nelder-Mead from several seeded starting points, or optionally with
differential evolution.  The landscape oscillates strongly along tau_comp,
whose value sets the medium's dynamical phase between coupling strokes, so
restarts are spread over the best of a coarse seeded presample rather than
blind uniform draws.  The restarts that the evaluation budget cannot cut
run side by side on the calling thread, in rounds: each restart is an
ask/tell port of scipy's bounded Nelder-Mead (_nelder_mead), and the
points of a round, one per live restart, run as one ensemble
(engine.prepared).  The presample and each differential-evolution
generation run as one ensemble too.  Every restart sees what it would see
alone, and the trace records the restarts' values in restart order, so
the outcome is that of running them one after another.

scipy.optimize and multiprocessing are imported where they are first
used, by differential evolution and by scans with more than one worker,
so the other paths never load them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from .energetics import ergotropy
from . import engine
from .engine import EngineParams, WorkNonNegative, run_reduced, run_reduced_ensemble
from .errors import ConfigError, check_count
from .propagators import RampMode
from .states import Preparation, squeezed_preparation, thermal_preparation

DEFAULT_BETA1 = 1e-2
# Default omega3 interval of a scan or an omega3-free optimization: clear
# of the degenerate-ramp corner at omega3 -> omega1.
OMEGA3_RANGE = (0.01, 0.99)
# Draws per scan sample before a weak-cold-contact filter that no draw
# meets is refused; the default box passes alpha23 * tau_c >= 0.02 about
# one draw in four.
MAX_DRAWS = 10_000
METHODS = ("nelder-mead", "differential-evolution")

# Draw order within one sample's substream; omega3 comes last when boxed.
DIMENSIONS = ("alpha12", "alpha23", "tau_h", "tau_c", "tau_comp", "omega3")


@dataclass(frozen=True)
class ParameterBox:
    """Closed per-parameter intervals; a collapsed interval pins the value.

    omega3=None means the frequency is not part of the box and must be
    supplied by the caller; scans default it to OMEGA3_RANGE.
    """

    alpha12: tuple[float, float] = (1e-4, 0.05)
    alpha23: tuple[float, float] = (1e-4, 0.05)
    tau_h: tuple[float, float] = (1e-3, 1.0)
    tau_c: tuple[float, float] = (1e-3, 1.0)
    tau_comp: tuple[float, float] = (1.0, 100.0)
    omega3: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        for name in DIMENSIONS:
            iv = getattr(self, name)
            if iv is None:
                continue
            lo, hi = iv
            for end in iv:
                if not math.isfinite(end):
                    raise ConfigError(f"{name} interval {iv} has a non-finite endpoint {end}")
            if not lo <= hi:
                raise ConfigError(f"{name} interval {iv} is not an ordered pair")
            if lo < 0:
                raise ConfigError(f"{name} interval {iv} reaches below zero")
        if self.omega3 is not None and not (0.0 < self.omega3[0] and self.omega3[1] < 1.0):
            raise ConfigError(f"omega3 interval {self.omega3} must sit inside (0, 1)")

    def interval(self, name: str) -> tuple[float, float]:
        iv = getattr(self, name)
        if iv is None:
            raise ConfigError(f"box has no {name} interval")
        return iv

    def clip(self, name: str, value: float) -> float:
        lo, hi = self.interval(name)
        return min(max(value, lo), hi)


class PrepFamily(enum.Enum):
    """Initial-state family of a scan or optimization.

    THERMAL: hot oscillator thermal at beta1, the rest in vacuum.
    SQUEEZED: hot oscillator squeezed to the same mean energy, rest vacuum.
    """

    THERMAL = "thermal"
    SQUEEZED = "squeezed"

    def preparation(self, omega3: float, beta1: float = DEFAULT_BETA1) -> Preparation:
        if self is PrepFamily.THERMAL:
            return thermal_preparation(beta1=beta1, omega3=omega3)
        return squeezed_preparation(beta1=beta1, omega3=omega3)


@dataclass(frozen=True)
class ScanSample:
    """One scan draw and the outcome of its engine run.

    Both correlation trios are recorded whatever the family; analyses pick
    the one they care about.  Runs whose first cycle already fails the work
    criterion have cycles=0 and w_total=0, with correlation maxima taken
    from that probe cycle.
    """

    index: int
    alpha12: float
    alpha23: float
    tau_h: float
    tau_c: float
    tau_comp: float
    omega3: float
    cycles: int
    w_total: float
    d12_max: float
    d23_max: float
    d13_max: float
    n12_max: float
    n23_max: float
    n13_max: float

    COLUMNS = ("index", "alpha12", "alpha23", "tau_h", "tau_c", "tau_comp",
               "omega3", "cycles", "w_total", "d12_max", "d23_max", "d13_max",
               "n12_max", "n23_max", "n13_max")


@dataclass(frozen=True)
class ScanSettings:
    """Everything a scan worker needs besides the sample index."""

    seed: int
    box: ParameterBox
    family: PrepFamily
    beta1: float
    ramp: RampMode
    max_cycles: int
    min_alpha23_tau_c: float


# numpy's SeedSequence hash and PCG64 seeding, which NEP 19 keeps
# stream-compatible across numpy versions: the pool size, the hash
# constants and multipliers, and PCG64's 128-bit multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _substreams(seed: int, indices: range) -> list[dict]:
    """The PCG64 state of default_rng(SeedSequence(seed, spawn_key=(i,)))
    for each i of indices, as bit_generator.state takes it.

    The SeedSequence entropy is the seed's 32-bit words, zero padding to
    the pool size, then i.  The hash constants do not depend on the data,
    so the hash runs over (words, samples) uint32 arrays, every sample's
    in one pass.  Indices of more than one word go through numpy's
    SeedSequence itself.
    """
    if max(indices, default=0) > _MASK32:
        return [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state
                for i in indices]
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = np.empty((len(words) + 1, len(indices)), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = indices

    def constants(init: int, mult: int, count: int) -> np.ndarray:
        out = [init]
        for _ in range(count):
            out.append(out[-1] * mult & _MASK32)
        return np.array(out, dtype=np.uint32)[:, None]

    # hashmix call t xors with a[t] and multiplies by a[t + 1]; the pool
    # takes 4 calls, its mixing 12 and each further entropy word 4
    a = constants(_INIT_A, _MULT_A, 4 * entropy.shape[0])

    def hashmix(value: np.ndarray, t: int) -> np.ndarray:
        """Hash calls t, t + 1, ... of the rows of value."""
        value = (value ^ a[t:t + len(value)]) * a[t + 1:t + 1 + len(value)]
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> 16

    pool, t = hashmix(entropy[:_POOL_SIZE], 0), _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * len(dst)], t))
        t += len(dst)
    for word in entropy[_POOL_SIZE:]:
        pool = mix(pool, hashmix(np.broadcast_to(word, pool.shape), t))
        t += _POOL_SIZE
    # generate_state(4, np.uint64): eight words off the pool in turn,
    # paired little-endian into (s_high, s_low, i_high, i_low)
    b = constants(_INIT_B, _MULT_B, 8)
    state = (pool[np.arange(8) % _POOL_SIZE] ^ b[:-1]) * b[1:]
    state = (state ^ state >> 16).astype(np.uint64)
    seeded = []
    for s0, s1, i0, i1 in zip(*(state[1::2] << np.uint64(32) | state[::2]).tolist()):
        # pcg64_set_seed: inc = 2 i + 1, then two steps around adding s
        inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
        seeded.append({"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, "inc": inc}})
    return seeded


def _draws(indices: range, settings: ScanSettings) -> np.ndarray:
    """(len(DIMENSIONS), n) parameter draws of the samples indices, one
    column per sample.  Sample i draws from its own substream: one
    uniform draw over the box, lo + (hi - lo) * U, per attempt, redrawn
    until the weak-cold-contact filter passes, so the filter cannot break
    determinism.  A filter that MAX_DRAWS draws do not meet is refused.
    One generator serves every sample, set to each sample's substream in
    turn (_substreams), which hashes the block's seeds in one pass."""
    lo, hi = np.array([settings.box.interval(name) for name in DIMENSIONS]).T
    span = hi - lo
    (a_lo, t_lo), (a_span, t_span) = lo[[1, 3]].tolist(), span[[1, 3]].tolist()
    u = np.empty((len(indices), len(DIMENSIONS)))
    rng = np.random.Generator(np.random.PCG64(0))
    for row, index, state in zip(u, indices, _substreams(settings.seed, indices)):
        rng.bit_generator.state = state
        for _ in range(MAX_DRAWS):
            rng.random(out=row)
            # alpha23 * tau_c, as the rows below compute them
            if (a_lo + a_span * row[1]) * (t_lo + t_span * row[3]) >= settings.min_alpha23_tau_c:
                break
        else:
            raise ConfigError(f"sample {index}: no draw in {MAX_DRAWS} met "
                              f"min_alpha23_tau_c = {settings.min_alpha23_tau_c}")
    return lo[:, None] + span[:, None] * u.T


def scan_samples(indices: range, settings: ScanSettings) -> list[ScanSample]:
    """Draw and run the samples of a contiguous index range as one batch."""
    if not indices:
        return []
    draws = _draws(indices, settings)
    # the family's mode factors do not depend on omega3
    modes = settings.family.preparation(OMEGA3_RANGE[0], settings.beta1).factors()
    params = dict(zip(DIMENSIONS, draws))
    omega3 = params.pop("omega3")
    batch = engine.EngineBatch(settings.ramp, 1.0, omega3, modes, **params, sample_dt=math.nan,
                               totals=settings.max_cycles, eps_stop=0.0, ids=np.array(indices))
    totals = run_reduced_ensemble(batch)
    return [ScanSample(*row) for row in zip(
        indices, *draws.tolist(), totals.n_cycles.tolist(), totals.w_total.tolist(),
        *totals.discord_max.T.tolist(), *totals.negativity_max.T.tolist())]


def scan_sample(index: int, settings: ScanSettings) -> ScanSample:
    """One sample: a scan of the single index."""
    return scan_samples(range(index, index + 1), settings)[0]


def _scan_worker(args: tuple[range, ScanSettings]) -> list[ScanSample]:
    return scan_samples(*args)


def random_scan(n_samples: int, seed: int, *, box: Optional[ParameterBox] = None,
                family: PrepFamily = PrepFamily.THERMAL, beta1: float = DEFAULT_BETA1,
                ramp: RampMode = RampMode.QUASI_STATIC, max_cycles: int = 10_000,
                min_alpha23_tau_c: float = 0.0, workers: int = 1) -> list[ScanSample]:
    """Run n_samples independent seeded engine draws; order follows index.

    Each worker runs contiguous blocks of indices, every block as one
    ensemble of engines stepped together; sample i's numbers depend only on
    (seed, i), never on the blocks or the worker count.
    """
    check_count("n_samples", n_samples, 0)
    check_count("workers", workers, 1)
    check_count("seed", seed, 0)
    check_count("max_cycles", max_cycles, 1)
    if box is None:
        box = ParameterBox(omega3=OMEGA3_RANGE)
    if box.omega3 is None:
        raise ConfigError("scans need an omega3 interval in the box")
    settings = ScanSettings(seed=seed, box=box, family=family, beta1=beta1,
                            ramp=ramp, max_cycles=max_cycles,
                            min_alpha23_tau_c=min_alpha23_tau_c)
    if workers == 1 or n_samples < 2 * workers:
        return scan_samples(range(n_samples), settings)
    size = max(1, min(engine._ENSEMBLE_SIZE, n_samples // (8 * workers)))
    jobs = [(range(lo, min(lo + size, n_samples)), settings)
            for lo in range(0, n_samples, size)]
    # imported here, not at module level: only a scan with several workers starts processes
    from multiprocessing import Pool
    with Pool(workers) as pool:
        return [s for block in pool.map(_scan_worker, jobs) for s in block]


# -- optimization -----------------------------------------------------------


class Objective(enum.Enum):
    """What the optimizer minimizes.

    TOTAL_WORK: the run's total work (most negative wins).
    WORK_ERGOTROPY_RATIO: total work divided by the preparation's ergotropy,
    making runs at different omega3 comparable on a [-1, 0] scale.
    """

    TOTAL_WORK = "total_work"
    WORK_ERGOTROPY_RATIO = "work_ergotropy_ratio"


@functools.lru_cache(maxsize=256)
def _ergotropy_cached(prep: Preparation) -> float:
    return ergotropy(prep)


@dataclass(frozen=True)
class OptimizeOutcome:
    """Best point found, with provenance.

    value is the objective at best_params, the best value evaluated (so
    the last value of trace); ratio is w_total over the preparation's
    ergotropy regardless of the objective used.  converged is False when
    every restart ran out of its evaluation budget before meeting the
    simplex tolerances.  trace holds (evaluation_count, best_value_so_far)
    at every improvement, merged across restarts in evaluation order.
    """

    best_params: EngineParams
    value: float
    w_total: float
    ratio: float
    cycles: int
    evaluations: int
    converged: bool
    objective: Objective
    trace: tuple[tuple[int, float], ...]


@dataclass
class _Tracker:
    """Shared evaluation counter, improvement trace and best point: the
    first one evaluated at the lowest value."""

    count: int = 0
    best: float = math.inf
    best_x: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.trace: list[tuple[int, float]] = []

    def record(self, value: float, x: Optional[np.ndarray] = None) -> None:
        self.count += 1
        if value < self.best:
            self.best, self.best_x = value, x
            self.trace.append((self.count, value))


@dataclass(frozen=True)
class _Problem:
    """The engine and the objective value of each optimizer point."""

    box: ParameterBox
    free: list[str]
    fixed: dict[str, float]
    family: PrepFamily
    beta1: float
    ramp: RampMode
    max_cycles: int
    objective: Objective

    @functools.cached_property
    def _fixed_prep(self) -> Preparation:
        """The preparation of every point when omega3 is fixed."""
        return self.family.preparation(self.fixed["omega3"], self.beta1)

    def params(self, x: np.ndarray) -> EngineParams:
        values = dict(self.fixed)
        for name, xi in zip(self.free, x):
            values[name] = self.box.clip(name, float(xi))
        omega3 = values.pop("omega3")
        prep = (self._fixed_prep if "omega3" in self.fixed
                else self.family.preparation(omega3, self.beta1))
        return EngineParams(prep=prep, ramp=self.ramp, stop=WorkNonNegative(),
                            max_cycles=self.max_cycles, **values)

    def value(self, params: EngineParams) -> float:
        """The objective of one engine: one run_reduced call."""
        value = run_reduced(params, correlations=False).w_total
        if self.objective is Objective.WORK_ERGOTROPY_RATIO:
            value /= _ergotropy_cached(params.prep)
        return value

    def values(self, points) -> list[float]:
        """The objective at each point, in order; their engines run as one
        ensemble, and each point still makes its own run_reduced call."""
        params = [self.params(x) for x in points]
        with engine.prepared(params):
            return [self.value(p) for p in params]


def optimize(*, omega3: Optional[float] = None, box: Optional[ParameterBox] = None,
             family: PrepFamily = PrepFamily.THERMAL, beta1: float = DEFAULT_BETA1,
             objective: Objective = Objective.TOTAL_WORK, budget: int = 6000,
             restarts: int = 16, seed: int = 0, method: str = "nelder-mead",
             ramp: RampMode = RampMode.QUASI_STATIC,
             max_cycles: int = 10_000) -> OptimizeOutcome:
    """Minimize the objective over the box; deterministic for a given seed.

    omega3 is either a fixed scalar or an interval of the box (exactly one
    of the two).  budget caps objective evaluations across all restarts;
    when it is exhausted before any restart meets its tolerances the
    best-so-far point is returned with converged=False.
    """
    if box is None:
        box = ParameterBox()
    if (omega3 is None) == (box.omega3 is None):
        raise ConfigError("give either a scalar omega3 or an omega3 interval, not both")
    check_count("budget", budget, 1)
    check_count("restarts", restarts, 1)
    check_count("seed", seed, 0)
    if method not in METHODS:
        raise ConfigError(f"unknown optimizer method {method!r}")

    fixed: dict[str, float] = {} if omega3 is None else {"omega3": omega3}
    free: list[str] = []
    for name in DIMENSIONS:
        iv = getattr(box, name)
        if iv is None:
            continue
        lo, hi = iv
        if lo == hi:
            fixed[name] = lo
        else:
            free.append(name)

    tracker = _Tracker()
    problem = _Problem(box, free, fixed, family, beta1, ramp, max_cycles, objective)
    bounds = [box.interval(name) for name in free]

    if not free:
        value, = problem.values([np.empty(0)])
        tracker.record(value)
        x_best, converged = np.empty(0), True
    elif method == "differential-evolution":
        x_best, value, converged = _run_de(problem, bounds, seed, budget, tracker)
    else:
        x_best, value, converged = _run_nelder_mead(
            problem, bounds, seed, budget, restarts, tracker)

    best_params = problem.params(x_best)
    final = run_reduced(best_params, correlations=False)
    return OptimizeOutcome(
        best_params=best_params, value=value, w_total=final.w_total,
        ratio=final.w_total / _ergotropy_cached(best_params.prep), cycles=final.n_cycles,
        evaluations=tracker.count, converged=converged, objective=objective,
        trace=tuple(tracker.trace))


class _MaxFev(Exception):
    """A Nelder-Mead search asked for an evaluation past its maxfev."""


# An ask/tell search: yields points, is sent their values, returns
# (x, fun, success).
_Search = Generator[np.ndarray, float, tuple[np.ndarray, float, bool]]


def _nelder_mead(x0: np.ndarray, lower: np.ndarray, upper: np.ndarray, maxfev: int,
                 xatol: float, fatol: float) -> _Search:
    """Bounded Nelder-Mead as an ask/tell generator: yields each point to
    evaluate, is sent its value, and returns (x, fun, success).

    A port of scipy 1.17.1's _minimize_neldermead with bounds, maxfev,
    xatol and fatol (adaptive=False, no maxiter), operation for operation,
    so it evaluates the same points and returns the same numbers as
    scipy.optimize.minimize(method="Nelder-Mead"): the initial simplex
    steps each coordinate by 5% (0.00025 from zero), reflects vertices past
    the upper bound back inside and clips; every trial point is clipped to
    the bounds; the evaluation count is checked against maxfev before each
    evaluation, and a refused evaluation ends the current step.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    sim = np.where(sim > upper, 2 * upper - sim, sim)
    sim = np.clip(sim, lower, upper)
    fsim = np.full((N + 1,), np.inf, dtype=float)
    calls = 0

    def f(x: np.ndarray):
        nonlocal calls
        if calls >= maxfev:
            raise _MaxFev
        calls += 1
        return (yield np.copy(x))

    try:
        for k in range(N + 1):
            fsim[k] = yield from f(sim[k])
    except _MaxFev:
        pass
    # sorted twice, as scipy does: argsort is not stable
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = np.clip((1 + rho) * xbar - rho * sim[-1], lower, upper)
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lower, upper)
                fxe = yield from f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lower, upper)
                    fxc = yield from f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lower, upper)
                    fxcc = yield from f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, N + 1):
                        sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lower, upper)
                        fsim[j] = yield from f(sim[j])
        except _MaxFev:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), calls < maxfev


def _side_by_side(searches: list[_Search],
                  problem: _Problem) -> tuple[list, list[list[tuple[np.ndarray, float]]]]:
    """Run ask/tell searches side by side, in rounds: a round evaluates the
    pending point of every live search, the points' engines as one
    ensemble.  Returns each search's result and the (point, value) pairs
    it evaluated."""
    results: list = [None] * len(searches)
    values: list[list[tuple[np.ndarray, float]]] = [[] for _ in searches]
    asked = {k: next(search) for k, search in enumerate(searches)}
    while asked:
        live = list(asked)
        for k, value in zip(live, problem.values([asked[k] for k in live])):
            values[k].append((asked[k], value))
            try:
                asked[k] = searches[k].send(value)
            except StopIteration as stop:
                del asked[k]
                results[k] = stop.value
    return results, values


def _run_nelder_mead(problem: _Problem, bounds, seed: int, budget: int, restarts: int,
                     tracker: _Tracker) -> tuple[np.ndarray, float, bool]:
    """Presample the box, then polish the best candidates with Nelder-Mead.

    The presample runs as one ensemble.  Restart k starts from the k-th
    best candidate with at most per_restart evaluations, fewer when the
    budget has less left.  The restarts that the budget cannot cut,
    n_pre + (k + 1) * per_restart <= budget (Nelder-Mead never exceeds its
    maxfev), depend on nothing another restart does, so they run side by
    side (_side_by_side); each restart's values are then recorded in
    restart order, exactly as running the restarts one after another
    records them.  Later restarts run one after another.  Returns the best
    point evaluated (_Tracker), which a restart's own result can miss: a
    reflection better than every vertex enters the simplex only if the
    expansion that follows it may still be evaluated.
    """
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    n_pre = min(max(4 * restarts, 64), max(1, budget // 2))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    candidates = rng.uniform(lo, hi, size=(n_pre, len(bounds)))
    scores = np.array(problem.values(candidates))
    for x, value in zip(candidates, scores.tolist()):
        tracker.record(value, x)
    order = np.argsort(scores)

    per_restart = max(len(bounds) + 2, (budget - n_pre) // restarts)
    uncut = min(restarts, (budget - n_pre) // per_restart)
    converged = False
    for batch in [range(uncut), *([k] for k in range(uncut, restarts))]:
        if tracker.count >= budget:
            break
        maxfev = min(per_restart, budget - tracker.count)
        found, evaluated = _side_by_side(
            [_nelder_mead(candidates[order[k % n_pre]], lo, hi, maxfev, xatol=1e-6, fatol=1e-10)
             for k in batch], problem)
        converged = converged or any(success for _, _, success in found)
        for x, value in itertools.chain(*evaluated):
            tracker.record(value, x)
    return tracker.best_x, tracker.best, converged


def _run_de(problem: _Problem, bounds, seed: int, budget: int,
            tracker: _Tracker) -> tuple[np.ndarray, float, bool]:
    """Differential evolution in whole generations that fit the budget.

    init="sobol" rounds the population up to a power of two (128 for five
    free parameters), and every generation evaluates all of it once, as
    one ensemble (vectorized=True hands over the (N, S) member array).
    """
    def members(xs: np.ndarray) -> np.ndarray:
        values = problem.values(xs.T)
        for value in values:
            tracker.record(value)
        return np.array(values)

    popsize = 15
    population = 1 << (max(5, popsize * len(bounds)) - 1).bit_length()
    if budget < population:
        raise ConfigError(f"differential evolution needs a budget of at least one "
                          f"population, {population} evaluations, got {budget}")
    maxiter = budget // population - 1
    # imported here, not at module level: only this method needs scipy.optimize, a slow import
    from scipy.optimize import differential_evolution
    res = differential_evolution(
        members, bounds, seed=seed, maxiter=maxiter, popsize=popsize,
        polish=False, updating="deferred", vectorized=True, init="sobol", tol=1e-8)
    return np.asarray(res.x), float(res.fun), bool(res.success)
