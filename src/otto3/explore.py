"""Parameter-space exploration: seeded random scans and bounded optimization.

Scans draw engine parameters uniformly from a box, run each engine to its
stop rule, and record total work next to the run's correlation maxima.
Sample i always uses the random substream spawned as (seed, spawn_key=(i,)),
so results are bit-identical however the samples are distributed over
workers.

The optimizer minimizes total work (most negative is best) with bounded
Nelder-Mead from several seeded starting points, or optionally with
differential evolution.  The landscape oscillates strongly along tau_comp,
whose value sets the medium's dynamical phase between coupling strokes, so
restarts are spread over the best of a coarse seeded presample rather than
blind uniform draws.  The restarts that the evaluation budget cannot cut
run side by side, each on a thread of its own (engine.run_lanes), and
their evaluations run as one ensemble per round; every restart sees what
it would see alone, and the trace records the restarts' values in restart
order, so the outcome is that of running them one after another.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Optional

import numpy as np
from scipy.optimize import differential_evolution, minimize

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
# Nelder-Mead restarts run side by side, as lanes of engine.run_lanes: an
# ensemble of this many engines per round.
_RESTART_THREADS = 16

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


def _engine_params(values: dict[str, float], family: PrepFamily, beta1: float,
                   ramp: RampMode, max_cycles: int) -> EngineParams:
    """The engine of one scan draw or optimizer point."""
    return EngineParams(prep=family.preparation(values["omega3"], beta1), ramp=ramp,
                        stop=WorkNonNegative(), max_cycles=max_cycles,
                        **{name: values[name] for name in DIMENSIONS[:5]})


def _draw(index: int, box: ParameterBox, rng: np.random.Generator,
          min_alpha23_tau_c: float) -> dict[str, float]:
    """One parameter draw; resamples within the substream until the
    weak-cold-contact filter passes, so the filter cannot break determinism.
    A filter that MAX_DRAWS draws do not meet is refused."""
    for _ in range(MAX_DRAWS):
        values = {name: rng.uniform(*box.interval(name))
                  for name in DIMENSIONS if getattr(box, name) is not None}
        if values["alpha23"] * values["tau_c"] >= min_alpha23_tau_c:
            return values
    raise ConfigError(f"sample {index}: no draw in {MAX_DRAWS} met "
                      f"min_alpha23_tau_c = {min_alpha23_tau_c}")


def scan_samples(indices: range, settings: ScanSettings) -> list[ScanSample]:
    """Draw and run the samples of a contiguous index range as one ensemble."""
    draws, params = [], []
    for index in indices:
        rng = np.random.default_rng(
            np.random.SeedSequence(settings.seed, spawn_key=(index,)))
        values = _draw(index, settings.box, rng, settings.min_alpha23_tau_c)
        params.append(_engine_params(values, settings.family, settings.beta1,
                                     settings.ramp, settings.max_cycles))
        draws.append(values)
    totals = run_reduced_ensemble(params)
    samples = []
    for e, (index, values) in enumerate(zip(indices, draws)):
        d12, d23, d13 = (float(v) for v in totals.discord_max[e])
        n12, n23, n13 = (float(v) for v in totals.negativity_max[e])
        samples.append(ScanSample(
            index=index, alpha12=values["alpha12"], alpha23=values["alpha23"],
            tau_h=values["tau_h"], tau_c=values["tau_c"], tau_comp=values["tau_comp"],
            omega3=values["omega3"], cycles=int(totals.n_cycles[e]),
            w_total=float(totals.w_total[e]),
            d12_max=d12, d23_max=d23, d13_max=d13,
            n12_max=n12, n23_max=n23, n13_max=n13))
    return samples


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

    value is the objective at best_params; ratio is w_total over the
    preparation's ergotropy regardless of the objective used.  converged is
    False when every restart ran out of its evaluation budget before
    meeting the simplex tolerances.  trace holds (evaluation_count,
    best_value_so_far) at every improvement, merged across restarts in
    evaluation order.
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
    """Shared evaluation counter and improvement trace."""

    count: int = 0
    best: float = math.inf

    def __post_init__(self) -> None:
        self.trace: list[tuple[int, float]] = []

    def record(self, value: float) -> None:
        self.count += 1
        if value < self.best:
            self.best = value
            self.trace.append((self.count, value))


Fn = Callable[[np.ndarray], float]


def _recorded(fn: Fn, record: Callable[[float], None]) -> Fn:
    """fn, passing every value it returns to record."""
    def evaluate(x: np.ndarray) -> float:
        value = fn(x)
        record(value)
        return value

    return evaluate


def _objective_fn(box: ParameterBox, free: list[str], fixed: dict[str, float],
                  family: PrepFamily, beta1: float, ramp: RampMode,
                  max_cycles: int, objective: Objective) -> Fn:
    def evaluate(x: np.ndarray) -> float:
        values = dict(fixed)
        for name, xi in zip(free, x):
            values[name] = box.clip(name, float(xi))
        params = _engine_params(values, family, beta1, ramp, max_cycles)
        value = run_reduced(params, correlations=False).w_total
        if objective is Objective.WORK_ERGOTROPY_RATIO:
            value /= _ergotropy_cached(params.prep)
        return value

    return evaluate


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
    value_of = _objective_fn(box, free, fixed, family, beta1, ramp, max_cycles, objective)
    fn = _recorded(value_of, tracker.record)
    bounds = [box.interval(name) for name in free]

    if not free:
        value = fn(np.empty(0))
        x_best, converged = np.empty(0), True
    elif method == "differential-evolution":
        x_best, value, converged = _run_de(fn, bounds, seed, budget, tracker)
    else:
        x_best, value, converged = _run_nelder_mead(
            value_of, bounds, seed, budget, restarts, tracker)

    values = dict(fixed)
    for name, xi in zip(free, x_best):
        values[name] = box.clip(name, float(xi))
    best_params = _engine_params(values, family, beta1, ramp, max_cycles)
    final = run_reduced(best_params, correlations=False)
    return OptimizeOutcome(
        best_params=best_params, value=value, w_total=final.w_total,
        ratio=final.w_total / _ergotropy_cached(best_params.prep), cycles=final.n_cycles,
        evaluations=tracker.count, converged=converged, objective=objective,
        trace=tuple(tracker.trace))


def _run_nelder_mead(value_of: Fn, bounds, seed: int, budget: int, restarts: int,
                     tracker: _Tracker) -> tuple[np.ndarray, float, bool]:
    """Presample the box, then polish the best candidates with Nelder-Mead.

    Restart k starts from the k-th best candidate with at most per_restart
    evaluations, fewer when the budget has less left.  The restarts that
    the budget cannot cut, n_pre + (k + 1) * per_restart <= budget (scipy's
    Nelder-Mead never exceeds maxfev), depend on nothing another restart
    does, so they run as the lanes of engine.run_lanes, at most
    _RESTART_THREADS of them, lane t taking restarts t,
    t + _RESTART_THREADS, ... in turn; their evaluations run as ensembles.
    Each restart's values are then recorded in restart order, exactly as
    running the restarts one after another records them.  Later restarts
    run one after another.
    """
    fn = _recorded(value_of, tracker.record)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    n_pre = min(max(4 * restarts, 64), max(1, budget // 2))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    candidates = rng.uniform(lo, hi, size=(n_pre, len(bounds)))
    scores = np.array([fn(c) for c in candidates])
    order = np.argsort(scores)

    per_restart = max(len(bounds) + 2, (budget - n_pre) // restarts)
    tolerances = {"xatol": 1e-6, "fatol": 1e-10}

    def polish(k: int, fn: Fn, maxfev: int):
        return minimize(fn, candidates[order[k % n_pre]], method="Nelder-Mead",
                        bounds=bounds, options={"maxfev": maxfev, **tolerances})

    uncut = min(restarts, (budget - n_pre) // per_restart)
    values: list[list[float]] = [[] for _ in range(uncut)]
    lanes = [[functools.partial(polish, k, _recorded(value_of, values[k].append), per_restart)
              for k in range(t, uncut, _RESTART_THREADS)]
             for t in range(min(uncut, _RESTART_THREADS))]
    polished = engine.run_lanes(lanes)
    results = [polished[k % _RESTART_THREADS][k // _RESTART_THREADS] for k in range(uncut)]
    for k in range(uncut):
        for value in values[k]:
            tracker.record(value)
    for k in range(uncut, restarts):
        if tracker.count >= budget:
            break
        results.append(polish(k, fn, min(per_restart, budget - tracker.count)))

    best_x = candidates[order[0]]
    best_v = float(scores[order[0]])
    converged = False
    for res in results:
        if res.fun < best_v:
            best_v, best_x = float(res.fun), np.asarray(res.x)
        converged = converged or bool(res.success)
    return best_x, best_v, converged


def _run_de(fn, bounds, seed: int, budget: int,
            tracker: _Tracker) -> tuple[np.ndarray, float, bool]:
    """Differential evolution in whole generations that fit the budget.

    init="sobol" rounds the population up to a power of two (128 for five
    free parameters), and every generation evaluates all of it once.
    """
    popsize = 15
    population = 1 << (max(5, popsize * len(bounds)) - 1).bit_length()
    if budget < population:
        raise ConfigError(f"differential evolution needs a budget of at least one "
                          f"population, {population} evaluations, got {budget}")
    maxiter = budget // population - 1
    res = differential_evolution(
        fn, bounds, seed=seed, maxiter=maxiter, popsize=popsize,
        polish=False, updating="deferred", init="sobol", tol=1e-8)
    return np.asarray(res.x), float(res.fun), bool(res.success)
