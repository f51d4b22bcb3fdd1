"""Energy functionals: mode energies, cycle efficiency, and ergotropy.

Sign conventions match the engine bookkeeping: negative work is produced by
the machine, negative heat is absorbed by the working medium.  Ergotropy is
computed by spectral rearrangement: the eigenvalues of the (product) initial
density operator, sorted descending, are reassigned to the globally sorted
energy levels, and the energy drop is the maximum work a unitary can extract.
All ergotropy values are relative to the ground-state energy; zero-point
offsets cancel in the rearrangement.

Both enumerations run on arrays and give the same floats, bit for bit, as a
heap walk of the occupation lattice would: each population is the product
(p0[i] * p1[j]) * p2[k] of per-mode eigenvalues and each level the sum
(n0*w0 + n1*w1) + n2*w2, evaluated in that order; the running mass that
truncates the spectrum is a sequential cumulative sum.  Only entries past a
threshold are built (a probability floor that falls, or an energy ceiling
that rises, geometrically until enough are found), so memory follows the
entries kept, never the outer product of the per-mode spectra.  A spectrum
that needs more than the level budget raises ConvergenceError, before
anything is allocated when one mode alone needs more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .states import CovarianceMatrix, ModeSpec, Preparation, SqueezedVacuum


def mode_energy(sigma: "CovarianceMatrix | np.ndarray", mode: int, omega: float) -> float:
    """Internal energy ⟨p²⟩/2 + ω²⟨x²⟩/2 of one oscillator (1-based index)."""
    mat = sigma.matrix if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, dtype=float)
    n = mat.shape[0] // 2
    if not 1 <= mode <= n:
        raise ValueError(f"mode must lie in 1..{n}, got {mode}")
    i = mode - 1
    return 0.5 * (omega**2 * mat[i, i] + mat[i + n, i + n])


def mode_energies(sigma: "CovarianceMatrix | np.ndarray", omegas) -> np.ndarray:
    mat = sigma.matrix if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, dtype=float)
    n = mat.shape[0] // 2
    w = np.asarray(omegas, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} frequencies, got shape {w.shape}")
    diag = np.diagonal(mat)
    return 0.5 * (w**2 * diag[:n] + diag[n:])


@dataclass(frozen=True)
class EfficiencyResult:
    """Cycle efficiency in [0, 1], or undefined when no heat was absorbed."""

    value: "float | None"

    @property
    def is_defined(self) -> bool:
        return self.value is not None

    def as_float(self) -> float:
        return math.nan if self.value is None else self.value


def efficiency(work: float, delta_u: float, q1: float, q2: float) -> EfficiencyResult:
    """Ratio of produced work plus stored energy to the heat absorbed.

    Numerator max(0, -work + delta_u); denominator sums |Q| over the strictly
    negative heats (absorbed by the medium).  A zero denominator leaves the
    ratio undefined rather than raising.
    """
    numerator = max(0.0, -work + delta_u)
    denominator = sum(-q for q in (q1, q2) if q < 0.0)
    if denominator == 0.0:
        return EfficiencyResult(None)
    return EfficiencyResult(numerator / denominator)


@dataclass(frozen=True)
class SpectrumPopulation:
    """Descending eigenvalues of the initial density operator, truncated."""

    populations: np.ndarray
    tail_mass: float


# Candidate bounds are loosened by this relative slack before the exact
# values decide, so rounding in a bound never drops an entry.
_SLACK = 1e-9
_EPS = float(np.finfo(float).eps)
# Factors by which a probability floor falls, or an energy ceiling rises,
# when it kept too few entries.
_FLOOR_STEP, _CEILING_STEP = 16.0, 1.25
# Most populations, and levels, a spectrum may need.
LEVEL_BUDGET = 10**6


def _geometric_ratio(mode: ModeSpec) -> float:
    """Ratio of successive single-mode eigenvalues; 0 for a pure mode."""
    if isinstance(mode, SqueezedVacuum) or mode.nbar == 0.0:
        # Pure state regardless of r; the Fock-diagonal weights are not eigenvalues.
        return 0.0
    return mode.nbar / (1.0 + mode.nbar)


def _levels_for_mass(ratio: float, tail: float) -> float:
    """Leading eigenvalues of one mode that carry mass 1 - tail; inf when
    the ratio rounds to 1."""
    if ratio == 0.0:
        return 1
    if ratio == 1.0:
        return math.inf
    return max(1, math.ceil(math.log(tail) / math.log(ratio)))


def _extend(values: np.ndarray, axis: np.ndarray, counts: np.ndarray, op) -> np.ndarray:
    """op(values[i], axis[j]) for every i and every j < counts[i], i-major."""
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return op(np.repeat(values, counts), axis[np.arange(starts.size) - starts])


def _products_at_least(per_mode: list[np.ndarray], floor: float,
                       limit: int) -> Optional[np.ndarray]:
    """Every product (p0[i] * p1[j]) * p2[k] >= floor, unsorted; None when
    more than `limit` candidates would be built.

    Each mode's eigenvalues descend, so the admissible j (then k) of a
    partial product form a prefix; a loosened bound picks the candidates and
    the exact products decide.
    """
    p0, p1, p2 = per_mode
    vals = p0[p0 * p1[0] * p2[0] >= floor]
    counts = np.searchsorted(-p1, -(floor / (vals * p2[0]) * (1.0 - _SLACK)), "right")
    if counts.sum() > limit:
        return None
    vals = _extend(vals, p1, counts, np.multiply)
    vals = vals[vals * p2[0] >= floor]
    counts = np.searchsorted(-p2, -(floor / vals * (1.0 - _SLACK)), "right")
    if counts.sum() > limit:
        return None
    vals = _extend(vals, p2, counts, np.multiply)
    return vals[vals >= floor]


def _spectrum(prep: Preparation, tail_mass: float, budget: int) -> SpectrumPopulation:
    """initial_spectrum, refusing a spectrum of more than budget populations."""
    if not tail_mass > 0.0:
        raise ValueError(f"tail_mass must be > 0, got {tail_mass}")
    ratios = [_geometric_ratio(m) for m in prep.modes]
    # The kept populations carry mass 1 - tail_mass, so one mode's indices
    # among them carry at least that much of its own spectrum, up to the
    # rounding of a sum of budget terms: each mode bounds their count.
    needed = max(_levels_for_mass(r, tail_mass + 2.0 * (budget + 1) * _EPS) for r in ratios)
    if needed > budget:
        raise ConvergenceError(
            f"level enumeration needs at least {needed} levels, budget is {budget}")
    per_mode = [(1.0 - r) * r ** np.arange(_levels_for_mass(r, tail_mass / 3.0))
                for r in ratios]
    lattice = math.prod(p.size for p in per_mode)
    target = 1.0 - tail_mass
    # Floors fall from the largest product; `above` is the last floor tried
    # that fitted within the limit.
    above = per_mode[0][0] * per_mode[1][0] * per_mode[2][0]
    step = 1.0 / tail_mass
    while True:
        floor = above / step
        found = _products_at_least(per_mode, floor, 2 * budget)
        if found is None:
            # Too many entries reach this floor: try halfway (in log scale)
            # to `above`, unless the step has run out.
            step = math.sqrt(step)
            if above / step == above:
                raise ConvergenceError(
                    f"level enumeration needs more than {budget} levels")
            continue
        kept = -np.sort(-found)
        total = np.cumsum(kept)
        # The populations run down to the first partial sum that reaches the
        # target, which every floor's entries hold as a prefix.
        n = int(np.searchsorted(total, target)) + 1 if target > 0.0 else 0
        if n <= kept.size or kept.size == lattice:
            n = min(n, kept.size)
            mass = float(total[n - 1]) if n else 0.0
            return SpectrumPopulation(kept[:n], max(0.0, 1.0 - mass))
        if kept.size >= budget:
            raise ConvergenceError(
                f"level enumeration needs more than {kept.size} levels, budget is {budget}")
        above, step = floor, min(step, _FLOOR_STEP)


def initial_spectrum(prep: Preparation, tail_mass: float = 1e-8) -> SpectrumPopulation:
    """Global spectrum of the three-mode product state, descending.

    The largest products of the per-mode eigenvalues, in descending order,
    up to the first whose running sum reaches 1 - tail_mass (all of them if
    none does).  Raises ConvergenceError beyond LEVEL_BUDGET populations.
    """
    return _spectrum(prep, tail_mass, LEVEL_BUDGET)


def _sums_at_most(frequencies: tuple[float, float, float], ceiling: float) -> np.ndarray:
    """Every excitation energy (n0*w0 + n1*w1) + n2*w2 <= ceiling, unsorted."""
    x0, x1, x2 = (np.arange(int(ceiling / w * (1.0 + _SLACK)) + 1) * w for w in frequencies)
    slack = _SLACK * ceiling
    vals = x0[x0 + x1[0] + x2[0] <= ceiling]
    vals = _extend(vals, x1, np.searchsorted(x1, ceiling - vals + slack, "right"), np.add)
    vals = vals[vals + x2[0] <= ceiling]
    vals = _extend(vals, x2, np.searchsorted(x2, ceiling - vals + slack, "right"), np.add)
    return vals[vals <= ceiling]


def _ascending_levels(frequencies: tuple[float, float, float], count: int,
                      budget: int) -> np.ndarray:
    """The count smallest excitation energies n·ω over occupation triples."""
    if count > budget:
        raise ConvergenceError(
            f"level enumeration needs {count} levels, budget is {budget}"
        )
    if count == 0:
        return np.empty(0)
    # At most (C + sum w)^3 / (6 prod w) lattice points lie below a ceiling C,
    # so the first ceiling keeps at most count of them (cube roots taken
    # factor by factor, so that large frequencies do not overflow).
    ceiling = max(min(frequencies), (6.0 * count) ** (1.0 / 3.0)
                  * math.prod(w ** (1.0 / 3.0) for w in frequencies) - sum(frequencies))
    while True:
        if not math.isfinite(ceiling):
            raise ConvergenceError(f"level energies overflow for frequencies {frequencies}")
        energies = _sums_at_most(frequencies, ceiling)
        if energies.size >= count:
            return np.sort(np.partition(energies, count - 1)[:count])
        ceiling *= _CEILING_STEP


def spectral_shortfall(populations, energies) -> float:
    """Mean energy of an assignment minus that of its passive rearrangement.

    Zero iff the assignment is already passive (larger weights on lower
    levels); this is the rearrangement core behind ergotropy.
    """
    p = np.asarray(populations, dtype=float)
    e = np.asarray(energies, dtype=float)
    if p.shape != e.shape:
        raise ValueError("populations and energies must have matching shapes")
    return float(p @ e - np.sort(p)[::-1] @ np.sort(e))


def ergotropy(prep: Preparation, convergence: float = 1e-6, *,
              tail_mass: float = 1e-8, level_budget: int = LEVEL_BUDGET) -> float:
    """Maximum unitarily extractable work from the initial product state.

    The spectrum truncation is refined (tail divided by 100) until the value
    is stable to the requested relative tolerance.  Raises ConvergenceError
    when the level budget is exhausted first, or when the value is not finite.
    """
    if not convergence > 0.0:
        raise ValueError(f"convergence must be > 0, got {convergence}")
    freqs = prep.frequencies
    e_init = sum(m.energy_above_ground(w) for m, w in zip(prep.modes, freqs))
    tail = tail_mass
    prev: "float | None" = None
    while True:
        spectrum = _spectrum(prep, tail, level_budget)
        levels = _ascending_levels(freqs, len(spectrum.populations), level_budget)
        value = e_init - float(spectrum.populations @ levels)
        if not math.isfinite(value):
            raise ConvergenceError(f"ergotropy is not finite ({value}) at tail mass {tail}")
        if prev is not None and abs(value - prev) <= convergence * max(1.0, abs(value)):
            return value
        prev = value
        tail /= 100.0
