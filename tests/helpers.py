"""Shared builders and reference constants for the test suite.

Frozen numbers were produced by 30-digit arbitrary-precision evaluation of
the closed forms, or by an independent run of the routine under test whose
inputs are pinned here; they guard against silent regressions.
"""

import hashlib
import heapq
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from otto3 import cli, engine
from otto3.correlations import _PURE_B_TOL
from otto3.engine import Engine, EngineParams, FixedCycles, WorkNonNegative
from otto3.explore import (DIMENSIONS, OMEGA3_RANGE, Objective, ParameterBox, PrepFamily,
                           ScanSample)
from otto3.propagators import RampMode
from otto3.states import SqueezedVacuum, product_state, symplectic_form, thermal_preparation

# coth(1/200): occupation factor of the hot mode at beta1 = 0.01, omega1 = 1
C1_BETA_001 = 200.001666663888895502628968296

# (C1_BETA_001 - 1) / 2
NBAR_BETA_001 = 99.500833331944447751

# arccosh(2 * NBAR_BETA_001 + 1) / 2: squeezing that matches the thermal energy
MATCHED_R1 = 2.99573331521913856554927819379

# sinh(1)
SINH_1 = 1.1752011936438014568823818506

# ergotropy of the beta1 = 0.01, omega3 = 0.1 thermal preparation at the
# default spectral tail; independent rerun of the level-enumeration routine
ERGOTROPY_BASELINE = 98.41356992956304

# cumulative work of the pinned quasi-static run below, frozen from a rerun
W_TOTAL_BASELINE = -89.54248376445149

OPT_OMEGA3 = 0.1
OPT_ALPHA12 = 0.038
OPT_ALPHA23 = 1e-4
OPT_TAU_COMP = 85.02
OPT_TAU_H = 0.59
OPT_TAU_C = 0.9996
OPT_BETA1 = 0.01


# omega3 points of configs/ratio_sweep.json and the optimize() arguments of each
SWEEP_OMEGA3 = (0.1, 0.3, 0.5, 0.7, 0.9)
SWEEP_OPTIMIZE = dict(objective=Objective.WORK_ERGOTROPY_RATIO, budget=3000, restarts=16, seed=0)

# optimize() outcomes of the sweep points and of two smaller runs, frozen
# from the code that ran the Nelder-Mead restarts one after another
FROZEN_OPTIMIZE = Path(__file__).resolve().parent / "data" / "optimize_frozen.json"


def frozen_optimize_runs():
    """[(optimize() keyword arguments, frozen outcome digest)] of FROZEN_OPTIMIZE."""
    with open(FROZEN_OPTIMIZE) as fh:
        runs = json.load(fh)
    out = []
    for run in runs:
        kwargs = dict(run.pop("kwargs"))
        if "objective" in kwargs:
            kwargs["objective"] = Objective(kwargs["objective"])
        out.append((kwargs, run))
    return out


def optimize_digest(outcome):
    """What FROZEN_OPTIMIZE keeps of an OptimizeOutcome, exactly."""
    return {
        "evaluations": outcome.evaluations, "converged": outcome.converged,
        "value": outcome.value, "w_total": outcome.w_total, "cycles": outcome.cycles,
        "best_params": {name: getattr(outcome.best_params, name) for name in DIMENSIONS[:5]},
        "trace": [list(point) for point in outcome.trace],
    }


# sha256 of the scan.csv bytes of seeded random_scan runs, frozen from the
# code that drew every scan sample into a dict of its own
FROZEN_SCANS = Path(__file__).resolve().parent / "data" / "scan_frozen.json"


def frozen_scan_runs():
    """[(random_scan() keyword arguments, frozen sha256)] of FROZEN_SCANS."""
    with open(FROZEN_SCANS) as fh:
        runs = json.load(fh)
    out = []
    for run in runs:
        kwargs = dict(run["kwargs"], family=PrepFamily(run["kwargs"]["family"]),
                      ramp=RampMode(run["kwargs"]["ramp"]))
        out.append((kwargs, run["sha256"]))
    return out


def scan_csv_sha256(samples, directory):
    """sha256 of the scan.csv that `otto3 scan` writes for these samples."""
    path = Path(directory) / "scan.csv"
    cli._write_csv(path, cli.SCAN_HEADER, cli._field_columns(samples, ScanSample))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def optimized_params(stop=None, alpha23=OPT_ALPHA23, ramp=RampMode.QUASI_STATIC):
    """Engine configuration of the pinned work-extraction operating point."""
    return EngineParams(
        prep=thermal_preparation(beta1=OPT_BETA1, omega3=OPT_OMEGA3),
        alpha12=OPT_ALPHA12, alpha23=alpha23,
        tau_comp=OPT_TAU_COMP, tau_h=OPT_TAU_H, tau_c=OPT_TAU_C,
        ramp=ramp, stop=WorkNonNegative() if stop is None else stop)


def random_covariance(rng, n_modes=2, nu_lo=0.5, nu_hi=3.0, strength=0.6):
    """Random physical covariance with known symplectic spectrum.

    A symmetric generator h gives the symplectic S = expm(Omega h); conjugating
    a diagonal of symplectic eigenvalues nu >= 1/2 by S keeps them exact.
    """
    omega = symplectic_form(n_modes)
    h = rng.normal(scale=strength, size=(2 * n_modes, 2 * n_modes))
    h = 0.5 * (h + h.T)
    s = expm(omega @ h)
    nus = rng.uniform(nu_lo, nu_hi, n_modes)
    sigma = s @ np.diag(np.concatenate([nus, nus])) @ s.T
    return 0.5 * (sigma + sigma.T), np.sort(nus)


def local_symplectic(rng, scale=0.7):
    """Direct sum of two independent single-mode symplectics, (x1,x2,p1,p2)."""
    out = np.zeros((4, 4))
    for rows in ((0, 2), (1, 3)):
        h = rng.normal(scale=scale, size=(2, 2))
        h = 0.5 * (h + h.T)
        out[np.ix_(rows, rows)] = expm(symplectic_form(1) @ h)
    return out


def sudden_cycle_work(prep, alpha12, tau_h, tau_c=0.1):
    """Work of one sudden-quench cycle from the given preparation."""
    params = EngineParams(prep=prep, alpha12=alpha12, alpha23=0.0,
                          tau_comp=0.0, tau_h=tau_h, tau_c=tau_c,
                          ramp=RampMode.SUDDEN, stop=FixedCycles(1))
    res = Engine(params).run(want_timeseries=False, correlations=False)
    return res.records[0].w_cycle


def first_law_residuals(records):
    """Relative first-law defect of every cycle record."""
    out = []
    for r in records:
        scale = max(1.0, abs(r.w1) + abs(r.w2))
        out.append(abs(r.w1 + r.w2 - r.q1 - r.q2 - r.du) / scale)
    return np.asarray(out)


def spectral_cycle_work(params, cycles, dps=50):
    """Work w(0), ..., w(cycles - 1) of the cycles of a run under params, from
    the spectral form of its cycle map at dps digits (mpmath).

    Cycle k starts from M^k sigma0 M^kT, and its work is a linear functional
    W of that state; with M = V diag(lam) V^-1,
    w(k) = sum_ij (V^T W V)_ij (V^-1 sigma0 V^-T)_ij (lam_i lam_j)^k.
    The engine's own float64 stroke maps, squared frequencies and initial
    state are the exact inputs, so the oracle measures the kernel's chunked
    powers, not the stroke maps.  Returns mpf values; raises
    ZeroDivisionError for a defective cycle map.
    """
    strokes = engine._Strokes(engine.EngineBatch.of([params]))
    comp, heat, exp = (mpmath.matrix(m.tolist()) for m in strokes.maps[0, :3])
    cycle = mpmath.matrix(strokes.cycle[0].tolist())
    sigma0 = mpmath.matrix(product_state(params.prep).matrix.tolist())
    with mpmath.workdps(dps):
        q_hot, q_cold = mpmath.zeros(6), mpmath.zeros(6)
        for q, wsq in ((q_hot, strokes.w1sq[0]), (q_cold, strokes.w3sq[0])):
            q[1, 1], q[4, 4] = mpmath.mpf(wsq) / 2, mpmath.mpf(1) / 2
        # W = E(after expansion) - E(after heating) + E(after compression) - E(start)
        form = exp.T * q_cold * exp - q_hot
        form = heat.T * form * heat + q_hot
        form = comp.T * form * comp - q_cold
        lam, vec = mpmath.eig(cycle)
        inv = mpmath.inverse(vec)
        g, s = vec.T * form * vec, inv * sigma0 * inv.T
        coef = [g[i, j] * s[i, j] for i in range(6) for j in range(6)]
        ratio = [lam[i] * lam[j] for i in range(6) for j in range(6)]
        out = []
        for _ in range(cycles):
            out.append(mpmath.re(mpmath.fsum(coef)))
            coef = [c * r for c, r in zip(coef, ratio)]
    return out


BOX = ParameterBox(omega3=OMEGA3_RANGE)


@st.composite
def box_engines(draw):
    """Engines drawn over the box, every ramp and family, up to 50 cycles;
    half run their cycles out, since most draws stop at once on their own."""
    values = {name: draw(st.floats(*BOX.interval(name))) for name in DIMENSIONS}
    cycles = draw(st.integers(1, 50))
    return EngineParams(
        prep=draw(st.sampled_from(PrepFamily)).preparation(values.pop("omega3"), 0.01),
        ramp=draw(st.sampled_from(RampMode)),
        stop=draw(st.sampled_from([WorkNonNegative(), FixedCycles(cycles)])),
        max_cycles=cycles, **values)


def pair_oracle(block, dps=50):
    """(i1, i2, i3, i4, log-negativity, discord) of a 4x4 pair block ordered
    (x_i, x_j, p_i, p_j), discord measuring mode j, at dps digits (mpmath).

    The ten entries otto3.correlations reads (A's and B's xx, xp, pp and
    C's xx, xp, px, pp) are the exact inputs of a symmetric matrix; i4 is
    mpmath's determinant of it and the rest follow the textbook closed
    forms (Adesso and Datta, PRL 105, 030501 (2010)) with the module's
    conventions: a measured mode with |4 i2 - 1| <= _PURE_B_TOL counts as
    pure (emin = 4 i1), entropy arguments below 1 count as 1, and a
    negative discord as 0.  Returns mpf values.
    """
    with mpmath.workdps(dps):
        s = [[mpmath.mpf(float(block[min(r, c), max(r, c)])) for c in range(4)] for r in range(4)]
        s[1][2] = s[2][1] = mpmath.mpf(float(block[2, 1]))  # C's px entry
        i1 = s[0][0] * s[2][2] - s[0][2] ** 2
        i2 = s[1][1] * s[3][3] - s[1][3] ** 2
        i3 = s[0][1] * s[2][3] - s[0][3] * s[2][1]
        i4 = mpmath.det(mpmath.matrix(s))

        def spectrum(lam):
            root = mpmath.sqrt(max(lam * lam - 4 * i4, 0))
            return max((lam - root) / 2, 0), (lam + root) / 2

        def h(x):
            x = max(x, 1)
            return (x + 1) / 2 * mpmath.log((x + 1) / 2) - (
                (x - 1) / 2 * mpmath.log((x - 1) / 2) if x > 1 else 0)

        nu_sq = spectrum(i1 + i2 - 2 * i3)[0]
        neg = max(0, -mpmath.log(4 * nu_sq) / 2) if nu_sq > 0 else mpmath.inf
        j1, j2, j3, j4 = 4 * i1, 4 * i2, 4 * i3, 16 * i4
        if abs(j2 - 1) <= _PURE_B_TOL:
            emin = j1
        elif (j1 * j2 - j4) ** 2 <= (1 + j2) * j3 ** 2 * (j1 + j4):
            emin = ((abs(j3) + mpmath.sqrt(max(j3 ** 2 + (j2 - 1) * (j4 - j1), 0))) / (j2 - 1)) ** 2
        else:
            s2 = j1 * j2 + j4 - j3 ** 2
            emin = (s2 - mpmath.sqrt(max(s2 * s2 - 4 * j1 * j2 * j4, 0))) / (2 * j2)
        d_minus, d_plus = spectrum(i1 + i2 + 2 * i3)
        disc = (h(mpmath.sqrt(j2)) - h(2 * mpmath.sqrt(d_minus)) - h(2 * mpmath.sqrt(d_plus))
                + h(mpmath.sqrt(max(emin, 0))))
        return i1, i2, i3, i4, neg, max(disc, 0)


def assert_numbers_close(got, want, where="", rtol=1e-10, atol=1e-12):
    """Nested dicts and lists of numbers agree with frozen ones: floats to
    rtol (atol near zero), everything else exactly."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_numbers_close(got[key], want[key], f"{where}.{key}", rtol, atol)
    elif isinstance(want, list):
        assert_allclose(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                        rtol=rtol, atol=atol, err_msg=where)
    elif isinstance(want, float):
        assert_allclose(got, want, rtol=rtol, atol=atol, err_msg=where)
    else:
        assert got == want, where


# -- heap enumeration: the reference for otto3.energetics ---------------------
#
# A priority-queue walk of the occupation lattice, largest population (or
# smallest level) first; the array enumeration must give its floats with ==.


def heap_mode_eigenvalues(mode, tail):
    """Descending single-mode eigenvalues carrying mass at least 1 - tail."""
    if isinstance(mode, SqueezedVacuum) or mode.nbar == 0.0:
        return np.array([1.0])
    ratio = mode.nbar / (1.0 + mode.nbar)
    count = max(1, math.ceil(math.log(tail) / math.log(ratio)))
    return (1.0 - ratio) * ratio ** np.arange(count)


def heap_initial_spectrum(prep, tail_mass=1e-8):
    """(populations, tail_mass): products of the per-mode eigenvalues,
    largest first, until the retained mass reaches 1 - tail_mass."""
    per_mode = [heap_mode_eigenvalues(m, tail_mass / 3.0) for m in prep.modes]
    target = 1.0 - tail_mass

    def prob(idx):
        return per_mode[0][idx[0]] * per_mode[1][idx[1]] * per_mode[2][idx[2]]

    start = (0, 0, 0)
    heap = [(-prob(start), start)]
    seen = {start}
    out = []
    total = 0.0
    while heap and total < target:
        neg_p, idx = heapq.heappop(heap)
        out.append(-neg_p)
        total += -neg_p
        for d in range(3):
            nxt = tuple(idx[k] + (k == d) for k in range(3))
            if nxt[d] < len(per_mode[d]) and nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (-prob(nxt), nxt))
    return np.asarray(out), max(0.0, 1.0 - total)


def heap_ascending_levels(frequencies, count):
    """The count smallest excitation energies n·ω over occupation triples."""
    w = frequencies
    start = (0, 0, 0)
    heap = [(0.0, start)]
    seen = {start}
    out = np.empty(count)
    for k in range(count):
        energy, idx = heapq.heappop(heap)
        out[k] = energy
        for d in range(3):
            nxt = tuple(idx[j] + (j == d) for j in range(3))
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (nxt[0] * w[0] + nxt[1] * w[1] + nxt[2] * w[2], nxt))
    return out


def heap_ergotropy(prep, convergence=1e-6, tail_mass=1e-8):
    """Ergotropy by heap enumeration, refining the tail by 100 until stable."""
    freqs = prep.frequencies
    e_init = sum(m.energy_above_ground(w) for m, w in zip(prep.modes, freqs))
    tail = tail_mass
    prev = None
    while True:
        populations, _ = heap_initial_spectrum(prep, tail)
        value = e_init - float(populations @ heap_ascending_levels(freqs, len(populations)))
        if prev is not None and abs(value - prev) <= convergence * max(1.0, abs(value)):
            return value
        prev = value
        tail /= 100.0
