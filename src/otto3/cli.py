"""Command-line driver: JSON config in, CSV/JSON artifacts out.

Subcommands:
  simulate   one engine run -> cycles.csv, timeseries.csv, summary.json
  optimize   box-constrained search -> best_params.json, trace.csv
             (omega3_sweep mode -> ratio_vs_omega3.csv)
  scan       seeded random draws -> scan.csv
  validate   oracle cross-checks -> report on stdout

Exit codes: 0 success, 2 for any config value the package refuses (a
ConfigError), 3 for a numerical failure.  CSV floats are written as
"%.12e", 13 significant digits; JSON files hold Python's shortest
round-trip repr of each float.  An undefined efficiency becomes nan.  Every
output is deterministic for a fixed seed, with "\\n" line endings on every
platform.

The CSV writer formats whole blocks in numpy and gives the bytes of
Python's "%.12e" exactly: each value's 13 digits come from a double-double
product with an error far below the distance to a rounding boundary, and
the rare cell too close to decide (exact ties among them), nan, inf and
magnitudes outside [1e-280, 1e280] are formatted by Python itself.  See
_write_csv for the argument.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import analytics
from .energetics import ergotropy
from .engine import (CycleRecord, Engine, EngineParams, EngineResult, FixedCycles,
                     TimeSeries, WorkNonNegative)
from .errors import ConfigError, Otto3Error
from .explore import (DEFAULT_BETA1, DIMENSIONS, METHODS, OMEGA3_RANGE, Objective,
                      OptimizeOutcome, ParameterBox, PrepFamily, ScanSample, optimize,
                      random_scan)
from .propagators import (RampMode, RampSchedule, SYMPLECTIC_TOL, _symplectic_defect,
                          ode_propagator, ramp_propagator)
from .states import Preparation, SqueezedVacuum, thermal_preparation

SCHEMA_VERSION = 1

CYCLES_HEADER = ("cycle,W1,W2,Q1,Q2,dU,W_cycle,W_cum,eta,E1,E2,E3,"
                 "D12max,D23max,D13max,N12max,N23max,N13max")
TIMESERIES_HEADER = ",".join(TimeSeries.COLUMNS)
SCAN_HEADER = ",".join(ScanSample.COLUMNS)


# -- config ------------------------------------------------------------------
#
# A section is (table, build): the table maps each key to a converter of its
# JSON value or to a nested section, and build makes the section's value
# from the converted keys.  Converters raise TypeError for a value of the
# wrong kind, and builds for keys that do not go together; the library
# constructors they call raise ConfigError for values outside their
# domain.  _convert turns all of these into a ConfigError naming the key.


def _number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _integer(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def _pair(value: Any) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"must be a [lo, hi] pair, got {value!r}")
    return _number(value[0]), _number(value[1])


def _number_that(holds: Callable[[float], bool], rule: str) -> Callable[[Any], float]:
    def convert(value: Any) -> float:
        number = _number(value)
        if not holds(number):
            raise TypeError(f"must {rule}, got {value!r}")
        return number
    return convert


_POSITIVE = _number_that(lambda x: x > 0, "be > 0")
# omega1 is 1 in every config
_COLD_FREQUENCY = _number_that(lambda x: 0 < x < 1, "lie between 0 and the hot frequency 1")


def _cold_frequencies(value: Any) -> list[float]:
    if not isinstance(value, list) or not value:
        raise TypeError(f"must be a non-empty list of numbers, got {value!r}")
    return [_COLD_FREQUENCY(v) for v in value]


def _choice(named: dict) -> Callable[[Any], Any]:
    def convert(value: Any) -> Any:
        if not isinstance(value, str) or value not in named:
            raise TypeError(f"must be one of {', '.join(named)}, got {value!r}")
        return named[value]
    return convert


def _config(schema_version: Optional[int] = None, **sections: Any) -> dict:
    if schema_version != SCHEMA_VERSION:
        raise TypeError(f"schema_version must be {SCHEMA_VERSION}, got {schema_version!r}")
    return {"schema_version": schema_version, **sections}


def _preparation(family: PrepFamily = PrepFamily.THERMAL, beta1: float = DEFAULT_BETA1,
                 omega3: float = 0.1, r1: Optional[float] = None) -> Preparation:
    if r1 is None:
        return family.preparation(omega3, beta1)
    if family is not PrepFamily.SQUEEZED:
        raise TypeError("r1 only applies to the squeezed family")
    return Preparation((SqueezedVacuum(r1), SqueezedVacuum(0.0), SqueezedVacuum(0.0)),
                       omega3=omega3)


def _stop_rule(rule: Optional[type] = None, **kwargs: Any):
    if rule is None:
        raise TypeError("needs a rule")
    return rule(**kwargs)


_RAMP = _choice({mode.value: mode for mode in RampMode})
_FAMILY = _choice({family.value: family for family in PrepFamily})
_BOX = ({name: _pair for name in DIMENSIONS}, ParameterBox)
_STOP = ({"rule": _choice({"work_non_negative": WorkNonNegative,
                           "fixed_cycles": FixedCycles}),
          "eps_stop": _number, "n": _integer}, _stop_rule)
_CONFIG = ({
    "schema_version": _integer,
    "seed": _integer,
    "preparation": ({"family": _FAMILY, "beta1": _POSITIVE, "r1": _number,
                     "omega3": _COLD_FREQUENCY}, _preparation),
    "engine": ({"alpha12": _number, "alpha23": _number, "tau_comp": _number,
                "tau_h": _number, "tau_c": _number, "ramp": _RAMP, "stop": _STOP,
                "sample_dt": _number, "max_cycles": _integer}, dict),
    "scan": ({"family": _FAMILY, "n_samples": _integer, "beta1": _POSITIVE, "box": _BOX,
              "ramp": _RAMP, "max_cycles": _integer, "min_alpha23_tau_c": _number}, dict),
    "optimize": ({"objective": _choice({o.value: o for o in Objective}),
                  "budget": _integer, "restarts": _integer,
                  "method": _choice({m: m for m in METHODS}), "box": _BOX,
                  "omega3": _COLD_FREQUENCY, "omega3_sweep": _cold_frequencies,
                  "family": _FAMILY, "beta1": _POSITIVE, "ramp": _RAMP}, dict),
}, _config)

# Engine values a simulate config may leave out.
_ENGINE_DEFAULTS = dict(alpha12=0.0, alpha23=0.0, tau_comp=1.0, tau_h=0.0, tau_c=0.0,
                        ramp=RampMode.QUASI_STATIC)


def _convert(value: Any, section: tuple, where: Optional[str] = None) -> Any:
    """Apply a section's table to a JSON value and build the section.

    The one place a config value is refused: every refusal is a
    ConfigError that names the key.
    """
    table, build = section
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config'} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {', '.join(unknown)}")
    kwargs = {}
    for key, item in value.items():
        name = key if where is None else f"{where}.{key}"
        if isinstance(table[key], tuple):
            kwargs[key] = _convert(item, table[key], name)
            continue
        try:
            kwargs[key] = table[key](item)
        except TypeError as exc:
            raise ConfigError(f"{name} {exc}") from None
    try:
        return build(**kwargs)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{where or 'config'}: {exc}") from None


def load_config(path: Optional[str]) -> dict:
    """Read and convert a config: each section a dict of converted values
    ("preparation" a Preparation, boxes ParameterBox, stop a stop rule)."""
    if path is None:
        return _convert({"schema_version": SCHEMA_VERSION}, _CONFIG)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _convert(cfg, _CONFIG)


def build_engine_params(cfg: dict, args: argparse.Namespace) -> EngineParams:
    """EngineParams of a loaded config, with the --ramp and --cycles overrides."""
    kwargs = {**_ENGINE_DEFAULTS, **cfg.get("engine", {})}
    if args.ramp is not None:
        kwargs["ramp"] = RampMode(args.ramp)
    if args.cycles is not None:
        kwargs["stop"] = FixedCycles(args.cycles)
    prep = cfg["preparation"] if "preparation" in cfg else _preparation()
    return EngineParams(prep=prep, **kwargs)


def _with_omega3(box: Optional[ParameterBox]) -> ParameterBox:
    """The box, with OMEGA3_RANGE when it has no omega3 interval."""
    box = box or ParameterBox()
    return box if box.omega3 is not None else dataclasses.replace(box, omega3=OMEGA3_RANGE)


# -- output helpers ----------------------------------------------------------


# Rows per formatted block: bounds the memory of a long time series.
_BLOCK_ROWS = 1024

# Finite |x| in this range takes the digit path: its scaled products below
# neither overflow nor underflow.
_DIGIT_RANGE = (1e-280, 1e280)
_SPAN = 300              # the tables hold 10**j and "e%+03d" % j for |j| <= _SPAN
_SPLIT = 134217729.0     # 2**27 + 1, Veltkamp's splitting constant
_TIE_BAND = 2.0 ** -30   # a rounding fraction this close to 1/2 goes to Python
_WORD = np.dtype("<u8")  # a cell is three of these, 24 bytes, NUL-padded


class _Tables(NamedTuple):
    hi: np.ndarray       # 10**j rounded to float64, j = index - _SPAN
    lo: np.ndarray       # 10**j - hi, rounded: hi + lo is 10**j to ~2**-106
    hi_hi: np.ndarray    # Veltkamp halves of hi, 26 bits each
    hi_lo: np.ndarray
    four: np.ndarray     # "%04d" % i as the low four bytes of a word
    four_hi: np.ndarray  # the same in the high four bytes
    head: np.ndarray     # sign, leading digit and "." for index 10 * negative + digit
    exp: np.ndarray      # "e%+03d" % j


def _words(strings: Sequence[str]) -> np.ndarray:
    """Each string's bytes, NUL-padded, as one little-endian word."""
    return np.array(strings, dtype="S8").view(_WORD)


@functools.cache
def _tables() -> _Tables:
    """Lookup tables of the digit path, built on first use."""
    hi, lo = [], []
    for j in range(-_SPAN, _SPAN + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        h = num / den  # int division rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    four = np.pad(digits.astype(np.uint8), ((0, 0), (0, 4))).view(_WORD).ravel()
    return _Tables(hi=hi, lo=lo, hi_hi=hi_hi, hi_lo=hi - hi_hi, four=four,
                   four_hi=four << np.uint64(32),
                   head=_words([f"{s}{d}." for s in ("", "-") for d in range(10)]),
                   exp=_words([f"e{j:+03d}" for j in range(-_SPAN, _SPAN + 1)]))


def _scaled(ax: np.ndarray, k: np.ndarray, tab: _Tables) -> tuple[np.ndarray, ...]:
    """(p, floor(p), r) with ax * 10**(12 - k) = floor(p) + r to within 2**-50.

    p = fl(ax * hi) and its rounding error are Dekker's exact TwoProduct on
    Veltkamp halves; adding ax * lo extends hi to 10**j as a double-double.
    """
    j = _SPAN + 12 - k
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    p = ax * tab.hi[j]
    bh, bl = tab.hi_hi[j], tab.hi_lo[j]
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    fl = np.floor(p)
    return p, fl, (p - fl) + (err + ax * tab.lo[j])


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(n, 3) words holding "%.12e" % v of each value, without separators.

    A cell is the sign ("-" or NUL), the leading digit and "." and a NUL,
    then twelve digits, then "e", the exponent's sign and its two or three
    digits, NUL-padded to the last five bytes of the cell's 24.
    """
    tab = _tables()
    ax = np.abs(x)
    fast = (ax >= _DIGIT_RANGE[0]) & (ax <= _DIGIT_RANGE[1])
    ax = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    p, fl, r = _scaled(ax, k, tab)
    # log10 can put k one off next to a power of ten: those cells scale
    # outside [1e12, 1e13) and are scaled again with k moved by one.
    off = np.flatnonzero((p < 1e12) | (p >= 1e13))
    if off.size:
        k[off] += np.where(p[off] < 1e12, -1, 1)
        _, fl[off], r[off] = _scaled(ax[off], k[off], tab)
    digits = fl.astype(np.int64) + (r > 0.5)
    carry = digits == 10**13
    digits[carry] = 10**12
    k += carry
    zero = x == 0   # scaled as 1.0: k = 0 and twelve zeros after the lead
    lead = digits // 10**12
    rest = digits - lead * 10**12
    w1 = rest // 10**8
    rest -= w1 * 10**8
    w2 = rest // 10**4
    cells = np.empty((x.size, 3), dtype=_WORD)
    cells[:, 0] = tab.head[lead - zero + 10 * np.signbit(x)] | tab.four_hi[w1]
    cells[:, 1] = tab.four[w2] | tab.four_hi[rest - w2 * 10**4]
    cells[:, 2] = tab.exp[_SPAN + k]
    slow = np.flatnonzero(~(fast | zero) | (np.abs(r - 0.5) < _TIE_BAND))
    if slow.size:
        _put_strings(cells, slow, [b"%.12e" % v for v in x[slow].tolist()])
    return cells


def _put_strings(cells: np.ndarray, where: np.ndarray, strings: list[bytes]) -> None:
    """Overwrite the cells at the flat indices with NUL-padded strings."""
    cells.view(np.uint8).reshape(-1, 24)[where] = (
        np.array(strings, dtype="S24").view(np.uint8).reshape(-1, 24))


def _write_csv(path: Path, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns under a header line, one row per entry,
    with "\\n" line endings on every platform.

    Integer columns get the bytes of "%d" and the rest those of "%.12e", the
    same strings as f"{v:.12e}" (nan and inf included).  A block of rows is
    formatted at once into 24-byte NUL-padded cells, and the NULs are
    dropped on writing.  Integers, and floats the digit path does not
    decide, are formatted by Python, so their bytes match by construction.

    The digit path is exact.  For finite |x| in _DIGIT_RANGE, with k =
    floor(log10 |x|), the 13 digits are the integer nearest to y =
    |x| * 10**(12 - k), which lies in [1e12, 1e13).  _scaled forms y as
    floor(p) + r with an error below 2**-50: the table's hi + lo is 10**j
    to a relative 2**-106, the TwoProduct is exact, and the three
    roundings after it are each below 2**-53 of a value under 2.  So r >
    1/2 + 2**-30 means round up and r < 1/2 - 2**-30 round down, as the
    correctly rounded conversion does; a cell between those bounds (exact
    ties among them) goes to Python.  Rounding up to 1e13 carries into
    the exponent.  If log10 puts k one off, p falls outside [1e12, 1e13)
    and k is moved by one; p stays inside for a wrong k only when y is
    within one ulp of 1e12 or 1e13, where both k give the same string.
    Zeros are written directly; nan, inf and magnitudes out of range go
    to Python.
    """
    n = len(columns[0])
    sep = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], dtype=_WORD) << np.uint64(40)
    integer = [j for j, c in enumerate(columns) if c.dtype.kind in "iu"]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n, _BLOCK_ROWS):
            part = [c[lo:lo + _BLOCK_ROWS] for c in columns]
            x = np.column_stack(part).astype(np.float64, copy=False).ravel()
            cells = _float_cells(x)
            for j in integer:
                _put_strings(cells, np.arange(j, x.size, len(columns)),
                             [b"%d" % v for v in part[j].tolist()])
            cells.reshape(-1, len(columns), 3)[:, :, 2] |= sep
            fh.write(cells.tobytes().translate(None, b"\0"))


def _field_columns(items: Sequence, cls: type) -> list[np.ndarray]:
    """One column per dataclass field of cls, in field order; an int field
    stays integer, and a None in a float field becomes nan."""
    return [np.array([getattr(item, f.name) for item in items],
                     dtype=int if f.type in ("int", int) else float)
            for f in dataclasses.fields(cls)]


def _summary(result: EngineResult) -> dict:
    recs = result.records
    eps = ergotropy(result.params.prep)
    return {
        "schema_version": SCHEMA_VERSION,
        "n_cycles": result.n_cycles,
        "stop_reason": result.stop_reason,
        "totals": {
            "W1": sum(r.w1 for r in recs),
            "W2": sum(r.w2 for r in recs),
            "Q1": sum(r.q1 for r in recs),
            "Q2": sum(r.q2 for r in recs),
            "dU": sum(r.du for r in recs),
            "W_total": result.w_total,
        },
        "ergotropy": eps,
        "ratio": -result.w_total / eps if eps > 0 else math.nan,
        "covariance_distance": result.covariance_distance,
        "discord_max": dict(zip(("D12", "D23", "D13"), result.discord_max)),
        "negativity_max": dict(zip(("N12", "N23", "N13"), result.negativity_max)),
    }


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out if args.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    params = build_engine_params(cfg, args)
    out = _out_dir(args)
    result = Engine(params).run()
    # The summary's ergotropy can fail; it is computed before any artifact
    # is written, so a failed run leaves none behind.
    summary = _summary(result)
    _write_csv(out / "cycles.csv", CYCLES_HEADER, _field_columns(result.records, CycleRecord))
    _write_csv(out / "timeseries.csv", TIMESERIES_HEADER, result.timeseries.columns())
    with open(out / "summary.json", "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"simulate: {result.n_cycles} cycles ({result.stop_reason}), "
          f"W_total = {result.w_total:.6f} -> {out}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kwargs = dict(cfg.get("optimize", {}))
    kwargs["seed"] = args.seed if args.seed is not None else cfg.get("seed", 0)
    sweep = kwargs.pop("omega3_sweep", None)
    out = _out_dir(args)

    if sweep is not None:
        rows = []
        for w3 in sweep:
            outcome = optimize(**{**kwargs, "omega3": w3})
            rows.append((w3, outcome))
            print(f"omega3={w3}: ratio={-outcome.ratio:.6f} "
                  f"W_total={outcome.w_total:.6f} converged={outcome.converged}")
        _write_csv(out / "ratio_vs_omega3.csv",
                   "omega3,ratio,w_total,cycles,evaluations,converged", [
                       np.array([w3 for w3, _ in rows], dtype=float),
                       np.array([-oc.ratio for _, oc in rows]),
                       np.array([oc.w_total for _, oc in rows]),
                       np.array([oc.cycles for _, oc in rows], dtype=int),
                       np.array([oc.evaluations for _, oc in rows], dtype=int),
                       np.array([oc.converged for _, oc in rows], dtype=int)])
        return 0

    if "omega3" not in kwargs:
        kwargs["box"] = _with_omega3(kwargs.get("box"))
    outcome = optimize(**kwargs)
    _write_optimize_outputs(out, outcome)
    print(f"optimize: W_total={outcome.w_total:.6f} ratio={-outcome.ratio:.6f} "
          f"evals={outcome.evaluations} converged={outcome.converged}")
    return 0


def _write_optimize_outputs(out: Path, outcome: OptimizeOutcome) -> None:
    p = outcome.best_params
    doc = {
        "schema_version": SCHEMA_VERSION,
        "objective": outcome.objective.value,
        "value": outcome.value,
        "w_total": outcome.w_total,
        "ratio": -outcome.ratio,
        "cycles": outcome.cycles,
        "evaluations": outcome.evaluations,
        "converged": outcome.converged,
        "best_params": {
            "alpha12": p.alpha12, "alpha23": p.alpha23, "tau_h": p.tau_h,
            "tau_c": p.tau_c, "tau_comp": p.tau_comp, "omega3": p.prep.omega3,
            "ramp": p.ramp.value,
        },
    }
    with open(out / "best_params.json", "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    _write_csv(out / "trace.csv", "evaluation,best_value", [
        np.array([n for n, _ in outcome.trace], dtype=int),
        np.array([v for _, v in outcome.trace], dtype=float)])


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kwargs = dict(cfg.get("scan", {}))
    n_samples = kwargs.pop("n_samples", 1000)
    kwargs["box"] = _with_omega3(kwargs.get("box"))
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    samples = random_scan(n_samples, seed, workers=args.workers, **kwargs)
    out = _out_dir(args)
    _write_csv(out / "scan.csv", SCAN_HEADER, _field_columns(samples, ScanSample))
    print(f"scan: {len(samples)} samples -> {out / 'scan.csv'}")
    return 0


# -- validate ------------------------------------------------------------------


def _check(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def run_validation(perturbation: float = 0.0, seed: int = 0) -> bool:
    """Cross-check the closed-form machinery against independent routes.

    perturbation != 0 injects a relative error into one ramp propagator to
    prove the symplectic check can fail (negative control).
    """
    rng = np.random.default_rng(seed)
    ok = True

    worst = 0.0
    for _ in range(12):
        w_in, w_fin = rng.uniform(0.05, 1.0, 2)
        tau = rng.uniform(0.5, 40.0)
        sched = RampSchedule(w_in, w_fin, tau)
        closed = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1)
        numeric = ode_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1)
        worst = max(worst, float(np.max(np.abs(closed.matrix - numeric.matrix))))
    ok &= _check("airy ramp vs adaptive ODE", worst < 1e-8, f"max |diff| = {worst:.2e}")

    sched = RampSchedule(0.2, 0.9, 5.0)
    mat = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1).matrix
    sdef = float(_symplectic_defect(mat * (1.0 + perturbation)))
    ok &= _check("ramp symplectic defect", sdef <= SYMPLECTIC_TOL,
                 f"|S Omega S^T - Omega| = {sdef:.2e}")

    # The idealised quasi-static map is the slow limit of the exact sweep.
    airy = ramp_propagator(RampSchedule(0.5, 1.0, 2000.0),
                           spectator_omega1=1.0, spectator_omega3=0.5).matrix
    qs = ramp_propagator(RampSchedule(0.5, 1.0, 2000.0, RampMode.QUASI_STATIC),
                         spectator_omega1=1.0, spectator_omega3=0.5).matrix
    gap = float(np.max(np.abs(airy - qs)))
    ok &= _check("quasi-static map vs slow Airy ramp", gap < 5e-3,
                 f"max |diff| at tau = 2000: {gap:.2e}")

    prep = thermal_preparation(beta1=0.05, omega3=0.4)
    c1 = 1.0 / math.tanh(0.05 / 2.0)
    worst_rel = 0.0
    for tau_h in (0.02, 0.05):
        p = EngineParams(prep=prep, alpha12=1e-3, alpha23=0.0, tau_comp=0.0,
                         tau_h=tau_h, tau_c=0.1, ramp=RampMode.SUDDEN,
                         stop=FixedCycles(1))
        w_sim = Engine(p).run(want_timeseries=False,
                              correlations=False).records[0].w_cycle
        w_ref = analytics.work_one_cycle_thermal(analytics.WeakCouplingInput(
            omega1=1.0, omega3=0.4, alpha12=1e-3, tau_h=tau_h, c1=c1, c3=1.0))
        worst_rel = max(worst_rel, abs(w_sim - w_ref) / abs(w_ref))
    ok &= _check("weak-coupling work vs closed form", worst_rel < 1e-3,
                 f"max rel diff = {worst_rel:.2e}")

    p = EngineParams(prep=prep, alpha12=0.03, alpha23=0.01, tau_comp=8.0,
                     tau_h=0.7, tau_c=0.5, stop=FixedCycles(25))
    res = Engine(p).run(want_timeseries=False, correlations=False)
    worst_res = max(abs(r.w1 + r.w2 - r.q1 - r.q2 - r.du) /
                    max(1.0, abs(r.w1) + abs(r.w2)) for r in res.records)
    ok &= _check("first law per cycle", worst_res <= 1e-12,
                 f"max relative residual = {worst_res:.2e}")
    return ok


def cmd_validate(args: argparse.Namespace) -> int:
    ok = run_validation(perturbation=args.perturb)
    print("validate:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 3


# -- entry point ---------------------------------------------------------------


_FLAGS = {"--config": dict(help="JSON config path"), "--out": dict(help="output directory"),
          "--seed": dict(type=int), "--workers": dict(type=int, default=1),
          "--cycles": dict(type=int, help="override: run exactly N cycles"),
          "--ramp": dict(choices=sorted(m.value for m in RampMode)),
          "--perturb": dict(type=float, default=0.0, help=argparse.SUPPRESS)}
# The flags each subcommand reads; any other is an argparse error, exit 2.
_SUBCOMMANDS = {"simulate": ("--config", "--out", "--cycles", "--ramp"),
                "optimize": ("--config", "--out", "--seed"),
                "scan": ("--config", "--out", "--seed", "--workers"),
                "validate": ("--perturb",)}


@functools.cache  # built once per process: parsing leaves a parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otto3",
        description="Three-oscillator quantum Otto engine: simulate, optimize, scan.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name at each call, so a rebound cmd_<command> is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Otto3Error, ValueError, ArithmeticError) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
