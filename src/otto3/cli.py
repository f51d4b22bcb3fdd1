"""Command-line driver: JSON config in, CSV/JSON artifacts out.

Subcommands:
  simulate   one engine run -> cycles.csv, timeseries.csv, summary.json
  optimize   box-constrained search -> best_params.json, trace.csv
             (omega3_sweep mode -> ratio_vs_omega3.csv)
  scan       seeded random draws -> scan.csv
  validate   oracle cross-checks -> report on stdout

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
All numbers are serialized with 12 significant digits; an undefined
efficiency becomes nan.  Every output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import analytics
from .energetics import ergotropy
from .engine import (Engine, EngineParams, EngineResult, FixedCycles,
                     WorkNonNegative)
from .errors import ConfigError, Otto3Error
from .explore import (Objective, OptimizeOutcome, ParameterBox, PrepFamily,
                      optimize, random_scan)
from .propagators import (RampMode, RampSchedule, SYMPLECTIC_TOL, harmonic_propagator,
                          ode_propagator, ramp_phase_integral, ramp_phase_variant,
                          ramp_propagator)
from .states import symplectic_form, thermal_preparation, squeezed_preparation

SCHEMA_VERSION = 1

CYCLES_HEADER = ("cycle,W1,W2,Q1,Q2,dU,W_cycle,W_cum,eta,E1,E2,E3,"
                 "D12max,D23max,D13max,N12max,N23max,N13max")
TIMESERIES_HEADER = "t,E1,E2,E3,D12,D23,D13,N12,N23,N13"
SCAN_HEADER = ("index,alpha12,alpha23,tau_h,tau_c,tau_comp,omega3,cycles,"
               "w_total,d12_max,d23_max,d13_max,n12_max,n23_max,n13_max")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


# -- config ------------------------------------------------------------------


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {"schema_version": SCHEMA_VERSION}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, {"schema_version", "seed", "engine", "preparation",
                        "scan", "optimize"}, "config")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    return cfg


_RAMP_NAMES = {mode.value: mode for mode in RampMode}


def _ramp_mode(name: Any) -> RampMode:
    if not isinstance(name, str) or name not in _RAMP_NAMES:
        raise ConfigError(f"unknown ramp mode {name!r}")
    return _RAMP_NAMES[name]


def _build_preparation(cfg: dict):
    section = dict(cfg.get("preparation", {}))
    _require_keys(section, {"family", "beta1", "r1", "omega3"}, "preparation")
    family = section.get("family", "thermal")
    beta1 = _as_number(section.get("beta1", 1e-2), "preparation.beta1")
    omega3 = _as_number(section.get("omega3", 0.1), "preparation.omega3")
    if family == "thermal":
        if "r1" in section:
            raise ConfigError("preparation.r1 only applies to the squeezed family")
        return thermal_preparation(beta1=beta1, omega3=omega3)
    if family == "squeezed":
        if "r1" in section:
            from .states import Preparation, SqueezedVacuum
            r1 = _as_number(section["r1"], "preparation.r1")
            return Preparation((SqueezedVacuum(r1), SqueezedVacuum(0.0),
                                SqueezedVacuum(0.0)), omega3=omega3)
        return squeezed_preparation(beta1=beta1, omega3=omega3)
    raise ConfigError(f"unknown preparation family {family!r}")


def _build_stop(section: dict):
    stop = section.get("stop")
    if stop is None:
        return WorkNonNegative()
    if not isinstance(stop, dict):
        raise ConfigError("engine.stop must be an object")
    rule = stop.get("rule")
    if rule == "work_non_negative":
        _require_keys(stop, {"rule", "eps_stop"}, "engine.stop")
        return WorkNonNegative(_as_number(stop.get("eps_stop", 0.0),
                                          "engine.stop.eps_stop"))
    if rule == "fixed_cycles":
        _require_keys(stop, {"rule", "n"}, "engine.stop")
        n = stop.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ConfigError("engine.stop.n must be an integer")
        return FixedCycles(n)
    raise ConfigError(f"unknown stop rule {rule!r}")


def build_engine_params(cfg: dict, args: argparse.Namespace) -> EngineParams:
    section = dict(cfg.get("engine", {}))
    _require_keys(section, {"alpha12", "alpha23", "tau_comp", "tau_h", "tau_c",
                            "ramp", "stop", "sample_dt", "max_cycles"}, "engine")
    prep = _build_preparation(cfg)
    ramp = _ramp_mode(section.get("ramp", RampMode.QUASI_STATIC.value)
                      if args.ramp is None else args.ramp)
    stop = _build_stop(section)
    if args.cycles is not None:
        stop = FixedCycles(args.cycles)
    sample_dt = section.get("sample_dt")
    if sample_dt is not None:
        sample_dt = _as_number(sample_dt, "engine.sample_dt")
    max_cycles = section.get("max_cycles", 10_000)
    if not isinstance(max_cycles, int) or isinstance(max_cycles, bool):
        raise ConfigError("engine.max_cycles must be an integer")
    try:
        return EngineParams(
            prep=prep,
            alpha12=_as_number(section.get("alpha12", 0.0), "engine.alpha12"),
            alpha23=_as_number(section.get("alpha23", 0.0), "engine.alpha23"),
            tau_comp=_as_number(section.get("tau_comp", 1.0), "engine.tau_comp"),
            tau_h=_as_number(section.get("tau_h", 0.0), "engine.tau_h"),
            tau_c=_as_number(section.get("tau_c", 0.0), "engine.tau_c"),
            ramp=ramp, stop=stop, sample_dt=sample_dt,
            max_cycles=max_cycles)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_box(section: Any, where: str) -> ParameterBox:
    if section is None:
        return ParameterBox()
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(section, {"alpha12", "alpha23", "tau_h", "tau_c", "tau_comp",
                            "omega3"}, where)
    kwargs = {}
    for name, iv in section.items():
        if (not isinstance(iv, list) or len(iv) != 2):
            raise ConfigError(f"{where}.{name} must be a [lo, hi] pair")
        kwargs[name] = (_as_number(iv[0], f"{where}.{name}[0]"),
                        _as_number(iv[1], f"{where}.{name}[1]"))
    return ParameterBox(**kwargs)


# -- output helpers ----------------------------------------------------------


def _write_cycles_csv(path: Path, result: EngineResult) -> None:
    with open(path, "w") as fh:
        fh.write(CYCLES_HEADER + "\n")
        for r in result.records:
            eta = math.nan if r.eta is None else r.eta
            row = (str(r.index),) + tuple(_fmt(v) for v in (
                r.w1, r.w2, r.q1, r.q2, r.du, r.w_cycle, r.w_cum, eta,
                r.e1, r.e2, r.e3, r.d12_max, r.d23_max, r.d13_max,
                r.n12_max, r.n23_max, r.n13_max))
            fh.write(",".join(row) + "\n")


def _write_timeseries_csv(path: Path, result: EngineResult) -> None:
    ts = result.timeseries
    with open(path, "w") as fh:
        fh.write(TIMESERIES_HEADER + "\n")
        for row in zip(*ts.columns()):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
    _write_cycles_csv(out / "cycles.csv", result)
    _write_timeseries_csv(out / "timeseries.csv", result)
    with open(out / "summary.json", "w") as fh:
        json.dump(_summary(result), fh, indent=2)
        fh.write("\n")
    print(f"simulate: {result.n_cycles} cycles ({result.stop_reason}), "
          f"W_total = {result.w_total:.6f} -> {out}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    section = dict(cfg.get("optimize", {}))
    _require_keys(section, {"objective", "budget", "restarts", "method", "box",
                            "omega3", "omega3_sweep", "family", "beta1", "ramp"},
                  "optimize")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    objective = Objective(section.get("objective", "total_work"))
    family = PrepFamily(section.get("family", "thermal"))
    kwargs = dict(
        family=family,
        beta1=_as_number(section.get("beta1", 1e-2), "optimize.beta1"),
        objective=objective,
        budget=int(section.get("budget", 6000)),
        restarts=int(section.get("restarts", 16)),
        method=section.get("method", "nelder-mead"),
        ramp=_ramp_mode(section.get("ramp", RampMode.QUASI_STATIC.value)),
        seed=int(seed),
    )
    out = _out_dir(args)

    sweep = section.get("omega3_sweep")
    if sweep is not None:
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("optimize.omega3_sweep must be a non-empty list")
        box = _parse_box(section.get("box"), "optimize.box")
        rows = []
        for w3 in sweep:
            outcome = optimize(omega3=_as_number(w3, "omega3_sweep entry"),
                               box=box, **kwargs)
            rows.append((w3, outcome))
            print(f"omega3={w3}: ratio={-outcome.ratio:.6f} "
                  f"W_total={outcome.w_total:.6f} converged={outcome.converged}")
        with open(out / "ratio_vs_omega3.csv", "w") as fh:
            fh.write("omega3,ratio,w_total,cycles,evaluations,converged\n")
            for w3, oc in rows:
                fh.write(f"{_fmt(w3)},{_fmt(-oc.ratio)},{_fmt(oc.w_total)},"
                         f"{oc.cycles},{oc.evaluations},{int(oc.converged)}\n")
        return 0

    if "omega3" in section:
        outcome = optimize(omega3=_as_number(section["omega3"], "optimize.omega3"),
                           box=_parse_box(section.get("box"), "optimize.box"),
                           **kwargs)
    else:
        box = _parse_box(section.get("box"), "optimize.box")
        if box.omega3 is None:
            box = ParameterBox(alpha12=box.alpha12, alpha23=box.alpha23,
                               tau_h=box.tau_h, tau_c=box.tau_c,
                               tau_comp=box.tau_comp, omega3=(0.01, 0.99))
        outcome = optimize(box=box, **kwargs)
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
    with open(out / "best_params.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(out / "trace.csv", "w") as fh:
        fh.write("evaluation,best_value\n")
        for n, v in outcome.trace:
            fh.write(f"{n},{_fmt(v)}\n")


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    section = dict(cfg.get("scan", {}))
    _require_keys(section, {"family", "n_samples", "beta1", "box", "ramp",
                            "max_cycles", "min_alpha23_tau_c"}, "scan")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    n_samples = section.get("n_samples", 1000)
    if not isinstance(n_samples, int) or isinstance(n_samples, bool):
        raise ConfigError("scan.n_samples must be an integer")
    box_section = section.get("box")
    box = None
    if box_section is not None:
        box = _parse_box(box_section, "scan.box")
        if box.omega3 is None:
            box = ParameterBox(alpha12=box.alpha12, alpha23=box.alpha23,
                               tau_h=box.tau_h, tau_c=box.tau_c,
                               tau_comp=box.tau_comp, omega3=(0.01, 0.99))
    samples = random_scan(
        n_samples, int(seed), box=box,
        family=PrepFamily(section.get("family", "thermal")),
        beta1=_as_number(section.get("beta1", 1e-2), "scan.beta1"),
        ramp=_ramp_mode(section.get("ramp", RampMode.QUASI_STATIC.value)),
        max_cycles=int(section.get("max_cycles", 10_000)),
        min_alpha23_tau_c=_as_number(section.get("min_alpha23_tau_c", 0.0),
                                     "scan.min_alpha23_tau_c"),
        workers=args.workers,
    )
    out = _out_dir(args)
    with open(out / "scan.csv", "w") as fh:
        fh.write(SCAN_HEADER + "\n")
        for s in samples:
            fh.write(f"{s.index}," + ",".join(_fmt(v) for v in (
                s.alpha12, s.alpha23, s.tau_h, s.tau_c, s.tau_comp, s.omega3))
                + f",{s.cycles}," + ",".join(_fmt(v) for v in (
                    s.w_total, s.d12_max, s.d23_max, s.d13_max,
                    s.n12_max, s.n23_max, s.n13_max)) + "\n")
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

    omega = symplectic_form()
    sched = RampSchedule(0.2, 0.9, 5.0)
    mat = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.1).matrix
    mat = mat * (1.0 + perturbation)
    sdef = float(np.max(np.abs(mat @ omega @ mat.T - omega)))
    ok &= _check("ramp symplectic defect", sdef <= SYMPLECTIC_TOL,
                 f"|S Omega S^T - Omega| = {sdef:.2e}")

    # Which closed-form phase matches the slow-ramp limit of the true dynamics?
    sched = RampSchedule(0.5, 1.0, 2000.0)
    airy = ramp_propagator(sched, spectator_omega1=1.0, spectator_omega3=0.5).matrix
    diffs = {}
    for label, phase_fn in (("standard", ramp_phase_integral),
                            ("variant", ramp_phase_variant)):
        phi = phase_fn(sched.omega_in, sched.omega_fin, sched.tau)
        qs = _quasi_static_matrix(sched, phi)
        diffs[label] = float(np.max(np.abs(airy - qs)))
    winner = min(diffs, key=diffs.get)
    ok &= _check("quasi-static phase resolution", winner == "standard",
                 f"slow-limit match: standard={diffs['standard']:.2e}, "
                 f"variant={diffs['variant']:.2e} -> {winner}")

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


def _quasi_static_matrix(sched: RampSchedule, phi: float) -> np.ndarray:
    """Adiabatic two-by-two medium map with an explicit phase, embedded."""
    wi, wf = sched.omega_in, sched.omega_fin
    block = np.array([
        [math.sqrt(wi / wf) * math.cos(phi), math.sin(phi) / math.sqrt(wi * wf)],
        [-math.sqrt(wi * wf) * math.sin(phi), math.sqrt(wf / wi) * math.cos(phi)],
    ])
    free = harmonic_propagator((1.0, 1.0, 0.5), sched.tau).matrix
    out = np.array(free)
    out[np.ix_((1, 4), (1, 4))] = block
    return out


def cmd_validate(args: argparse.Namespace) -> int:
    ok = run_validation(perturbation=args.perturb)
    print("validate:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 3


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otto3",
        description="Three-oscillator quantum Otto engine: simulate, optimize, scan.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("optimize", cmd_optimize),
                     ("scan", cmd_scan), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--cycles", type=int, default=None,
                       help="override: run exactly N cycles")
        p.add_argument("--ramp", choices=sorted(_RAMP_NAMES), default=None)
        p.add_argument("--workers", type=int, default=1)
        if name == "validate":
            p.add_argument("--perturb", type=float, default=0.0,
                           help=argparse.SUPPRESS)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Otto3Error, ValueError, ArithmeticError) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
