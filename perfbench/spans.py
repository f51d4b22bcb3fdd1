"""Span tracing of the otto3 layers, installed from outside the package.

Each layer is an otto3 module.  `Tracer.install` replaces the public
functions listed in LAYER_TARGETS, in every otto3 module that binds them,
with wrappers that record a span (name, start, end, parent span, unit id)
and per-layer counts; `uninstall` puts the originals back and checks that
it did.  Spans stay in memory until the run ends.  The source tree is not
touched, and nothing here runs during a measured (untraced) run.

A layer's self time is the time of its spans minus the time of their child
spans.  Self times of all layers plus the time outside any span add up to
the traced program time.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


def _one(args, kwargs, result) -> int:
    return 1


def _stack_states(args, kwargs, result) -> int:
    shape = getattr(args[0], "shape", None)
    return math.prod(shape[:-2]) if shape is not None else 0


def _run_cycles(args, kwargs, result) -> int:
    return result.n_cycles


def _evaluations(args, kwargs, result) -> int:
    return result.evaluations


def _artifact_bytes(args, kwargs, result) -> int:
    out = args[0].out
    return sum(os.path.getsize(os.path.join(out, name))
               for name in ("cycles.csv", "timeseries.csv", "summary.json"))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives, which time bucket its self
    time goes to, and which counter (if any) it feeds."""

    module: str
    qualname: str
    bucket: str
    counter: Optional[str] = None
    count: Callable[..., int] = _one


LAYER_TARGETS = (
    Target("otto3.states", "CovarianceMatrix.__post_init__", "states.validate_s",
           "states.validations"),
    Target("otto3.states", "symplectic_eigenvalues", "states.validate_s"),
    Target("otto3.propagators", "ramp_propagator", "propagators.build_s", "propagators.builds"),
    Target("otto3.propagators", "ramp_propagators_at", "propagators.build_s",
           "propagators.builds"),
    Target("otto3.propagators", "coupling_propagator", "propagators.build_s",
           "propagators.builds"),
    Target("otto3.propagators", "coupling_propagators_at", "propagators.build_s",
           "propagators.builds"),
    Target("otto3.propagators", "harmonic_propagator", "propagators.build_s",
           "propagators.builds"),
    Target("otto3.engine", "Engine.__init__", "engine.construct_self_s"),
    Target("otto3.engine", "Engine.run", "engine.run_self_s", "engine.cycles", _run_cycles),
    Target("otto3.engine", "run_reduced", "engine.other_self_s"),
    Target("otto3.correlations", "pair_correlations", "correlations.score_s",
           "correlations.states_scored", _stack_states),
    Target("otto3.energetics", "ergotropy", "energetics.ergotropy_s",
           "energetics.ergotropy_calls"),
    Target("otto3.energetics", "efficiency", "energetics.efficiency_s",
           "energetics.efficiency_calls"),
    Target("otto3.explore", "random_scan", "explore.self_s"),
    Target("otto3.explore", "scan_sample", "explore.self_s", "explore.calls"),
    Target("otto3.explore", "optimize", "explore.self_s", "explore.calls", _evaluations),
    Target("otto3.cli", "main", "cli.parse_s"),
    Target("otto3.cli", "load_config", "cli.parse_s"),
    Target("otto3.cli", "build_engine_params", "cli.parse_s"),
    Target("otto3.cli", "cmd_simulate", "cli.write_s", "cli.bytes_written", _artifact_bytes),
)

# Buckets whose self times partition the traced program time, with the gap.
SELF_BUCKETS = ("states.validate_s", "propagators.build_s", "engine.construct_self_s",
                "engine.run_self_s", "engine.other_self_s", "correlations.score_s",
                "energetics.ergotropy_s", "energetics.efficiency_s", "explore.self_s",
                "cli.parse_s", "cli.write_s")
COUNTERS = ("states.validations", "propagators.builds", "engine.cycles",
            "correlations.states_scored", "energetics.ergotropy_calls",
            "energetics.efficiency_calls", "explore.calls", "cli.bytes_written")


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """(owner, attribute, original) for a module function or class method."""
    owner: Any = sys.modules[target.module]
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans while installed; `clock` returns program time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.unit = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._buckets: dict[str, str] = {}

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = f"{target.module.split('.')[-1]}.{target.qualname}"
        self._buckets[name] = target.bucket
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, self.unit))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, spans[idx][3], self.unit)
            if target.counter is not None:
                counts[target.counter] += target.count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every otto3 module (or class) that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "otto3" or n.startswith("otto3.")]
        for target in LAYER_TARGETS:
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original and verify that no wrapper is left behind."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftover = [f"{getattr(owner, '__name__', owner)}.{attr}"
                    for owner, attr, original in self._patched
                    if getattr(owner, attr) is not original]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"wrappers not restored: {', '.join(leftover)}")

    def self_times(self) -> dict[str, float]:
        """Self time per bucket plus the inclusive Engine() construction time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {bucket: 0.0 for bucket in SELF_BUCKETS}
        construct = 0.0
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[self._buckets[name]] += (t1 - t0) - c
            if name == "engine.Engine.__init__":
                construct += t1 - t0
        out["engine.construct_s"] = construct
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "unit": unit}) + "\n")
