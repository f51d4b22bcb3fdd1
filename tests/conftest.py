import time
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers as _providers

from otto3.engine import Engine, EngineResult, FixedCycles
from otto3.explore import PrepFamily, optimize, random_scan

from helpers import SWEEP_OMEGA3, SWEEP_OPTIMIZE, optimized_params

# Property tests draw the same examples on every run and host: examples
# come from each test's own source, never from a stored database, and a
# slow example is not an error.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
# Hypothesis 6.155 also draws literals that it reads from every loaded
# module outside site-packages, which would make a test's examples change
# with any literal in src/ or in another test file, and with which files a
# run has imported.  Keep the examples a function of the test's own source
# (releases without that feature need nothing).
if hasattr(_providers, "_get_local_constants"):
    _NO_SOURCE_CONSTANTS = _providers.Constants()
    _providers._get_local_constants = lambda: _NO_SOURCE_CONSTANTS


@dataclass(frozen=True)
class TimedRun:
    result: EngineResult
    seconds: float


def _timed(params, **kwargs):
    t0 = time.perf_counter()
    result = Engine(params).run(**kwargs)
    return TimedRun(result, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def optimized_run():
    """Open-ended run at the pinned operating point, stops on its own."""
    return _timed(optimized_params())


@pytest.fixture(scope="session")
def fixed140_run():
    """Same point driven for 140 cycles, through the work-positive regime."""
    return _timed(optimized_params(stop=FixedCycles(140)))


@pytest.fixture(scope="session")
def twin140_run():
    """140 cycles with the cold contact removed entirely."""
    return _timed(optimized_params(stop=FixedCycles(140), alpha23=0.0))


@pytest.fixture(scope="session")
def thermal_scan_10k():
    return random_scan(10_000, 12345, family=PrepFamily.THERMAL, beta1=0.01)


@pytest.fixture(scope="session")
def squeezed_scan_10k():
    return random_scan(10_000, 12345, family=PrepFamily.SQUEEZED, beta1=0.01)


@pytest.fixture(scope="session")
def sweep_outcomes():
    """optimize() at every point of configs/ratio_sweep.json."""
    return tuple(optimize(omega3=w3, **SWEEP_OPTIMIZE) for w3 in SWEEP_OMEGA3)
