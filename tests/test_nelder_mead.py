"""The optimizer's ask/tell Nelder-Mead against scipy's, bit for bit.

explore._nelder_mead ports the bounded _minimize_neldermead of scipy
1.17.1 (adaptive=False) operation for operation.  Driven point by point,
it must ask for exactly the points scipy.optimize.minimize evaluates, in
the same order, and return the same x, fun and success after the same
number of evaluations.
"""

import inspect
import sys

import numpy as np
import pytest
import scipy
from scipy.optimize import minimize

from otto3 import explore

# The scipy release whose Nelder-Mead the port follows.
PORTED_FROM = "1.17.1"


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def taxicab(x):
    return float(np.sum(np.abs(x - 0.3)))


def chebyshev(x):
    """Non-smooth: contractions fail often, so the simplex shrinks."""
    return float(np.max(np.abs(x - np.array([0.25, -0.5, 0.75]))))


def ripples(x):
    return float(np.sum(np.sin(7.0 * x) + 0.1 * x ** 2))


def bowl_outside(x):
    """Minimum outside the box: trial points are clipped onto its faces."""
    return float(np.sum(np.arange(1.0, 6.0) * (x - np.array([2.0, -2.0, 0.5, 3.0, -0.2])) ** 2))


# name: (function, x0, lower, upper, maxfev, xatol, fatol)
CASES = {
    "rosenbrock-2d": (rosenbrock, (-1.2, 1.0), (-2.0, -1.0), (2.0, 3.0), 1000, 1e-8, 1e-8),
    "taxicab-3d-zero-entry": (taxicab, (0.0, 1.0, 2.0), (-3.0,) * 3, (3.0,) * 3, 500,
                              1e-6, 1e-10),
    # every vertex step leaves the box upward and is reflected back inside
    "chebyshev-3d-on-upper-bound": (chebyshev, (1.0, 1.0, 1.0), (-1.0,) * 3, (1.0,) * 3, 500,
                                    1e-6, 1e-10),
    "ripples-4d": (ripples, (0.5, 2.0, -1.0, 0.1), (-3.0,) * 4, (3.0,) * 4, 400, 1e-6, 1e-10),
    "bowl-5d-on-lower-bound": (bowl_outside, (-1.0, -1.0, 0.0, 0.4, -1.0), (-1.0,) * 5,
                               (1.0,) * 5, 600, 1e-6, 1e-10),
    "rosenbrock-3d-loose-tolerances": (rosenbrock, (0.5, 0.5, 0.5), (-2.0,) * 3, (2.0,) * 3,
                                       1000, 1e-2, 1e-2),
    "rosenbrock-3d-maxfev-in-initial-simplex": (rosenbrock, (0.5, 0.5, 0.5), (-2.0,) * 3,
                                                (2.0,) * 3, 2, 1e-6, 1e-10),
}


def port(fn, x0, lower, upper, maxfev, xatol, fatol):
    """(evaluated points, (x, fun, success)) of the ask/tell port."""
    search = explore._nelder_mead(np.array(x0), np.array(lower), np.array(upper),
                                  maxfev, xatol, fatol)
    points = []
    try:
        x = next(search)
        while True:
            points.append(np.array(x, copy=True))
            x = search.send(fn(x))
    except StopIteration as stop:
        return points, stop.value


def reference(fn, x0, lower, upper, maxfev, xatol, fatol):
    """(evaluated points, OptimizeResult) of scipy's own Nelder-Mead."""
    points = []

    def recorded(x):
        points.append(np.array(x, copy=True))
        return fn(x)

    res = minimize(recorded, np.array(x0), method="Nelder-Mead",
                   bounds=list(zip(lower, upper)),
                   options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    return points, res


def assert_same_search(case):
    got_points, (x, fun, success) = port(*case)
    want_points, res = reference(*case)
    where = f"scipy {scipy.__version__}; the port follows {PORTED_FROM}"
    assert len(got_points) == len(want_points) == res.nfev, where
    for i, (got, want) in enumerate(zip(got_points, want_points)):
        assert got.tobytes() == want.tobytes(), f"evaluation {i + 1}, {where}"
    assert np.asarray(x).tobytes() == res.x.tobytes(), where
    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes(), where
    assert success is res.success, where


@pytest.mark.parametrize("name", list(CASES))
def test_search_matches_scipy(name):
    assert_same_search(CASES[name])


def every_cut(case):
    """The case with maxfev cut at each of its evaluations in turn."""
    fn, x0, lower, upper, _, xatol, fatol = case
    for maxfev in range(1, len(port(*case)[0]) + 1):
        yield fn, x0, lower, upper, maxfev, xatol, fatol


def test_every_maxfev_cut_matches_scipy():
    """A budget cut at every evaluation: in the initial simplex, at an
    expansion, at either contraction and part way through a shrink."""
    for case in every_cut(CASES["chebyshev-3d-on-upper-bound"]):
        assert_same_search(case)


# -- path coverage ------------------------------------------------------------

_SOURCE, _FIRST = inspect.getsourcelines(explore._nelder_mead)
_MARKERS = {
    "initial simplex": "fsim[k] = yield from f(sim[k])",
    "zero entry": "y[k] = zdelt",
    "reflection": "fxr = yield from f(xr)",
    "expansion": "fxe = yield from f(xe)",
    "outside contraction": "fxc = yield from f(xc)",
    "inside contraction": "fxcc = yield from f(xcc)",
    "shrink": "fsim[j] = yield from f(sim[j])",
    "tolerances met": "break",
}
_LINES = {_FIRST + i: name for name, text in _MARKERS.items()
          for i, line in enumerate(_SOURCE) if line.strip() == text}
_CUTS = [_FIRST + i for i, line in enumerate(_SOURCE) if line.strip() == "except _MaxFev:"]
_LINES.update({_CUTS[0]: "cut", _CUTS[1]: "cut"})


def paths_taken(case):
    """The marked lines of _nelder_mead that the case runs, in order."""
    taken = []
    code = explore._nelder_mead.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in _LINES:
            taken.append(_LINES[frame.f_lineno])
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        port(*case)
    finally:
        sys.settrace(previous)
    return taken


def test_the_cases_take_every_path():
    assert len(_LINES) == len(_MARKERS) + 2, "a marker line is missing or repeated"
    taken = set()
    for case in CASES.values():
        taken.update(paths_taken(case))
    assert taken == set(_MARKERS) | {"cut"}
    cuts = set()
    for case in every_cut(CASES["chebyshev-3d-on-upper-bound"]):
        trail = paths_taken(case)
        if trail[-1] == "cut":
            cuts.add(trail[-2])
    # a step starts only below maxfev, so its reflection is never refused
    assert cuts == set(_MARKERS) - {"zero entry", "tolerances met", "reflection"}
