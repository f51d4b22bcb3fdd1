import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otto3

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert otto3.__version__ == declared


def test_every_export_resolves_once():
    # a name deleted from the package but left in __all__ breaks `import *`
    assert len(set(otto3.__all__)) == len(otto3.__all__)
    missing = [name for name in otto3.__all__ if not hasattr(otto3, name)]
    assert not missing, missing


@pytest.fixture
def spans():
    """perfbench's span tracer, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_otto3_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_layer_target_exists(spans):
    # perfbench's span tracer wraps these by name; a deleted or renamed
    # function would otherwise surface only when a traced benchmark runs
    for target in spans.LAYER_TARGETS:
        importlib.import_module(target.module)
        owner, attr, original = spans._resolve(target)
        assert callable(original), target


def test_a_traced_simulate_books_its_artifact_writing(spans, tmp_path):
    from otto3 import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--config", str(ROOT / "configs" / "recurrence_140.json"),
                         "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    written = sum((tmp_path / name).stat().st_size
                  for name in ("cycles.csv", "timeseries.csv", "summary.json"))
    assert tracer.counts["cli.bytes_written"] == written > 0
    assert tracer.self_times()["cli.write_s"] > 0.0


def _names_used(tree: ast.AST) -> set[str]:
    """Every bare name read in a module: loads, attribute bases, string
    annotations, and the names a module re-exports through __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names_used(ast.parse(annotation.value, mode="eval"))
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    # a name imported into a package module and never used is dead weight
    unused = []
    for path in sorted((ROOT / "src" / "otto3").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


_COLD_START = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing"))

from otto3 import cli, explore, propagators
assert cli.main(["simulate", "--config", "configs/recurrence_140.json", "--out", sys.argv[1]]) == 0
explore.random_scan(20, 1)
explore.optimize(omega3=0.1, budget=40, restarts=2)
assert not loaded(), loaded()

schedule = propagators.RampSchedule(0.5, 1.0, 20.0)
propagators.ramp_propagator(schedule)
assert "scipy.special" in sys.modules, loaded()
propagators.ode_propagator(schedule)
assert "scipy.integrate" in sys.modules, loaded()
explore.optimize(omega3=0.1, budget=128, method="differential-evolution")
assert "scipy.optimize" in sys.modules, loaded()
"""


def test_quasi_static_commands_load_neither_scipy_nor_multiprocessing(tmp_path):
    # a fresh process pays for every module it imports: only Airy ramps, the
    # ODE cross-check and differential evolution need scipy, and only a scan
    # with more than one worker needs multiprocessing
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "out")],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
