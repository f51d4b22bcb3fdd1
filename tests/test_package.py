import importlib
import importlib.util
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


def test_every_traced_layer_target_exists():
    # perfbench's span tracer wraps these by name; a deleted or renamed
    # function would otherwise surface only when a traced benchmark runs
    spec = importlib.util.spec_from_file_location("_otto3_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
        for target in spans.LAYER_TARGETS:
            importlib.import_module(target.module)
            owner, attr, original = spans._resolve(target)
            assert callable(original), target
    finally:
        del sys.modules[spec.name]
