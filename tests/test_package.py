import ast
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


def test_every_export_resolves_once():
    # a name deleted from the package but left in __all__ breaks `import *`
    assert len(set(otto3.__all__)) == len(otto3.__all__)
    missing = [name for name in otto3.__all__ if not hasattr(otto3, name)]
    assert not missing, missing


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
