"""Every test module imports. One that does not (say, it still imports a
deleted name) then fails a test here, instead of only dropping out of a run
that continues past collection errors. No module but ``cellforest.parallel``
refers to threads, and none resamples through scipy."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = sorted(p.stem for p in Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


THREAD_NAMES = {"sched_getaffinity", "ThreadPoolExecutor", "threading"}
SOURCES = sorted((Path(__file__).parents[1] / "src" / "cellforest").glob("*.py"))


def referred_names(path):
    """Every name, attribute and imported module part in the source at ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for a in node.names for part in a.name.split("."))
            names.update((getattr(node, "module", None) or "").split("."))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_parallel_starts_threads(path):
    # one module decides the thread count and the BLAS pin; a second thread
    # scheme elsewhere would have to size its work and pin BLAS on its own
    names = referred_names(path)
    assert path.name == "parallel.py" or not names & THREAD_NAMES, sorted(names & THREAD_NAMES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_resample(path):
    # classify.trilinear is the resample; scipy's, its bit-for-bit reference,
    # lives in tests/oracles.py
    assert "map_coordinates" not in referred_names(path)
