"""Every test module imports. One that does not (say, it still imports a
deleted name) then fails a test here, instead of only dropping out of a run
that continues past collection errors."""

import importlib
from pathlib import Path

import pytest

MODULES = sorted(p.stem for p in Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
