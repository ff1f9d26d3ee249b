import importlib

import pytest

import gradedfve


@pytest.mark.parametrize("module", ["gradedfve"] + [f"gradedfve.{m}" for m in gradedfve.__all__])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
