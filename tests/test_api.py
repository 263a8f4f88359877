import importlib
import pkgutil

import pytest

import stochfp

MODULES = sorted(m.name for m in pkgutil.iter_modules(stochfp.__path__, "stochfp."))


@pytest.mark.parametrize("name", ["stochfp"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
