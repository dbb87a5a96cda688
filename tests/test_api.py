import importlib
import pkgutil
import types

import pytest

import proxgml

MODULES = ["proxgml"] + [f"proxgml.{m.name}" for m in pkgutil.iter_modules(proxgml.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # an import that succeeds does not show that a removed name left __all__
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_exports_every_public_name_it_imports():
    public = {n for n, v in vars(proxgml).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(proxgml.__all__)
