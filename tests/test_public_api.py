"""Every name a package exports resolves.

``from repro.<pkg> import *`` and the documented surface rely on each
``__all__`` entry existing on its module; an export left behind after a
definition is deleted or renamed fails here instead of at a user's import.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)


def test_every_subpackage_is_listed():
    assert {"repro.tensor", "repro.tiling", "repro.model",
            "repro.experiments"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{package} declares no __all__"
    assert len(exported) == len(set(exported)), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names undefined attributes: {missing}"
