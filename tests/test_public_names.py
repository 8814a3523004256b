"""Every name the package and its modules export resolves, so a stale
`__all__` entry cannot break `from fovalign.<module> import *`."""

import importlib
import pkgutil

import pytest

import fovalign

# `fovalign.__main__` runs the CLI on import and exports nothing
MODULES = ["fovalign"] + [
    f"fovalign.{info.name}"
    for info in pkgutil.iter_modules(fovalign.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_every_module_is_checked():
    assert {"fovalign.fusion", "fovalign.providers", "fovalign.cli"} <= set(MODULES)
