"""bench/tracer.py still finds every name it wraps, and puts each one back."""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import fovalign
import fovalign.cli  # noqa: F401  the tracer wraps cli.main

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
SPEC = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = tracer  # its dataclasses look their module up there
SPEC.loader.exec_module(tracer)


def bindings() -> dict:
    """(owner, attribute) -> object for each loaded fovalign module and each
    class defined in one."""
    modules = [module for name, module in sys.modules.items()
               if module is not None and name.split(".")[0] == "fovalign"]
    classes = [obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__.startswith("fovalign.")]
    return {(owner, attr): obj for owner in modules + classes for attr, obj in vars(owner).items()}


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    before = bindings()
    traced = tracer.Tracer("tier1")
    try:
        traced.install(fovalign)  # a deleted or renamed name raises here
        patched = {key for key, obj in bindings().items() if obj is not before[key]}
    finally:
        traced.uninstall()
    after = bindings()
    assert (fovalign, "nway_evaluate") in patched
    assert (fovalign.providers.SyntheticProvider, "view_image") in patched
    assert after.keys() == before.keys()
    assert [key for key in patched if after[key] is not before[key]] == []
