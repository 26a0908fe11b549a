"""Every public name the packages advertise resolves.

A deleted module can leave its name behind in an ``__all__`` list or in
the top-level lazy re-export map; neither fails at import time, only when
the name is first used.
"""

import importlib

import repro


def test_every_public_export_resolves():
    missing = [f"repro.{name} (lazy)" for name in repro._LAZY if not hasattr(repro, name)]
    for module in ("repro", "repro.core", "repro.engine", "repro.polyhedra"):
        package = importlib.import_module(module)
        missing += [f"{module}.{name}" for name in package.__all__ if not hasattr(package, name)]
    assert not missing, missing
