"""Lazy package facades (PEP 562).

A facade such as :mod:`repro.core` re-exports names defined in its
submodules.  Importing them eagerly would make every ``import
repro.X.y`` pay for the whole package: the root facade alone pulls in
the runner, the simulator and numpy.  A facade instead lists its names
in ``__all__`` and hands :func:`exports` one table, defining module ->
names; a name's module is imported the first time the name is read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def exports(package: str, table: dict[str, tuple[str, ...]]
            ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of facade ``package``.

    ``table`` maps each defining module to the names the facade
    re-exports from it.  A resolved name is stored in the package
    namespace, so later reads are plain attribute lookups.
    """
    origin = {name: module for module, names in table.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module),
                                          name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__
