"""Package roots that import a submodule only when a name is used.

The observability roots (:mod:`repro.obs`, :mod:`repro.telemetry`,
:mod:`repro.costmodel`) re-export names from their submodules.  With
eager ``from .x import ...`` lines, importing the root imports all of
them, and Python imports the root before any submodule: the
``from repro.obs.tracer import get_tracer`` line in the round engine
would load the SQLite registry, the monitors and the sympy ledgers.
:func:`lazy_exports` gives a root a PEP 562 module ``__getattr__``
instead, so each ``from repro.obs import X`` imports the submodule
that defines ``X`` on its first use.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the root ``package``.

    ``exports`` maps each submodule (name relative to ``package``) to
    the public names it defines.  A resolved name is stored in the
    package namespace, so later lookups never reach ``__getattr__``.
    """
    defined_in = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = defined_in.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(defined_in))

    return sorted(defined_in), __getattr__, __dir__
