"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` that imports its submodules makes every import of
the package pay for all of them: ``from repro.sim.stats import SimStats``
would load both simulators.  Instead each package maps its re-exported
names to the submodule that defines them, and :func:`lazy_exports`
builds the module ``__getattr__`` that imports that submodule when a
name is first read.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict


def lazy_exports(package: str, exports: Dict[str, str],
                 namespace: Dict[str, Any]) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``package``: ``exports`` maps each name to
    its defining submodule (relative, e.g. ``".stats"``); a resolved
    name is stored in ``namespace``, the package's globals, so later
    reads do not come back here."""

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    return __getattr__
