"""Package re-exports that load their submodule on first use.

A trial imports a package for the few names it runs, yet a package's
``__init__`` used to import every submodule it re-exports.  A package
lists its off-path exports here instead::

    __getattr__ = lazy_exports(__name__, {"SecurityDrivenFlow": ".flow"})

and keeps the real imports under ``TYPE_CHECKING`` so type checkers see
every name.  The first ``getattr`` (or ``from package import name``)
imports the submodule and stores the value in the package namespace, so
later lookups never reach ``__getattr__`` again.  A name equal to its
submodule's (``"bitstream": ".bitstream"``) exports the module itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for *package* that resolves each name in
    *exports* from its relative submodule on first access."""

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(submodule, package)
        value = module if submodule == "." + name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
