"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` lists each public name under the module that
defines it.  That module is imported, and the name bound in the package,
the first time the name is read, so importing a package loads none of
the modules behind it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    namespace: dict[str, Any], origins: Mapping[str, Sequence[str]],
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of the package
    whose globals are ``namespace``, exporting the names ``origins``
    lists under each defining module (the package itself for a name it
    defines)."""
    package = namespace["__name__"]
    origin_of = {name: module for module, names in origins.items()
                 for name in names}

    def __getattr__(name: str) -> Any:
        module = origin_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module),
                                          name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin_of})

    return list(origin_of), __getattr__, __dir__
