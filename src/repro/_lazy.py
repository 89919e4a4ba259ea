"""Package names that load their module on first use (PEP 562).

A package ``__init__`` says which submodule holds each name it offers;
:func:`attach` returns the module-level ``__getattr__`` and ``__dir__``
that import that submodule the first time the name is read.  So
``from repro.parallel import WorkerPool`` loads ``repro.parallel.pool``
and nothing else, and a process loads only the layers it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def attach(package: str, exports: Mapping[str, Iterable[str]]
           ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                      List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps each submodule (its name inside ``package``) to
    the names the package re-exports from it.  The first read of a name
    imports its submodule and binds the value in the package, so later
    reads never come back here.
    """
    owner: Dict[str, str] = {name: module
                             for module, names in exports.items()
                             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, sorted(owner)
