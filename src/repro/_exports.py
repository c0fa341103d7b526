"""Re-exports that a subpackage resolves on first access (PEP 562).

A subpackage ``__init__`` lists its public names as ``{submodule: (name,
...)}`` and installs the two functions :func:`lazy_exports` returns, so that
importing one of its modules loads only what that module imports.  A name is
imported the first time it is read and then cached in the package's globals,
where every later read finds it as a plain attribute.  A name equal to its
submodule's is the submodule itself (``repro.topology.generators``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``."""
    owner = {name: sub for sub, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{sub}")
        value = module if name == sub else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
