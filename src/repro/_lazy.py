"""Lazy package namespaces (PEP 562).

Every package of ``repro`` re-exports the names its users import from
it, but importing a package must not import what those names need: a
prover process has no use for the model checker, and the experiment CLI
no use for the fleet stack.  Each package ``__init__`` therefore holds
one table from each exported name to the module that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

with ``_EXPORTS = {"Device": "repro.device.mcu", ...}``.  A target of
the form ``"module:attribute"`` exports that module's *attribute* under
the table's name (``"set_crypto_backend":
"repro.crypto.backend:set_backend"``).  The first access of a name
imports its module and binds the value in the package, so later
accesses are plain attribute reads.  A name that is not an export but
is a submodule is imported as that submodule (``import repro;
repro.device.mcu`` works); any other name raises ``AttributeError``.

Tools that patch an exported name (tests, benchmarks) must patch it in
its defining module: the package binds the value it resolved, and the
code that uses the name reads it from the defining module.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple


def _import(name: str):
    """The module *name*, imported through ``__import__`` so that
    ``python -X importtime`` lists it."""
    __import__(name)
    return sys.modules[name]


def resolve(target: str):
    """The attribute a ``"module:attribute"`` target names, importing
    the module if it is not imported yet."""
    module_name, _, attribute = target.partition(":")
    return getattr(_import(module_name), attribute)


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*, whose exported
    names are the keys of *exports*, each mapped to its defining module
    (``"module"``, or ``"module:attribute"`` for an alias)."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        target = exports.get(name)
        if target is None:
            submodule = "%s.%s" % (package, name)
            try:
                return _import(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
            raise AttributeError("module %r has no attribute %r" % (package, name))
        if ":" not in target:
            target = "%s:%s" % (target, name)
        value = namespace[name] = resolve(target)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
