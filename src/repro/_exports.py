"""Lazy package re-exports (PEP 562).

Every ``repro`` package ``__init__`` declares its public surface as one
table of ``{submodule: (public names...)}`` and hands it to
:func:`lazy_exports`.  A name's submodule is imported on first access,
so a command imports only the modules it actually uses: ``repro
suite`` never loads the migrator or the profiler.

The key ``"."`` names submodules exported as themselves (the table form
of ``from . import errors, rng``)::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".": ("errors", "rng"),
        "rng": ("LcgPark",),
    })

:func:`lazy_module` does the same for a third-party module bound at
module level: ``np = lazy_module("numpy")`` executes numpy only when
code first reads ``np.<name>``, so a command that never touches an array
(``figures``, ``list``, ``migrate``, ``synth``) never pays its import.
"""

from __future__ import annotations

import importlib.util
import sys


def _load(module: str):
    # the builtin ``__import__`` (unlike ``importlib.import_module``)
    # goes through the interpreter's own import path, so lazily loaded
    # modules still show in ``python -X importtime``
    __import__(module)
    return sys.modules[module]


def lazy_exports(package: str, table: dict) -> tuple:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``__all__`` lists the table's names in table order.  ``__getattr__``
    imports the owning submodule on first access and caches the value in
    the package globals, so later lookups never reach it again.
    """
    owner = {name: sub for sub, names in table.items() for name in names}
    exported = list(owner)

    def __getattr__(name: str):
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if sub == ".":
            value = _load(f"{package}.{name}")
        else:
            value = getattr(_load(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(exported))

    return __getattr__, __dir__, exported


def lazy_module(name: str):
    """``name`` as a module that executes on its first attribute read.

    A module already in ``sys.modules`` is returned as it is.  Otherwise
    a :class:`importlib.util.LazyLoader` module is registered there; the
    first attribute read runs the real import and turns the object into
    a plain module, so later reads cost nothing extra.  A plain ``import
    name`` elsewhere also triggers the load (the import system reads
    ``__spec__``).
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
