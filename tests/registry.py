"""Helpers for the tests that read or rebind the modules of the property registry.

``multibayes.properties`` is a package: it re-exports the drivers and
generators of its private ``_registry`` module, and the properties of
each group live in a module of their own.  A test that reads the laws
parses every one of those modules, and a test that plants a defect sets
the name in every module that holds it, as the benchmark's tracer
rebinds a layer.
"""

import ast
import importlib
import inspect
import pkgutil
import sys

from multibayes import properties


def source_trees(module) -> dict[str, ast.Module]:
    """The parsed source of ``module`` and, if it is a package, of every module in it, by module name."""
    modules = [module]
    if hasattr(module, "__path__"):
        infos = pkgutil.iter_modules(module.__path__, f"{module.__name__}.")
        modules += [importlib.import_module(info.name) for info in infos]
    return {m.__name__: ast.parse(inspect.getsource(m)) for m in modules}


def rebind(monkeypatch, name: str, value) -> None:
    """Set ``name`` to ``value``, for the test, in every module of the registry that holds the object it names."""
    package = properties.__name__
    holders = [
        module for key, module in list(sys.modules.items())
        if (key == package or key.startswith(f"{package}.")) and name in vars(module)
    ]
    assert holders, f"no module of {package} holds {name!r}"
    original = vars(holders[0])[name]
    for module in holders:
        if vars(module)[name] is original:
            monkeypatch.setattr(module, name, value)
