"""Every exported name resolves: each module's ``__all__`` and every name the
package ``__init__`` imports, which must also be in its module's ``__all__``."""

import ast
import importlib
import pkgutil

import pytest

import geonav

MODULES = sorted(m.name for m in pkgutil.iter_modules(geonav.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"geonav.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_package_imports_are_exported():
    with open(geonav.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"geonav.{node.module}")
        exported = getattr(mod, "__all__", None)
        for alias in node.names:
            assert hasattr(geonav, alias.asname or alias.name)
            assert exported is None or alias.name in exported, (node.module, alias.name)
