"""Every exported name resolves: each module's ``__all__``, every name the
package ``__init__`` imports, which must also be in its module's ``__all__``,
and every attribute the benchmark's span tracer wraps."""

import ast
import importlib
import pathlib
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


def test_traced_names_resolve():
    # bench/tracing.py wraps these attributes by name, so renaming or
    # deleting one breaks every traced benchmark run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text())
    (points,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["PATCH_POINTS"]]
    assert points
    missing = [(mod, attr) for mod, attr, _ in points
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
