"""The public API: one export list per module, every exported name resolves, and
importing it stays light."""

from __future__ import annotations

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import spectop

MODULES = [spectop] + [
    importlib.import_module(f"spectop.{info.name}")
    for info in pkgutil.iter_modules(spectop.__path__)
]

# the submodules the package re-exports, in the order of spectop.__all__
EXPORTED = [
    spectop.graphs, spectop.families, spectop.spectral, spectop.nets,
    spectop.localsim, spectop.bounds, spectop.walks, spectop.rng,
]


def test_package_exports_exactly_the_submodule_lists():
    names = [name for module in EXPORTED for name in module.__all__]
    assert len(names) == len(set(names))  # no name in two modules
    assert spectop.__all__ == ["__version__", *names]


@pytest.mark.parametrize("module", EXPORTED, ids=lambda m: m.__name__)
def test_exported_classes_and_functions_are_defined_in_their_module(module):
    # a re-export in a submodule's list would put one name in two lists
    objects = [getattr(module, name) for name in module.__all__]
    foreign = [
        obj.__qualname__ for obj in objects
        if isinstance(obj, (type, types.FunctionType)) and obj.__module__ != module.__name__
    ]
    assert foreign == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_imported_name_is_read(module):
    # pyflakes' unused-import check from the standard library; a name in the
    # module's __all__ counts as read (a re-export)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(imported - read - set(getattr(module, "__all__", ()))) == []


def test_only_cli_and_graphs_open_files_for_writing():
    # cli writes every artifact (through emit) and graphs the graph files; a
    # mode that is not a string literal counts as writing
    src = os.path.dirname(spectop.__file__)
    writes = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        if name in ("cli.py", "graphs.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or "open" not in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                writes.append(f"{name}:{node.lineno}")
    assert writes == []


def test_import_loads_no_quadrature_or_optimizer():
    # scipy.integrate drags in scipy.optimize and scipy.special, which every
    # CLI call would then pay for; the Kesten-McKay mass has a closed form
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectop.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, spectop, spectop.cli; "
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
