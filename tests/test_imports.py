"""Guards on what the package modules import.

Every module-level import of ``src/boxlift/<module>.py`` must be used in
that module, and every private module-level function or class must be
referenced there.  ``__init__.py`` re-exports names, so it is left out.
The command line must run on numpy alone: scipy is a test-only dependency.
The label file's reader and the evaluator do not depend on the optimizer.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boxlift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def loaded_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= loaded_names(ast.parse(annotation.value))
    return names


def imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [name for name in imported_names(tree) if name not in loaded_names(tree)]
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_definition_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = [name for name in private_definitions(tree) if name not in loaded_names(tree)]
    assert not dead, f"{path.name} defines but never references {dead}"


def test_cli_import_loads_no_scipy():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = "import sys, boxlift.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement anywhere in the module names, and
    each ``from`` import's names joined to its module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules |= {base} | {f"{base}.{a.name}" for a in node.names}
    return modules


@pytest.mark.parametrize("name", ["scene_io.py", "evaluate.py"])
def test_label_io_and_eval_do_not_import_refine(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert not [m for m in imported_modules(tree) if "refine" in m.split(".")]
