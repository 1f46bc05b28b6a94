"""Guards on what the package modules import.

Every module-level import of ``src/boxlift/<module>.py`` must be used in
that module, and every private module-level function or class must be
referenced there.  ``__init__.py`` re-exports names, so it is left out.
The command line must run on numpy alone: scipy is a test-only dependency,
no command loads ``numpy.ma``, and ``annotate --threads`` needs no process
pool.  Only ``gen`` loads the scene generator.  The label file's reader and
the evaluator do not depend on the optimizer.  Every dataclass has a
docstring of its own.
"""

from __future__ import annotations

import ast
import json
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


def cli_import_loads(*packages: str, module: str = "boxlift.cli") -> list[str]:
    """The modules of ``packages`` that ``import module`` loads in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = (f"import sys, {module}; "
             f"print(json.dumps([m for m in sys.modules if m.split('.')[0] in {packages!r}]))")
    out = subprocess.run([sys.executable, "-c", "import json; " + probe],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy():
    assert cli_import_loads("scipy") == []


def test_cli_import_loads_no_process_pool():
    # annotate --threads forks its children itself; the executor and
    # multiprocessing imports cost about 20 ms per command.
    assert cli_import_loads("concurrent", "multiprocessing") == []


@pytest.mark.parametrize("module", ["boxlift", "boxlift.cli"])
def test_import_loads_every_module_but_the_generator(module):
    # Only gen runs the generator; compiling and building it cost every
    # other command about 15 ms of start-up.  Nothing else may be dropped
    # from import boxlift, or its cost would move into a command.
    expected = {"boxlift"} | {f"boxlift.{p.stem}" for p in MODULES} - {"boxlift.synthetic"}
    if module == "boxlift":
        expected.discard("boxlift.cli")
    assert set(cli_import_loads("boxlift", module=module)) == expected


COMMANDS_TWICE = """
import json, sys
from boxlift.cli import cli_main
root, bench = sys.argv[1:]

def run(out):
    return [cli_main(args) for args in (
        ["gen", "--config", f"{bench}/scenes/tiny.json", "--out", f"{out}/scene"],
        ["annotate", "--dataset", f"{out}/scene", "--config", f"{bench}/pipeline.json",
         "--out", f"{out}/labels.jsonl"],
        ["eval", "--dataset", f"{out}/scene", "--labels", f"{out}/labels.jsonl",
         "--config", f"{bench}/pipeline.json", "--report", f"{out}/report.json"],
        ["stats", "--dataset", f"{out}/scene", "--report", f"{out}/stats.json"],
    )]

codes = run(f"{root}/plain")
loaded = "numpy.ma" in sys.modules
sys.modules["numpy.ma"] = None      # any import of it now raises ImportError
print(json.dumps([codes, loaded, run(f"{root}/no_ma")]))
"""


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy's unique(axis=0) imports numpy.ma (about 12 ms).  gen, annotate,
    # eval and stats on tiny must not load it, and must write the same
    # files where it cannot be imported.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    bench = PACKAGE.parents[1] / "bench"
    out = subprocess.run([sys.executable, "-c", COMMANDS_TWICE, str(tmp_path), str(bench)],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[0, 0, 0, 0], False, [0, 0, 0, 0]]
    plain = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*"))
    assert plain == sorted(p.relative_to(tmp_path / "no_ma") for p in (tmp_path / "no_ma").rglob("*"))
    for rel in plain:
        if (tmp_path / "plain" / rel).is_file():
            assert (tmp_path / "plain" / rel).read_bytes() == (tmp_path / "no_ma" / rel).read_bytes()


COMMANDS_WITHOUT_GENERATOR = """
import json, sys
mode, root, bench = sys.argv[1:]
if mode == "no_gen":
    sys.modules["boxlift.synthetic"] = None     # any import of it now raises ImportError
from boxlift.cli import cli_main

scene, out, pipeline = f"{root}/scene", f"{root}/{mode}", f"{bench}/pipeline.json"
commands = [
    ["annotate", "--dataset", scene, "--config", pipeline, "--out", f"{out}/labels_t1.jsonl"],
    ["annotate", "--dataset", scene, "--config", pipeline, "--out", f"{out}/labels_t2.jsonl",
     "--threads", "2"],
    ["eval", "--dataset", scene, "--labels", f"{out}/labels_t1.jsonl", "--config", pipeline,
     "--report", f"{out}/report.json"],
    ["stats", "--dataset", scene, "--report", f"{out}/stats.json"],
]
if mode == "plain":
    commands.insert(0, ["gen", "--config", f"{bench}/scenes/tiny.json", "--out", scene])
print(json.dumps([cli_main(args) for args in commands]))
"""


def test_commands_run_without_the_generator(tmp_path):
    # gen builds tiny in a normal process; annotate at --threads 1 and 2,
    # eval and stats then run where boxlift.synthetic cannot be imported,
    # and write the same files as in the normal process.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    bench = PACKAGE.parents[1] / "bench"
    for mode, codes in (("plain", [0] * 5), ("no_gen", [0] * 4)):
        (tmp_path / mode).mkdir()
        out = subprocess.run(
            [sys.executable, "-c", COMMANDS_WITHOUT_GENERATOR, mode, str(tmp_path), str(bench)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == codes, out.stderr
    names = ["labels_t1.jsonl", "labels_t2.jsonl", "report.json", "stats.json"]
    assert sorted(p.name for p in (tmp_path / "no_gen").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "no_gen" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert (tmp_path / "plain" / "labels_t1.jsonl").read_bytes() == \
        (tmp_path / "plain" / "labels_t2.jsonl").read_bytes()


def is_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or the same through ``dataclasses.``."""
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_dataclass_has_a_docstring(path):
    # dataclasses builds a missing docstring from inspect.signature when
    # the class is created, about 0.1 ms a class at every import.  A
    # docstring says what the record holds, so it need not name the class.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(is_dataclass_decorator(d) for d in node.decorator_list)]
    missing = [c.name for c in classes if not ast.get_docstring(c)]
    assert not missing, f"{path.name}: dataclasses without a docstring: {missing}"
    naming = [c.name for c in classes if c.name in ast.get_docstring(c)]
    assert not naming, f"{path.name}: docstrings that repeat their class name: {naming}"


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
