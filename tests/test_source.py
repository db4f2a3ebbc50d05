"""Static checks on the package source."""
import ast
from pathlib import Path

import pytest

import tromkit

MODULES = sorted(Path(tromkit.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never references.

    ``__future__`` imports are skipped, and names listed in ``__all__`` count
    as used, so a package ``__init__`` may re-export what it imports.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scan_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.linalg\nimport os\n"
              "from dataclasses import dataclass, field\n"
              "from .grids import GridAxis\n"
              "__all__ = ['GridAxis']\n"
              "x = np.zeros(scipy.linalg.norm([1.0]))\n"
              "@dataclass\nclass A:\n    pass\n")
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def problem_knowledge(path: Path) -> list[str]:
    """Places outside ``fom`` that pick or name a registered problem.

    In every module: a call of ``isinstance`` whose class argument names a
    problem config class.  In every module but ``fom``: a name or attribute
    that is a registered config class (the package ``__init__`` re-exports
    them as import aliases and ``__all__`` strings, which are neither), and
    a comparison against a registered kind or CLI name.
    """
    from tromkit import fom

    problems = [obj for obj in vars(fom).values()
                if isinstance(obj, type) and isinstance(getattr(obj, "kind", None), str)]
    classes = {cls.__name__ for cls in problems}
    names = {getattr(cls, attr, cls.kind) for cls in problems for attr in ("kind", "cli_name")}
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))} & (classes | {"ProblemConfig"})):
            found.append(f"{where} isinstance with a problem class")
        if path.name == "fom.py":
            continue
        if ((isinstance(node, ast.Name) and node.id in classes)
                or (isinstance(node, ast.Attribute) and node.attr in classes)):
            found.append(f"{where} names a problem class")
        if isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Constant) and n.value in names
                for n in [node.left, *node.comparators]):
            found.append(f"{where} compares against a problem kind")
    return sorted(found)


def test_problem_scan_flags_picks_by_type_and_kind(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import fom\n"
                    "from .fom import BurgersConfig\n"
                    "__all__ = ['BurgersConfig']\n"
                    "a = isinstance(cfg, fom.AllenCahnConfig)\n"
                    "b = isinstance(cfg, (int, BurgersConfig))\n"
                    "c = spec['kind'] == 'burgers'\n"
                    "d = 'allen-cahn' != name\n"
                    "e = isinstance(x, int) and kind == 'other'\n")
    assert problem_knowledge(path) == [
        "mod.py:4 isinstance with a problem class", "mod.py:4 names a problem class",
        "mod.py:5 isinstance with a problem class", "mod.py:5 names a problem class",
        "mod.py:6 compares against a problem kind", "mod.py:7 compares against a problem kind"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_problems_picked_only_by_their_class(path):
    # each problem's facts live on its config class in fom; elsewhere a
    # problem is reached through the config or the registry
    assert problem_knowledge(path) == []


# the four module wrappers that the benchmark calls by name
BENCHMARK_ENTRY_POINTS = {"fom.affine_operator_for", "fom.nonlinearity_for",
                          "fom.initial_state_for", "fom.default_grid"}


def unreferenced_functions(sources: dict[str, str], exported) -> list[str]:
    """Public module-level functions, as ``module.name``, that no module of
    ``sources`` (module name -> source) loads by name or attribute and that
    ``exported`` does not list.  A docstring, a comment or the ``def`` itself
    is no reference."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and node.name not in loaded and node.name not in exported]


def test_function_scan_counts_loads_only():
    sources = {"a": ('"""helper is named here, and orphan too."""\n'
                     "def helper():\n    return 1\n"
                     "def orphan():\n    '''orphan'''\n    return helper()\n"
                     "def exported():\n    pass\n"
                     "def _private():\n    pass\n"
                     "def method_called():\n    pass\n"
                     "class C:\n    def method(self):\n        pass\n"),
               "b": "from . import a\nx = a.method_called\norphan = 1\n"}
    assert unreferenced_functions(sources, ["exported"]) == ["a.orphan"]


def test_every_public_function_has_a_caller_in_the_package():
    # code that only the tests call lives under tests/
    sources = {path.stem: path.read_text() for path in MODULES}
    assert sorted(set(unreferenced_functions(sources, tromkit.__all__))
                  - BENCHMARK_ENTRY_POINTS) == []
