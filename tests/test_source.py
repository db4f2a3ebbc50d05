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
