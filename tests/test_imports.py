"""Every module-level import in the package is used.  No linter runs on
this repository, so this test catches the imports a deletion orphans."""

import ast
from pathlib import Path

import pytest

import xbarsim

# ``__init__.py`` imports only to re-export, so it is not checked.
MODULES = sorted(p for p in Path(xbarsim.__file__).parent.glob("*.py") if p.name != "__init__.py")
# Imported for others to reach: the SuperLU module that
# ``perfbench/layers.py`` wraps through ``readout.spla``.
EXEMPT = {"readout.py": {"spla"}}


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"line {node.lineno}: {name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in _bound_names(node)
        if name not in used
    ]


def test_checker_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\n"
              "import scipy.sparse.linalg\n\n"
              "def f(x: 'np.ndarray') -> int:\n    return field(x)\n")
    assert unused_imports(source) == ["line 1: dataclass", "line 3: scipy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    exempt = EXEMPT.get(path.name, set())
    unused = [u for u in unused_imports(path.read_text())
              if u.split(": ")[1] not in exempt]
    assert not unused, f"{path.name}: unused imports {unused}"
