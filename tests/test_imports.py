"""Every module-level import in the package is used, and every
module-level private name it defines is read somewhere in it.  No linter
runs on this repository, so this test catches the imports and helpers a
deletion orphans."""

import ast
from pathlib import Path

import pytest

import xbarsim

# ``__init__.py`` imports only to re-export, so it is not checked.
ALL_MODULES = sorted(Path(xbarsim.__file__).parent.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
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


def _module_statements(body):
    """Statements run at module level, inside top-level try and if blocks too."""
    for node in body:
        yield node
        if isinstance(node, (ast.Try, ast.If)):
            handlers = [h.body for h in getattr(node, "handlers", ())]
            for block in (node.body, node.orelse, getattr(node, "finalbody", []), *handlers):
                yield from _module_statements(block)


def private_definitions(source: str) -> list[str]:
    """Module-level ``_names`` (not dunders) that functions, classes and
    assignments define."""
    names = []
    for node in _module_statements(ast.parse(source).body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def loaded_names(source: str) -> set[str]:
    """Names read as variables or as attributes (``solver._PANEL``)."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_checker_finds_a_dead_private_name():
    source = ("try:\n    _lib = load()\nexcept OSError:\n    _lib = None\n"
              "_A, _B = 1, 2\n__all__ = []\n\n"
              "def _used():\n    return _A\n\n"
              "def _dead():\n    return _used()\n")
    assert private_definitions(source) == ["_lib", "_lib", "_A", "_B", "_used", "_dead"]
    assert set(private_definitions(source)) - loaded_names(source) == {"_lib", "_B", "_dead"}


def test_every_private_name_is_read():
    loaded = set().union(*(loaded_names(p.read_text()) for p in ALL_MODULES))
    dead = [f"{p.name}: {name}" for p in ALL_MODULES
            for name in private_definitions(p.read_text()) if name not in loaded]
    assert not dead, f"private names defined but never read: {dead}"


# Every command writes its files through ``experiments.emit``, so the output
# naming and summary envelope are decided in one place.
WRITERS = {"write_csv", "write_summary_json", "default_output_dir"}


def writer_calls(source: str) -> list[str]:
    """Calls to the output writers, as ``definition: writer`` for the
    top-level function or class (``<module>`` outside one) that makes each."""
    calls = []
    for node in ast.parse(source).body:
        where = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in WRITERS:
                    calls.append(f"{where}: {name}")
    return calls


def test_checker_finds_writer_calls():
    source = ("from .io import write_csv\nimport io\n\n"
              "def emit(path):\n    write_csv(path, [], [])\n\n"
              "def run(cfg):\n    def inner():\n        io.write_summary_json('s.json', {})\n"
              "    return inner, write_csv\n\n"
              "default_output_dir()\n")
    assert writer_calls(source) == [
        "emit: write_csv", "run: write_summary_json", "<module>: default_output_dir"]


def test_only_emit_writes_output_files():
    calls = {f"{p.name} {c}" for p in ALL_MODULES for c in writer_calls(p.read_text())}
    assert calls == {f"experiments.py emit: {w}" for w in WRITERS}


# Sparse matrices are built and factored in ``solver`` alone, and the device
# law is evaluated in ``devices`` alone (``CellGrid.currents`` and
# ``conductances``).
OWNERS = {"scipy.sparse": "solver.py", "np.sinh": "devices.py", "np.cosh": "devices.py"}


def owned_uses(source: str, exempt=frozenset()) -> list[str]:
    """Uses of the names in ``OWNERS``, as ``line n: name``: imports of
    ``scipy.sparse`` or a submodule of it, unless bound to a name in
    ``exempt``, and calls of ``np.sinh`` and ``np.cosh``."""
    def sparse(module: str) -> bool:
        return (module + ".").startswith("scipy.sparse.")

    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses += [(node.lineno, "scipy.sparse") for a in node.names
                     if sparse(a.name) and (a.asname or a.name) not in exempt]
        elif isinstance(node, ast.ImportFrom) and any(
                sparse(f"{node.module}.{a.name}") for a in node.names):
            uses.append((node.lineno, "scipy.sparse"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "np"
              and node.func.attr in ("sinh", "cosh")):
            uses.append((node.lineno, f"np.{node.func.attr}"))
    return [f"line {n}: {name}" for n, name in sorted(uses)]


def test_checker_finds_owned_uses():
    source = ("import numpy as np\nimport scipy.sparse as sp\n"
              "import scipy.sparse.linalg as spla\nfrom scipy import sparse\n\n"
              "def f(v):\n    return np.sinh(v) + np.cosh(v) + np.tanh(v)\n")
    assert owned_uses(source, exempt={"spla"}) == [
        "line 2: scipy.sparse", "line 4: scipy.sparse", "line 7: np.cosh", "line 7: np.sinh"]


def test_sparse_algebra_and_device_law_each_have_one_module():
    strays = [f"{p.name} {use}" for p in ALL_MODULES
              for use in owned_uses(p.read_text(), EXEMPT.get(p.name, set()))
              if OWNERS[use.split(": ")[1]] != p.name]
    assert not strays, f"used outside their owning module: {strays}"
