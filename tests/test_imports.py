"""No library module imports a name it never uses, and the library
defines no private name it never reads.

No linter ships with the project, so this reads every module of
`src/multifair` with `ast`: each name bound by a module-level import
must be read somewhere in the module, as a name or as the head of an
attribute chain, or inside a string annotation.  The package's
`__init__` is left out, since it imports only to re-export.  Each
module-level private function, class or constant, and each private
method, must be read somewhere in the package, as a name or as an
attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multifair"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """name -> line of each name a module-level import binds."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotated(tree):
    """Every name read inside a string annotation."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {name.id for ann in filter(None, annotations) for node in ast.walk(ann)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in ast.walk(ast.parse(node.value, mode="eval"))
            if isinstance(name, ast.Name)}


def _read(tree):
    """Every name the module reads, string annotations included."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotated(tree)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport math\n"
                     "def f(x: 'Fraction'):\n    return x\n")
    assert set(_imported(tree)) - _read(tree) == {"math"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_private(tree):
    """name -> line of each module-level private function, class or
    constant, and each private method, a module defines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = node.lineno
            names.update((item.name, item.lineno) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for target in targets
                         for t in ast.walk(target) if isinstance(t, ast.Name))
    return {name: line for name, line in names.items() if _private(name)}


def _loaded(tree):
    """Every name and attribute a module reads, string annotations included;
    a definition or an assignment is not a read."""
    read = set(_annotated(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_package_reads_every_private_name_it_defines():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    read = set().union(*map(_loaded, trees.values()))
    unread = {f"{name}:{line}": defined for name, tree in sorted(trees.items())
              for defined, line in _defined_private(tree).items() if defined not in read}
    assert not unread, f"private names nothing in the package reads: {unread}"


def test_the_check_sees_an_unread_private_name():
    tree = ast.parse("_LIMIT = 3\n_USED = 4\n"
                     "def _dead():\n    return _USED\n"
                     "def _live(x: '_Kept'):\n    return x._method()\n"
                     "class _Kept:\n    def _method(self):\n        return _live\n"
                     "    def _orphan(self):\n        self._orphan_attr = 1\n"
                     "    def __repr__(self):\n        return ''\n")
    assert set(_defined_private(tree)) - _loaded(tree) == {"_LIMIT", "_dead", "_orphan"}
