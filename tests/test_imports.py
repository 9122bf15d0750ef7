"""Every name a package module imports is used in that module (``__init__.py`` re-exports), and every
public function, class and method a module defines is read somewhere in the package."""

import ast
from pathlib import Path

import edgewatch

PACKAGE = Path(edgewatch.__file__).parent


def imported_names(tree):
    """The names the module's import statements bind, each with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """The names the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import IO, Sequence\ndef f(x: 'Sequence[int]') -> int: ...\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os", "IO"]


def defined_names(tree):
    """The module's public top-level functions and classes and its classes' public methods, each with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno


def read_names(tree):
    """The names the module reads, as a name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread(trees, allowed=frozenset()):
    """Each public definition outside ``__init__.py`` whose name no module of ``trees`` reads."""
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        if module != "__init__.py"
        for name, line in defined_names(tree)
        if name.rpartition(".")[2] not in read and name not in allowed
    ]


# No package code reads Snapshot.n_records: perfbench's traced counters do, until the package's own stage
# timer replaces them (ROADMAP item 1, PR B).
UNREAD_ALLOWED = {"Snapshot.n_records"}


def test_every_public_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert unread(trees, UNREAD_ALLOWED) == []


def test_the_check_sees_an_unread_definition():
    source = "class A:\n    def used(self): ...\n    def unused(self): ...\n    def _own(self): ...\n"
    source += "def f(a):\n    return a.used\ndef g():\n    return f(A())\n"
    assert unread({"m.py": ast.parse(source), "__init__.py": ast.parse("def h(): ...")}) == [
        "m.py:3: A.unused",
        "m.py:7: g",
    ]
