"""Every module-level private name in the package is used somewhere in it,
and every name a module imports is read there.

A private function, class or constant that only its own definition
mentions is left over from code that was removed, and so is an import
that nothing reads.
"""
import ast
from collections import defaultdict
from pathlib import Path

import asmux

PACKAGE = Path(asmux.__file__).resolve().parent


def _definitions(tree):
    """(name, first line, last line) of each module-level private definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _uses(tree):
    """(name, line) of every name the module reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_name_is_used_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    assert "statistics.py" in trees
    uses = defaultdict(list)
    for module, tree in trees.items():
        for name, line in _uses(tree):
            uses[name].append((module, line))
    unused = [
        f"{module}:{first} {name}"
        for module, tree in trees.items()
        for name, first, last in _definitions(tree)
        if all(where == module and first <= line <= last for where, line in uses[name])
    ]
    assert unused == []


def _imported(tree):
    """(bound name, line) of each name the module imports, but ``__future__`` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_read_in_its_module():
    # an import counts as a use above, so a leftover import would hide the
    # dead code it names; __init__.py imports to re-export
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in read]
    assert unread == []
