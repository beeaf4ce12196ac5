"""Imports and definitions: loading the library pulls in no sympy or numpy, no
module keeps an unused import, and no private function, class or method goes
unreferenced."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_heavy_dependency():
    code = ("import sys, wblow, wblow.cli; "
            "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _imported_names(tree: ast.Module):
    """(bound name, line) for every module-level import except __future__."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_no_unused_module_level_imports():
    # the package's __init__ imports names only to re-export them
    unused = []
    for path in sorted((ROOT / "src" / "wblow").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in used]
    assert not unused, unused


def _private_definitions(tree: ast.Module):
    """Module-level private functions and classes, and private methods: the
    `_`-prefixed names that are not dunders, with their definition nodes."""
    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and private(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and private(item.name):
                    yield item


def _referenced_names(node: ast.AST):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_no_unreferenced_private_definitions():
    # a private name counts as used only where code outside its own body
    # reads it, as a name or as an attribute, in some module of the package
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src" / "wblow").glob("*.py"))}
    references = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    dead = []
    for filename, tree in trees.items():
        for node in _private_definitions(tree):
            inside = sum(1 for name in _referenced_names(node) if name == node.name)
            if references[node.name] == inside:
                dead.append(f"{filename}:{node.lineno} {node.name}")
    assert not dead, dead
