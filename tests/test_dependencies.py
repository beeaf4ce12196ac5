"""Imports: loading the library pulls in no sympy or numpy, and no module keeps an unused one."""

import ast
import os
import subprocess
import sys
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
