"""The library has no runtime dependencies: importing it loads no sympy or numpy."""

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
