"""The package runs on the standard library alone: pyproject.toml lists no
dependencies, so no module may need numpy (a test extra) or any other
numeric package, even on a machine where one is installed."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# a None entry in sys.modules makes `import name` raise ImportError
SCRIPT = """
import importlib, pkgutil, sys
for name in ("numpy", "numba", "scipy", "sympy"):
    sys.modules[name] = None
import huckelpascal
names = sorted(m.name for m in pkgutil.iter_modules(huckelpascal.__path__))
for name in names:
    importlib.import_module("huckelpascal." + name)
print(" ".join(names))
from huckelpascal import cli
sys.exit(cli.main(["verify", "conj1", "--n", "2"]))
"""


def test_every_module_runs_without_numeric_packages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules, _, report = done.stdout.partition("\n")
    expected = sorted(p.stem for p in (SRC / "huckelpascal").glob("*.py") if p.stem != "__init__")
    assert modules.split() == expected
    assert "conj1" in report
