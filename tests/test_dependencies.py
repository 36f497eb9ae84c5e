"""The package runs on the standard library alone: pyproject.toml lists no
dependencies, and its test extra no numeric package, so no module may need
numpy or any other numeric package, even on a machine where one is
installed.  Every name a module imports is also used in it, so a deleted
helper leaves no import behind.  Every route's size cap is stated once, in
linalg's route table."""

import ast
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


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations such as ``-> "MultiPoly"``
    included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.annotation] if isinstance(node, ast.arg) else [node.returns]
            for note in notes:
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


def test_every_imported_name_is_used():
    unused = []
    for path in sorted((SRC / "huckelpascal").glob("*.py")):
        if path.stem == "__init__":  # its imports are the package's re-exports
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


def test_only_the_route_table_and_the_oracles_call_size_guard():
    # linalg reads each route's cap from its table, and oracle holds the
    # enumeration budgets; any other module names the route it feeds
    callers = []
    for path in sorted((SRC / "huckelpascal").glob("*.py")):
        if path.stem in ("linalg", "oracle"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "size_guard":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
