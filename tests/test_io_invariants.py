"""Every file the package writes goes through one writer, and no import hides a cycle.

An AST scan of ``src/songseg/*.py`` checks two rules:

- the builtin ``open`` is called with a mode other than ``"rb"`` only inside
  ``serialize.atomic_write``, so every file is replaced atomically and every
  text file is written by ``serialize.write_text``;
- no function body holds an import: a function-local import is how an
  import cycle between modules stays hidden.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, outermost function) allowed to open a file for writing.
WRITERS = {("serialize", "atomic_write")}


def _open_mode(call):
    """The mode an ``open(...)`` call passes, or None when it is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else None


def io_violations(sources):
    """``"module:line message"`` for each break of the two rules.

    ``sources`` maps a module name to its Python source.
    """
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owner = {}  # node -> name of the outermost function that holds it
        for fn in ast.walk(tree):  # breadth first: outer functions come first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            where = (module, owner.get(node))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and where[1]:
                found.append((module, node.lineno, f"import inside {where[1]}"))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open" and where not in WRITERS):
                mode = _open_mode(node)
                if mode != "rb":
                    found.append((module, node.lineno,
                                  f"open mode {mode!r} outside atomic_write"))
    return [f"{module}:{line} {message}" for module, line, message in sorted(found)]


def test_package_writes_through_atomic_write_and_imports_at_module_top():
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "songseg").glob("*.py"))}
    assert io_violations(package) == []


def test_guard_flags_writes_and_function_local_imports():
    package = {
        "serialize": (
            "import os\n\n"
            "def atomic_write(path, mode):\n    return open(path, mode)\n\n"
            "def load_matrix(path):\n    from .spectral import FeatureMatrix\n"
            "    with open(path, 'rb') as fh:\n        return fh.read()\n\n"
            "def save(path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n"
        ),
        "audio": (
            "def read(path):\n    with open(path, mode='rb') as fh:\n        return fh.read()\n\n"
            "def text(path):\n    return open(path).read()\n\n"
            "class Writer:\n"
            "    def write(self, path):\n"
            "        def inner():\n            from . import serialize\n"
            "        return inner\n"
        ),
    }
    assert io_violations(package) == [
        "audio:6 open mode 'r' outside atomic_write",
        "audio:11 import inside write",
        "serialize:7 import inside load_matrix",
        "serialize:12 open mode 'w' outside atomic_write",
    ]
