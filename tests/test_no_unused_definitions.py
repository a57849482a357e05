"""Every definition in the package is used by something other than the tests.

A top-level function or class, or a method that is not a dunder, in
``src/songseg/*.py`` must be referenced by name from one of:

- another definition in ``src/songseg/`` (a reference inside the
  definition's own body, such as recursion, does not count);
- a script in ``perfbench/`` or ``demos/``;
- a code span in ``README.md`` (the documented public surface).

References from ``tests/`` do not count: a helper only tests call belongs
in the tests.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """``(name, first line, last line)`` of each checked definition in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree):
    """``(name, line)`` of every name, attribute and imported name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def unused_definitions(package_sources, user_sources, docs):
    """Definitions in ``package_sources`` that nothing else references.

    ``package_sources`` and ``user_sources`` map a file label to its Python
    source; ``docs`` is Markdown whose inline code spans count as references.
    Returns ``"label:line name"`` strings.
    """
    trees = {label: ast.parse(text) for label, text in package_sources.items()}
    package_refs = defaultdict(list)  # name -> [(label, line)]
    for label, tree in trees.items():
        for name, line in _references(tree):
            package_refs[name].append((label, line))
    outside = {name for text in user_sources.values()
               for name, _ in _references(ast.parse(text))}
    for span in re.findall(r"`([^`\n]+)`", docs):
        outside.update(re.findall(r"[A-Za-z_]\w*", span))
    unused = []
    for label, tree in trees.items():
        for name, first, last in _definitions(tree):
            used = name in outside or any(
                not (other == label and first <= line <= last)
                for other, line in package_refs[name])
            if not used:
                unused.append(f"{label}:{first} {name}")
    return unused


def _read(paths):
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def test_every_package_definition_has_a_non_test_user():
    package = _read(sorted((ROOT / "src" / "songseg").glob("*.py")))
    users = _read(sorted((ROOT / "perfbench").glob("*.py"))
                  + sorted((ROOT / "demos").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_definitions(package, users, readme) == []


def test_guard_flags_helpers_only_tests_or_themselves_call():
    package = {
        "pkg/a.py": (
            "def used():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
            "class Box:\n"
            "    def __init__(self):\n        self.v = 0\n\n"
            "    def documented(self):\n        return self.v\n\n"
            "    def dead(self):\n        return self.documented()\n"
        ),
        "pkg/b.py": "from .a import used, Box\n",
    }
    users = {"demos/d.py": "from pkg.a import used\nused()\n"}
    unused = unused_definitions(package, users, "Call `Box.documented()`.")
    assert unused == ["pkg/a.py:7 recursive", "pkg/a.py:17 dead"]
