"""Every name a module of the package imports is used by that module, and
every private module-level name of the package is used somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoif"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read afterwards.

    A name listed in ``__all__`` counts as used (a re-export), and
    ``from __future__`` imports are compiler directives, not names.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_and_keeps_exports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "x = np.zeros(1)\n"
        "y = dumps(x)\n"
    )
    assert unused_imports(source) == ["loads (line 4)", "os (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def unused_privates(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions, classes and constants that no
    module in ``sources`` (module name -> source) reads.

    A read is a loaded name, an attribute access or a ``from`` import of
    the name; dunder names are not private.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(name, f"{module}:{node.lineno}") for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{name} ({where})" for name, where in defined if name not in used)


def test_private_scanner_flags_leftovers():
    sources = {
        "a.py": (
            "__version__ = '1'\n"
            "_CAP = 3\n"
            "_LIMIT: int = 4\n"
            "def _helper(n):\n    return n\n"
            "def _leftover(n):\n    return n\n"
            "class _Shared:\n    pass\n"
            "class _Stale:\n    pass\n"
            "def public(n):\n    return _helper(n) + _CAP\n"
        ),
        "b.py": "from a import _LIMIT\nimport a\nx = a._Shared\n",
    }
    assert unused_privates(sources) == ["_Stale (a.py:10)", "_leftover (a.py:6)"]


def test_no_unused_privates():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_privates(sources) == []
