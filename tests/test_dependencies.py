"""The declared dependencies are the ones the code imports.

Every import in src/ybe4, tests and demos, function-level ones included, is
read with ast.  The library may import only the standard library and numpy;
tests and demos may add pytest, hypothesis and ybe4 itself.  The third-party
names each side imports must be exactly what pyproject.toml declares: the
runtime dependencies, and the ``test`` extra.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = {"numpy"}
TESTING = {"pytest", "hypothesis"}


def imported_modules(directory: Path) -> set[str]:
    """Top-level names of every absolute import in the .py files below directory."""
    names = set()
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def third_party(names: set[str]) -> set[str]:
    return {name for name in names if name not in sys.stdlib_module_names}


def declared(key: str) -> set[str]:
    """Distribution names in the pyproject.toml list ``key = [...]``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    body = re.search(rf"^{key} = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert body, f"pyproject.toml has no {key} list"
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', body.group(1)))


def test_library_imports_only_the_standard_library_and_numpy():
    assert third_party(imported_modules(ROOT / "src" / "ybe4")) == RUNTIME


def test_tests_and_demos_import_only_declared_packages():
    for directory in ("tests", "demos"):
        extra = third_party(imported_modules(ROOT / directory)) - RUNTIME - {"ybe4"}
        assert extra <= TESTING, directory


def test_pyproject_declares_exactly_what_is_imported():
    assert declared("dependencies") == RUNTIME
    used = third_party(imported_modules(ROOT / "tests") | imported_modules(ROOT / "demos"))
    assert declared("test") == used - RUNTIME - {"ybe4"} == TESTING
