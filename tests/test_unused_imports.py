"""Every name a package module imports is used in that module, re-exported
through its ``__all__``, or marked ``# noqa: F401`` on the import line."""

import ast
import pathlib

import pytest

import superconc

MODULES = sorted(pathlib.Path(superconc.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            if "# noqa: F401" in text:
                continue
            for alias in node.names:
                # `import a.b` binds `a`; `from m import x as y` binds `y`
                imported.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import_and_honours_noqa():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import pi, tau\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "print(pi)\n"
    )
    assert _unused_imports(source) == [(1, "os"), (3, "tau")]
