"""Every name a package module imports is used in that module, re-exported
through its ``__all__``, or marked ``# noqa: F401`` on the import line; and
every private module-level name is read somewhere in the package."""

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


def _dead_privates(sources: dict) -> list:
    """(module, line, name) of each module-level ``_name`` (function, class or
    assigned constant; dunders exempt) that no module of ``sources`` reads:
    by name, as an attribute, in a ``from`` import or in ``__all__``."""
    read = set()
    defined = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names]
    return [
        (module, line, name)
        for module, line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_package_reads_every_private_name_it_defines():
    assert _dead_privates({path.name: path.read_text() for path in MODULES}) == []


def test_guard_flags_a_dead_private_name():
    source = (
        "_USED = 1\n"
        "_DEAD, _ALSO = 2, 3\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _dead():\n"
        "    _local = 1\n"
        "class _Gone:\n"
        "    pass\n"
        "print(_helper())\n"
    )
    other = "from m import _ALSO\nimport m\nm._Gone()\n"
    assert _dead_privates({"m.py": source}) == [
        ("m.py", 2, "_DEAD"), ("m.py", 2, "_ALSO"), ("m.py", 6, "_dead"), ("m.py", 8, "_Gone"),
    ]
    assert _dead_privates({"m.py": source, "n.py": other}) == [("m.py", 2, "_DEAD"), ("m.py", 6, "_dead")]


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
