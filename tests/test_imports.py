"""No module of the package or of its tests imports a name it never uses,
and no module of the package defines a function or class that nothing uses.

No linter is a test dependency, so this reads each module with ``ast``.
``__init__.py`` is skipped by the import check: its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

import evspace

PACKAGE = Path(evspace.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "import a.b\nfrom c import d, e as f\nprint(a.b, osp, f)\n")
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def uncalled(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function or class that is not
    used by name in its own module, imported by another module (the
    package's ``__init__`` included) or reached as ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reached = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                reached |= {(node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reached.add((node.value.id, node.attr))
    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (module, node.name) not in reached)


def test_checker_finds_an_uncalled_definition():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def exported(): pass\ndef local(): pass\ndef dotted(): pass\n"
              "def imported(): pass\ndef dead(): local()\nclass Dead: pass\n"),
        "b": "from . import a\nfrom .a import imported\na.dotted()\n",
    }
    assert uncalled(sources) == ["a.Dead", "a.dead"]


def test_every_definition_has_a_caller():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert uncalled(sources) == []
