"""No module of the package imports a name it never uses.

No linter is a test dependency, so this reads each module with ``ast``.
``__init__.py`` is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import evspace

MODULES = sorted(p for p in Path(evspace.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
