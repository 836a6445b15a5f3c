"""Every module-level import of the package is read in the module that
makes it, so a deletion cannot leave a dead import behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "severi"


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no
    expression of the module reads; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport a.b as c\nsys.exit(c)\n"
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
