"""No module of the package imports a name it never uses.

An AST scan of ``adareg/*.py`` (``__init__.py`` re-exports, so it is
skipped): every name an ``import`` binds must appear as a name somewhere
else in the module, code or annotation.
"""

import ast
from pathlib import Path

import pytest

import adareg

MODULES = sorted(p for p in Path(adareg.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\nx: Optional[int]\n") == [
        (1, "os"),
        (2, "List"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
