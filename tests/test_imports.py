"""Every name a module of rmas imports is used in that module.

An import marked `# noqa: F401` is a re-export (the package's `__init__`)
and is not checked.
"""

import ast

import pytest

from conftest import ROOT

MODULES = sorted((ROOT / "src" / "rmas").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import re\nimport os.path\nfrom typing import Any, Optional as Opt\n"
              "from . import model as M  # noqa: F401\n"
              "def f(x: Opt[int]) -> int:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["re (line 2)", "Any (line 4)"]
