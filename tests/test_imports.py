"""Every name a module of the package imports is used in that module.

An import counts as used when the module reads the name, when the name is
listed in the module's ``__all__``, or when the import's own line carries
``# noqa: F401`` (a name kept importable for code outside the package).
Standard library only: no linter is assumed to be installed.
"""

import ast
from pathlib import Path

import pytest

import selmix

PACKAGE = Path(selmix.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never uses, each as name:line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}                                 # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name}:{line}" for name, line in imported.items()
            if name not in used and "# noqa: F401" not in lines[line - 1]]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\n"
              "import os.path\nfrom .a import (b,  # noqa: F401\n    c)\n"
              "__all__ = ['np']\n\n@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(source) == ["field:1", "os:3", "c:5"]
