"""Every name a module of the package imports is used in that module, and
the package exports exactly what the demos import from it.

An import counts as used when the module reads the name, when the name is
listed in the module's ``__all__``, or when the import's own line carries
``# noqa: F401`` (a name kept importable for code outside the package).
Standard library only: no linter is assumed to be installed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import selmix

PACKAGE = Path(selmix.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
ERROR_TYPES = {"ConfigError", "DataError", "SelMixError"}
# names the package no longer exports, each still public in its own module
UNEXPORTED = {
    "benchmark": ["BenchmarkSetting", "benchmark_config"],
    "classifier": ["ArgmaxCarry", "CentroidSet", "direction_matrix", "predict", "sgd_mixup_step"],
    "data": ["FeatureDataset", "load_dataset", "save_dataset", "split"],
    "gain": ["GainMatrix"],
    "metrics": ["ConfusionMatrix"],
    "policy": ["MixPolicy", "greedy_distribution", "sample_pairs", "selmix_distribution",
               "uniform_distribution"],
    "trainer": ["RunHistory", "TrainerConfig", "cosine_lr", "pretrain_erm"],
}


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


def names_imported_from(source: str, module: str) -> set[str]:
    """The names ``source`` imports with ``from <module> import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == module and not node.level
            for alias in node.names}


def test_the_package_exports_the_demo_imports_and_the_error_types():
    demo_names = set().union(*(names_imported_from(p.read_text(), "selmix") for p in DEMOS))
    assert DEMOS
    assert sorted(selmix.__all__) == sorted(demo_names | ERROR_TYPES)
    exported = {name for name, value in vars(selmix).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(selmix.__all__)


@pytest.mark.parametrize("module", sorted(UNEXPORTED))
def test_each_unexported_name_resolves_in_its_module(module):
    public = vars(importlib.import_module(f"selmix.{module}"))
    for name in UNEXPORTED[module]:
        assert name in public and name not in selmix.__all__
        assert not hasattr(selmix, name)


def test_the_demo_scan_reads_only_absolute_package_imports():
    source = ("from selmix import a, b as c\nfrom selmix.metrics import d\n"
              "from . import e\nimport selmix\n")
    assert names_imported_from(source, "selmix") == {"a", "b"}
