"""Every module-level import of the package, the scripts and the tests is
used by its module, every module-level name the package defines is read
somewhere in the repository, and every rule table names exactly its
type's fields."""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

from swarmcast.metaheuristics import OPTIMIZER_RULES, OptimizerParams
from swarmcast.network import NETWORK_RULES, NetworkConfig
from swarmcast.timeseries import SCALING_RULES, ScalingParams

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for folder in ("src/swarmcast", "scripts", "tests")
           for path in sorted((ROOT / folder).glob("*.py"))]
PACKAGE = sorted((ROOT / "src" / "swarmcast").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the module's top-level imports bind but its code never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = "from __future__ import annotations\nimport math\nimport os.path\nos.sep\n"
    assert unused_imports(source) == ["line 2: math"]


def read_names(sources) -> set[str]:
    """Every name the sources read: a ``Name`` load, an attribute, an import
    alias or a string constant equal to it (such as a patch target)."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unread_names(source: str, read) -> list[str]:
    """The module-level functions, classes and assigned names that ``read`` lacks."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


@functools.cache
def repository_reads() -> frozenset[str]:
    """The names read by the package, the scripts, the tests and perfbench."""
    return frozenset(read_names(path.read_text(encoding="utf-8")
                                for path in MODULES + PERFBENCH))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_module_level_name_is_read(path):
    assert unread_names(path.read_text(encoding="utf-8"), repository_reads()) == []


def test_an_unread_definition_is_caught():
    source = "LIMIT = 3\ndef used():\n    return LIMIT\ndef unused():\n    pass\nused()\n"
    assert unread_names(source, read_names([source])) == ["line 4: unused"]


# a field without a rule would be filled in by its default when a reader builds the type
@pytest.mark.parametrize("rules, kind", [
    (NETWORK_RULES, NetworkConfig), (SCALING_RULES, ScalingParams),
    (OPTIMIZER_RULES, OptimizerParams),
], ids=["network", "scaling", "optimizer"])
def test_rule_table_names_exactly_its_types_fields(rules, kind):
    assert set(rules) == {field.name for field in dataclasses.fields(kind)}
