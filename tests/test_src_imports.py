"""Every module of the package uses each name it imports (``__init__`` re-exports, so it is exempt)."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import symquad

MODULES = sorted(p for p in Path(symquad.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of ``source`` that no other expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    source = "from .cubature import CubatureRule, apply_rule\nimport numpy as np\n\nx = np.zeros(1)\nCubatureRule\n"
    assert unused_imports(source) == [(1, "apply_rule")]


def test_all_is_the_names_init_imports():
    tree = ast.parse(Path(symquad.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert len(imported) == 55
    assert sorted(symquad.__all__) == sorted(imported)
    assert not any(isinstance(getattr(symquad, name), ModuleType) for name in symquad.__all__)
    namespace = {}
    exec("from symquad import *", namespace)
    assert set(namespace) - {"__builtins__"} == imported
