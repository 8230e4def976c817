"""Every name a module of the package imports is used in that module.

A refactor that moves code out of a module tends to leave its imports
behind.  Here "used" means read as a name anywhere in the module; in
``__init__.py`` a name listed in ``__all__`` counts as used too.
"""

import ast
from pathlib import Path

import pytest

import bundlecensus

PACKAGE = Path(bundlecensus.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_leftover_import_is_caught():
    source = (
        "from .cohomology import ManifoldData, _operation_matrix\n"
        "import os.path\n"
        "from typing import NamedTuple as NT\n"
        "def f(data: ManifoldData):\n"
        "    return data\n"
    )
    assert unused_imports(source) == ["_operation_matrix", "os", "NT"]
    assert unused_imports(source + "__all__ = ['_operation_matrix', 'NT']\nos\n") == []
