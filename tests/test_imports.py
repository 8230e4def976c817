"""Every name a module of the package imports is used in that module, and
every private helper the package defines is named somewhere else in it.

A refactor that moves code out of a module tends to leave its imports
behind.  Here "used" means read as a name anywhere in the module; in
``__init__.py`` a name listed in ``__all__`` counts as used too.  It can
leave a helper behind as well: a private module-level function or class, or
a private method, that nothing outside its own definition names any more.
"""

import ast
from collections import Counter
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


def names(tree: ast.AST) -> Counter:
    """How often each name, attribute or imported name occurs in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
    return found


def unnamed_helpers(sources: list[str]) -> list[str]:
    """The private module-level functions and classes, and the private methods
    of module-level classes, that no source names outside their own definition,
    in source order; dunder methods are not private."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum(map(names, trees), Counter())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, kinds):
                definitions.append(node)
            if isinstance(node, ast.ClassDef):
                definitions += [n for n in node.body if isinstance(n, kinds[:2])]
    return [
        node.name
        for node in definitions
        if node.name.startswith("_") and not node.name.endswith("__")
        and everywhere[node.name] == names(node)[node.name]
    ]


def test_every_private_helper_is_named():
    assert unnamed_helpers([path.read_text() for path in MODULES]) == []


def test_a_leftover_helper_is_caught():
    source = (
        "class _Series:\n"
        "    def _degree(self):\n"
        "        return self._degree()\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def _series_product(s, t):\n"
        "    def _inner():\n"
        "        return _series_product(s, t)\n"
        "    return _inner\n"
        "def _kept():\n"
        "    return 1\n"
        "def public():\n"
        "    return 2\n"
    )
    assert unnamed_helpers([source, "from .charclass import _kept\n"]) == ["_Series", "_degree", "_series_product"]
    assert unnamed_helpers([source, "x = _Series()._degree\n_series_product\n_kept\n"]) == []
