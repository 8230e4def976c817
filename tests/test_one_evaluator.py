"""Only ``charclass.py`` reads the degree-8 table, and only ``cohomology.py`` evaluates condition (1).

Every degree-8 quantity goes through one evaluator: the polynomial that
``charclass.compile_congruences`` builds from ``DEGREE8_TABLE`` for each
manifold (``data.congruences``).  Another module of the package that reads
the table, its symbol degrees or its monomials would hold a second
expansion of the same algebra, which a change to the table would not
reach.  Here "reads" means a name, an attribute or an imported name.

Condition (1) goes through one evaluator as well,
``CompiledManifold.condition1``: its left-hand side Sq^2 rho2(u2) is the
one call ``apply("sq2", 4, ...)`` of the package, and the census, which
reads (1) there, imports nothing from ``classify``.
"""

import ast
from pathlib import Path

import pytest

import bundlecensus

PACKAGE = Path(bundlecensus.__file__).parent
TABLE_NAMES = {"DEGREE8_TABLE", "SYMBOL_DEGREES", "MONOMIALS"}


def table_reads(source: str) -> list[str]:
    """The names of the table that source reads, sorted."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return sorted(names & TABLE_NAMES)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_charclass_reads_the_degree8_table(path):
    expected = sorted(TABLE_NAMES) if path.name == "charclass.py" else []
    assert table_reads(path.read_text()) == expected


def test_a_second_expansion_is_caught():
    assert table_reads("from .charclass import DEGREE8_TABLE as table\n") == ["DEGREE8_TABLE"]
    assert table_reads("from . import charclass\ndegree = charclass.SYMBOL_DEGREES['u2']\n") == ["SYMBOL_DEGREES"]
    assert table_reads("def f(MONOMIALS):\n    return [m for m in MONOMIALS]\n") == ["MONOMIALS"]
    assert table_reads("monomials = ('u1', 'u3')\n") == []


def sq2_at_degree4_calls(source: str) -> int:
    """The number of calls ``<x>.apply("sq2", 4, ...)`` in source."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "apply"
        and [arg.value if isinstance(arg, ast.Constant) else None for arg in node.args[:2]] == ["sq2", 4]
        for node in ast.walk(ast.parse(source))
    )


def imports_classify(source: str) -> bool:
    """Whether source imports the module ``classify`` or a name from it."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return any("classify" in name.split(".") for name in names)


def test_only_cohomology_evaluates_condition_1():
    calls = {path.name: sq2_at_degree4_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in calls.items() if n} == {"cohomology.py": 1}
    assert not imports_classify((PACKAGE / "census.py").read_text())


def test_a_second_evaluator_of_condition_1_is_caught():
    assert sq2_at_degree4_calls('m.apply("sq2", 4, m.apply("rho2", 4, u2))\n') == 1
    assert sq2_at_degree4_calls('m.apply("sq2", 3, x)\nm.apply("rho2", 4, x)\n') == 0
    assert all(imports_classify(line) for line in (
        "from .classify import check_rank4\n", "from . import classify\n", "import bundlecensus.classify\n"
    ))
    assert not imports_classify("from .cohomology import ManifoldData\n")
