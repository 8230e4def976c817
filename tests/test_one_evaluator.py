"""Only ``charclass.py`` reads the degree-8 table.

Every degree-8 quantity goes through one evaluator: the polynomial that
``charclass.compile_congruences`` builds from ``DEGREE8_TABLE`` for each
manifold (``data.congruences``).  Another module of the package that reads
the table, its symbol degrees or its monomials would hold a second
expansion of the same algebra, which a change to the table would not
reach.  Here "reads" means a name, an attribute or an imported name.
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
