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

Each cup table has one compiled form, ``CompiledManifold.cups``: only
``cohomology.py`` reads that attribute, and each table is resolved from the
data once per instance, however many queries read it.

Each validation law runs once per load: no law of ``cohomology.py`` names
another law in its body, so a law's prerequisites are the data
``cohomology.NEEDS``, not a second run of them.

A Chern tuple enters a query through one gate, ``ManifoldData.checked``,
which checks its coordinates and then the validation report: no function of
``classify.py`` or ``charclass.py`` reads an attribute ``report``, and in
``cli.py`` only ``main``, whose one pre-step loads every question, and
``cmd_validate`` may.  ``check_rank4``, ``rr_value``, ``compute_T`` and
``_whitney`` each call the gate, nothing in the package names the old
second reader ``chern_coords``, and ``main`` has no branch on one subcommand.

The class path stays the independent check of the compiled one: the class
``cup``, ``apply_op``, ``pair_top``, the Todd rows and the series
recomputation of rr, and the ``ManifoldData`` methods that build and add
classes, read neither the compiled form, nor the compiled congruences, nor
the degree-8 table.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from conftest import make_h7_demo

import bundlecensus
from bundlecensus import census, cohomology
from bundlecensus.charclass import chern_product, rr_value
from bundlecensus.classify import check_rank4, compute_T, count_classes
from bundlecensus.cohomology import ODD_CUPS, validate_manifold
from bundlecensus.fixtures import _DATA
from bundlecensus.manifold_io import parse_manifold

PACKAGE = Path(bundlecensus.__file__).parent
TABLE_NAMES = {"DEGREE8_TABLE", "SYMBOL_DEGREES", "MONOMIALS"}


def names_read(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name that tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def table_reads(source: str) -> list[str]:
    """The names of the table that source reads, sorted."""
    return sorted(names_read(ast.parse(source)) & TABLE_NAMES)


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


def cups_reads(source: str) -> int:
    """The number of reads of an attribute ``cups`` in source."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "cups" for node in ast.walk(ast.parse(source)))


def test_only_cohomology_reads_the_compiled_tables():
    reads = {path.name: cups_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, n in reads.items() if n] == ["cohomology.py"]


def test_a_second_reader_of_the_compiled_tables_is_caught():
    assert cups_reads("for ab, table in m.cups.items():\n    pass\n") == 1
    assert cups_reads("table = data.compiled.cups[2, 4]\n") == 1
    assert cups_reads("table = m.table(2, 4)\ncups = {}\n") == 0


def test_each_table_is_resolved_once_per_instance(monkeypatch):
    # loading and every query on two manifolds, h7-demo with T's odd tables: each compiled table is
    # resolved from the data once per instance, by the compiled form, and by nothing else
    resolved = Counter()
    sparse_table = cohomology._sparse_table

    def counted(data, a, b):
        resolved[data.name, a, b] += 1
        return sparse_table(data, a, b)

    monkeypatch.setattr(cohomology, "_sparse_table", counted)
    h7 = make_h7_demo()
    assert validate_manifold(h7).ok
    for data in (h7, parse_manifold(_DATA / "cp2xcp2.manifold")):
        m = data.compiled
        u = data.chern_tuple(*([k + 1 for k in range(len(m.factors[n]))] for n in (2, 4, 6, 8)))
        check_rank4(data, u)
        for rank in (4, 3):
            count_classes(data, u if rank == 4 else u[:3], rank)
            census.enumerate(data, 1, rank)
        compute_T(data, *u[:3])
        rr_value(data, u, self_check=True)
        chern_product(u, u, data)
    pairs = [(a, b) for a in (2, 4, 6) for b in (2, 4, 6) if a + b <= 8] + list(ODD_CUPS)
    assert resolved == {(name, a, b): 1 for name in ("h7-demo", "cp2xcp2") for a, b in pairs}


LAW_NAMES = {law.__name__ for law in (*cohomology.LAWS, *cohomology.NEEDS)}


def law_reads(source: str) -> list[tuple[str, str]]:
    """(law, other) for each law of ``LAW_NAMES`` defined in source whose body names another, sorted."""
    return sorted({
        (node.name, name.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in LAW_NAMES
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and name.id in LAW_NAMES - {node.name}
    })


def test_no_law_runs_another():
    assert law_reads((PACKAGE / "cohomology.py").read_text()) == []


def test_a_law_running_another_is_caught():
    rerun = "def _rhs3_integral(data):\n    needs = (_h8_is_Z, _tables_complete)\n    return [law(data) for law in needs]\n"
    assert law_reads(rerun) == [("_rhs3_integral", "_h8_is_Z"), ("_rhs3_integral", "_tables_complete")]
    assert law_reads("def _bockstein_exact(data):\n    yield from _beta_torsion(data)\n") == [
        ("_bockstein_exact", "_beta_torsion")
    ]
    # helpers, module-level tables of laws and a law naming itself are not reruns
    assert law_reads("def _h8_is_Z(data):\n    yield _counterexample('h8_is_Z', ())\n") == []
    assert law_reads("NEEDS = {_rhs3_integral: ('h8_is_Z',)}\nLAWS = (_h8_is_Z, _rhs3_integral)\n") == []
    assert law_reads("def _h8_is_Z(data):\n    return _h8_is_Z\n") == []


def report_readers(source: str) -> list[str]:
    """The functions of source whose body reads an attribute ``report``, sorted: a method named
    class.function, a read outside every function "<module>"."""
    readers = set()

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif any(isinstance(n, ast.Attribute) and n.attr == "report" for n in ast.walk(node)):
                name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
                readers.add(".".join(filter(None, (owner, name))) or "<module>")

    visit(ast.parse(source).body, "")
    return sorted(readers)


REPORT_READERS = {"classify.py": set(), "charclass.py": set(), "cli.py": {"main", "cmd_validate"}}


@pytest.mark.parametrize("module", sorted(REPORT_READERS))
def test_queries_read_the_report_only_through_the_gate(module):
    readers = set(report_readers((PACKAGE / module).read_text()))
    assert readers <= REPORT_READERS[module]
    assert ("main" in readers) == (module == "cli.py")  # the CLI's one pre-step


def test_a_second_report_reader_is_caught():
    source = (
        "def check_rank4(data, u):\n    if not data.report.ok:\n        raise ValueError(data.report)\n"
        "class Polynomial:\n    def evaluate(self, data, x):\n        return data.report.ok\n"
        "    ok = builtin('cp4').report.ok\n"
        "OK = builtin('cp4').report.ok\n"
    )
    assert report_readers(source) == ["<module>", "Polynomial", "Polynomial.evaluate", "check_rank4"]
    # a local named report, or a call of the gate, reads no attribute report
    assert report_readers("def cmd_validate(data):\n    report = validate_manifold(data)\n    return report.ok\n") == []
    assert report_readers("def rr_value(data, u):\n    return data.checked(u)\n") == []
    # the old inverted check in rr_value, and a handler checking the report itself
    charclass = (PACKAGE / "charclass.py").read_text()
    gate = "    value = RR_FUNCTIONAL.evaluate("
    assert gate in charclass
    assert report_readers(charclass.replace(gate, "    if not data.report.ok:\n        raise ValueError\n" + gate)) == ["rr_value"]
    cli = (PACKAGE / "cli.py").read_text()
    handler = "    group = count_classes(data, u, args.rank)\n"
    assert handler in cli
    assert report_readers(cli.replace(handler, "    assert data.report.ok\n" + handler)) == ["cmd_count", "main"]


# The functions of the class path, by module, as (class, function) with class "" at module level.
CLASS_PATH = {
    "cohomology.py": (
        ("", "cup"), ("", "apply_op"), ("", "pair_top"),
        *(("ManifoldData", name) for name in (
            "group", "ngens", "m2dim", "dim", "zclass", "m2class", "make_class", "zero", "add", "scale",
        )),
    ),
    "charclass.py": (("", "compute_todd_rows"), ("", "rr_value_by_series")),
}
COMPILED_NAMES = {"compiled", "congruences", "DEGREE8_TABLE"}


def compiled_reads(source: str, functions) -> dict[str, list[str]]:
    """For each (class, function) of functions defined in source, the names of ``COMPILED_NAMES``
    its body reads, sorted.  A function it does not define reads ["<undefined>"], so that a
    renamed function is not silently let through."""
    found = {}

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef) and (owner, node.name) in functions:
                found[owner, node.name] = sorted(names_read(node) & COMPILED_NAMES)

    visit(ast.parse(source).body, "")
    return {".".join(filter(None, key)): found.get(key, ["<undefined>"]) for key in functions}


@pytest.mark.parametrize("module", sorted(CLASS_PATH))
def test_the_class_path_reads_nothing_compiled(module):
    reads = compiled_reads((PACKAGE / module).read_text(), CLASS_PATH[module])
    assert {name: names for name, names in reads.items() if names} == {}


def test_a_compiled_read_on_the_class_path_is_caught():
    functions = (("", "cup"), ("ManifoldData", "zclass"), ("", "rr_value_by_series"))
    source = (
        "def cup(data, x, y):\n    return data.compiled.cup(x.degree, x.coords, y.degree, y.coords)\n"
        "class ManifoldData:\n    def zclass(self, degree, coords):\n"
        "        from .charclass import DEGREE8_TABLE\n        return self.congruences\n"
    )
    assert compiled_reads(source, functions) == {
        "cup": ["compiled"],
        "ManifoldData.zclass": ["DEGREE8_TABLE", "congruences"],
        "rr_value_by_series": ["<undefined>"],
    }
    # a read outside the listed functions, or of another name, is not the class path's
    source = "def check(data):\n    return data.compiled\ndef cup(data, x, y):\n    return data.cup_z\n"
    assert compiled_reads(source, (("", "cup"),)) == {"cup": []}


GATE_CALLERS = {"classify.py": ("check_rank4", "compute_T"), "charclass.py": ("rr_value", "_whitney")}


def gate_problems(sources: dict[str, str]) -> list[str]:
    """What bypasses the gate in sources, by module: a function of ``GATE_CALLERS`` that calls no
    ``.checked(``, or is not defined; a name or attribute ``chern_coords``; a comparison
    ``args.command == ...`` in ``cli.main``."""
    problems = []
    for module, source in sources.items():
        tree = ast.parse(source)
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for name in GATE_CALLERS.get(module, ()):
            calls = ast.walk(functions[name]) if name in functions else ()
            if not any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "checked" for n in calls):
                problems.append(f"{module}: {name} does not call the gate")
        if "chern_coords" in names_read(tree) | set(functions):
            problems.append(f"{module}: names chern_coords")
        if module == "cli.py":
            for n in ast.walk(functions.get("main", ast.Module(body=[], type_ignores=[]))):
                if isinstance(n, ast.Compare) and ast.unparse(n.left) == "args.command" and isinstance(n.ops[0], ast.Eq):
                    problems.append(f"{module}: main branches on {ast.unparse(n)}")
    return problems


def test_every_query_takes_the_gate():
    assert gate_problems({path.name: path.read_text() for path in PACKAGE.glob("*.py")}) == []


def test_a_bypass_of_the_gate_is_caught():
    classify, charclass, cli = ((PACKAGE / m).read_text() for m in ("classify.py", "charclass.py", "cli.py"))
    gate = "    u1, u2, u3, u4 = data.checked(u)\n"
    assert gate in classify
    bypass = "    u1, u2, u3, u4 = [x.coords for x in u]\n"
    assert gate_problems({"classify.py": classify.replace(gate, bypass)}) == ["classify.py: check_rank4 does not call the gate"]
    # _whitney reading the coordinates past the report, as chern_coords let it
    whitney = "    us = data.checked(u)\n"
    assert whitney in charclass
    assert gate_problems({"charclass.py": charclass.replace(whitney, "    us = m.chern_coords(u)\n")}) == [
        "charclass.py: names chern_coords"
    ]
    assert gate_problems({"charclass.py": charclass.replace("def rr_value(", "def rr_value_unchecked(")}) == [
        "charclass.py: rr_value does not call the gate"
    ]
    assert gate_problems({"cohomology.py": "class C:\n    def chern_coords(self, u):\n        return u\n"}) == [
        "cohomology.py: names chern_coords"
    ]
    # enumerate handled beside the pre-step, as it once was
    step = "        data = _load(args)\n"
    assert step in cli
    branch = '        if args.command == "enumerate":\n            return cmd_enumerate(args)\n'
    assert gate_problems({"cli.py": cli.replace(step, branch + step)}) == [
        "cli.py: main branches on args.command == 'enumerate'"
    ]
