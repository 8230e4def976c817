"""The records of the package: every one is a tuple.

They keep the behaviour of the frozen dataclasses they replaced: the repr
text (each literal and digest below was taken from the dataclass),
same-type equality and hash (``ManifoldData``, whose fields hold dicts,
stays unhashable), read-only attributes, pickling, and every check the
validating ones made in ``__post_init__``, with its message; ``_replace``
checks as the constructor does.  ``ManifoldData`` keeps its cached
properties in the instance dict, so a ``_replace``d copy computes them
afresh.  No record is a dataclass, so importing the package loads neither
``dataclasses`` nor ``inspect``, about 10 ms of every cold start.
"""

import dataclasses
import hashlib
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_h7_demo

import bundlecensus
from bundlecensus.abelian import FGAbelianGroup, GroupElement, IntMatrix
from bundlecensus.census import CensusResult, CensusRow
from bundlecensus.charclass import RationalClassPolynomial, rr_value
from bundlecensus.classify import Condition1, Condition2, Condition3, Verdict, check_rank4, count_classes
from bundlecensus.cohomology import (
    ChernTuple,
    CohomologyClass,
    GradedGroupMod2,
    GradedGroupZ,
    LawResult,
    ManifoldData,
    ValidationReport,
)
from bundlecensus.fixtures import BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import parse_manifold_text, serialize_manifold


def z(degree, *coords):
    return CohomologyClass(degree, "Z", coords)


def m2(*bits):
    return CohomologyClass(6, "Z2", bits)


def point_groups():
    return GradedGroupZ((FGAbelianGroup((0,)),) + (FGAbelianGroup(),) * 8, (("1",),) + ((),) * 8)


def point_mod2():
    return GradedGroupMod2((1,) + (0,) * 8, (("1",),) + ((),) * 8)


# (record, a function making a sample of it afresh, the sample's repr)
RECORDS = [
    (IntMatrix, lambda: IntMatrix(1, 2, [3, -4]), "IntMatrix(rows=1, cols=2, entries=(3, -4))"),
    (GroupElement, lambda: GroupElement([1, 0]), "GroupElement(coords=(1, 0))"),
    (FGAbelianGroup, lambda: FGAbelianGroup((2,)), "FGAbelianGroup(invariant_factors=(2,))"),
    (
        CohomologyClass,
        lambda: CohomologyClass(2, "Z", [1, -1]),
        "CohomologyClass(degree=2, ring='Z', coords=(1, -1))",
    ),
    (
        GradedGroupZ,
        point_groups,
        "GradedGroupZ(groups=(FGAbelianGroup(invariant_factors=(0,)), "
        + ", ".join(["FGAbelianGroup(invariant_factors=())"] * 8)
        + "), names=(('1',), (), (), (), (), (), (), (), ()))",
    ),
    (
        GradedGroupMod2,
        point_mod2,
        "GradedGroupMod2(dims=(1, 0, 0, 0, 0, 0, 0, 0, 0), names=(('1',), (), (), (), (), (), (), (), ()))",
    ),
    (
        ChernTuple,
        lambda: ChernTuple(z(2, 1), z(4, 2), z(6, 3), z(8, 4)),
        "ChernTuple(u1=CohomologyClass(degree=2, ring='Z', coords=(1,)), "
        "u2=CohomologyClass(degree=4, ring='Z', coords=(2,)), "
        "u3=CohomologyClass(degree=6, ring='Z', coords=(3,)), "
        "u4=CohomologyClass(degree=8, ring='Z', coords=(4,)))",
    ),
    (
        RationalClassPolynomial,
        lambda: RationalClassPolynomial(((Fraction(1, 24), ("u4",)),)),
        "RationalClassPolynomial(terms=((Fraction(1, 24), ('u4',)),))",
    ),
    (
        CensusRow,
        lambda: CensusRow((1, 0, 0, 1), True, False),
        "CensusRow(coefficients=(1, 0, 0, 1), closed_form=True, generic=False)",
    ),
    (
        CensusResult,
        lambda: CensusResult(0, 3, (CensusRow((0, 0, 0), True, True),)),
        "CensusResult(bound=0, rank=3, rows=(CensusRow(coefficients=(0, 0, 0), closed_form=True, generic=True),))",
    ),
    (
        LawResult,
        lambda: LawResult("h0_is_Z", False, "H^0 = 0"),
        "LawResult(name='h0_is_Z', passed=False, witness='H^0 = 0')",
    ),
    (
        ValidationReport,
        lambda: ValidationReport((LawResult("shape", True),)),
        "ValidationReport(results=(LawResult(name='shape', passed=True, witness=None),))",
    ),
    (
        Condition1,
        lambda: Condition1(True, m2(1), m2(1)),
        "Condition1(passed=True, lhs=CohomologyClass(degree=6, ring='Z2', coords=(1,)), "
        "rhs=CohomologyClass(degree=6, ring='Z2', coords=(1,)))",
    ),
    (
        Condition2,
        lambda: Condition2(False, 5, 1, 2, 1),
        "Condition2(passed=False, lhs_value=5, rhs_value=1, lhs_mod3=2, rhs_mod3=1)",
    ),
    (
        Condition3,
        lambda: Condition3(True, Fraction(3, 2), 1, 1),
        "Condition3(passed=True, rhs_exact=Fraction(3, 2), lhs_mod2=1, rhs_mod2=1)",
    ),
    (
        Verdict,
        lambda: Verdict(4, False, Condition1(False, m2(1), m2(0)), None, None, ("n",)),
        "Verdict(rank=4, realizable=False, condition1=Condition1(passed=False, "
        "lhs=CohomologyClass(degree=6, ring='Z2', coords=(1,)), "
        "rhs=CohomologyClass(degree=6, ring='Z2', coords=(0,))), "
        "condition2=None, condition3=None, notes=('n',))",
    ),
]
IDS = [record.__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, make, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(record, make, text):
    assert type(make()) is record and repr(make()) == text


@pytest.mark.parametrize("record, make, text", RECORDS, ids=IDS)
def test_same_values_are_equal_and_hash_alike(record, make, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b


@pytest.mark.parametrize("record, make, text", RECORDS, ids=IDS)
def test_fields_are_read_only(record, make, text):
    x = make()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
    assert repr(x) == text


@pytest.mark.parametrize("record, make, text", RECORDS, ids=IDS)
def test_pickle_round_trip(record, make, text):
    copy = pickle.loads(pickle.dumps(make()))
    assert type(copy) is record and copy == make() and repr(copy) == text


def test_keywords_and_defaults_construct():
    assert FGAbelianGroup() == FGAbelianGroup(invariant_factors=())
    assert LawResult("shape", True) == LawResult(name="shape", passed=True, witness=None)
    assert Verdict(3, True, None, None, None).notes == ()
    assert CohomologyClass(degree=2, ring="Z", coords=[True]).coords == (1,)
    with pytest.raises(TypeError):
        CohomologyClass(degree=2, ring="Z", coords=[1.0])


# (valid sample, field, value, the message of the old __post_init__)
INVALID = [
    (IntMatrix(0, 0, ()), "rows", -1, "matrix dimensions must be nonnegative"),
    (IntMatrix(2, 2, (1, 2, 3, 4)), "entries", (1, 2, 3), "expected 4 entries for a 2x2 matrix, got 3"),
    (FGAbelianGroup((2,)), "invariant_factors", (1,), "finite invariant factors must be >= 2, got (1,)"),
    (FGAbelianGroup((2,)), "invariant_factors", (0, 2), "finite factors must precede infinite (0) factors"),
    (
        FGAbelianGroup((2,)),
        "invariant_factors",
        (2, 3),
        "invariant factors must form a divisibility chain, got (2, 3)",
    ),
    (z(2, 1), "ring", "Q", "unknown coefficient ring 'Q'"),
    (point_groups(), "names", ((),) * 8, "need groups and generator names for degrees 0..8"),
    (point_groups(), "names", ((),) * 9, "degree 0: 1 generators but 0 names"),
    (point_mod2(), "dims", (1,) * 8, "need dimensions and basis names for degrees 0..8"),
    (point_mod2(), "dims", (-1,) + (0,) * 8, "degree 0: dimension -1 but 1 names"),
    (
        ChernTuple(z(2, 1), z(4, 2), z(6, 3), z(8, 4)),
        "u1",
        z(4, 2),
        "component of degree 4/Z, expected integral degree 2",
    ),
    (
        ChernTuple(z(2, 1), z(4, 2), z(6, 3), z(8, 4)),
        "u3",
        m2(1),
        "component of degree 6/Z2, expected integral degree 6",
    ),
    (
        RationalClassPolynomial(((Fraction(1, 24), ("u4",)),)),
        "terms",
        ((Fraction(1), ("u4",)), (Fraction(1), ("u1", "u2"))),
        "monomial ('u1', 'u2') has degree 6, expected 8",
    ),
    (
        RationalClassPolynomial(((Fraction(1, 24), ("u4",)),)),
        "terms",
        ((Fraction(1), ("u2", "p1")),),
        "monomial ('u2', 'p1') is not in DEGREE8_TABLE",
    ),
    (builtin("cp4"), "p1", z(2, 1), "p1: expected a degree-4 Z class, got degree 2 Z"),
]


@pytest.mark.parametrize(
    "sample, field, value, message", INVALID, ids=[f"{type(s).__name__}-{m[:24]}" for s, _, _, m in INVALID]
)
def test_invalid_fields_raise_the_old_message(sample, field, value, message):
    fields = {**sample._asdict(), field: value}
    with pytest.raises(ValueError) as made:
        type(sample)(**fields)
    with pytest.raises(ValueError) as replaced:
        sample._replace(**{field: value})
    assert str(made.value) == str(replaced.value) == message


# a method or constructor called on arguments that do not fit, and its message
MISUSE = {
    "builtin": (lambda cp4: builtin("nosuch"), "unknown builtin 'nosuch' (choose from cp4, s8,"),
    "count_classes": (
        lambda cp4: count_classes(cp4, tuple(cp4.chern_tuple((1,), (0,), (0,), (0,))), 4),
        "rank 4 expects a ChernTuple",
    ),
    "pair": (lambda cp4: cp4.compiled.pair((1, 2)), "expected 1 coordinates in degree 8, got 2"),
    "m2class": (lambda cp4: cp4.m2class(2, (1, 0)), "expected 1 mod-2 coordinates in degree 2, got 2"),
    "add": (lambda cp4: cp4.add(cp4.zero(2), cp4.zero(4)), "cannot add classes of different degree or ring"),
    "from_rows": (lambda cp4: IntMatrix.from_rows([[1, 2]], 3), "rows have width 2, expected 3"),
    "from_columns": (lambda cp4: IntMatrix.from_columns([[1, 2]], 3), "column of length 2, expected 3"),
    "apply": (lambda cp4: IntMatrix.identity(2).apply([1]), "vector of length 1, expected 2"),
    "matmul": (lambda cp4: IntMatrix.identity(2) @ IntMatrix.identity(3), "inner dimensions do not match"),
}


@pytest.mark.parametrize("case", MISUSE)
def test_misuse_raises_its_message(case, cp4):
    make, message = MISUSE[case]
    with pytest.raises(ValueError) as raised:
        make(cp4)
    assert type(raised.value) is ValueError and str(raised.value).startswith(message)


def test_coercing_records_store_int_tuples():
    assert IntMatrix(1, 2, [True, 2]).entries == (1, 2)
    assert GroupElement([True]).coords == (1,)
    assert FGAbelianGroup([True + True, 0]).invariant_factors == (2, 0)
    assert z(2, 1)._replace(coords=[True]).coords == (1,)
    sizes = (
        IntMatrix(True, True, (3,))[:2]
        + GradedGroupMod2((True,) + (False,) * 8, (("1",),) + ((),) * 8).dims
        + z(True + True, 1)[:1]
    )
    assert sizes == (1, 1, 1) + (0,) * 8 + (2,) and {type(n) for n in sizes} == {int}


@pytest.mark.parametrize("value", [4.5, Fraction(9, 2), "4", 4.0], ids=repr)
def test_non_integral_coordinates_raise(value):
    # refused, not truncated: as u1 = int(4.5), cp4 answers (4, 6, 4, 1) as realizable
    data = builtin("cp4")
    for make in (
        lambda: check_rank4(data, data.chern_tuple((value,), (6,), (4,), (1,))),
        lambda: IntMatrix(1, 2, [True, value]),
        lambda: GroupElement([value]),
        lambda: FGAbelianGroup([value, 0]),
        lambda: FGAbelianGroup.canonical([value]),
        lambda: FGAbelianGroup((0,)).reduce([value]),
        lambda: z(2, 1)._replace(coords=[value]),
        lambda: data.m2class(2, [value]),
        lambda: data._replace(pairing=(value,)),
    ):
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: IntMatrix(1.0, 1, (1,)),
        lambda: IntMatrix(1, 1.0, (1,)),
        lambda: IntMatrix(1, 1, (1,))._replace(rows=1.0),
        lambda: GradedGroupMod2((1.0,) + (0,) * 8, (("1",),) + ((),) * 8),
        lambda: point_mod2()._replace(dims=(1,) + (0.0,) * 8),
        lambda: CohomologyClass(2.0, "Z", (1,)),
        lambda: z(2, 1)._replace(degree="2"),
    ],
    ids=["IntMatrix-rows", "IntMatrix-cols", "IntMatrix-replace", "GradedGroupMod2-dims",
         "GradedGroupMod2-replace", "CohomologyClass-degree", "CohomologyClass-replace"],
)
def test_non_integral_sizes_raise(make):
    # refused when built: a size or degree of 1.0 used to be stored as given,
    # and the data holding it failed later inside validate_manifold or check_rank4
    with pytest.raises(TypeError):
        make()


def test_no_dataclass_in_the_package():
    """Importing ``dataclasses`` (it loads ``inspect``) and creating a
    dataclass, which runs generated source, cost every cold start of the
    package; records are tuples."""
    dataclasses_found = []
    for info in pkgutil.iter_modules(bundlecensus.__path__, "bundlecensus."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                dataclasses_found.append(name)
    assert dataclasses_found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports the CLI loads no module of these
    beyond what a bare interpreter (with its ``site``) already has."""
    src = str(Path(bundlecensus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def loaded(statement: str) -> set[str]:
        code = f"import sys; {statement}; print(' '.join(sys.modules))"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return set(run.stdout.split())

    extra = loaded("import bundlecensus.cli") - loaded("pass")
    assert "bundlecensus.cli" in extra
    assert not extra & {"dataclasses", "inspect"}


# -- ManifoldData ------------------------------------------------------------

# sha256 of the reprs of the six builtins (concatenated in BUILTIN_NAMES
# order) and of h7-demo, taken when ManifoldData was a frozen dataclass
BUILTIN_REPRS_SHA256 = "beba3b9fe30e6e186f9a73281dfbd83071a66ffa5e4afa2c5f0050cbdd22ba88"
H7_REPR_SHA256 = "58b0add9689da166f9e15d42fa994f2a7763e4769223aa83523e392ea2b1515b"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def all_data() -> list[ManifoldData]:
    return [builtin(name) for name in BUILTIN_NAMES] + [make_h7_demo()]


def answers(data: ManifoldData) -> list[str]:
    """check_rank4, rr_value and count_classes on a few tuples."""
    out = []
    for k in (0, 1, -2):
        u = data.chern_tuple(*([k] * data.ngens(degree) for degree in (2, 4, 6, 8)))
        out += map(repr, (check_rank4(data, u), rr_value(data, u, self_check=True), count_classes(data, u, 4)))
    return out


def test_manifold_data_repr_is_the_dataclass_repr():
    assert sha256("".join(repr(builtin(name)) for name in BUILTIN_NAMES)) == BUILTIN_REPRS_SHA256
    assert sha256(repr(make_h7_demo())) == H7_REPR_SHA256


def test_manifold_data_equals_a_reparsed_copy():
    for data in all_data():
        copy = parse_manifold_text(serialize_manifold(data))
        assert copy is not data and copy == data and not copy != data
        assert copy == tuple(data)  # a tuple: equal to a plain one with the same values
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(copy)


def test_manifold_data_is_read_only():
    data = make_h7_demo()
    data.compiled  # a cached property still fills the instance dict
    for name in (*ManifoldData._fields, "compiled", "B", "todd_rows", "new_name"):
        with pytest.raises(AttributeError):
            setattr(data, name, None)
        with pytest.raises(AttributeError):
            delattr(data, name)
    assert data == make_h7_demo() and "compiled" in vars(data)


def test_validation_report_is_read_only():
    # ok, which every query reads, is filled in by the constructor and kept in the instance dict
    report = ValidationReport((LawResult("shape", True), LawResult("law", False, "x")))
    for name in (*ValidationReport._fields, "ok", "new_name"):
        with pytest.raises(AttributeError):
            setattr(report, name, True)
        with pytest.raises(AttributeError):
            delattr(report, name)
    assert report.ok is False and vars(report) == {"ok": False}
    assert pickle.loads(pickle.dumps(report)).ok is False


def test_manifold_data_pickles_with_its_answers():
    for data in all_data():
        fresh = pickle.loads(pickle.dumps(data))
        expected = answers(data)  # compiles data and fills its caches
        cached = pickle.loads(pickle.dumps(data))
        for copy in (fresh, cached):
            assert type(copy) is ManifoldData and copy == data and repr(copy) == repr(data)
            assert answers(copy) == expected


def test_replace_recomputes_the_cached_properties():
    data = builtin("cp2xcp2")
    names = ("compiled", "B", "todd_rows")
    cached = [getattr(data, name) for name in names]
    copy = data._replace()
    assert copy == data and copy is not data and not vars(copy)  # no cache carried over
    assert [getattr(copy, name) for name in names] == cached
    assert copy.compiled is not data.compiled and copy.B is not data.B and copy.todd_rows is not data.todd_rows


def test_manifold_data_keywords_and_defaults_construct():
    data = builtin("cp4")
    assert ManifoldData(**data._asdict()) == ManifoldData(*data) == ManifoldData._make(data) == data
    required = data[: ManifoldData._fields.index("w2")]
    a, b = ManifoldData(*required), ManifoldData(*required)
    assert a.w2 is None and a.odd_generators is None
    assert a.cup_m2 == {} and a.cup_m2 is not b.cup_m2
    assert a._replace(w2=data.w2, odd_generators=data.odd_generators, cup_m2=data.cup_m2) == data
