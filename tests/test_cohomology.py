import itertools
import pickle
import random
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, strategies as st

from bundlecensus import census, charclass, classify, cohomology, manifold_io
from bundlecensus.abelian import FGAbelianGroup, IntMatrix
from bundlecensus.charclass import chern_product, rr_value, zero_tuple
from bundlecensus.classify import check_rank3, check_rank4, compute_B, compute_T, count_classes
from bundlecensus.cohomology import (
    DEGREES,
    ODD_CUPS,
    CompiledManifold,
    CohomologyClass,
    GradedGroupZ,
    LawResult,
    ManifoldData,
    ManifoldShapeError,
    MissingOperationError,
    apply_op,
    cup,
    pair_top,
    shape_problems,
    _OP_SPECS,
    _zero_shape,
    validate_manifold,
)
from bundlecensus.fixtures import _DATA, BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import (
    ManifoldParseError,
    parse_manifold,
    parse_manifold_text,
    serialize_manifold,
)

from conftest import graded_pair, make_cp4_with_h6_torsion, make_h7_demo, misshape, unchecked
from test_classify import torsion_demo_with_h3


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_pass_strict_validation(name):
    report = validate_manifold(builtin(name), strict=True)
    assert report.ok, str(report)
    # exactness is checked in every degree: no builtin leaves a matrix out
    assert [r.name for r in report.results if r.name.startswith("bockstein")] == [
        f"bockstein_exact_deg{n}" for n in range(9)
    ]


def test_wrong_spinc_class_is_caught(cp4):
    # rho2(4t) = 0, whereas w2(cp4) = t mod 2
    corrupted = cp4._replace(spinc_class=cp4.zclass(2, (4,)))
    report = validate_manifold(corrupted)
    assert not report.law("spinc_reduction").passed
    assert report.ok is False


def test_non_torsion_bockstein_is_caught(torsion_demo):
    # make H^6 infinite cyclic so beta(x5) has infinite order
    groups = list(torsion_demo.integral.groups)
    groups[6] = groups[6].canonical((0,))
    corrupted = torsion_demo._replace(
        integral=GradedGroupZ(tuple(groups), torsion_demo.integral.names),
    )
    report = validate_manifold(corrupted)
    law = report.law("beta_torsion")
    assert not law.passed
    assert "x5" in law.witness


def test_dimension_mismatch_is_caught(cp4):
    with pytest.raises(ManifoldShapeError) as info:
        cp4._replace(rho2={**cp4.rho2, 2: IntMatrix(1, 3, (1, 0, 0))})
    assert str(info.value) == "rho2 at degree 2: expected a 1x1 matrix, got 1x3"
    assert info.value.section == ("map", "rho2", 2)
    # so is a matrix keyed outside 0..8
    for op in ("rho2", "beta", "sq2"):
        for degree in (9, -1):
            with pytest.raises(ManifoldShapeError, match=f"^{op} at degree {degree}: degree out of range$"):
                cp4._replace(**{op: {**getattr(cp4, op), degree: IntMatrix.identity(1)}})


MISSHAPEN = {
    # rho2 applied to a spin^c class of the wrong length
    "spinc-length": lambda cp4: {"spinc_class": CohomologyClass(2, "Z", (1, 0))},
    # H^9 and H^-1 looked up for a table keyed outside 0..8
    "cup-degree": lambda cp4: {"cup_z": {**cp4.cup_z, (9, -1): {(0, 0): (1,)}}},
    # a square read off a cup2 entry with too many coordinates
    "cup2-length": lambda cp4: {"cup_m2": {(2, 2): {(0, 0): (1, 0)}}},
}


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("case", MISSHAPEN)
def test_misshapen_data_is_reported_by_shape_alone(case, strict, cp4, tmp_path):
    # no law ever reads it: it cannot be built, and a file holding it fails
    # to parse, in either mode, before validation begins
    fields = MISSHAPEN[case](cp4)
    with pytest.raises(ManifoldShapeError):
        cp4._replace(**fields)
    path = tmp_path / "misshapen.manifold"
    path.write_text(serialize_manifold(unchecked(cp4, **fields)))
    with pytest.raises(ManifoldParseError) as info:
        parse_manifold(path, strict=strict)
    assert info.value.line is not None


def test_misshapen_data_cannot_be_built():
    # each seeded edit either builds well-shaped data or raises, at the
    # _replace, the first problem shape_problems finds in the same fields
    rng = random.Random(16)
    bases = [builtin(name) for name in BUILTIN_NAMES] + [make_h7_demo()]
    raised = 0
    for _ in range(1000):
        bad = misshape(rng.choice(bases), rng)
        problems = list(shape_problems(bad))
        if not problems:
            assert bad._replace() == bad
            continue
        raised += 1
        with pytest.raises(ManifoldShapeError) as info:
            bad._replace()
        assert (info.value.section, str(info.value)) == problems[0]
    assert 500 < raised < 1000  # the edits neither all fail nor all pass


def _odd_block(size):
    h7 = make_h7_demo()
    (block,) = h7.odd_generators
    return h7._replace(odd_generators=((block + block)[:size],))


@pytest.mark.parametrize(
    "make, witness",
    [
        (
            lambda: builtin("cp4")._replace(cup_z={**builtin("cp4").cup_z, (2, 2): {}}),
            "cup table (2, 2): missing entry for generator pair (0, 0)",
        ),
        (
            lambda: builtin("cp4")._replace(cup_z={**builtin("cp4").cup_z, (0, -1): {(0, 0): (1,)}}),
            "cup table (0, -1): degree out of range",
        ),
        (lambda: _odd_block(3), "oddgen block 0: expected 4 classes, got 3"),
        (lambda: _odd_block(5), "oddgen block 0: expected 4 classes, got 5"),
    ],
    ids=["missing-entry", "negative-degree", "block-of-3", "block-of-5"],
)
def test_shape_requires_complete_tables_in_range_and_blocks_of_four(make, witness):
    with pytest.raises(ManifoldShapeError) as info:
        make()
    assert str(info.value) == witness


# The matrices that building condition (1)'s form and B applies, as (op, degree): what the law
# tables_complete asks for beside the cup tables.
QUERIED_MATRICES = (("rho2", 3), ("rho2", 4), ("rho2", 6), ("sq2", 3), ("sq2", 4), ("beta", 5))


@pytest.mark.parametrize(
    "name, drop, witness",
    [
        ("torsion-demo", {"rho2": 6}, "missing rho2"),
        ("torsion-demo", {"beta": 5}, "missing beta"),
        ("h7-demo", {"rho2": 7, "beta": 7}, "missing rho2 and beta"),
    ],
)
def test_strict_mode_fails_a_degree_whose_matrix_is_missing(name, drop, witness):
    # both sides of each dropped matrix are nontrivial, so exactness at its
    # degree cannot be checked; a matrix a query applies fails tables_complete too
    data = make_h7_demo() if name == "h7-demo" else builtin(name)
    data = data._replace(**{op: {n: M for n, M in getattr(data, op).items() if n != k} for op, k in drop.items()})
    complete = tuple(
        LawResult("tables_complete", False, f"missing {op} matrix at degree {k}")
        for op, k in drop.items() if (op, k) in QUERIED_MATRICES
    )
    assert validate_manifold(data).failures() == complete
    report = validate_manifold(data, strict=True)
    (degree,) = set(drop.values())
    assert report.failures() == complete + (LawResult(f"bockstein_exact_deg{degree}", False, witness),)


def h7_demo_with_h1_h6() -> ManifoldData:
    """h7-demo with H^1 = Z on a and H^6 = Z on b, b*a = w: T cups u3 with g1 = 0 by a
    nontrivial (6, 1) table."""
    h7 = make_h7_demo()
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 1: ((0,), ("a",)), 6: ((0,), ("b",)), 7: ((0,), ("w",)), 8: ((0,), ("v",))},
        {0: ("1",), 1: ("a",), 6: ("b",), 7: ("w",), 8: ("v",)},
    )
    (g1, g3, g5, g7), = h7.odd_generators
    return h7._replace(
        integral=integral, mod2=mod2, cup_z={(6, 1): {(0, 0): (1,)}},
        rho2={**h7.rho2, 6: IntMatrix.identity(1)}, odd_generators=((g1._replace(coords=(0,)), g3, g5, g7),),
    )


def complete_manifolds() -> list[ManifoldData]:
    """Fresh instances, so no cached B or Todd rows hides a table: the builtins,
    h7-demo and the two variants that make H^3 and the (6, 1) table nontrivial."""
    bases = [builtin(name)._replace() for name in BUILTIN_NAMES] + [make_h7_demo()]
    return bases + [torsion_demo_with_h3(builtin("torsion-demo")), h7_demo_with_h1_h6()]


EVEN_CUPS = {(a, b) for a in (2, 4, 6) for b in (2, 4, 6) if a + b <= 8}


def _required_cups(data) -> set:
    """The cup tables the law tables_complete requires, in either orientation: the even pairs,
    and T's odd ones where odd generators are given."""
    odd = ODD_CUPS if data.odd_generators is not None else ()
    return {*EVEN_CUPS, *odd, *((b, a) for a, b in odd)}


def _nontrivial_cup(data, a: int, b: int) -> bool:
    return a > 0 and b > 0 and all(data.ngens(n) for n in (a, b, a + b))


@pytest.fixture
def tables_read(monkeypatch):
    """Each table a query reaches: (op, degree) for a matrix, ("cup", a, b) for a cup table, through
    ``CompiledManifold.apply``, ``cup`` and ``table`` or the class-path ``cup``."""
    reached = set()
    apply, compiled_cup, class_cup = CompiledManifold.apply, CompiledManifold.cup, cohomology.cup
    table = CompiledManifold.table

    def traced_apply(self, op, degree, x):
        reached.add((op, degree))
        return apply(self, op, degree, x)

    def traced_cup(self, a, x, b, y):
        reached.add(("cup", a, b))
        return compiled_cup(self, a, x, b, y)

    def traced_table(self, a, b):
        reached.add(("cup", a, b))
        return table(self, a, b)

    def traced_class_cup(data, x, y):
        reached.add(("cup", x.degree, y.degree))
        return class_cup(data, x, y)

    monkeypatch.setattr(CompiledManifold, "apply", traced_apply)
    monkeypatch.setattr(CompiledManifold, "cup", traced_cup)
    monkeypatch.setattr(CompiledManifold, "table", traced_table)
    for module in (cohomology, classify, charclass):
        monkeypatch.setattr(module, "cup", traced_class_cup)
    return reached


def test_tables_complete_requires_what_the_queries_read(tables_read):
    # every nontrivial table the queries reach is one the law requires, and
    # over these manifolds the queries reach every table it requires
    rng = random.Random(23)
    reached_anywhere = set()
    for data in complete_manifolds():
        assert data.report.ok, data.name  # the laws apply matrices too: kept before the queries
        tables_read.clear()
        # condition (1) is read off its mod-2 form and the counts off B, each built once per
        # instance; the builds are traced on a new instance, as validation built this one's
        fresh = data._replace()
        fresh.form, fresh.B
        m = data.compiled
        for _ in range(3):
            coords = [[rng.randrange(d) if d else rng.randint(-3, 3) for d in m.factors[n]] for n in (2, 4, 6, 8)]
            u = data.chern_tuple(*coords)
            check_rank4(data, u)
            count_classes(data, u, 4)
            count_classes(data, u[:3], 3)
            if data.odd_generators is not None:  # T, which count_classes takes only where u is realizable
                compute_T(data, *u[:3])
            rr_value(data, u, self_check=True)
            chern_product(u, u, data)
        for rank in (4, 3):
            census.enumerate(data, 1, rank)
        for table in tables_read:
            if table[0] == "cup":
                if _nontrivial_cup(data, *table[1:]):
                    assert table[1:] in _required_cups(data), (data.name, table)
            elif _zero_shape(data, *table) is None:
                assert table in QUERIED_MATRICES, (data.name, table)
        reached_anywhere |= tables_read
    required = {("cup", a, b) for a, b in EVEN_CUPS}
    required |= {("cup", a, b) for a, b in ODD_CUPS} | set(QUERIED_MATRICES)
    assert required <= reached_anywhere


def test_the_parts_of_condition_1_are_named_before_B():
    # the law's matrix witness is what building the form of (1), then B, raises first: with rho2
    # missing at degree 3 (B's) and at 4 (that of (1)), it names degree 4, once H^3 and H^4 = Z
    # are added to torsion-demo; given rho2 at 4, B's
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 3: ((0,), ("y",)), 4: ((0,), ("x",)), 6: ((2,), ("s",)), 8: ((0,), ("v",))},
        {0: ("1",), 3: ("y",), 4: ("x",), 5: ("x5",), 6: ("x6",), 8: ("v",)},
    )
    data = builtin("torsion-demo")._replace(
        integral=integral, mod2=mod2, cup_z={(4, 4): {(0, 0): (1,)}}, p1=CohomologyClass(4, "Z", (0,)),
        sq2={3: IntMatrix.identity(1), 4: IntMatrix.zeros(1, 1)},
    )
    assert {3, 4}.isdisjoint(data.rho2)
    law = data.report.law("tables_complete")
    assert law == LawResult("tables_complete", False, "missing rho2 matrix at degree 4")
    given_4 = data._replace(rho2={**data.rho2, 4: IntMatrix.identity(1)})
    assert given_4.report.law("tables_complete").witness == "missing rho2 matrix at degree 3"
    assert given_4._replace(rho2={**given_4.rho2, 3: IntMatrix.identity(1)}).report.law("tables_complete").passed


def test_tables_complete_asks_for_sq2_at_3_only_where_b_applies_it(torsion_demo):
    # B applies Sq^2 at degree 3 to the integral generators of H^3 alone: with H^4 = Z/2, H^3 = 0
    # but H^3(Z/2) = Z/2 (Tor), no question reads Sq^2 at 3, and data without it validates
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 4: ((2,), ("t",)), 6: ((2,), ("s",)), 8: ((0,), ("v",))},
        {0: ("1",), 3: ("a",), 4: ("t",), 5: ("x5",), 6: ("x6",), 8: ("v",)},
    )
    data = torsion_demo._replace(
        integral=integral, mod2=mod2, p1=CohomologyClass(4, "Z", (0,)), cup_z={(4, 4): {(0, 0): (0,)}},
        rho2={**torsion_demo.rho2, 4: IntMatrix.identity(1)}, sq2={4: IntMatrix.zeros(1, 1)},
        beta={**torsion_demo.beta, 3: IntMatrix.identity(1)},
    )
    assert _zero_shape(data, "sq2", 3) is None and 3 not in data.sq2
    assert data.report.ok
    zero = data.chern_tuple((), (0,), (0,), (0,))
    assert count_classes(data, zero, 4) == compute_B(data) == FGAbelianGroup((2,))
    assert data._replace(sq2={3: IntMatrix.zeros(1, 1)}).report.law("tables_complete").witness == (
        "missing sq2 matrix at degree 4"
    )


def test_a_question_on_validated_data_builds_nothing(monkeypatch):
    # loading builds what every question reads: the compiled form, the form of (1), B and the
    # congruences.  With each builder made to raise, every question still answers
    manifolds = [builtin(name)._replace() for name in BUILTIN_NAMES] + [make_h7_demo()]
    assert all(data.report.ok for data in manifolds)

    def refused(*args):
        raise AssertionError("a question built what loading builds")

    form = cached_property(refused)
    form.__set_name__(ManifoldData, "form")
    monkeypatch.setattr(classify, "compute_B", refused)
    monkeypatch.setattr(charclass, "compile_congruences", refused)
    monkeypatch.setattr(cohomology, "_compile", refused)
    monkeypatch.setattr(ManifoldData, "form", form)
    rng = random.Random(41)
    for data in manifolds:
        m = data.compiled
        zero = data.chern_tuple(*([0] * len(m.factors[n]) for n in (2, 4, 6, 8)))
        seeded = data.chern_tuple(*([rng.randint(-3, 3) for _ in m.factors[n]] for n in (2, 4, 6, 8)))
        for u in (zero, seeded):
            check_rank4(data, u)
            check_rank3(data, *u[:3])
            count_classes(data, u, 4)
            count_classes(data, u[:3], 3)
            rr_value(data, u)
        assert count_classes(data, zero, 4) is data.B
        for rank in (4, 3):
            census.enumerate(data, 1, rank)


def test_dropping_a_required_table_fails_tables_complete():
    # each required table that a manifold gives nontrivially, dropped alone
    # (a cup table in both orientations), fails the law, which names it
    dropped = 0
    for data in complete_manifolds():
        for op, degree in QUERIED_MATRICES:
            if degree in getattr(data, op) and _zero_shape(data, op, degree) is None:
                without = data._replace(**{op: {n: M for n, M in getattr(data, op).items() if n != degree}})
                law = validate_manifold(without).law("tables_complete")
                assert law == LawResult("tables_complete", False, f"missing {op} matrix at degree {degree}")
                dropped += 1
        for a, b in data.cup_z:
            if (a, b) in _required_cups(data) and _nontrivial_cup(data, a, b):
                without = data._replace(cup_z={k: v for k, v in data.cup_z.items() if k not in ((a, b), (b, a))})
                law = validate_manifold(without).law("tables_complete")
                assert not law.passed and law.witness in {
                    f"missing cup product table for degrees ({a}, {b})",
                    f"missing cup product table for degrees ({b}, {a})",
                }, (data.name, a, b, law)
                dropped += 1
    assert dropped >= 20


def test_cup_examples(cp4, hp2):
    t = cp4.zclass(2, (1,))
    assert cup(cp4, t, t) == cp4.zclass(4, (1,))
    assert cup(cp4, t, cp4.zclass(4, (5,))) == cp4.zclass(6, (5,))
    u = hp2.zclass(4, (1,))
    assert cup(hp2, u, u) == hp2.zclass(8, (1,))


def test_cup_with_zero_and_unit(cp4):
    t = cp4.zclass(2, (1,))
    assert cup(cp4, t, cp4.zero(4)).is_zero
    one = cp4.zclass(0, (3,))
    assert cup(cp4, one, t) == cp4.zclass(2, (3,))


def test_cup_missing_table(cp4):
    stripped = cp4._replace(cup_z={})
    t = stripped.zclass(2, (1,))
    with pytest.raises(MissingOperationError, match=r"\(2, 2\)"):
        cup(stripped, t, t)


def test_cup_degree_overflow(cp4):
    t4 = cp4.zclass(8, (1,))
    with pytest.raises(ValueError, match="exceeds"):
        cup(cp4, t4, cp4.zclass(2, (1,)))


def test_cup_ring_mismatch(cp4):
    with pytest.raises(ValueError, match="ring"):
        cup(cp4, cp4.zclass(2, (1,)), cp4.m2class(2, (1,)))


coords2 = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
coords3 = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


@given(coords2, coords2, coords3)
def test_cup_bilinear(x1, x2, y):
    data = builtin("cp2xcp2")
    a1, a2 = data.zclass(2, x1), data.zclass(2, x2)
    b = data.zclass(4, y)
    lhs = cup(data, data.add(a1, a2), b)
    rhs = data.add(cup(data, a1, b), cup(data, a2, b))
    assert lhs == rhs
    assert cup(data, data.scale(3, a1), b) == data.scale(3, cup(data, a1, b))


@given(coords2, st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_cup_commutes_in_even_degrees(x, y):
    data = builtin("cp2xcp2")
    a = data.zclass(2, x)
    b = data.zclass(6, y)
    assert cup(data, a, b) == cup(data, b, a)
    assert pair_top(data, cup(data, a, b)) == pair_top(data, cup(data, b, a))


def one_product(a: int, b: int, stored: tuple[int, int]) -> ManifoldData:
    """H^0, H^a, H^b, H^(a+b) and H^8 each Z, with a < b < 8, and one cup table, stored as
    ``stored``, taking the generators of H^a and H^b to the one of H^(a+b)."""
    integral, mod2 = graded_pair({n: ((0,), (f"e{n}",)) for n in (0, a, b, a + b, 8)}, {})
    return ManifoldData(
        name="one-product",
        integral=integral,
        mod2=mod2,
        cup_z={stored: {(0, 0): (1,)}},
        rho2={},
        beta={},
        sq2={},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", ()),
        spinc_class=CohomologyClass(2, "Z", (0,) * (a == 2)),
    )


def test_cup_swapped_odd_degrees_picks_up_sign():
    # only one orientation of a (3, 5) table is stored; the swapped lookup
    # must apply the graded sign (-1)^{3*5}
    data = one_product(3, 5, (3, 5))
    x = data.zclass(3, (1,))
    y = data.zclass(5, (1,))
    assert cup(data, x, y) == data.zclass(8, (1,))
    assert cup(data, y, x) == data.zclass(8, (-1,))


@pytest.mark.parametrize("stored", [(5, 2), (2, 5)])
def test_cup_swapped_even_by_odd_degrees_keeps_its_sign(stored):
    # (-1)^{2*5} = 1: a (2, 5) product read from either orientation has no sign
    data = one_product(2, 5, stored)
    x, y = data.zclass(2, (1,)), data.zclass(5, (1,))
    assert cup(data, x, y) == cup(data, y, x) == data.zclass(7, (1,))


def test_cup_swapped_odd_degrees_reads_each_generator_with_its_operand():
    # H^3 = Z^2, H^5 = Z and a (3, 5) table e0*f = v, e1*f = 2v: the swapped product y*x reads
    # entry (i, j) as x_i * y_j and carries the sign (-1)^{3*5}
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 3: ((0, 0), ("e0", "e1")), 5: ((0,), ("f",)), 8: ((0,), ("v",))}, {}
    )
    data = one_product(3, 5, (3, 5))._replace(
        integral=integral, mod2=mod2, cup_z={(3, 5): {(0, 0): (1,), (1, 0): (2,)}}
    )
    x, y = data.zclass(3, (4, 7)), data.zclass(5, (3,))
    assert cup(data, x, y) == data.zclass(8, (3 * (4 + 2 * 7),))
    assert cup(data, y, x) == data.zclass(8, (-3 * (4 + 2 * 7),))


def test_cup_names_a_missing_table_in_the_order_of_its_operands(cp2xcp2):
    stripped = cp2xcp2._replace(cup_z={})
    x, y = stripped.zclass(2, (1, 0)), stripped.zclass(4, (0, 1, 0))
    for first, second, degrees in ((x, y, r"\(2, 4\)"), (y, x, r"\(4, 2\)")):
        with pytest.raises(MissingOperationError, match=f"^missing cup product table for degrees {degrees}$"):
            cup(stripped, first, second)


def test_cup_checks_both_operands_in_their_ring(cp2xcp2):
    # H^2(Z/2) has dimension 2 and H^4(Z/2) 3 on cp2xcp2
    x, y = cp2xcp2.m2class(2, (1, 0)), cp2xcp2.m2class(4, (0, 1, 0))
    for z, other in ((x, y), (y, x)):
        for coords in (z.coords[:-1], z.coords + (1,)):
            message = f"^expected {len(z.coords)} coordinates, got {len(coords)}$"
            for operands in ((z._replace(coords=coords), other), (other, z._replace(coords=coords))):
                with pytest.raises(ValueError, match=message):
                    cup(cp2xcp2, *operands)


@pytest.mark.parametrize("name", ["cp4", "cp2xcp2", "cp1xcp3"])
def test_z2_cups_are_the_reductions_of_integral_cups(name):
    # the Z2 ring: a cup2 (2, 2) table, its sums reduced mod 2, Sq^2 at degree 2 (a square is its
    # Sq^2) and a trivial side, whose product is zero without a table
    data = builtin(name)
    vectors = list(itertools.product((0, 1), repeat=data.ngens(2)))
    rho2 = lambda x: apply_op(data, "rho2", x)
    for a, b in itertools.product(vectors, repeat=2):
        x, y = data.zclass(2, a), data.zclass(2, b)
        assert cup(data, rho2(x), rho2(y)) == rho2(cup(data, x, y))
        assert cup(data, rho2(x), rho2(x)) == apply_op(data, "sq2", rho2(x))
        assert cup(data, rho2(x), data.zero(1, "Z2")) == data.zero(3, "Z2")


def test_pair_top_examples(cp4, cp2xcp2):
    assert pair_top(cp4, cp4.zclass(8, (1,))) == 1
    assert pair_top(cp4, cp4.zero(8)) == 0
    # a^2 b^2 is the top monomial of cp2xcp2
    a = cp2xcp2.zclass(2, (1, 0))
    b = cp2xcp2.zclass(2, (0, 1))
    ab = cup(cp2xcp2, a, b)
    assert pair_top(cp2xcp2, cup(cp2xcp2, ab, ab)) == 1


def test_pair_top_linear(cp4):
    x = cp4.zclass(8, (3,))
    y = cp4.zclass(8, (-5,))
    assert pair_top(cp4, cp4.add(x, y)) == pair_top(cp4, x) + pair_top(cp4, y)


def test_pair_top_degree_check(cp4):
    with pytest.raises(ValueError):
        pair_top(cp4, cp4.zclass(4, (1,)))


def test_apply_op_examples(cp4, torsion_demo):
    assert apply_op(cp4, "rho2", cp4.zclass(2, (5,))) == cp4.m2class(2, (1,))
    x5 = torsion_demo.m2class(5, (1,))
    assert apply_op(torsion_demo, "beta", x5) == torsion_demo.zclass(6, (1,))
    # Sq^2 t = t^2, Sq^2 t^2 = 0, Sq^2 t^3 = t^4
    assert apply_op(cp4, "sq2", cp4.m2class(2, (1,))) == cp4.m2class(4, (1,))
    assert apply_op(cp4, "sq2", cp4.m2class(4, (1,))).is_zero
    assert apply_op(cp4, "sq2", cp4.m2class(6, (1,))) == cp4.m2class(8, (1,))


def test_sq2_on_products(cp1xcp3):
    # Sq^2(a) = a^2 = 0 and Sq^2(b) = b^2 on cp1 x cp3
    a = cp1xcp3.m2class(2, (1, 0))
    b = cp1xcp3.m2class(2, (0, 1))
    assert apply_op(cp1xcp3, "sq2", a).is_zero
    assert apply_op(cp1xcp3, "sq2", b) == cp1xcp3.m2class(4, (0, 1))


def test_beta_rho2_vanishes_on_random_classes():
    rng = random.Random(7)
    for name in BUILTIN_NAMES:
        data = builtin(name)
        for degree in range(8):
            for _ in range(5):
                x = data.zclass(degree, [rng.randint(-9, 9) for _ in range(data.ngens(degree))])
                image = apply_op(data, "beta", apply_op(data, "rho2", x))
                assert image.is_zero


def test_apply_op_ring_and_range_errors(cp4):
    with pytest.raises(ValueError, match="expects"):
        apply_op(cp4, "rho2", cp4.m2class(2, (1,)))
    with pytest.raises(ValueError, match="expects"):
        apply_op(cp4, "beta", cp4.zclass(2, (1,)))
    with pytest.raises(ValueError, match="beyond"):
        apply_op(cp4, "sq2", cp4.m2class(8, (1,)))
    with pytest.raises(ValueError, match="unknown"):
        apply_op(cp4, "sq3", cp4.m2class(2, (1,)))


def test_apply_op_missing_matrix(cp4):
    stripped = cp4._replace(sq2={})
    with pytest.raises(MissingOperationError, match="sq2"):
        apply_op(stripped, "sq2", stripped.m2class(4, (1,)))


def test_classes_stored_reduced(torsion_demo):
    # H^6 = Z/2: coordinates are canonical representatives
    assert torsion_demo.zclass(6, (7,)) == torsion_demo.zclass(6, (1,))
    assert torsion_demo.zclass(6, (-4,)).is_zero
    assert torsion_demo.m2class(5, (3,)) == torsion_demo.m2class(5, (1,))


@pytest.mark.parametrize("w2", [(3,), (-1,)])
def test_manifold_data_stores_w2_reduced(cp4, w2):
    data = cp4._replace(w2=CohomologyClass(2, "Z2", w2))
    assert data.w2 == cp4.w2 == CohomologyClass(2, "Z2", (1,))
    assert validate_manifold(data, strict=True).ok
    assert parse_manifold_text(serialize_manifold(data)) == data == cp4


def test_manifold_data_stores_integral_classes_reduced():
    # H^2 = Z/4 + Z, H^4 = Z/6, H^5 = Z/2 + Z: every coordinate on a Z/d
    # generator is stored in range(d), a free one as given
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 2: ((4, 0), ("a", "t")), 4: ((6,), ("b",)), 5: ((2, 0), ("e", "f")),
         8: ((0,), ("v",))},
        {2: ("x",)},
    )
    data = ManifoldData(
        name="unreduced",
        integral=integral,
        mod2=mod2,
        cup_z={},
        rho2={},
        beta={},
        sq2={},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", (-1,)),
        spinc_class=CohomologyClass(2, "Z", (9, -7)),
        odd_generators=(
            (
                CohomologyClass(1, "Z", ()),
                CohomologyClass(3, "Z", ()),
                CohomologyClass(5, "Z", (5, -3)),
                CohomologyClass(7, "Z", ()),
            ),
        ),
    )
    assert data.p1.coords == (5,)
    assert data.spinc_class.coords == (1, -7)
    assert data.odd_generators[0][2].coords == (1, -3)
    assert data == data._replace() == parse_manifold_text(serialize_manifold(data))
    # unchecked still builds the tuple as given, without the constructor
    raw = unchecked(data, p1=CohomologyClass(4, "Z", (-1,)), w2=CohomologyClass(2, "Z2", (3,)))
    assert raw.p1.coords == (-1,) and raw.w2.coords == (3,)
    fixed = raw._replace()
    assert (fixed.p1.coords, fixed.w2.coords) == ((5,), (1,))


def test_chern_tuple_degree_checks(cp4):
    with pytest.raises(ValueError, match="coordinates"):
        cp4.chern_tuple((1, 2), (0,), (0,), (0,))


def test_validation_report_rendering(cp4):
    report = validate_manifold(cp4)
    text = str(report)
    assert text.splitlines()[0] == "PASS  h0_is_Z"  # the shape is no law: the constructor checked it
    assert report.law("h0_is_Z").passed
    with pytest.raises(KeyError):
        report.law("nonexistent")


def test_graded_shapes_must_cover_all_degrees():
    integral, _ = graded_pair({0: ((0,), ("1",))}, {})
    with pytest.raises(ValueError):
        GradedGroupZ(integral.groups[:5], integral.names[:5])


def test_builtin_is_built_once():
    assert builtin("cp4") is builtin("cp4")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compiled_data_pickles(name):
    data = builtin(name)
    compiled = data.compiled
    assert data.compiled is compiled
    copy = pickle.loads(pickle.dumps(data))
    assert copy == data and copy.compiled == compiled
    assert data._replace().compiled is not compiled


def test_compiled_cup_matches_cup():
    # every compiled table, T's three odd ones too, on unit and seeded vectors up to 10^40; then
    # with the table dropped in both orientations, where both raise the same error
    rng = random.Random(19)
    dropped = 0
    for data in complete_manifolds():
        assert set(data.compiled.cups) == EVEN_CUPS | set(ODD_CUPS)
        for a, b in data.compiled.cups:
            without = data._replace(cup_z={ab: t for ab, t in data.cup_z.items() if ab not in {(a, b), (b, a)}})
            units = [[[int(i == j) for j in range(data.ngens(n))] for i in range(data.ngens(n))] for n in (a, b)]
            seeded = [[[rng.randint(-10**40, 10**40) for _ in range(data.ngens(n))] for _ in range(3)] for n in (a, b)]
            for case, x, y in itertools.product(
                (data, without), units[0] + seeded[0], units[1] + seeded[1]
            ):
                x, y = case.compiled.reduce(a, x), case.compiled.reduce(b, y)
                generic = _outcome(lambda: cup(case, case.zclass(a, x), case.zclass(b, y)))
                assert _outcome(lambda: case.compiled.cup(a, x, b, y)) == generic, (data.name, a, b)
                dropped += generic[:1] == (MissingOperationError,)
    assert dropped > 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: d.compiled.cup(2, (1, 1, 5), 4, (1, 0, 0)), "expected 2 coordinates, got 3"),
        (lambda d: d.compiled.cup(2, (1, 0), 4, (1, 0)), "expected 3 coordinates, got 2"),
        (lambda d: d.compiled.cup(2, (1,), 4, (1, 0, 0)), "expected 2 coordinates, got 1"),
        (lambda d: d.condition1((1, 0), (1, 0, 0), (0, 0, 5)), "expected 2 coordinates, got 3"),
        (lambda d: d.compiled.apply("rho2", 4, (1, 0, 0, 7)), "expected 3 coordinates, got 4"),
        (lambda d: d.compiled.apply("rho2", 4, (1,)), "expected 3 coordinates, got 1"),
        (lambda d: d.compiled.apply("sq2", 2, (1, 0, 1)), "expected 2 coordinates, got 3"),
        (lambda d: d.compiled.apply("beta", 4, (1, 0)), "expected 3 coordinates, got 2"),
    ],
    ids=["long-x", "short-y", "short-x", "long-u3", "long-rho2", "short-rho2", "long-sq2", "short-beta"],
)
def test_compiled_operands_of_the_wrong_length_are_refused(call, message):
    # as reduce refuses them, on cp2xcp2 (H^2 = H^6 = Z^2, H^4 = Z^3, and mod 2 alike; H^5 = 0, so
    # beta at degree 4 has no rows to read the length off): never cut short or read past
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(builtin("cp2xcp2"))


def test_compiled_apply_reads_the_mod2_length_of_its_source(torsion_demo):
    # H^5 = 0 but H^5(Z/2) = Z/2 on torsion-demo: beta at degree 5 takes one mod-2 coordinate
    m = torsion_demo.compiled
    assert m.apply("beta", 5, (1,)) == (1,)
    with pytest.raises(ValueError, match="^expected 1 coordinates, got 0$"):
        m.apply("beta", 5, ())


SOURCE_RING = {"rho2": "Z", "beta": "Z2", "sq2": "Z2"}


def _outcome(evaluate):
    """The coordinates evaluate() gives, or the (type, message) it raises."""
    try:
        result = evaluate()
    except MissingOperationError as exc:
        return type(exc), str(exc)
    return getattr(result, "coords", result)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("h7-demo",))
def test_compiled_apply_matches_apply_op(name):
    # every op at every degree whose target is at most 8, on unit vectors and
    # seeded vectors up to 10^40; then with each supplied matrix dropped.  The
    # compiled side gets the vector as drawn, apply_op its reduced class: valid
    # data (rho2_times2, beta_torsion) makes the reduction immaterial
    data = make_h7_demo() if name == "h7-demo" else builtin(name)
    rng = random.Random(17)
    applied = raised = 0
    for op, by_degree in data.compiled.ops.items():
        for degree in range(len(by_degree)):
            n = data.dim(degree, SOURCE_RING[op])
            vectors = [[int(i == j) for j in range(n)] for i in range(n)]
            vectors += [[rng.randint(-10**40, 10**40) for _ in range(n)] for _ in range(4)]
            dropped = data._replace(**{op: {k: M for k, M in getattr(data, op).items() if k != degree}})
            for case, v in itertools.product((data, dropped), vectors):
                x = case.make_class(degree, SOURCE_RING[op], v)
                generic = _outcome(lambda: apply_op(case, op, x))
                assert _outcome(lambda: case.compiled.apply(op, degree, v)) == generic, (op, degree)
                if generic[:1] == (MissingOperationError,):
                    assert generic[1] == f"missing {op} matrix at degree {degree}"
                    raised += 1
                else:
                    applied += 1
    assert applied > 0 and raised > 0
    assert {op: len(by_degree) for op, by_degree in data.compiled.ops.items()} == {"rho2": 9, "beta": 8, "sq2": 7}


@pytest.mark.parametrize("name", ["cp4", "torsion-demo"])
def test_validation_compiles_once(name, monkeypatch):
    # parse_manifold validates, the laws read the compiled form, and every
    # later question on that instance reads the same compilation
    compiled = []
    compile_once = cohomology._compile
    monkeypatch.setattr(cohomology, "_compile", lambda data: compiled.append(data) or compile_once(data))
    validated = []  # each run of the laws, by its first
    first, *rest = cohomology.LAWS
    monkeypatch.setattr(cohomology, "LAWS", (lambda data: validated.append(data) or first(data), *rest))
    data = parse_manifold(_DATA / f"{name}.manifold")
    assert "compiled" in vars(data) and compiled == [data]
    assert vars(data)["report"].ok and validated == [data]  # the report the census reads
    u = zero_tuple(data)
    assert check_rank4(data, u).realizable
    assert count_classes(data, u, 4) is not None and count_classes(data, u, 3) is not None
    rr_value(data, u, self_check=True)
    for rank in (4, 3):
        census.enumerate(data, 1, rank)
    assert len(compiled) == 1 and len(validated) == 1


def test_strict_loading_validates_once(monkeypatch):
    # strict validation extends the report that data.report keeps, so a census on strictly
    # loaded data does not validate it a second time
    calls = []
    validate = cohomology.validate_manifold

    def counted(data, strict=False):
        calls.append(strict)
        return validate(data, strict)

    for module in (cohomology, manifold_io):
        monkeypatch.setattr(module, "validate_manifold", counted)
    data = parse_manifold(_DATA / "cp4.manifold", strict=True)
    census.enumerate(data, 1, 4)
    assert calls == [True]
    report, strict = data.report, validate(data, strict=True)
    assert strict.results[: len(report.results)] == report.results
    assert [r.name for r in strict.results[len(report.results) :]] == [f"bockstein_exact_deg{n}" for n in range(9)]


def _with_groups(data: ManifoldData, zmap: dict, mmap: dict, **fields) -> ManifoldData:
    integral, mod2 = graded_pair(zmap, mmap)
    return data._replace(integral=integral, mod2=mod2, **fields)


def _cp2xcp2_with_a_moved_transpose() -> ManifoldData:
    cp2xcp2 = builtin("cp2xcp2")
    transposed = {(j, i): coords for (i, j), coords in cp2xcp2.cup_z[2, 4].items()}
    return cp2xcp2._replace(cup_z={**cp2xcp2.cup_z, (4, 2): {**transposed, (1, 0): (0, 1)}})


# For each law, a variant of a builtin or fixture that fails it and no other, strict laws included,
# with its witness.  A law that cannot fail alone is implied by the others and has no place.
SOLE_FAILURES = {
    # H^0 = Z/2: still one mod-2 class in degree 0, which rho2 hits
    "h0_is_Z": (lambda: _with_groups(
        builtin("s8"), {0: ((2,), ("1",)), 8: ((0,), ("v",))}, {0: ("1",), 8: ("v",)}
    ), "H^0 = Z/2"),
    # H^8 = Z/3, with no mod-2 class in degree 8
    "h8_is_Z": (lambda: _with_groups(
        builtin("s8"), {0: ((0,), ("1",)), 8: ((3,), ("v",))}, {0: ("1",)}, rho2={0: IntMatrix.identity(1)}
    ), "H^8 = Z/3"),
    # hp2 without H^4(Z/2): exact, as rho2 and beta at degree 4 are both trivial
    "mod2_dims": (lambda: _with_groups(
        builtin("hp2"), {0: ((0,), ("1",)), 4: ((0,), ("u",)), 8: ((0,), ("u^2",))}, {0: ("1",), 8: ("u^2",)},
        rho2={n: IntMatrix.identity(1) for n in (0, 8)},
    ), "degree 4: dim H^4(Z/2) = 0, expected 1"),
    # hp2 with H^4 = Z/3<x> + Z<u>, x*x = x*u = 0, and rho2(x) = rho2(u)
    "rho2_times2": (lambda: _with_groups(
        builtin("hp2"), {0: ((0,), ("1",)), 4: ((3, 0), ("x", "u")), 8: ((0,), ("u^2",))},
        {0: ("1",), 4: ("u",), 8: ("u^2",)},
        rho2={n: IntMatrix(1, 2, (1, 1)) if n == 4 else IntMatrix.identity(1) for n in (0, 4, 8)},
        cup_z={(4, 4): {(i, j): (int(i == j == 1),) for i in range(2) for j in range(2)}},
        p1=CohomologyClass(4, "Z", (0, 2)),
    ), "degree 4 generator x"),
    # torsion-demo with H^6 = Z/4: beta(x5) = s has order 4, and the mod-2 dimensions hold
    "beta_torsion": (lambda: _with_groups(
        builtin("torsion-demo"), {0: ((0,), ("1",)), 6: ((4,), ("s",)), 8: ((0,), ("v",))},
        {0: ("1",), 5: ("x5",), 6: ("x6",), 8: ("v",)},
    ), "degree 5 basis element x5"),
    # torsion-demo with H^5 = Z<y> and rho2(y) = x5, whose beta is s: ranks still count exactly
    "beta_rho2": (lambda: _with_groups(
        builtin("torsion-demo"), {0: ((0,), ("1",)), 5: ((0,), ("y",)), 6: ((2,), ("s",)), 8: ((0,), ("v",))},
        {0: ("1",), 5: ("x5", "y5"), 6: ("x6",), 8: ("v",)},
        rho2={**builtin("torsion-demo").rho2, 5: IntMatrix(2, 1, (1, 0))}, beta={5: IntMatrix(1, 2, (1, 0))},
    ), "degree 5 generator y"),
    "spinc_reduction": (lambda: builtin("cp4")._replace(w2=builtin("cp4").m2class(2, (0,))),
                        "rho2(c) = (1,), w2 = (0,)"),
    "pairing_surjective": (lambda: builtin("s8")._replace(pairing=(3,)), "pairing = (3,)"),
    "cup_commutes": (_cp2xcp2_with_a_moved_transpose, "cup (2,4) entry (0,1) disagrees with cup (4,2)"),
    "sq2_squares_deg2": (lambda: builtin("cp4")._replace(cup_m2={(2, 2): {(0, 0): (0,)}}), "basis element t"),
    "tables_complete": (
        lambda: builtin("cp4")._replace(cup_z={ab: t for ab, t in builtin("cp4").cup_z.items() if ab != (2, 2)}),
        "missing cup product table for degrees (2, 2)",
    ),
    "torsion_pairs_to_zero": (lambda: make_cp4_with_h6_torsion(1), "degree 6 generator s"),
    # p1 = 0 on hp2: 4*rhs(3) = 2<u*u> at u2 = u
    "rhs3_integral": (lambda: builtin("hp2")._replace(p1=CohomologyClass(4, "Z", (0,))),
                      "(1) holds at --chern - 1 - but 4*rhs(3) = 2"),
    # the rho2 matrix hitting H^6(Z/2) zero: its image no longer fills ker beta
    "bockstein_exact_deg6": (lambda: builtin("torsion-demo")._replace(
        rho2={**builtin("torsion-demo").rho2, 6: IntMatrix.zeros(1, 1)}
    ), "dim im rho2 = 0, dim ker beta = 1"),
}


def test_every_law_has_a_sole_failure():
    laws = [law.__name__.lstrip("_") for law in (*cohomology.LAWS, cohomology._bockstein_exact)]
    assert [name.removesuffix("_deg6") for name in SOLE_FAILURES] == laws


@pytest.mark.parametrize("name", SOLE_FAILURES)
def test_each_law_earns_its_place(name):
    make, witness = SOLE_FAILURES[name]
    assert validate_manifold(make(), strict=True).failures() == (LawResult(name, False, witness),)


def test_each_law_runs_once_per_load(monkeypatch):
    # each law, wrapped under its own name too, so that a law calling another by name is counted
    runs = Counter()
    laws = (*cohomology.LAWS, cohomology._bockstein_exact)

    def counted(law):
        return lambda data: runs.update([law.__name__]) or law(data)

    wrapped = {law: counted(law) for law in laws}
    for law in laws:
        monkeypatch.setattr(cohomology, law.__name__, wrapped[law])
    monkeypatch.setattr(cohomology, "LAWS", tuple(wrapped[law] for law in cohomology.LAWS))
    monkeypatch.setattr(cohomology, "NEEDS", {wrapped[law]: needs for law, needs in cohomology.NEEDS.items()})
    for name in BUILTIN_NAMES:
        runs.clear()
        data = parse_manifold(_DATA / f"{name}.manifold", strict=True)
        assert runs == {law.__name__: 1 for law in laws}, name
        validate_manifold(data, strict=True)  # extends the kept report, running none of LAWS again
        assert runs == {**{law.__name__: 1 for law in laws}, "_bockstein_exact": 2}, name


def test_a_law_whose_need_failed_reports_nothing():
    # the strict report of torsion-demo with H^6 = Z/4 has no bockstein_exact rows, as its beta
    # image is not 2-torsion, and the non-strict laws that run there all report
    make, _ = SOLE_FAILURES["beta_torsion"]
    data = make()
    strict = validate_manifold(data, strict=True)
    assert strict == validate_manifold(data) and strict.law("rhs3_integral").passed
    assert not any(r.name.startswith("bockstein") for r in strict.results)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("h7-demo", "cp4-h6-torsion"))
def test_torsion_pairs_to_zero_holds_on_the_fixtures(name):
    data = {"h7-demo": make_h7_demo, "cp4-h6-torsion": make_cp4_with_h6_torsion}.get(name, lambda: builtin(name))()
    assert validate_manifold(data, strict=True).ok
    assert validate_manifold(data).law("torsion_pairs_to_zero") == LawResult("torsion_pairs_to_zero", True)


@pytest.mark.parametrize("ts", [1, 2, -1])
def test_a_torsion_class_that_pairs_to_nonzero_fails_torsion_pairs_to_zero(ts):
    # s of order 2 with <t*s, [M]> = ts: 2*ts = <t*(2s), [M]> = 0 is false in Z
    report = validate_manifold(make_cp4_with_h6_torsion(ts))
    assert report.failures() == (LawResult("torsion_pairs_to_zero", False, "degree 6 generator s"),)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("h7-demo",))
def test_supplied_zero_matrices_are_omitted_ones(name):
    # the laws read an omitted matrix with a trivial side as its zero rows,
    # which must give the same report as that zero matrix supplied
    data = make_h7_demo() if name == "h7-demo" else builtin(name)
    supplied = data._replace(**{
        op: {
            **{n: IntMatrix.zeros(*shape) for n in DEGREES if (shape := _zero_shape(data, op, n))},
            **getattr(data, op),
        }
        for op in _OP_SPECS
    })
    assert any(getattr(supplied, op) != getattr(data, op) for op in _OP_SPECS)
    for strict in (False, True):
        assert validate_manifold(supplied, strict) == validate_manifold(data, strict)
    assert supplied.compiled == data.compiled
