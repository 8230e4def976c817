import hashlib
import random
import re
from fractions import Fraction
from itertools import islice, product

import pytest

from bundlecensus.abelian import FGAbelianGroup, IntMatrix
from bundlecensus.census import cp4_rank3_admissible, cp4_rank4_admissible, enumerate_cp4
from bundlecensus.charclass import chern_inverse, chern_product, rr_value
from bundlecensus.classify import (
    Condition1,
    Condition2,
    Condition3,
    OddGeneratorsMissing,
    check_rank3,
    check_rank4,
    compute_B,
    compute_T,
    count_classes,
    oracle_congruences,
)
from bundlecensus.cohomology import (
    ChernTuple,
    CohomologyClass,
    CompiledManifold,
    LawResult,
    ManifoldShapeError,
    ManifoldValidationError,
    MissingOperationError,
    apply_op,
    cup,
    pair_top,
    shape_problems,
)
from bundlecensus.fixtures import BUILTIN_NAMES, builtin

from conftest import graded_pair, make_cp4_with_h6_torsion, make_h7_demo, misshape
from test_census import FIXTURES, mutated_manifolds


def cp4_tuple(data, a1, a2, a3, a4):
    return data.chern_tuple((a1,), (a2,), (a3,), (a4,))


def test_trivial_bundle_realizable(cp4):
    verdict = check_rank4(cp4, cp4_tuple(cp4, 0, 0, 0, 0))
    assert verdict.realizable
    assert verdict.condition1.passed
    assert verdict.condition2.passed and verdict.condition3.passed


def test_three_t4_fails_only_mod2(cp4):
    verdict = check_rank4(cp4, cp4_tuple(cp4, 0, 0, 0, 3))
    assert not verdict.realizable
    assert verdict.condition2.passed
    assert not verdict.condition3.passed


def test_four_hyperplanes_realizable(cp4):
    verdict = check_rank4(cp4, cp4_tuple(cp4, 4, 6, 4, 1))
    assert verdict.realizable


def test_condition1_failure_short_circuits(cp4):
    # a3 odd with a1*a2 even violates Sq^2 rho2 u2 = rho2(u3 + u1 u2)
    verdict = check_rank4(cp4, cp4_tuple(cp4, 0, 0, 1, 0))
    assert not verdict.realizable
    assert not verdict.condition1.passed
    assert verdict.condition2 is None and verdict.condition3 is None
    assert verdict.notes


def test_rank3_examples(cp4):
    z2, z4, z6 = cp4.zclass(2, (0,)), cp4.zclass(4, (0,)), cp4.zclass(6, (0,))
    assert check_rank3(cp4, z2, z4, z6).realizable

    bad = check_rank3(cp4, cp4.zclass(2, (0,)), cp4.zclass(4, (1,)), cp4.zclass(6, (0,)))
    assert not bad.realizable
    assert not bad.condition2.passed  # 1 + 1 = 2 is not 0 mod 3

    good = check_rank3(cp4, cp4.zclass(2, (0,)), cp4.zclass(4, (2,)), cp4.zclass(6, (2,)))
    assert good.realizable
    assert good.rank == 3


def paper_conditions_2_3(data, u):
    """Conditions (2) and (3) written straight from PAPER.md: each side is
    built as one class and paired once."""
    add = data.add

    def neg(x):
        return data.scale(-1, x)

    u1, u2, u3, u4, c = u.u1, u.u2, u.u3, u.u4, data.spinc_class
    u1sq_u2 = cup(data, cup(data, u1, u1), u2)
    u1_u3 = cup(data, u1, u3)
    u2_sq = cup(data, u2, u2)
    p1_u2 = cup(data, data.p1, u2)
    lhs = pair_top(data, u4)
    rhs2 = pair_top(data, add(add(p1_u2, neg(u1sq_u2)), add(u1_u3, neg(u2_sq))))
    csq_u2 = cup(data, cup(data, c, c), u2)
    rhs3 = (
        Fraction(pair_top(data, add(neg(u1sq_u2), u1_u3)))
        + Fraction(pair_top(data, add(add(data.scale(2, u2_sq), p1_u2), data.scale(-3, csq_u2))), 4)
        + Fraction(pair_top(data, cup(data, c, add(cup(data, u1, u2), neg(u3)))), 2)
    )
    assert rhs3.denominator == 1
    return (
        Condition2(lhs % 3 == rhs2 % 3, lhs, rhs2, lhs % 3, rhs2 % 3),
        Condition3(lhs % 2 == int(rhs3) % 2, rhs3, lhs % 2, int(rhs3) % 2),
    )


def paper_condition_1(data, u):
    """Condition (1) written with the generic operations on classes."""
    lhs = apply_op(data, "sq2", apply_op(data, "rho2", u.u2))
    rhs = apply_op(data, "rho2", data.add(u.u3, cup(data, u.u1, u.u2)))
    return Condition1(lhs == rhs, lhs, rhs)


def paper_realizable(data, u):
    if not paper_condition_1(data, u).passed:
        return False
    condition2, condition3 = paper_conditions_2_3(data, u)
    return condition2.passed and condition3.passed


def seeded_tuples(data, seed):
    """300 random tuples, one in ten with coordinates up to 10^40."""
    rng = random.Random(seed)
    for i in range(300):
        bound = 10**40 if i % 10 == 0 else 9
        yield data.chern_tuple(
            *[[rng.randint(-bound, bound) for _ in range(data.ngens(d))] for d in (2, 4, 6, 8)]
        )


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_condition_1_matches_generic_operations(name):
    # ManifoldData.condition1, the one evaluator of (1), called directly as well, since
    # check_rank4 refuses cp4-p1-2, which fails a law.  On cp4-h6-torsion u1*u2 reaches the
    # torsion of H^6
    data = FIXTURES[name]()
    m = data.compiled
    torsion = [k for k, d in enumerate(m.factors[6]) if d]
    reached = 0
    for u in seeded_tuples(data, 1_2003_06901):
        expected = paper_condition_1(data, u)
        u1, u2, u3, _ = map(m.reduce, (2, 4, 6, 8), (x.coords for x in u))
        lhs, rhs = data.condition1(u1, u2, u3)
        assert Condition1(lhs == rhs, CohomologyClass(6, "Z2", lhs), CohomologyClass(6, "Z2", rhs)) == expected
        if data.report.ok:
            assert check_rank4(data, u).condition1 == expected
        reached += any(m.cup(2, u1, 4, u2)[k] for k in torsion)
    assert (reached > 0) == (name == "cp4-h6-torsion")


def test_condition_1_matches_generic_operations_where_rho2_times2_holds():
    # the compiled mod-2 form is exact wherever rho2 commutes with reduction, validated or not: on
    # unvalidated data that passes rho2_times2 and tables_complete, called on coordinates as drawn,
    # torsion ones outside range(d) and entries up to 10^40 included, against the class path on
    # the reduced tuple
    rng = random.Random(1_2003_06902)
    kept, unvalidated, torsion = 0, 0, 0
    for data in (*mutated_manifolds(200, seed=11), *mutated_manifolds(300, seed=12)):
        report = data.report
        if not (report.law("rho2_times2").passed and report.law("tables_complete").passed):
            continue
        kept, unvalidated = kept + 1, unvalidated + (not report.ok)
        m = data.compiled
        for i in range(20):
            bound = 10**40 if i % 5 == 0 else 9
            coords = [[rng.randint(-bound, bound) for _ in m.factors[n]] for n in (2, 4, 6)]
            torsion += any(not 0 <= x < d for n, u in zip((2, 4, 6), coords) for x, d in zip(u, m.factors[n]) if d)
            u = data.chern_tuple(*coords, [0] * len(m.factors[8]))
            lhs, rhs = data.condition1(*map(tuple, coords))
            expected = paper_condition_1(data, u)
            assert Condition1(lhs == rhs, CohomologyClass(6, "Z2", lhs), CohomologyClass(6, "Z2", rhs)) == expected
    assert kept >= 100 and unvalidated >= 30 and torsion >= 50, (kept, unvalidated, torsion)


def test_check_rank4_makes_no_compiled_cup_or_apply(monkeypatch):
    # a question reads condition (1) off the compiled mod-2 form and (2) and (3) off the compiled
    # congruences, both built with the data: no cup and no operation matrix per question
    manifolds = [data for data in (FIXTURES[name]() for name in sorted(FIXTURES)) if data.report.ok]

    def refused(*args):
        raise AssertionError("a compiled cup or apply per question")

    monkeypatch.setattr(CompiledManifold, "cup", refused)
    monkeypatch.setattr(CompiledManifold, "apply", refused)
    passed = 0
    for data in manifolds:
        for u in islice(seeded_tuples(data, 1_2003_06903), 60):
            passed += check_rank4(data, u).condition1.passed
            check_rank3(data, u.u1, u.u2, u.u3)
    assert len(manifolds) == 9 and passed >= 100


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_conditions_2_3_match_paper_formulas(name):
    data = builtin(name)
    checked = 0
    for u in seeded_tuples(data, 2002_06901):
        verdict = check_rank4(data, u)
        if verdict.condition1.passed:
            assert (verdict.condition2, verdict.condition3) == paper_conditions_2_3(data, u)
            checked += 1
    assert checked >= 30


@pytest.mark.parametrize("bound, rank", [(3, 4), (4, 3)])
def test_census_generic_column_matches_generic_operations(cp4, bound, rank):
    rows = enumerate_cp4(bound, rank).rows
    assert len(rows) == (2 * bound + 1) ** rank
    for row in rows:
        u = cp4_tuple(cp4, *row.coefficients, *(0,) * (4 - rank))
        assert row.generic == paper_realizable(cp4, u), row.coefficients


@pytest.mark.parametrize(
    "field, message",
    [
        ("cup_z", "missing cup product table for degrees (2, 4)"),
        ("sq2", "missing sq2 matrix at degree 4"),
        ("rho2", "missing rho2 matrix at degree 4"),
    ],
)
def test_missing_operations_raise_on_every_path(cp4, field, message):
    # every query decides validated data only, so the law tables_complete refuses the data before
    # condition (1) would raise for the missing table; rr, which needs no mod-2 operation, too
    stripped = cp4._replace(**{field: {}})
    u = cp4_tuple(stripped, 1, 1, 1, 0)
    for query in (check_rank4, rr_value, lambda data, u: enumerate_cp4(1, 4, data)):
        with pytest.raises(ManifoldValidationError, match="tables_complete"):
            query(stripped, u)
    assert stripped.report.law("tables_complete").witness.startswith("missing ")
    with pytest.raises(MissingOperationError, match=re.escape(message)):  # condition (1), not gated
        stripped.condition1((1,), (1,), (1,))
    with pytest.raises(ValueError, match="^expected 1 coordinates, got 2$"):  # lengths come first
        stripped.condition1((1,), (1,), (1, 0))


def test_malformed_coordinates_are_rejected(cp4):
    # a ChernTuple built from classes directly, with two coordinates in H^4 = Z
    u = ChernTuple(cp4.zclass(2, (1,)), CohomologyClass(4, "Z", (1, 0)), cp4.zero(6), cp4.zero(8))
    for evaluate in (check_rank4, rr_value):
        with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
            evaluate(cp4, u)


def test_replaced_manifold_is_compiled_afresh(cp4):
    u = cp4_tuple(cp4, 0, 1, 0, 1)
    assert check_rank4(cp4, u).realizable
    # p1 + 12 t^2 moves the right-hand side of (3) by 3*a2 = 3, which is odd,
    # and that of (2) by 12*a2, a multiple of 3
    shifted = cp4._replace(p1=cp4.zclass(4, (17,)))
    verdict = check_rank4(shifted, u)
    assert not verdict.realizable
    assert (verdict.condition2, verdict.condition3) == paper_conditions_2_3(shifted, u)
    with pytest.raises(ManifoldValidationError, match="rhs3_integral"):
        check_rank4(cp4._replace(p1=cp4.zclass(4, (2,))), cp4_tuple(cp4, 0, 1, 0, 0))
    assert check_rank4(cp4, u).realizable


def test_internal_inconsistency_raises(cp4):
    # p1 = 2 t^2 breaks the integrality of the condition-(3) expression
    # for (0, t^2, 0, 0) although condition (1) holds: the law rhs3_integral
    # refuses the data, whatever the tuple, and names that one
    corrupted = cp4._replace(p1=cp4.zclass(4, (2,)))
    for u in (cp4_tuple(corrupted, 0, 1, 0, 0), cp4_tuple(corrupted, 0, 0, 0, 0)):
        with pytest.raises(ManifoldValidationError, match="manifold data failed validation: rhs3_integral$"):
            check_rank4(corrupted, u)
    witness = "(1) holds at --chern 0 1 0 but 4*rhs(3) = -71"
    assert corrupted.report.failures() == (LawResult("rhs3_integral", False, witness),)


def test_compute_B_examples(cp4, hp2, torsion_demo):
    assert compute_B(cp4).is_trivial
    assert compute_B(hp2).is_trivial
    assert compute_B(torsion_demo) == FGAbelianGroup((2,))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compute_B_is_all_two_torsion(name):
    group = compute_B(builtin(name))
    assert all(d == 2 for d in group.invariant_factors)


def test_compute_T_trivial_when_h7_vanishes(cp4, s8):
    zero = (cp4.zero(2), cp4.zero(4), cp4.zero(6))
    assert compute_T(cp4, *zero).is_trivial
    assert compute_T(s8, s8.zero(2), s8.zero(4), s8.zero(6)).is_trivial


def test_compute_T_on_synthetic_h7(h7_demo):
    # one quadruple (0, 0, 0, 2w): the quotient Z/<2w> is Z/2 whatever u is
    u1, u2, u3 = h7_demo.zero(2), h7_demo.zero(4), h7_demo.zero(6)
    assert compute_T(h7_demo, u1, u2, u3) == FGAbelianGroup((2,))


def test_compute_T_depends_on_chern_classes():
    # H^2 = Z<x>, H^5 = Z<y>, H^7 = Z<w> with x*y = w and one odd
    # quadruple (0, 0, y, 2w): the denominator generator is 2w + u1*y,
    # so u1 = k*x gives the quotient Z/(k+2)
    from bundlecensus.abelian import IntMatrix
    from bundlecensus.cohomology import CohomologyClass, ManifoldData
    from conftest import graded_pair

    integral, mod2 = graded_pair(
        {
            0: ((0,), ("1",)),
            2: ((0,), ("x",)),
            5: ((0,), ("y",)),
            7: ((0,), ("w",)),
            8: ((0,), ("v",)),
        },
        {0: ("1",), 2: ("x",), 5: ("y",), 7: ("w",), 8: ("v",)},
    )
    data = ManifoldData(
        name="odd-demo",
        integral=integral,
        mod2=mod2,
        cup_z={(2, 5): {(0, 0): (1,)}},
        rho2={n: IntMatrix.identity(1) for n in (0, 2, 5, 7, 8)},
        beta={7: IntMatrix.zeros(1, 1)},  # strict validation needs it: H^7(Z/2) -> H^8 = Z
        sq2={},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", ()),
        spinc_class=CohomologyClass(2, "Z", (0,)),
        odd_generators=(
            (
                CohomologyClass(1, "Z", ()),
                CohomologyClass(3, "Z", ()),
                CohomologyClass(5, "Z", (1,)),
                CohomologyClass(7, "Z", (2,)),
            ),
        ),
    )
    from bundlecensus.cohomology import validate_manifold

    assert validate_manifold(data, strict=True).ok
    u2, u3 = data.zero(4), data.zero(6)
    for k, expected in ((0, FGAbelianGroup((2,))), (1, FGAbelianGroup((3,))),
                        (-2, FGAbelianGroup((0,))), (-1, FGAbelianGroup(())),
                        (4, FGAbelianGroup((6,)))):
        t = compute_T(data, data.zclass(2, (k,)), u2, u3)
        assert t == expected, (k, t)


def test_compute_T_requires_odd_generators(cp4):
    stripped = cp4._replace(odd_generators=None)
    with pytest.raises(OddGeneratorsMissing, match="odd unitary generators"):
        compute_T(stripped, cp4.zero(2), cp4.zero(4), cp4.zero(6))


def test_count_classes(cp4, torsion_demo, h7_demo):
    assert count_classes(cp4, cp4_tuple(cp4, 4, 6, 4, 1), 4) == FGAbelianGroup(())
    assert count_classes(cp4, cp4_tuple(cp4, 0, 0, 0, 1), 4) is None
    trivial = torsion_demo.chern_tuple((), (), (0,), (0,))
    assert count_classes(torsion_demo, trivial, 4) == FGAbelianGroup((2,))
    triple = (h7_demo.zero(2), h7_demo.zero(4), h7_demo.zero(6))
    assert count_classes(h7_demo, triple, 3) == FGAbelianGroup((2,))
    with pytest.raises(ValueError, match="rank"):
        count_classes(cp4, cp4_tuple(cp4, 0, 0, 0, 0), 2)


def test_count_classes_reads_the_report_before_a_nonzero_c4(cp4):
    # on data that fails a law every decision raises, at rank 3 as well when c4 is not 0; the
    # coordinates are checked first, as check_rank4 checks them
    bad = FIXTURES["cp4-p1-2"]()
    assert not bad.report.ok
    for rank, a4 in product((3, 4), (0, 1)):
        with pytest.raises(ManifoldValidationError):
            count_classes(bad, cp4_tuple(bad, 0, 1, 0, a4), rank)
    malformed = ChernTuple(bad.zero(2), bad.zero(4), bad.zero(6), CohomologyClass(8, "Z", (1, 0)))
    for rank in (3, 4):
        with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
            count_classes(bad, malformed, rank)
    # on validated data a nonzero c4 has no rank-3 bundle, at a tuple realizable with c4 = 0
    assert count_classes(cp4, cp4_tuple(cp4, 0, 2, 2, 1), 3) is None
    assert count_classes(cp4, cp4_tuple(cp4, 0, 2, 2, 0), 3) == FGAbelianGroup(())


def test_count_classes_rank3_takes_a_chern_tuple_or_three_classes(cp4):
    # (1, 0, 0) is realizable in rank 3; with c4 = 5 as a ChernTuple it has no rank-3 bundle,
    # and as four plain classes it is refused rather than cut to three
    u = cp4_tuple(cp4, 1, 0, 0, 5)
    assert count_classes(cp4, u, 3) is None
    assert count_classes(cp4, u.classes()[:3], 3) == count_classes(cp4, u._replace(u4=cp4.zero(8)), 3) == FGAbelianGroup(())
    for classes in (tuple(u), list(u), u.classes()[:2], ()):
        with pytest.raises(ValueError, match=f"^rank 3 expects a ChernTuple or three classes, got {len(classes)}$"):
            count_classes(cp4, classes, 3)
    with pytest.raises(ValueError, match="^rank 4 expects a ChernTuple$"):
        count_classes(cp4, tuple(u), 4)


def torsion_demo_with_h3(torsion_demo):
    """torsion-demo with H^3 = Z on y, rho2 y = y and Sq^2 y = x5, which kills B."""
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 3: ((0,), ("y",)), 6: ((2,), ("s",)), 8: ((0,), ("v",))},
        {0: ("1",), 3: ("y",), 5: ("x5",), 6: ("x6",), 8: ("v",)},
    )
    rho2 = {**torsion_demo.rho2, 3: IntMatrix.identity(1)}
    return torsion_demo._replace(integral=integral, mod2=mod2, rho2=rho2, sq2={3: IntMatrix.identity(1)})


def test_B_is_computed_afresh_for_replaced_operations(torsion_demo):
    # B = beta(H^5) / beta Sq^2 rho2(H^3), cached per instance: a class y in
    # H^3 with Sq^2 rho2 y = x5 kills B = Z/2, a zero Sq^2 or beta restores it
    zero = torsion_demo.chern_tuple((), (), (0,), (0,))
    assert count_classes(torsion_demo, zero, 4) == FGAbelianGroup((2,))
    assert count_classes(torsion_demo, zero, 3) == FGAbelianGroup((2,))
    killed_beta = torsion_demo._replace(beta={5: IntMatrix.zeros(1, 1)})
    assert count_classes(killed_beta, zero, 4) == FGAbelianGroup(())
    with_h3 = torsion_demo_with_h3(torsion_demo)
    assert count_classes(with_h3, zero, 4) == FGAbelianGroup(())
    assert count_classes(with_h3._replace(sq2={3: IntMatrix.zeros(1, 1)}), zero, 4) == FGAbelianGroup((2,))
    assert count_classes(with_h3, zero, 3) == FGAbelianGroup(())
    assert count_classes(torsion_demo, zero, 4) == torsion_demo.B == compute_B(torsion_demo)


def test_count_classes_rank3_uses_padded_tuple(cp4):
    triple = (cp4.zclass(2, (0,)), cp4.zclass(4, (2,)), cp4.zclass(6, (2,)))
    assert count_classes(cp4, triple, 3) == FGAbelianGroup(())
    bad = (cp4.zclass(2, (0,)), cp4.zclass(4, (1,)), cp4.zclass(6, (0,)))
    assert count_classes(cp4, bad, 3) is None


def test_count_classes_rank3_needs_u4_zero(cp4):
    # a rank-3 bundle has c4 = 0: a ChernTuple with u4 != 0 has no rank-3 bundle
    nonzero_u4 = cp4_tuple(cp4, 0, 0, 0, 5)
    assert not check_rank4(cp4, nonzero_u4).realizable
    assert count_classes(cp4, nonzero_u4, 3) is None
    zero_u4 = cp4_tuple(cp4, 0, 2, 2, 0)
    assert count_classes(cp4, zero_u4, 3) == count_classes(cp4, zero_u4[:3], 3) == FGAbelianGroup(())
    long_u4 = ChernTuple(*zero_u4[:3], CohomologyClass(8, "Z", (0, 0)))
    for rank in (4, 3):
        with pytest.raises(ValueError, match=re.escape("expected 1 coordinates, got 2")):
            count_classes(cp4, long_u4, rank)


def test_compute_B_builds_no_classes(monkeypatch, torsion_demo, h7_demo):
    manifolds = [builtin(name) for name in BUILTIN_NAMES] + [h7_demo, torsion_demo_with_h3(torsion_demo)]
    made = []
    post_init = CohomologyClass.__post_init__
    monkeypatch.setattr(CohomologyClass, "__post_init__", lambda self: made.append(self) or post_init(self))
    groups = [compute_B(data) for data in manifolds]
    assert made == []
    assert groups[BUILTIN_NAMES.index("torsion-demo")] == FGAbelianGroup((2,))


def test_compute_B_raises_for_the_first_matrix_it_applies(torsion_demo, h7_demo):
    # beta at 5 per generator of H^5 mod 2, then rho2 at 3, Sq^2 at 3 and beta
    # at 5 per generator of H^3: a matrix is looked up only where it is applied
    with_h3 = torsion_demo_with_h3(torsion_demo)
    wide = IntMatrix.zeros(2, 3)

    def missing(op, degree):
        return MissingOperationError, f"missing {op} matrix at degree {degree}"

    def check(data, dropped, expected):
        for op, degree in dropped:
            data = data._replace(**{op: {k: v for k, v in getattr(data, op).items() if k != degree}})
        if isinstance(expected, FGAbelianGroup):
            assert compute_B(data) == expected
        else:
            with pytest.raises(Exception) as info:
                compute_B(data)
            assert (type(info.value), str(info.value)) == expected

    for op, degree in (("beta", 5), ("rho2", 3), ("sq2", 3)):
        dropped = [(op, degree)]
        check(torsion_demo, dropped, missing(op, degree) if op == "beta" else FGAbelianGroup((2,)))
        check(with_h3, dropped, missing(op, degree))
        check(h7_demo, dropped, FGAbelianGroup(()))
        # a misshapen matrix is refused where it is put in, whether B applies it or not
        for data in (torsion_demo, with_h3, h7_demo):
            with pytest.raises(ManifoldShapeError, match=rf"^{op} at degree {degree}: expected a \dx\d matrix, got 2x3$"):
                data._replace(**{op: {**getattr(data, op), degree: wide}})
    check(with_h3, [("beta", 5), ("rho2", 3), ("sq2", 3)], missing("beta", 5))
    check(with_h3, [("rho2", 3), ("sq2", 3)], missing("rho2", 3))


def test_misshapen_cup_entries_raise_the_shape_message(cp4):
    # data whose cup entry has the wrong length or an out of range generator
    # pair cannot be built: the _replace raises the shape message, so no
    # query reads a short entry, and every query on what builds answers
    rng = random.Random(5)
    raised = answered = 0
    for _ in range(300):
        bad = misshape(cp4, rng)
        problems = [message for _, message in shape_problems(bad)]
        if problems:
            with pytest.raises(ManifoldShapeError) as info:
                bad._replace()
            assert str(info.value) == problems[0]
            raised += 1
            continue
        data = bad._replace()
        u = cp4_tuple(data, 4, 6, 4, 1)
        check_rank4(data, u), count_classes(data, u, 4), rr_value(data, u, self_check=True)
        answered += 1
    assert raised > 100 and answered > 10
    message = "cup table (2, 4) pair (0, 0): expected 1 coordinates, got 2"
    with pytest.raises(ManifoldShapeError, match=re.escape(message)):
        cp4._replace(cup_z={**cp4.cup_z, (2, 4): {(0, 0): (1, 1)}})
    with pytest.raises(ManifoldShapeError, match=re.escape("p1: expected 1 coordinates in degree 4, got 0")):
        cp4._replace(p1=CohomologyClass(4, "Z", ()))


def test_spinc_class_shift_leaves_decision_unchanged(cp4):
    rng = random.Random(11)
    for _ in range(25):
        coeffs = [rng.randint(-6, 6) for _ in range(4)]
        u = cp4_tuple(cp4, *coeffs)
        base = check_rank4(cp4, u)
        d = rng.randint(-4, 4)
        shifted_data = cp4._replace(
            spinc_class=cp4.zclass(2, (cp4.spinc_class.coords[0] + 2 * d,))
        )
        shifted = check_rank4(shifted_data, u)
        assert base.decision_fields() == shifted.decision_fields()


def test_realizable_set_closed_under_products_small(cp4):
    realizable = [
        coeffs
        for coeffs in product(range(-2, 3), repeat=4)
        if check_rank4(cp4, cp4_tuple(cp4, *coeffs)).realizable
    ]
    rng = random.Random(12)
    pairs = [(rng.choice(realizable), rng.choice(realizable)) for _ in range(60)]
    for a, b in pairs:
        u = chern_product(cp4_tuple(cp4, *a), cp4_tuple(cp4, *b), cp4)
        assert check_rank4(cp4, u).realizable
    for a in realizable:
        v = chern_inverse(cp4_tuple(cp4, *a), cp4)
        assert check_rank4(cp4, v).realizable


def test_oracle_congruence_reconstruction(cp4):
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        coeffs = [rng.randint(-6, 6) for _ in range(4)]
        u = cp4_tuple(cp4, *coeffs)
        verdict = check_rank4(cp4, u)
        if verdict.condition2 is None:
            continue
        checked += 1
        mod3_ok, mod2_ok = oracle_congruences(rr_value(cp4, u))
        assert mod3_ok == verdict.condition2.passed
        assert mod2_ok == verdict.condition3.passed


def test_oracle_congruences_rejects_bad_denominator():
    with pytest.raises(ValueError):
        oracle_congruences(Fraction(1, 5))


def test_cp4_residue_structure(cp4):
    # with a1*a2 = a3 mod 2 exactly one residue of a4 mod 6 is realizable,
    # otherwise none
    for a1, a2, a3 in product(range(-2, 3), repeat=3):
        residues = {
            a4 % 6
            for a4 in range(-6, 7)
            if check_rank4(cp4, cp4_tuple(cp4, a1, a2, a3, a4)).realizable
        }
        if (a1 * a2 - a3) % 2 == 0:
            assert len(residues) == 1
        else:
            assert not residues


def test_closed_form_congruences_match_checker_spot(cp4):
    rng = random.Random(14)
    for _ in range(200):
        coeffs = tuple(rng.randint(-8, 8) for _ in range(4))
        generic = check_rank4(cp4, cp4_tuple(cp4, *coeffs)).realizable
        assert generic == cp4_rank4_admissible(*coeffs)
    for _ in range(100):
        a1, a2, a3 = (rng.randint(-8, 8) for _ in range(3))
        generic = check_rank3(
            cp4, cp4.zclass(2, (a1,)), cp4.zclass(4, (a2,)), cp4.zclass(6, (a3,))
        ).realizable
        assert generic == cp4_rank3_admissible(a1, a2, a3)


def query_answers(data, seed):
    """The answers of every single-tuple query at 60 seeded tuples, one in six with coordinates up
    to 10^40 and the rest in [-6, 6]: reprs of the rank-4 and rank-3 decisions, the counts at both
    ranks and the self-checked rr value, or of the error each raises."""
    rng = random.Random(seed)
    for i in range(60):
        bound = 10**40 if i % 6 == 0 else 6
        u = data.chern_tuple(
            *[[rng.randint(-bound, bound) for _ in range(data.ngens(d))] for d in (2, 4, 6, 8)]
        )
        for query in (
            lambda: check_rank4(data, u).decision_fields(),
            lambda: check_rank3(data, u.u1, u.u2, u.u3).decision_fields(),
            lambda: count_classes(data, u, 4),
            lambda: count_classes(data, u.classes()[:3], 3),
            lambda: count_classes(data, u, 3),
            lambda: rr_value(data, u, self_check=True),
        ):
            try:
                yield repr(query())
            except (ValueError, LookupError) as exc:
                yield repr((type(exc).__name__, str(exc)))


# sha256 of the lines of query_answers(data, 34), recorded before the query path was made leaner;
# any refactor must keep them
QUERY_SHA256 = {
    "cp1xcp3": "aa8b65a494832cda73551615a664ede177765e68c5c02eb520eb2d2d93ff6c9d",
    "cp2xcp2": "856a98b96240068590e8a51e46a43f14b73f34499745f5007400958dea6c5765",
    "cp4": "8d80027643cd337e863d9f2c93796a6d3d6b1125d028f0af03d81a0477194650",
    "cp4-h6-torsion": "10c879b5bf05a80198fd3cbed164bd9ccede4820ffa6bc32b7d4b0b8fff5482c",
    "cp4-h6-torsion-ts1": "cc31fe6b5cbad3098248155b4f013f00848f0cfd78078567345b8afe5309d1fb",
    "h7-demo": "fa8757c03250d59095365c402830a31331b6becc0e27bc0b7eec87c59fd6b24d",
    "hp2": "15ebbe01fd4cd6b1201e591b524957a12682bb198ae8d9c612c22fda85763f55",
    "s8": "3be97dfa2906f031430112519daa5b52a132bb741b0ec4ea64a3c10801c488c1",
    "torsion-demo": "7ccfabc90644467ed1d051c83c80cf89b228079afe384c7f335c4d221c892b7d",
}
QUERY_FIXTURES = {
    **{name: lambda name=name: builtin(name) for name in BUILTIN_NAMES},
    "h7-demo": make_h7_demo,
    "cp4-h6-torsion": make_cp4_with_h6_torsion,
    "cp4-h6-torsion-ts1": lambda: make_cp4_with_h6_torsion(ts=1),
}


@pytest.mark.parametrize("name", sorted(QUERY_FIXTURES))
def test_single_tuple_answers_are_pinned(name):
    lines = "\n".join(query_answers(QUERY_FIXTURES[name](), 34)).encode()
    assert hashlib.sha256(lines).hexdigest() == QUERY_SHA256[name]
