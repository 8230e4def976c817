import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from bundlecensus.abelian import FGAbelianGroup
from bundlecensus.census import cp4_rank3_admissible, cp4_rank4_admissible
from bundlecensus.charclass import chern_inverse, chern_product, rr_value
from bundlecensus.classify import (
    Condition2,
    Condition3,
    InternalInconsistencyError,
    OddGeneratorsMissing,
    check_rank3,
    check_rank4,
    compute_B,
    compute_T,
    count_classes,
    oracle_congruences,
)
from bundlecensus.cohomology import cup, pair_top
from bundlecensus.fixtures import BUILTIN_NAMES, builtin


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
    add, neg = data.add, data.negate
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


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_conditions_2_3_match_paper_formulas(name):
    data = builtin(name)
    rng = random.Random(2002_06901)
    checked = 0
    for i in range(300):
        bound = 10**40 if i % 10 == 0 else 9
        u = data.chern_tuple(
            *[[rng.randint(-bound, bound) for _ in range(data.ngens(d))] for d in (2, 4, 6, 8)]
        )
        verdict = check_rank4(data, u)
        if verdict.condition1.passed:
            assert (verdict.condition2, verdict.condition3) == paper_conditions_2_3(data, u)
            checked += 1
    assert checked >= 30


def test_internal_inconsistency_raises(cp4):
    # p1 = 2 t^2 breaks the integrality of the condition-(3) expression
    # for (0, t^2, 0, 0) although condition (1) holds
    corrupted = replace(cp4, p1=cp4.zclass(4, (2,)))
    with pytest.raises(InternalInconsistencyError, match="not an integer"):
        check_rank4(corrupted, cp4_tuple(corrupted, 0, 1, 0, 0))


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
        beta={},
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
    stripped = replace(cp4, odd_generators=None)
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


def test_count_classes_rank3_uses_padded_tuple(cp4):
    triple = (cp4.zclass(2, (0,)), cp4.zclass(4, (2,)), cp4.zclass(6, (2,)))
    assert count_classes(cp4, triple, 3) == FGAbelianGroup(())
    bad = (cp4.zclass(2, (0,)), cp4.zclass(4, (1,)), cp4.zclass(6, (0,)))
    assert count_classes(cp4, bad, 3) is None


def test_spinc_class_shift_leaves_decision_unchanged(cp4):
    rng = random.Random(11)
    for _ in range(25):
        coeffs = [rng.randint(-6, 6) for _ in range(4)]
        u = cp4_tuple(cp4, *coeffs)
        base = check_rank4(cp4, u)
        d = rng.randint(-4, 4)
        shifted_data = replace(
            cp4, spinc_class=cp4.zclass(2, (cp4.spinc_class.coords[0] + 2 * d,))
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
