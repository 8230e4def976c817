"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line; run

    pytest tests/test_acceptance.py -rA

to see all ten lines together with the timing of the exhaustive sweeps.
"""

import itertools
import random
import time

import pytest

from bundlecensus.abelian import FGAbelianGroup, IntMatrix, subgroup_quotient
from bundlecensus.census import cp4_rank3_admissible, cp4_rank4_admissible
from bundlecensus.charclass import chern_inverse, chern_product, rr_value
from bundlecensus.classify import (
    check_rank3,
    check_rank4,
    compute_B,
    compute_T,
    count_classes,
    oracle_congruences,
)
from bundlecensus.cohomology import GradedGroupZ, ManifoldShapeError, validate_manifold
from bundlecensus.fixtures import BUILTIN_NAMES, builtin

from test_abelian import snf_postconditions, subgroup_elements

BOUND = 6


def report(number, description, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}{detail}")
    assert not failures, (
        f"criterion {number} failed on {len(failures)} case(s), first: {failures[:5]}"
    )


@pytest.fixture(scope="module")
def rank4_sweep(cp4):
    start = time.perf_counter()
    sweep = {}
    for coeffs in itertools.product(range(-BOUND, BOUND + 1), repeat=4):
        u = cp4.chern_tuple(*((c,) for c in coeffs))
        sweep[coeffs] = check_rank4(cp4, u)
    return sweep, time.perf_counter() - start


@pytest.fixture(scope="module")
def rank3_sweep(cp4):
    start = time.perf_counter()
    sweep = {}
    for a1, a2, a3 in itertools.product(range(-BOUND, BOUND + 1), repeat=3):
        sweep[(a1, a2, a3)] = check_rank3(
            cp4, cp4.zclass(2, (a1,)), cp4.zclass(4, (a2,)), cp4.zclass(6, (a3,))
        )
    return sweep, time.perf_counter() - start


def test_01_rank4_checker_matches_closed_form(rank4_sweep):
    sweep, elapsed = rank4_sweep
    failures = [
        coeffs
        for coeffs, verdict in sweep.items()
        if verdict.realizable != cp4_rank4_admissible(*coeffs)
    ]
    report(
        1,
        f"rank-4 checker agrees with the closed-form congruences on all "
        f"{len(sweep)} cp4 tuples with |a_i| <= {BOUND}",
        failures,
        detail=f" [{elapsed:.1f}s]",
    )


def test_02_rank3_checker_matches_closed_form(rank3_sweep):
    sweep, elapsed = rank3_sweep
    failures = [
        coeffs
        for coeffs, verdict in sweep.items()
        if verdict.realizable != cp4_rank3_admissible(*coeffs)
    ]
    report(
        2,
        f"rank-3 checker agrees with the closed-form congruences on all "
        f"{len(sweep)} cp4 triples with |a_i| <= {BOUND}",
        failures,
        detail=f" [{elapsed:.1f}s]",
    )


def test_03_chern_classes_classify_over_cp4(cp4, rank4_sweep, rank3_sweep):
    failures = []
    for coeffs, verdict in rank4_sweep[0].items():
        if verdict.realizable:
            group = count_classes(cp4, cp4.chern_tuple(*((c,) for c in coeffs)), 4)
            if group != FGAbelianGroup(()):
                failures.append((4, coeffs, group))
    for (a1, a2, a3), verdict in rank3_sweep[0].items():
        if verdict.realizable:
            triple = (cp4.zclass(2, (a1,)), cp4.zclass(4, (a2,)), cp4.zclass(6, (a3,)))
            group = count_classes(cp4, triple, 3)
            if group != FGAbelianGroup(()):
                failures.append((3, (a1, a2, a3), group))
    report(
        3,
        "count_classes is the trivial group (exactly one class) for every "
        "realizable cp4 tuple in both ranks",
        failures,
    )


def test_04_s8_divisibility_by_six(s8):
    failures = []
    for k in range(-24, 25):
        verdict = check_rank4(s8, s8.chern_tuple((), (), (), (k,)))
        if verdict.realizable != (k % 6 == 0):
            failures.append(k)
    report(
        4,
        "(0,0,0,u4) on s8 is realizable exactly when <u4,[S^8]> is divisible "
        "by 6, exhaustively for |u4| <= 24",
        failures,
    )


def test_05_riemann_roch_oracle_consistency(cp4, rank4_sweep, rank3_sweep):
    # For every tuple passing condition (1): the exact condition-(3)
    # expression is an integer, six times the oracle value is an integer,
    # the congruence outcomes reconstructed from the oracle match the
    # verdict, and the oracle value is an integer exactly for the
    # realizable tuples (in particular on every realizable tuple).
    failures = []

    def check(label, coeffs4, verdict):
        if verdict.condition2 is None:
            return
        value = rr_value(cp4, cp4.chern_tuple(*((c,) for c in coeffs4)))
        if verdict.condition3.rhs_exact.denominator != 1:
            failures.append((label, coeffs4, "condition-(3) expression not integral"))
        if (6 * value).denominator != 1:
            failures.append((label, coeffs4, f"6*{value} not integral"))
        mod3_ok, mod2_ok = oracle_congruences(value)
        if mod3_ok != verdict.condition2.passed or mod2_ok != verdict.condition3.passed:
            failures.append((label, coeffs4, "reconstructed congruences disagree"))
        if (value.denominator == 1) != verdict.realizable:
            failures.append((label, coeffs4, f"integrality of {value} vs realizability"))

    for coeffs, verdict in rank4_sweep[0].items():
        check("rank4", coeffs, verdict)
    for coeffs, verdict in rank3_sweep[0].items():
        check("rank3", coeffs + (0,), verdict)
    report(
        5,
        "Riemann-Roch oracle: under condition (1) the mod-2 expression is "
        "integral and the oracle residues reproduce conditions (2) and (3); "
        "the value is an integer exactly on realizable tuples",
        failures,
    )


def test_06_decision_independent_of_spinc_class():
    rng = random.Random(20250810)
    failures = []
    for name in ("cp4", "cp2xcp2", "cp1xcp3"):
        data = builtin(name)
        for _ in range(100):
            u = data.chern_tuple(
                *[
                    [rng.randint(-9, 9) for _ in range(data.ngens(d))]
                    for d in (2, 4, 6, 8)
                ]
            )
            base = check_rank4(data, u).decision_fields()
            for _ in range(5):
                d = [rng.randint(-4, 4) for _ in range(data.ngens(2))]
                shifted_c = data.zclass(
                    2, [c + 2 * x for c, x in zip(data.spinc_class.coords, d)]
                )
                shifted = check_rank4(data._replace(spinc_class=shifted_c), u)
                if shifted.decision_fields() != base:
                    failures.append((name, u, tuple(d)))
    report(
        6,
        "verdicts on cp4, cp2xcp2, cp1xcp3 are unchanged when the spin^c "
        "class c is replaced by c + 2d (100 tuples x 5 shifts each)",
        failures,
    )


def test_07_realizable_set_closed_under_products(cp4, rank4_sweep):
    realizable = [
        coeffs
        for coeffs, verdict in rank4_sweep[0].items()
        if verdict.realizable and all(abs(c) <= 3 for c in coeffs)
    ]
    tuples = {coeffs: cp4.chern_tuple(*((c,) for c in coeffs)) for coeffs in realizable}
    failures = []
    for a in realizable:
        if not check_rank4(cp4, chern_inverse(tuples[a], cp4)).realizable:
            failures.append(("inverse", a))
    for a in realizable:
        ua = tuples[a]
        for b in realizable:
            product = chern_product(ua, tuples[b], cp4)
            if not check_rank4(cp4, product).realizable:
                failures.append(("product", a, b))
    report(
        7,
        f"the {len(realizable)} realizable cp4 tuples with |a_i| <= 3 are "
        "closed under Whitney products and stable inverses",
        failures,
    )


def test_08_counting_group_structure(cp4, hp2, torsion_demo, h7_demo):
    failures = []
    if not compute_B(cp4).is_trivial:
        failures.append("B(cp4) not trivial")
    if not compute_B(hp2).is_trivial:
        failures.append("B(hp2) not trivial")
    if compute_B(torsion_demo) != FGAbelianGroup((2,)):
        failures.append("B(torsion-demo) is not Z/2")
    group = count_classes(torsion_demo, torsion_demo.chern_tuple((), (), (0,), (0,)), 4)
    if group is None or group.order() != 2:
        failures.append("count_classes(torsion-demo) does not have 2 elements")
    for name in BUILTIN_NAMES:
        data = builtin(name)
        if data.ngens(7) == 0:
            t = compute_T(data, data.zero(2), data.zero(4), data.zero(6))
            if not t.is_trivial:
                failures.append(f"T({name}) not trivial")
    t = compute_T(h7_demo, h7_demo.zero(2), h7_demo.zero(4), h7_demo.zero(6))
    if t != FGAbelianGroup((2,)):
        failures.append("T of the synthetic H^7 = Z fixture is not Z/2")
    report(
        8,
        "counting groups: B trivial on cp4 and hp2, Z/2 with 2 classes on "
        "torsion-demo, T trivial whenever H^7 = 0 and Z/2 on the synthetic "
        "H^7 = Z fixture",
        failures,
    )


def test_09_integer_linear_algebra_substrate():
    rng = random.Random(99)
    failures = []
    from bundlecensus.abelian import smith_normal_form

    for i in range(1000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        A = IntMatrix(
            rows, cols, tuple(rng.randint(-20, 20) for _ in range(rows * cols))
        )
        try:
            snf_postconditions(A, *smith_normal_form(A))
        except AssertionError as exc:
            failures.append((i, A, str(exc)))

    factor_pool = [2, 2, 3, 4, 4, 5, 6, 8, 9, 12, 16]
    for i in range(200):
        factors, size = [], 1
        for _ in range(rng.randint(1, 3)):
            d = rng.choice(factor_pool)
            if size * d <= 64:
                factors.append(d)
                size *= d
        ambient = FGAbelianGroup.canonical(factors)
        k = ambient.num_generators
        n_gens = [
            ambient.element([rng.randint(-5, 5) for _ in range(k)])
            for _ in range(rng.randint(0, 3))
        ]
        d_gens = []
        for _ in range(rng.randint(0, 2)):
            coeffs = [rng.randint(-2, 2) for _ in n_gens]
            d_gens.append(
                ambient.element(
                    [
                        sum(c * g.coords[idx] for c, g in zip(coeffs, n_gens))
                        for idx in range(k)
                    ]
                )
            )
        quotient = subgroup_quotient(ambient, n_gens, d_gens)
        expected = len(subgroup_elements(ambient, n_gens)) // len(
            subgroup_elements(ambient, d_gens)
        )
        if quotient.order() != expected:
            failures.append((i, ambient, "order mismatch"))
    report(
        9,
        "Smith normal form postconditions on 1000 random matrices up to 6x6 "
        "and subgroup_quotient orders against coset enumeration on groups of "
        "order <= 64",
        failures,
    )


def test_10_validation_laws(cp4, torsion_demo):
    failures = []
    for name in BUILTIN_NAMES:
        report_ = validate_manifold(builtin(name), strict=True)
        if not report_.ok:
            failures.append((name, [r.name for r in report_.failures()]))

    wrong_c = validate_manifold(cp4._replace(spinc_class=cp4.zclass(2, (4,))))
    if wrong_c.law("spinc_reduction").passed:
        failures.append("wrong spin^c class not caught")

    groups = list(torsion_demo.integral.groups)
    groups[6] = FGAbelianGroup((0,))
    free_h6 = torsion_demo._replace(
        integral=GradedGroupZ(tuple(groups), torsion_demo.integral.names),
    )
    bad_beta = validate_manifold(free_h6)
    if bad_beta.law("beta_torsion").passed:
        failures.append("non-torsion Bockstein not caught")

    try:
        cp4._replace(rho2={**cp4.rho2, 2: IntMatrix(1, 3, (1, 0, 0))})
    except ManifoldShapeError as exc:
        if "rho2 at degree 2" not in str(exc):
            failures.append("dimension mismatch not named correctly")
    else:
        failures.append("dimension mismatch not caught")

    report(
        10,
        "all shipped fixtures pass strict validation; seeded corruptions "
        "(wrong spin^c class, non-torsion Bockstein, dimension mismatch) are "
        "caught with the right diagnostics",
        failures,
    )
