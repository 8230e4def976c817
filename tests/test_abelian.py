import hashlib
import itertools
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bundlecensus import abelian
from bundlecensus.abelian import (
    ContainmentError,
    FGAbelianGroup,
    GroupElement,
    IntMatrix,
    cokernel_presentation,
    kernel_mod2_rows,
    rank_mod2_rows,
    smith_normal_form,
    subgroup_quotient,
)
from bundlecensus.classify import compute_B, count_classes


def snf_postconditions(A, U, D, V):
    assert (U @ A) @ V == D
    assert abs(U.determinant()) == 1
    assert abs(V.determinant()) == 1
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.at(i, j) == 0
    diag = [d for d in D.diagonal() if d]
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.integers(-20, 20), min_size=r * c, max_size=r * c
        ).map(lambda es: IntMatrix(r, c, tuple(es)))
    )
)


def test_snf_already_diagonal():
    A = IntMatrix(1, 1, (2,))
    U, D, V = smith_normal_form(A)
    assert D == IntMatrix(1, 1, (2,))
    assert U == IntMatrix.identity(1)
    assert V == IntMatrix.identity(1)


def test_snf_empty_matrix():
    A = IntMatrix(0, 0, ())
    U, D, V = smith_normal_form(A)
    assert D.rows == D.cols == 0
    assert U == IntMatrix.identity(0)
    assert V == IntMatrix.identity(0)


def test_snf_golden_2x2():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    U, D, V = smith_normal_form(A)
    assert D == IntMatrix.from_rows([[2, 0], [0, 4]])
    snf_postconditions(A, U, D, V)
    # deterministic pivot rule: repeated runs agree exactly
    assert smith_normal_form(A) == (U, D, V)


def test_snf_degenerate_shapes():
    for A in (IntMatrix(0, 3, ()), IntMatrix(3, 0, ()), IntMatrix.zeros(2, 4)):
        U, D, V = smith_normal_form(A)
        snf_postconditions(A, U, D, V)
        assert D.rows == A.rows and D.cols == A.cols


@given(matrices)
def test_snf_postconditions_random(A):
    U, D, V = smith_normal_form(A)
    snf_postconditions(A, U, D, V)


def test_transform_free_smith_matches_full_form():
    # the core without U and V must reproduce D of the full form bit for
    # bit: one pivot sequence whether or not the transforms are tracked
    rng = random.Random(20261019)

    def entries(r, c, bound):
        return IntMatrix(r, c, tuple(rng.randint(-bound, bound) for _ in range(r * c)))

    cases = [IntMatrix(0, 0, ()), IntMatrix(0, 5, ()), IntMatrix(5, 0, ())]
    for _ in range(200):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        if rng.random() < 0.3:  # rank below min(r, c)
            k = rng.randint(0, min(r, c) - 1)
            cases.append(entries(r, k, 1000) @ entries(k, c, 1000))
        else:
            cases.append(entries(r, c, 10**6))
    # shaped like the relation matrices of cokernels and subgroup quotients
    cases += [entries(16, 16, 1000), entries(12, 28, 1000), entries(28, 6, 1000)]
    for A in cases:
        assert abelian._smith(A, False) == (None, smith_normal_form(A)[1], None)


def test_smith_diagonal_is_the_quotient_of_determinantal_divisors():
    # d_1 * ... * d_k is the gcd of the k x k minors, whatever the elimination
    rng = random.Random(20261020)

    def entries(r, c, bound):
        return IntMatrix(r, c, tuple(rng.randint(-bound, bound) for _ in range(r * c)))

    for _ in range(120):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        bound = rng.choice((1, 4, 30))
        if rng.random() < 0.3:  # rank below min(r, c)
            k = rng.randint(0, min(r, c) - 1)
            A = entries(r, k, bound) @ entries(k, c, bound)
        else:
            A = entries(r, c, bound)
        divisors = [1]
        for k in range(1, min(r, c) + 1):
            minors = (
                IntMatrix.from_rows([[A.at(i, j) for j in cols] for i in rows]).determinant()
                for rows in combinations(range(r), k)
                for cols in combinations(range(c), k)
            )
            divisors.append(math.gcd(*minors))
        expected = tuple(b // a if a else 0 for a, b in zip(divisors, divisors[1:]))
        assert abelian._smith(A, False)[1].diagonal() == expected
        assert smith_normal_form(A)[1].diagonal() == expected


def test_smith_diagonals_are_pinned():
    # presentations-shaped matrices: square, wide, tall and rank-deficient;
    # the digest of their diagonals was taken with the earlier elimination
    rng = random.Random(20261020)

    def entries(r, c, bound):
        return IntMatrix(r, c, tuple(rng.randint(-bound, bound) for _ in range(r * c)))

    cases = [entries(16, 16, 1000), entries(12, 28, 1000), entries(28, 6, 1000)]
    cases.append(entries(14, 7, 9) @ entries(7, 14, 9))
    pinned = "b5bbf4f64b0f308fb53a2511413010617fca765ab46346dfdcc88b69d4d0cb89"
    for smith in (lambda A: abelian._smith(A, False), smith_normal_form):
        digest = hashlib.sha256()
        for A in cases:
            digest.update(repr(smith(A)[1].diagonal()).encode())
        assert digest.hexdigest() == pinned


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix(1, 2, (1, 2)).determinant()


def test_determinant():
    assert IntMatrix.identity(3).determinant() == 1
    assert IntMatrix.from_rows([[2, 4], [6, 8]]).determinant() == -8
    assert IntMatrix.zeros(2, 2).determinant() == 0
    assert IntMatrix(0, 0, ()).determinant() == 1


def test_cokernel_examples():
    assert cokernel_presentation(1, IntMatrix(1, 1, (2,))) == FGAbelianGroup((2,))
    assert cokernel_presentation(2, IntMatrix(2, 0, ())) == FGAbelianGroup((0, 0))
    assert cokernel_presentation(
        2, IntMatrix.from_rows([[2, 4], [6, 8]])
    ) == FGAbelianGroup((2, 4))


def test_cokernel_drops_units():
    assert cokernel_presentation(2, IntMatrix.from_rows([[1, 0], [0, 3]])) == FGAbelianGroup((3,))


def test_cokernel_row_count_mismatch():
    with pytest.raises(ValueError, match="rows"):
        cokernel_presentation(3, IntMatrix.from_rows([[2, 4], [6, 8]]))


@given(matrices, st.data())
def test_cokernel_invariant_under_column_operations(A, data):
    base = cokernel_presentation(A.rows, A)
    if A.cols:
        coeffs = data.draw(
            st.lists(st.integers(-3, 3), min_size=A.cols, max_size=A.cols)
        )
        extra = [
            sum(c * A.at(i, j) for j, c in enumerate(coeffs)) for i in range(A.rows)
        ]
    else:
        extra = [0] * A.rows
    extended = IntMatrix.from_columns(
        [list(A.column(j)) for j in range(A.cols)] + [extra], A.rows
    )
    assert cokernel_presentation(A.rows, extended) == base


def test_group_canonical_form_validation():
    with pytest.raises(ValueError):
        FGAbelianGroup((1,))
    with pytest.raises(ValueError):
        FGAbelianGroup((0, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup((2, 3))


def test_group_canonical_recombination():
    assert FGAbelianGroup.canonical((3, 2)) == FGAbelianGroup((6,))
    assert FGAbelianGroup.canonical((4, 2)) == FGAbelianGroup((2, 4))
    assert FGAbelianGroup.canonical((1, 1)) == FGAbelianGroup(())
    assert FGAbelianGroup.canonical((0, 6, 4)) == FGAbelianGroup((2, 12, 0))
    # the same group as the cokernel of the diagonal relation matrix
    rng = random.Random(20261021)
    for _ in range(300):
        pool = (0, 1, -1, 2, -4, 6, 9, 12, rng.randint(-500, 500))
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        k = len(factors)
        columns = [[d * (i == j) for i in range(k)] for j, d in enumerate(factors)]
        relations = IntMatrix.from_columns(columns, k)
        assert FGAbelianGroup.canonical(factors) == cokernel_presentation(k, relations)


def test_group_basics():
    g = FGAbelianGroup((2, 4, 0))
    assert g.num_generators == 3
    assert g.order() is None
    assert FGAbelianGroup((2, 4)).order() == 8
    assert FGAbelianGroup(()).order() == 1
    assert FGAbelianGroup(()).is_trivial
    assert str(g) == "Z/2 x Z/4 x Z"
    assert str(FGAbelianGroup(())) == "0"
    assert g.element((5, -1, 7)) == GroupElement((1, 3, 7))
    with pytest.raises(ValueError, match="coordinates"):
        g.element((1, 2))
    assert g.add(g.element((1, 3, 2)), g.element((1, 1, 1))) == GroupElement((0, 0, 3))
    assert g.scale(2, g.element((1, 3, 1))) == GroupElement((0, 2, 2))
    assert g.direct_sum(FGAbelianGroup((3,))) == FGAbelianGroup((2, 12, 0))


@pytest.mark.parametrize("factors", [(0, 0), (2, 0), (2, 4)], ids=["free", "mixed", "finite"])
def test_reduce_checks_every_coordinate_then_the_length(factors):
    # one operator.index pass, then the length, on a free group, which reduces nothing, as on
    # one with finite factors: a float, Fraction or str raises TypeError at any length, a short
    # or long tuple of ints the length message, and a bool is stored as an int
    g = FGAbelianGroup(factors)
    for value in (1.0, Fraction(1), "1"):
        for coords in ((value,), (1, value), (1, 1, value)):
            with pytest.raises(TypeError):
                g.reduce(coords)
    for coords in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match=f"^expected 2 coordinates, got {len(coords)}$"):
            g.reduce(coords)
    assert [type(x) for x in g.reduce(iter([True, -7]))] == [int, int]
    assert g.reduce((True, -7)) == g.reduce((1, -7))
    assert g.reduce((5, -7)) == tuple(x % d if d else x for x, d in zip((5, -7), factors))


def test_subgroup_quotient_examples():
    z2 = FGAbelianGroup((2,))
    assert subgroup_quotient(z2, [z2.element((1,))], []) == z2

    z = FGAbelianGroup((0,))
    assert subgroup_quotient(
        z, [z.element((2,))], [z.element((6,))]
    ) == FGAbelianGroup((3,))

    g = FGAbelianGroup((4, 0))
    n = [g.element((2, 0))]
    assert subgroup_quotient(g, n, n) == FGAbelianGroup(())

    # 1 = 3 * 3 - 2 * 4 lies in <3> inside Z/4 only through the relation
    z4 = FGAbelianGroup((4,))
    assert subgroup_quotient(z4, [z4.element((3,))], [z4.element((1,))]) == FGAbelianGroup(())


def test_subgroup_quotient_empty_denominator_is_subgroup():
    g = FGAbelianGroup((0, 0))
    n = [g.element((2, 0)), g.element((0, 3))]
    assert subgroup_quotient(g, n, []) == FGAbelianGroup((0, 0))


def test_subgroup_quotient_containment_error():
    # Z/4: 1 is not in <2>; Z: the coordinate 1/2 is not an integer;
    # Z^2: (0, 1) has a nonzero coordinate beyond the rank of the span
    for factors, numerator, escaping in (
        ((4,), (2,), (1,)),
        ((0,), (2,), (1,)),
        ((0, 0), (1, 0), (0, 1)),
    ):
        g = FGAbelianGroup(factors)
        with pytest.raises(ContainmentError, match=re.escape(f"generator {escaping} not contained")):
            subgroup_quotient(g, [g.element(numerator)], [g.element(escaping)])


def test_subgroup_quotient_dimension_mismatch():
    g = FGAbelianGroup((4,))
    with pytest.raises(ValueError, match="coordinates"):
        subgroup_quotient(g, [GroupElement((1, 0))], [])


def subgroup_elements(group, gens):
    """Closure of a generator list by brute-force coset enumeration."""
    zero = (0,) * group.num_generators
    seen = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for coords in frontier:
            for g in gens:
                s = group.add(group.element(coords), g).coords
                if s not in seen:
                    seen.add(s)
                    fresh.append(s)
        frontier = fresh
    return seen


def test_subgroup_quotient_order_matches_coset_enumeration():
    rng = random.Random(20240811)
    factor_pool = [2, 2, 3, 4, 4, 5, 6, 8, 9, 12, 16]
    for _ in range(150):
        factors = []
        size = 1
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
                        sum(c * g.coords[i] for c, g in zip(coeffs, n_gens))
                        for i in range(k)
                    ]
                )
            )
        quotient = subgroup_quotient(ambient, n_gens, d_gens)
        n_size = len(subgroup_elements(ambient, n_gens))
        d_size = len(subgroup_elements(ambient, d_gens))
        assert quotient.order() == n_size // d_size


def test_subgroup_quotient_span_coordinates():
    z2 = FGAbelianGroup((0, 0))
    n = [z2.element((2, 0)), z2.element((0, 3))]
    # (4, 0) and (0, 9) have coordinates (2, 0) and (0, 3) in the span
    assert subgroup_quotient(z2, n, [z2.element((4, 0)), z2.element((0, 9))]) == FGAbelianGroup((6,))
    assert subgroup_quotient(z2, n, [z2.element((4, 9))]) == FGAbelianGroup((0,))
    with pytest.raises(ContainmentError):
        subgroup_quotient(z2, n, [z2.element((1, 0))])
    # the span of (2, 0) and (4, 0) is freely generated by (2, 0) alone
    n = [z2.element((2, 0)), z2.element((4, 0))]
    assert subgroup_quotient(z2, n, []) == FGAbelianGroup((0,))
    assert subgroup_quotient(z2, n, [z2.element((2, 0))]) == FGAbelianGroup(())
    with pytest.raises(ContainmentError):
        subgroup_quotient(z2, n, [z2.element((1, 0))])


def test_subgroup_quotient_matches_cokernel_of_coefficients():
    # N embeds Z^r when its free rows have full column rank, so
    # <N> / <N C> is Z^r / C Z^r whatever the torsion rows hold
    rng = random.Random(20261018)
    for trial in range(200):
        torsion = [rng.choice([2, 3, 4, 6, 9]) for _ in range(trial % 3)]
        ambient = FGAbelianGroup.canonical(torsion + [0] * rng.randint(1, 4))
        k = ambient.num_generators
        free_rows = [i for i, d in enumerate(ambient.invariant_factors) if d == 0]
        r = rng.randint(1, len(free_rows))
        while True:
            columns = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(r)]
            free_part = IntMatrix.from_columns(
                [[c[i] for i in free_rows] for c in columns], len(free_rows)
            )
            if all(smith_normal_form(free_part)[1].diagonal()):
                break
        s = rng.randint(0, r + 1)
        C = IntMatrix(r, s, tuple(rng.randint(-4, 4) for _ in range(r * s)))
        N = IntMatrix.from_columns(columns, k)
        numerator = [ambient.element(c) for c in columns]
        denominator = [ambient.element(N.apply(C.column(j))) for j in range(C.cols)]
        assert subgroup_quotient(ambient, numerator, denominator) == cokernel_presentation(r, C)


def test_every_snf_is_verified(monkeypatch, torsion_demo):
    # every Smith form runs in the core ``_smith``: a full one is checked by
    # ``_verify_snf``, a bare diagonal is compared with the full form of the
    # same matrix, which is checked in turn
    assert abelian.VERIFY_POSTCONDITIONS
    calls = {"snf": 0, "core": [], "verified": []}
    snf, core, verify = abelian._smith_with_inverses, abelian._smith, abelian._verify_snf

    def counted_snf(A):
        calls["snf"] += 1
        return snf(A)

    def counted_core(A, transforms):
        calls["core"].append((A, transforms))
        return core(A, transforms)

    def counted_verify(A, *args):
        calls["verified"].append(A)
        return verify(A, *args)

    monkeypatch.setattr(abelian, "_smith_with_inverses", counted_snf)
    monkeypatch.setattr(abelian, "_smith", counted_core)
    monkeypatch.setattr(abelian, "_verify_snf", counted_verify)

    def counts(run):
        calls.update(snf=0, core=[], verified=[])
        run()
        assert all(A in calls["verified"] for A, _ in calls["core"])
        assert sum(full for _, full in calls["core"]) == calls["snf"]
        return calls["snf"], len(calls["verified"])

    z2 = FGAbelianGroup((0, 0))
    numerator = [z2.element((2, 0)), z2.element((0, 3))]
    denominator = [z2.element((4, 0)), z2.element((0, 9))]
    assert counts(lambda: subgroup_quotient(z2, numerator, denominator)) == (2, 2)
    # the quotient's cokernel tracks no transform; its span form tracks both
    assert [full for _, full in calls["core"]] == [True, False, True]
    snf_calls, verified = counts(lambda: compute_B(torsion_demo))
    assert snf_calls == verified > 0
    u = torsion_demo.chern_tuple((), (), (0,), (0,))
    assert count_classes(torsion_demo, u, 3) is not None
    snf_calls, verified = counts(lambda: count_classes(torsion_demo, u, 3))
    assert snf_calls == verified > 0


def test_rank_mod2():
    assert rank_mod2_rows(IntMatrix.from_rows([[1, 1], [1, 1]]).to_rows()) == 1
    assert rank_mod2_rows(IntMatrix.from_rows([[2, 4], [6, 8]]).to_rows()) == 0
    assert rank_mod2_rows(IntMatrix.identity(3).to_rows()) == 3
    assert rank_mod2_rows(IntMatrix(0, 5, ()).to_rows()) == 0
    assert kernel_mod2_rows([[1, 0], [3, 2], [0, 4], [1, 1]]) == [(1, 1, 0, 0), (0, 0, 1, 0)]
    # seeded small matrices: the kernel basis spans exactly the brute-force kernel, each vector ends
    # in a 1 at its own row, and the rank is the number of rows less the kernel's dimension
    rng = random.Random(41)
    for _ in range(300):
        rows = [[rng.randint(-3, 3) for _ in range(rng.randint(0, 5))] for _ in range(rng.randint(0, 6))]
        rows = [row + [0] * (max(map(len, rows), default=0) - len(row)) for row in rows]
        kernel = {
            x for x in itertools.product((0, 1), repeat=len(rows))
            if not any(sum(b * v for b, v in zip(x, column)) % 2 for column in zip(*rows))
        }
        basis = kernel_mod2_rows(rows)
        span = {
            tuple(sum(c) % 2 for c in zip(*picked, (0,) * len(rows)))
            for n in range(len(basis) + 1) for picked in combinations(basis, n)
        }
        assert span == kernel and len(span) == 2 ** len(basis), rows
        assert len({max(i for i, b in enumerate(x) if b) for x in basis}) == len(basis), rows
        assert rank_mod2_rows(rows) == len(rows) - len(basis), rows
