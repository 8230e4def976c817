import random
import re
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

from bundlecensus.charclass import (
    DEGREE8_TABLE,
    RR_FUNCTIONAL,
    RationalClassPolynomial,
    chern_inverse,
    chern_product,
    rr_value,
    rr_value_by_series,
    zero_tuple,
)
from bundlecensus.classify import check_rank4
from bundlecensus.cohomology import ChernTuple, CohomologyClass, MissingOperationError, cup
from bundlecensus.fixtures import BUILTIN_NAMES, builtin


def cp4_tuple(data, a1, a2, a3, a4):
    return data.chern_tuple((a1,), (a2,), (a3,), (a4,))


def random_tuple(data, rng, bound=9):
    return data.chern_tuple(
        *[
            [rng.randint(-bound, bound) for _ in range(data.ngens(d))]
            for d in (2, 4, 6, 8)
        ]
    )


def test_product_of_line_bundle_powers(cp4):
    # (1+t) * (1+t)^3 = (1+t)^4
    u = cp4_tuple(cp4, 1, 0, 0, 0)
    v = cp4_tuple(cp4, 3, 3, 1, 0)
    assert chern_product(u, v, cp4) == cp4_tuple(cp4, 4, 6, 4, 1)


def test_product_with_geometric_series_inverse(cp4):
    u = cp4_tuple(cp4, 1, 0, 0, 0)
    v = cp4_tuple(cp4, -1, 1, -1, 1)
    assert chern_product(u, v, cp4) == zero_tuple(cp4)
    assert chern_inverse(u, cp4) == v


def test_zero_tuple_is_identity(cp4):
    u = cp4_tuple(cp4, 2, -3, 5, 7)
    assert chern_product(u, zero_tuple(cp4), cp4) == u
    assert chern_inverse(zero_tuple(cp4), cp4) == zero_tuple(cp4)


def test_inverse_round_trip_random(cp4):
    rng = random.Random(1)
    for _ in range(100):
        u = random_tuple(cp4, rng)
        assert chern_product(u, chern_inverse(u, cp4), cp4) == zero_tuple(cp4)


def generic_product(u, v, data):
    """The Whitney sum expanded degree by degree with the generic class operations."""
    add = data.add
    c1 = add(u.u1, v.u1)
    c2 = add(add(u.u2, v.u2), cup(data, u.u1, v.u1))
    c3 = add(add(u.u3, v.u3), add(cup(data, u.u1, v.u2), cup(data, u.u2, v.u1)))
    c4 = add(
        add(u.u4, v.u4),
        add(add(cup(data, u.u1, v.u3), cup(data, u.u2, v.u2)), cup(data, u.u3, v.u1)),
    )
    return ChernTuple(c1, c2, c3, c4)


def generic_inverse(u, data):
    add = data.add

    def negate(x):
        return data.scale(-1, x)

    v1 = negate(u.u1)
    v2 = negate(add(u.u2, cup(data, u.u1, v1)))
    v3 = negate(add(u.u3, add(cup(data, u.u1, v2), cup(data, u.u2, v1))))
    v4 = negate(
        add(u.u4, add(add(cup(data, u.u1, v3), cup(data, u.u2, v2)), cup(data, u.u3, v1)))
    )
    return ChernTuple(v1, v2, v3, v4)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_whitney_sum_matches_generic_expansion(name):
    # one tuple in five is built from unreduced classes, one in ten has
    # coordinates up to 10^40
    data = builtin(name)
    rng = random.Random(2_0200_5)
    for i in range(200):
        bound = 10**40 if i % 10 == 0 else 9
        u, v = (
            [[rng.randint(-bound, bound) for _ in range(data.ngens(d))] for d in (2, 4, 6, 8)]
            for _ in range(2)
        )
        if i % 5 == 1:
            u, v = (ChernTuple(*map(CohomologyClass, (2, 4, 6, 8), "ZZZZ", w)) for w in (u, v))
        else:
            u, v = data.chern_tuple(*u), data.chern_tuple(*v)
        assert chern_product(u, v, data) == generic_product(u, v, data)
        assert chern_inverse(u, data) == generic_inverse(u, data)


@pytest.mark.parametrize("name", ["cp4", "cp2xcp2", "cp1xcp3"])
def test_product_commutative_and_associative(name):
    data = builtin(name)
    rng = random.Random(2)
    for _ in range(40):
        u, v, w = (random_tuple(data, rng, 5) for _ in range(3))
        assert chern_product(u, v, data) == chern_product(v, u, data)
        assert chern_product(chern_product(u, v, data), w, data) == chern_product(
            u, chern_product(v, w, data), data
        )


def test_rr_value_examples(cp4):
    assert rr_value(cp4, zero_tuple(cp4)) == 0
    assert rr_value(cp4, cp4_tuple(cp4, 0, 0, 0, 6)) == -1
    assert rr_value(cp4, cp4_tuple(cp4, 0, 0, 0, 1)) == Fraction(-1, 6)


def test_rr_value_denominator_divides_24():
    rng = random.Random(3)
    for name in ("cp4", "hp2", "cp2xcp2", "cp1xcp3", "s8", "torsion-demo"):
        data = builtin(name)
        for _ in range(30):
            value = rr_value(data, random_tuple(data, rng))
            assert 24 % value.denominator == 0


@pytest.mark.parametrize("name", ["cp4", "hp2", "cp2xcp2", "cp1xcp3", "s8", "torsion-demo"])
def test_rr_value_matches_series_expansion(name):
    data = builtin(name)
    rng = random.Random(4)
    for _ in range(40):
        u = random_tuple(data, rng)
        assert rr_value(data, u) == rr_value_by_series(data, u)


def test_rr_value_self_check_flag(cp4):
    rng = random.Random(5)
    for _ in range(10):
        rr_value(cp4, random_tuple(cp4, rng), self_check=True)


def test_rr_value_checks_coordinates_before_the_report(cp4):
    # as check_rank4 does: on data that fails a law (p1 = 2t^2 fails rhs3_integral), a u1 with
    # two coordinates raises the ValueError of the coordinates, not ManifoldValidationError
    data = cp4._replace(p1=cp4.zclass(4, (2,)))
    assert not data.report.law("rhs3_integral").passed
    u = ChernTuple(CohomologyClass(2, "Z", (1, 0)), *cp4_tuple(data, 0, 0, 0, 0)[1:])
    message = "expected 1 coordinates, got 2"
    with pytest.raises(ValueError, match=message) as raised:
        check_rank4(data, u)
    assert raised.type is ValueError
    for self_check in (False, True):
        with pytest.raises(ValueError, match=message) as raised:
            rr_value(data, u, self_check=self_check)
        assert raised.type is ValueError, self_check


def test_functional_terms_have_degree_8():
    assert all(
        sum({"u1": 2, "u2": 4, "u3": 6, "u4": 8, "p1": 4, "c": 2}[s] for s in mono) == 8
        for _, mono in RR_FUNCTIONAL.terms
    )
    with pytest.raises(ValueError, match="degree"):
        RationalClassPolynomial(((Fraction(1), ("u1", "u2")),))


def test_table_columns_agree_coefficientwise():
    # Condition (2) is 24*rr == 0 mod 3 and condition (3) is 24*rr == 0 mod 8
    # (oracle_congruences relies on both), monomial by monomial:
    # 24*rr == rhs(2) - lhs mod 3 and 24*rr == 4*rhs(3) - 4*lhs mod 8.
    assert len({mono for mono, *_ in DEGREE8_TABLE}) == len(DEGREE8_TABLE) == 8
    for mono, k24, k_lhs, k2, k3 in DEGREE8_TABLE:
        assert (k24 - (k2 - k_lhs)) % 3 == 0, mono
        assert (k24 - (k3 - 4 * k_lhs)) % 8 == 0, mono
        assert k_lhs == (mono == ("u4",)), mono
        # the census decides every u4 of a box from rhs(2) mod 3 and rhs(3) mod 2
        assert "u4" not in mono or (k2, k3) == (0, 0), mono


def test_whitney_sum_of_hyperplanes_matches_binomial(cp4):
    # multiplying four copies of (1+t) gives the binomial coefficients
    line = cp4_tuple(cp4, 1, 0, 0, 0)
    total = zero_tuple(cp4)
    for _ in range(4):
        total = chern_product(total, line, cp4)
    assert total == cp4_tuple(cp4, 4, 6, 4, 1)


def todd_cpn(n):
    """td(CP^n) = (x / (1 - e^-x))^(n+1), coefficients of x^0..x^n (Hirzebruch):
    (1 - e^-x)/x = sum (-x)^k / (k+1)! inverted as a power series, to
    1 + x/2 + x^2/12 + 0*x^3 - x^4/720, then raised to the power n + 1."""
    f = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    g = [Fraction(1)]
    for k in range(1, n + 1):
        g.append(-sum(f[i] * g[k - i] for i in range(1, k + 1)))
    td = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(n + 1):
        td = [sum(td[i] * g[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return td


# each builtin a product of projective spaces, one generator variable per factor
PRODUCTS = {"cp4": {"t": 4}, "cp1xcp3": {"a": 1, "b": 3}, "cp2xcp2": {"a": 2, "b": 2}}


def kunneth_todd_rows(name):
    """The rows <td_(8-d) * e_i, [M]> of a product of projective spaces, td(M)
    the product of the factors' Todd classes (Kunneth): the generator named
    x^i y^j pairs with the coefficient of x^(n-i) y^(m-j), the top class
    x^n y^m pairing to 1."""
    factors = PRODUCTS[name]
    tds = {x: todd_cpn(n) for x, n in factors.items()}
    rows = {}
    for d in (4, 6, 8):
        rows[d] = []
        for gen in builtin(name).integral.names[d]:
            exponents = {x: int(k or 1) for x, k in re.findall(r"([a-z])(?:\^(\d+))?", gen)}
            rows[d].append(prod(tds[x][n - exponents.get(x, 0)] for x, n in factors.items()))
    denominator = lcm(*(q.denominator for row in rows.values() for q in row))
    return {d: tuple(int(q * denominator) for q in row) for d, row in rows.items()}, denominator


@pytest.mark.parametrize("name, expected", [
    ("cp4", ({4: (35,), 6: (30,), 8: (12,)}, 12)),
    ("cp1xcp3", ({4: (11, 12), 6: (12, 6), 8: (6,)}, 6)),
    ("cp2xcp2", ({4: (4, 9, 4), 6: (6, 6), 8: (4,)}, 4)),
])
def test_todd_rows_match_hirzebruch_and_kunneth(name, expected):
    # the top coefficient is the Todd genus of CP^4, 1
    assert todd_cpn(4) == [1, Fraction(5, 2), Fraction(35, 12), Fraction(25, 12), 1]
    assert kunneth_todd_rows(name) == expected
    assert builtin(name)._replace().todd_rows == expected


def test_todd_rows_need_no_table_beyond_degree_4(cp4):
    # td is built through degree 4 from c^2, e * c and e * td_4, so without the
    # (2, 4) table the rows still build; the bracket's u1 * u2 needs it
    assert (2, 4) in cp4.cup_z
    data = cp4._replace(cup_z={k: v for k, v in cp4.cup_z.items() if k != (2, 4)})
    assert data.todd_rows == cp4.todd_rows
    with pytest.raises(MissingOperationError, match=r"\(4, 2\)"):
        rr_value_by_series(data, cp4_tuple(data, 1, 2, 3, 4))
