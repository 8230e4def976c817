import random
from fractions import Fraction

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
from bundlecensus.fixtures import builtin


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


@pytest.mark.parametrize("name", ["cp4", "hp2", "cp2xcp2", "cp1xcp3", "s8"])
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


def test_whitney_sum_of_hyperplanes_matches_binomial(cp4):
    # multiplying four copies of (1+t) gives the binomial coefficients
    line = cp4_tuple(cp4, 1, 0, 0, 0)
    total = zero_tuple(cp4)
    for _ in range(4):
        total = chern_product(total, line, cp4)
    assert total == cp4_tuple(cp4, 4, 6, 4, 1)
