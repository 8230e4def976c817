"""Characteristic-class algebra truncated at degree 8.

Products and inverses of total Chern classes, and the rational functional
whose integrality on actual bundles drives the mod-2 and mod-3
realizability congruences.  The functional is evaluated from its
closed-form expansion; a self-check recomputes it by direct truncated
multiplication of the A-roof series, exp(c/2) and the reduced Chern
character, which must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from operator import mul

from .cohomology import ChernTuple, CohomologyClass, ManifoldData, cup, pair_top

SYMBOL_DEGREES = {"u1": 2, "u2": 4, "u3": 6, "u4": 8, "p1": 4, "c": 2}


# Every degree-8 quantity here is an integer combination of the pairings of
# these monomials with [M]: coefficients in 24*rr, in <u4,[M]> (the left-hand
# side of conditions (2) and (3)), in the right-hand side of (2) and in 4 times
# that of (3).  p2 never enters rr, whose bracket starts in degree 4.  u1*u2*c
# starts with u1*u2, which condition (1) computes anyway.
DEGREE8_TABLE = (
    # monomial           24*rr  lhs  rhs(2)  4*rhs(3)
    (("u1", "u1", "u2"),    -4,   0,    -1,      -4),
    (("u1", "u3"),           4,   0,     1,       4),
    (("u4",),               -4,   1,     0,       0),
    (("c", "u3"),            6,   0,     0,      -2),
    (("u1", "u2", "c"),     -6,   0,     0,       2),
    (("u2", "u2"),           2,   0,    -1,       2),
    (("c", "c", "u2"),      -3,   0,     0,      -3),
    (("p1", "u2"),           1,   0,     1,       1),
)
MONOMIALS, _, *CONDITION_COLUMNS = zip(*DEGREE8_TABLE)

Monomial = tuple[str, ...]
Products = dict[Monomial, CohomologyClass]


def symbol_products(data: ManifoldData, u: ChernTuple) -> Products:
    """The class of each symbol, keyed as a one-factor product."""
    return {
        ("u1",): u.u1,
        ("u2",): u.u2,
        ("u3",): u.u3,
        ("u4",): u.u4,
        ("p1",): data.p1,
        ("c",): data.spinc_class,
    }


@lru_cache(maxsize=32)
def _steps(monomials: tuple[Monomial, ...]) -> tuple[tuple[Monomial, Monomial, Monomial], ...]:
    """(product, prefix, last factor) for each product of two or more leading
    factors of the monomials, once, every prefix before its extensions."""
    steps = {}
    for mono in monomials:
        for k in range(2, len(mono) + 1):
            steps.setdefault(mono[:k], (mono[:k], mono[: k - 1], mono[k - 1 : k]))
    return tuple(steps.values())


def pair_monomials(data: ManifoldData, products: Products, monomials: tuple[Monomial, ...]) -> list[int]:
    """Pair each degree-8 monomial with [M].  ``products`` holds the symbols'
    classes (``symbol_products``) and may hold longer products already known;
    each missing product is cupped once, from its prefix, and stored."""
    for product, prefix, factor in _steps(monomials):
        if product not in products:
            products[product] = cup(data, products[prefix], products[factor])
    return [pair_top(data, products[mono]) for mono in monomials]


@dataclass(frozen=True)
class RationalClassPolynomial:
    """Formal sum of rational multiples of degree-8 monomials.

    Each term is a pair (coefficient, monomial), the monomial a tuple of
    symbols from u1..u4, p1, c whose degrees add up to 8.  Evaluation
    substitutes actual classes, cups the factors together and pairs the
    result against the fundamental class.
    """

    terms: tuple[tuple[Fraction, Monomial], ...]

    def __post_init__(self):
        for coeff, mono in self.terms:
            degree = sum(SYMBOL_DEGREES[s] for s in mono)
            if degree != 8:
                raise ValueError(f"monomial {mono} has degree {degree}, expected 8")

    @cached_property
    def _integer_form(self) -> tuple[tuple[Monomial, ...], tuple[int, ...], int]:
        """The monomials, and the coefficients over their common denominator."""
        denominator = lcm(*(coeff.denominator for coeff, _ in self.terms))
        numerators = tuple(int(coeff * denominator) for coeff, _ in self.terms)
        return tuple(mono for _, mono in self.terms), numerators, denominator

    def evaluate(self, data: ManifoldData, u: ChernTuple) -> Fraction:
        monomials, numerators, denominator = self._integer_form
        pairings = pair_monomials(data, symbol_products(data, u), monomials)
        return Fraction(sum(map(mul, numerators, pairings)), denominator)


RR_FUNCTIONAL = RationalClassPolynomial(
    tuple((Fraction(k24, 24), mono) for mono, k24, *_ in DEGREE8_TABLE)
)

# Formal graded series, degree -> list of (rational coefficient, class).
_Series = dict[int, list[tuple[Fraction, CohomologyClass]]]


def _series_product(data: ManifoldData, s: _Series, t: _Series) -> _Series:
    out: _Series = {}
    for d1, terms1 in s.items():
        for d2, terms2 in t.items():
            if d1 + d2 > 8:
                continue
            bucket = out.setdefault(d1 + d2, [])
            for q1, x1 in terms1:
                for q2, x2 in terms2:
                    bucket.append((q1 * q2, cup(data, x1, x2)))
    return out


def rr_value_by_series(data: ManifoldData, u: ChernTuple) -> Fraction:
    """Recompute the functional by multiplying the three power series."""
    one = data.zclass(0, (1,) * data.ngens(0))
    c = data.spinc_class
    c_pows = [one, c]
    for _ in range(3):
        c_pows.append(cup(data, c_pows[-1], c))

    a_roof: _Series = {
        0: [(Fraction(1), one)],
        4: [(Fraction(-1, 24), data.p1)],
    }
    exp_half_c: _Series = {
        2 * k: [(Fraction(1, 2**k * factorial(k)), c_pows[k])] for k in range(5)
    }
    u1u2 = cup(data, u.u1, u.u2)
    u1sq_u2 = cup(data, cup(data, u.u1, u.u1), u.u2)
    bracket: _Series = {
        4: [(Fraction(-1), u.u2)],
        6: [(Fraction(1, 2), u.u3), (Fraction(-1, 2), u1u2)],
        8: [
            (Fraction(-1, 6), u1sq_u2),
            (Fraction(1, 12), cup(data, u.u2, u.u2)),
            (Fraction(1, 6), cup(data, u.u1, u.u3)),
            (Fraction(-1, 6), u.u4),
        ],
    }
    product = _series_product(data, _series_product(data, a_roof, exp_half_c), bracket)
    return sum(
        (q * pair_top(data, x) for q, x in product.get(8, [])), start=Fraction(0)
    )


def rr_value(data: ManifoldData, u: ChernTuple, self_check: bool = False) -> Fraction:
    """Exact rational value of the Riemann-Roch functional at a Chern tuple.

    The denominator always divides 24.  For a tuple realized by an actual
    bundle the value is an integer.  With ``self_check=True`` the value is
    recomputed by truncated series multiplication and compared exactly.
    """
    value = RR_FUNCTIONAL.evaluate(data, u)
    if self_check:
        recomputed = rr_value_by_series(data, u)
        if recomputed != value:
            raise AssertionError(
                f"series recomputation {recomputed} disagrees with closed form {value}"
            )
    return value


def zero_tuple(data: ManifoldData) -> ChernTuple:
    return ChernTuple(data.zero(2), data.zero(4), data.zero(6), data.zero(8))


def chern_product(u: ChernTuple, v: ChernTuple, data: ManifoldData) -> ChernTuple:
    """Componentwise truncation of (1+u1+u2+u3+u4)(1+v1+v2+v3+v4)."""
    add = data.add
    c1 = add(u.u1, v.u1)
    c2 = add(add(u.u2, v.u2), cup(data, u.u1, v.u1))
    c3 = add(add(u.u3, v.u3), add(cup(data, u.u1, v.u2), cup(data, u.u2, v.u1)))
    c4 = add(
        add(u.u4, v.u4),
        add(
            add(cup(data, u.u1, v.u3), cup(data, u.u2, v.u2)),
            cup(data, u.u3, v.u1),
        ),
    )
    return ChernTuple(c1, c2, c3, c4)


def chern_inverse(u: ChernTuple, data: ManifoldData) -> ChernTuple:
    """The unique tuple v with chern_product(u, v) zero, degree by degree."""
    v1 = data.negate(u.u1)
    v2 = data.negate(data.add(u.u2, cup(data, u.u1, v1)))
    v3 = data.negate(
        data.add(u.u3, data.add(cup(data, u.u1, v2), cup(data, u.u2, v1)))
    )
    v4 = data.negate(
        data.add(
            u.u4,
            data.add(
                data.add(cup(data, u.u1, v3), cup(data, u.u2, v2)),
                cup(data, u.u3, v1),
            ),
        )
    )
    return ChernTuple(v1, v2, v3, v4)
