"""Characteristic-class algebra truncated at degree 8.

Products and inverses of total Chern classes, and the rational functional
whose integrality on actual bundles drives the mod-2 and mod-3
realizability congruences.  ``DEGREE8_TABLE`` writes every degree-8
quantity down once, as integer combinations of eight pairings; each
manifold compiles it once, on its compiled cup tables, which it reads
only through ``CompiledManifold.table``, into integer polynomials in the
coordinates of a Chern tuple (``data.congruences``), at a cost that
follows the products that exist.  The law ``rhs3_integral`` builds it at
load, and conditions (2) and (3), the closed form of the functional and
the census read it; no other module reads the table.  A self-check
recomputes the functional as <td(M) * bracket(u), [M]>, td(M) = A-roof(M) *
exp(c/2) and the bracket cupped from the reduced Chern character, which must
agree exactly.  The bracket starts in degree 4, so td(M) is built through
degree 4 only; it does not depend on the tuple, so it is built once per
instance as the Todd rows (``data.todd_rows``), from the class-based ``cup``
and ``pair_top`` only, on the (2, 2), (4, 4) and (6, 2) tables, cupped in the
order that names a missing table as the full series product names it.  Each
self-check costs five class cups for the bracket plus three dot products with
the rows.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add, itemgetter, mul

from .cohomology import (
    ChernTuple,
    CohomologyClass,
    Coords,
    ManifoldData,
    cup,
    pair_top,
)

SYMBOL_DEGREES = {"u1": 2, "u2": 4, "u3": 6, "u4": 8, "p1": 4, "c": 2}


# Every degree-8 quantity here is an integer combination of the pairings of
# these monomials with [M]: coefficients in 24*rr, in <u4,[M]> (the left-hand
# side of conditions (2) and (3)), in the right-hand side of (2) and in 4 times
# that of (3).  p2 never enters rr, whose bracket starts in degree 4.  Each
# manifold compiles the table once (``compile_congruences``).
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


class Congruences(namedtuple("Congruences", "monomials pairings conditions")):
    """``DEGREE8_TABLE`` compiled on one manifold (``data.congruences``): integer polynomials in
    the flat coordinates x = u1 + u2 + u3 + u4 of a Chern tuple, the cup products, p1 and c
    substituted.  ``monomials: tuple[tuple[int, ...], ...]`` are sorted tuples of indices into x;
    ``pairings: dict[Monomial, tuple[tuple[int, int], ...]]`` maps each monomial of the table to
    <mono, [M]>, as (k, coefficient of ``monomials[k]``) pairs, zeros left out; ``conditions:
    tuple[tuple[int, ...], ...]`` hold the coefficients of <u4>, rhs(2) and 4*rhs(3).  Exact on
    validated data: reducing products term by term adds classes of finite order, which pair to 0
    (the laws ``h8_is_Z`` and ``torsion_pairs_to_zero``).  No ``__slots__``: ``_columns`` is kept
    in the instance dict."""

    @cached_property
    def _columns(self) -> tuple[itemgetter, ...]:
        """One ``itemgetter`` per factor position k: the k-th index of every monomial, or -1 past
        its end, where ``values`` puts a 1.  Each names two or more indices, so returns a tuple."""
        width = max(map(len, self.monomials), default=0)
        padded = (mono + (-1,) * (width - len(mono)) for mono in self.monomials)
        return tuple(map(itemgetter, *padded)) if len(self.monomials) > 1 else ()

    def values(self, x: Coords) -> list[int]:
        """Each coordinate monomial at the flat coordinates x, which must hold every coordinate:
        the callers pass checked ones, and a short x is not refused."""
        if len(self.monomials) < 2:  # an itemgetter of one index returns no tuple
            return [prod(map(x.__getitem__, mono)) for mono in self.monomials]
        x = (*x, 1)
        first, *rest = self._columns
        values = first(x)
        for column in rest:
            values = map(mul, values, column(x))
        return list(values)


def compile_congruences(data: ManifoldData) -> Congruences:
    """Expand each monomial of the table multilinearly: a variable is the sum of its generators,
    each times its own coordinate, and p1 and c are constants.  The factors are cupped left to
    right, monomial by monomial in table order, each product reduced as ``CompiledManifold.cup``
    reduces it.  Each table is the compiled one (``CompiledManifold.table``), read by its left
    index, and holds no product that vanishes, so the cost follows the products that exist.  A
    missing table raises the ``MissingOperationError`` of the first product the table needs."""
    m = data.compiled
    constants, offsets, offset = {"p1": m.p1, "c": m.c}, {}, 0  # offsets[u]: u's first index into x
    for name in ("u1", "u2", "u3", "u4"):
        offsets[name], offset = offset, offset + len(m.factors[SYMBOL_DEGREES[name]])
    expansions = {}
    for mono in MONOMIALS:  # terms as (indices into x, {k: coordinate k}), zeros left out
        symbol, a = mono[0], SYMBOL_DEGREES[mono[0]]
        if symbol in constants:
            terms = [((), {k: v for k, v in enumerate(constants[symbol]) if v})]
        else:
            terms = [((offsets[symbol] + i,), {i: 1}) for i in range(len(m.factors[a]))]
        for symbol in mono[1:]:
            b = SYMBOL_DEGREES[symbol]
            table, factors, products = m.table(a, b), m.factors[a + b], []
            for indices, x in terms:
                by_j = {}  # j -> x * e_j
                for i, v in x.items():
                    for j, entries in table.get(i, ()):
                        acc = by_j.setdefault(j, {})
                        for k, c in entries:
                            acc[k] = acc.get(k, 0) + v * c
                if symbol in constants:
                    y, acc = constants[symbol], {}
                    for j, z in by_j.items():
                        for k, c in z.items():
                            acc[k] = acc.get(k, 0) + y[j] * c
                    products.append((indices, acc))
                else:
                    products += [(indices + (offsets[symbol] + j,), acc) for j, acc in by_j.items()]
            terms, a = [], a + b
            for indices, x in products:  # reduced as ``CompiledManifold.cup`` reduces
                if x := {k: r for k, v in x.items() if (r := v % factors[k] if factors[k] else v)}:
                    terms.append((indices, x))
        expansion = expansions[mono] = {}
        for indices, x in terms:
            key = tuple(sorted(indices))
            expansion[key] = expansion.get(key, 0) + sum(v * m.pairing[k] for k, v in x.items())
    monomials = sorted({key for expansion in expansions.values() for key, c in expansion.items() if c})
    position = {key: k for k, key in enumerate(monomials)}
    pairings = {
        mono: tuple(sorted((position[key], c) for key, c in expansion.items() if c))
        for mono, expansion in expansions.items()
    }
    conditions = []
    for column in CONDITION_COLUMNS:
        row = [0] * len(monomials)
        for mono, w in zip(MONOMIALS, column):
            for k, c in pairings[mono] if w else ():
                row[k] += w * c
        conditions.append(tuple(row))
    return Congruences(tuple(monomials), pairings, tuple(conditions))


class RationalClassPolynomial(namedtuple("RationalClassPolynomial", "terms")):
    """Formal sum of rational multiples of degree-8 monomials.

    Each term is a pair (coefficient, monomial), the monomial one of
    ``DEGREE8_TABLE``'s.  Evaluation substitutes the flat coordinates x =
    u1 + u2 + u3 + u4 of a tuple that passed ``data.checked`` into the
    pairing of each of its monomials, as the manifold's ``data.congruences``
    holds it.  No ``__slots__``: ``_integer_form`` is kept in the instance
    dict.
    """

    def __new__(cls, terms: tuple[tuple[Fraction, Monomial], ...]):
        for coeff, mono in terms:
            degree = sum(SYMBOL_DEGREES[s] for s in mono)
            if degree != 8:
                raise ValueError(f"monomial {mono} has degree {degree}, expected 8")
            if mono not in MONOMIALS:
                raise ValueError(f"monomial {mono} is not in DEGREE8_TABLE")
        return tuple.__new__(cls, (terms,))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @cached_property
    def _integer_form(self) -> tuple[tuple[Monomial, ...], tuple[int, ...], int]:
        """The monomials, and the coefficients over their common denominator."""
        denominator = lcm(*(coeff.denominator for coeff, _ in self.terms))
        numerators = tuple(int(coeff * denominator) for coeff, _ in self.terms)
        return tuple(mono for _, mono in self.terms), numerators, denominator

    def evaluate(self, data: ManifoldData, x: Coords) -> Fraction:
        monomials, numerators, denominator = self._integer_form
        congruences = data.congruences
        values, pairings = congruences.values(x), congruences.pairings
        total = sum([k * c * values[i] for k, mono in zip(numerators, monomials) for i, c in pairings[mono]])
        return Fraction(total, denominator)


RR_FUNCTIONAL = RationalClassPolynomial(
    tuple((Fraction(k24, 24), mono) for mono, k24, *_ in DEGREE8_TABLE)
)


def compute_todd_rows(data: ManifoldData) -> tuple[dict[int, tuple[int, ...]], int]:
    """The Todd functional as one rational row per degree d = 4, 6, 8, whose
    entry i is <td_(8-d) * e_i, [M]> for the i-th generator e_i of H^d: the
    rows over their common denominator, and that denominator.

    td(M) = A-roof(M) * exp(c/2) is built through degree 4, all that the rows
    read: td_0 = 1, td_2 = c/2 and td_4 = c^2/8 - p1/24, so the rows read the
    (2, 2), (4, 4) and (6, 2) cup tables, each entry cupped basis-first (see
    ``rr_value_by_series`` for why).  Built from the classes alone, by
    ``cup`` and ``pair_top``: neither the compiled data nor ``DEGREE8_TABLE``
    enters, so the series stays an independent check of the closed form.
    ``data.todd_rows`` keeps it."""
    c = data.spinc_class
    td = {  # degree -> (coefficient, class) terms
        0: ((Fraction(1), data.zclass(0, (1,) * data.ngens(0))),),
        2: ((Fraction(1, 2), c),),
        4: ((Fraction(1, 8), cup(data, c, c)), (Fraction(-1, 24), data.p1)),
    }
    rows = {}
    for d in (4, 6, 8):
        n = data.ngens(d)
        basis = (data.zclass(d, [int(k == i) for k in range(n)]) for i in range(n))
        rows[d] = [sum(q * pair_top(data, cup(data, e, x)) for q, x in td[8 - d]) for e in basis]
    denominator = lcm(*(q.denominator for row in rows.values() for q in row))
    return {d: tuple(int(q * denominator) for q in row) for d, row in rows.items()}, denominator


def rr_value_by_series(data: ManifoldData, u: ChernTuple) -> Fraction:
    """Recompute the functional as <td(M) * bracket(u), [M]>: the Todd rows
    of the data dotted with the bracket, which is cupped from u's classes.
    Cup is bilinear and H^8 = Z, so this equals the series product taken
    term by term, unreduced coordinates included."""
    # A missing table is named as the full product A-roof * exp(c/2) * bracket names it, which
    # cups c^3 = c^2 * c and c^4 = c^3 * c first: the rows cup basis-first, as (6, 2), and the
    # bracket takes u1 * u2 as u2 * u1, so a missing (2, 4) table is named (4, 2).
    rows, denominator = data.todd_rows
    u1u2 = cup(data, u.u2, u.u1)
    u1sq_u2 = cup(data, cup(data, u.u1, u.u1), u.u2)
    bracket = (  # (12 * coefficient, class)
        (-12, u.u2),
        (6, u.u3),
        (-6, u1u2),
        (-2, u1sq_u2),
        (1, cup(data, u.u2, u.u2)),
        (2, cup(data, u.u1, u.u3)),
        (-2, u.u4),
    )
    total = 0
    for k, x in bracket:
        row = rows[x.degree]
        if len(x.coords) != len(row):  # never cut short; worded as zclass words it
            raise ValueError(f"expected {len(row)} coordinates, got {len(x.coords)}")
        total += k * sum(map(mul, row, x.coords))
    return Fraction(total, 12 * denominator)


def rr_value(data: ManifoldData, u: ChernTuple, self_check: bool = False) -> Fraction:
    """Exact rational value of the Riemann-Roch functional at a Chern tuple.

    The denominator always divides 24.  For a tuple realized by an actual
    bundle the value is an integer.  With ``self_check=True`` the value is
    recomputed from the Todd rows (``rr_value_by_series``) and compared exactly.
    u enters through ``data.checked``, as in ``check_rank4``.
    """
    value = RR_FUNCTIONAL.evaluate(data, sum(data.checked(u), ()))
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
    return _whitney(data, u, v)


def chern_inverse(u: ChernTuple, data: ManifoldData) -> ChernTuple:
    """The unique tuple v with chern_product(u, v) zero, degree by degree."""
    return _whitney(data, u, None)


def _whitney(data: ManifoldData, u: ChernTuple, v: ChernTuple | None) -> ChernTuple:
    """c_k = u_k + v_k + sum_{0<i<k} u_i v_(k-i) for k = 1..4 on the compiled data of u and v
    through ``data.checked``; with v None, the inverse of u: v_k = -(u_k + sum_{0<i<k} u_i v_(k-i))."""
    m = data.compiled
    us = data.checked(u)
    vs = [] if v is None else data.checked(v)
    cs: list[Coords] = []
    for k in range(1, 5):
        total = us[k - 1] if v is None else map(add, us[k - 1], vs[k - 1])
        for i in range(1, k):
            total = map(add, total, m.cup(2 * i, us[i - 1], 2 * (k - i), vs[k - i - 1]))
        if v is None:
            vs.append(m.reduce(2 * k, [-x for x in total]))
        else:
            cs.append(m.reduce(2 * k, list(total)))
    result = vs if v is None else cs
    return ChernTuple(*(CohomologyClass(2 * k, "Z", c) for k, c in enumerate(result, 1)))
