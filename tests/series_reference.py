"""A frozen reference: the Riemann-Roch series recomputed per call.

``rr_value_by_series`` as it was before the Todd rows, copied verbatim
with the ``_series_product`` it calls: it rebuilds A-roof(M) * exp(c/2)
on every call, with 28 class cups and 8 pairings.  Do not edit it; the
tests hold the program's series to it bit for bit.
"""

from fractions import Fraction
from math import factorial

from bundlecensus.cohomology import ChernTuple, CohomologyClass, ManifoldData, cup, pair_top

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
