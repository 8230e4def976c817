"""Twisted Riemann-Roch: a census oracle that never reads ``DEGREE8_TABLE``.

Rank-4 bundles over an 8-manifold are stable, since BU(4) -> BU is
9-connected.  When the even cohomology is generated by H^2, as on cp4,
cp1xcp3 and cp2xcp2, K(M) is spanned by line bundles and the index pairing
is unimodular (K-theory Poincare duality for spin^c manifolds).  So a tuple
is realizable at rank 4 exactly when chi(E (x) L(x)) is an integer for every
x >= 0 in H^2 with coordinate sum at most 4, and ch is injective, so one
bundle has the tuple (Atiyah & Hirzebruch, "Vector bundles and homogeneous
spaces", Proc. Sympos. Pure Math. 3, 1961).  Rank 3 decides (u1, u2, u3, 0).

``rr_value_by_series`` is chi(E) - 3 chi(O) - chi(det E), the Todd rows
dotted with ch(E) - 3 - exp(c1); the line-bundle terms are integers, so it
is an integer exactly when chi(E) is.  The twisted classes of E (x) L(x)
are c_k' = sum_i C(4 - i, k - i) c_i x^(k - i).
"""

import itertools
import random
from functools import reduce
from math import comb

import pytest

from bundlecensus import census
from bundlecensus.charclass import rr_value_by_series
from bundlecensus.classify import count_classes
from bundlecensus.cohomology import ChernTuple, cup
from bundlecensus.fixtures import builtin


def twists(data):
    """The powers 1, x, ..., x^4 of each x of the simplex, as classes."""
    n = data.ngens(2)
    for x in itertools.product(range(5), repeat=n):
        if sum(x) <= 4:
            powers = [data.zclass(0, (1,)), data.zclass(2, x)]
            for _ in range(3):
                powers.append(cup(data, powers[-1], powers[1]))
            yield powers


def twisted_integral(data, u, twist_powers):
    """Whether chi(E (x) L(x)) is an integer for every twist, E of rank 4 with Chern tuple u."""
    c = (data.zclass(0, (1,)), *u)
    for powers in twist_powers:
        twisted = [
            reduce(data.add, (data.scale(comb(4 - i, k - i), cup(data, c[i], powers[k - i])) for i in range(k + 1)))
            for k in range(1, 5)
        ]
        if rr_value_by_series(data, ChernTuple(*twisted)).denominator != 1:
            return False
    return True


# (manifold, bound, how many realizable tuples of each rank's box to take,
# and twice as many unrealizable ones; None for the whole box): under 1 s
CASES = [("cp4", 2, None), ("cp1xcp3", 1, 60), ("cp2xcp2", 1, 60)]


@pytest.mark.parametrize("name, bound, sample", CASES, ids=[c[0] for c in CASES])
def test_census_agrees_with_twisted_riemann_roch(name, bound, sample):
    data = builtin(name)
    m = data.compiled
    twist_powers = list(twists(data))
    rng = random.Random(2021)
    for rank in (4, 3):
        rows = census.enumerate(data, bound, rank)
        realizable = [c for c, g in rows if g]
        unrealizable = [c for c, g in rows if not g]
        if sample is not None:
            realizable = rng.sample(realizable, min(sample, len(realizable)))
            unrealizable = rng.sample(unrealizable, min(2 * sample, len(unrealizable)))
        sizes = [len(m.factors[n]) for n in (2, 4, 6, 8)]
        ends = [0, *itertools.accumulate(sizes)]
        for coords, expected in [(c, True) for c in realizable] + [(c, False) for c in unrealizable]:
            coords = coords + (0,) * sizes[3] * (rank == 3)
            u = data.chern_tuple(*(coords[a:b] for a, b in zip(ends, ends[1:])))
            assert twisted_integral(data, u.classes(), twist_powers) == expected, (rank, coords)
            if expected:
                assert count_classes(data, u if rank == 4 else u.classes()[:3], rank).is_trivial
