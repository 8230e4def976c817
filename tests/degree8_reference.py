"""A frozen reference: ``DEGREE8_TABLE`` evaluated class by class.

Each monomial of the table is cupped from the classes of the tuple, p1 and
c with the class-based ``cup``, left to right, and paired with ``pair_top``;
the columns are integer combinations of those pairings.  It reads neither
the compiled data nor ``data.congruences``.  Do not edit it; the tests hold
the compiled polynomial to it.
"""

from operator import mul

from bundlecensus.charclass import DEGREE8_TABLE
from bundlecensus.cohomology import ChernTuple, ManifoldData, cup, pair_top


def pairing(data: ManifoldData, u: ChernTuple, mono: tuple[str, ...]) -> int:
    """<mono, [M]> at the tuple u."""
    classes = {"u1": u.u1, "u2": u.u2, "u3": u.u3, "u4": u.u4, "p1": data.p1, "c": data.spinc_class}
    x = classes[mono[0]]
    for symbol in mono[1:]:
        x = cup(data, x, classes[symbol])
    return pair_top(data, x)


def columns(data: ManifoldData, u: ChernTuple) -> tuple[int, int, int, int]:
    """24*rr, <u4>, rhs(2) and 4*rhs(3) at the tuple u."""
    pairings = [pairing(data, u, mono) for mono, *_ in DEGREE8_TABLE]
    return tuple(sum(map(mul, column, pairings)) for column in list(zip(*DEGREE8_TABLE))[1:])
