"""Exhaustive Chern-tuple census over a coordinate box.

``enumerate`` decides every tuple of a box on any manifold in stages by
degree: in ``DEGREE8_TABLE`` u4 enters only as <u4>, the left-hand side of
(2) and (3), and u3 only through rho2(u3 + u1*u2), u1*u3 and c*u3.  Per u4
it compares <u4> mod 3 and mod 2 only, through a precomputed row of verdicts.

On cp4 every class is an integer multiple of a power of the hyperplane
class, so a candidate tuple is four integers (a1, a2, a3, a4).  The
closed-form admissibility conditions are the classical congruences

    rank 4:  2*a4 == a2^2 + a2 + a1*(a1*a2 - a3)   mod 3
             2*a4 == a2^2 + a2 + a1*a2 - a3        mod 4
    rank 3:  the rank-4 congruences at a4 = 0.

``enumerate_cp4`` evaluates both the closed form and the generic census on
the built-in cp4 data for every tuple in the box; any disagreement is a
bug in one of the two paths.
"""

from __future__ import annotations

import builtins
from itertools import product
from operator import mul
from typing import NamedTuple

from .charclass import DEGREE8_TABLE, pair_monomials
from .classify import condition1_lhs, condition1_rhs, integral_rhs3, rank4_conditions
from .cohomology import CompiledManifold, Coords, ManifoldData
from .fixtures import builtin

# the u3 monomials' columns of rhs(2) and 4*rhs(3); the test of the table
# checks that <u4> is the whole left-hand side and absent from the right
_U3_MONOMIALS, _, _, *_U3_COLUMNS = zip(*(row for row in DEGREE8_TABLE if "u3" in row[0]))


def cp4_rank4_admissible(a1: int, a2: int, a3: int, a4: int) -> bool:
    lhs = 2 * a4
    return (lhs - (a2 * a2 + a2 + a1 * (a1 * a2 - a3))) % 3 == 0 and (
        lhs - (a2 * a2 + a2 + a1 * a2 - a3)
    ) % 4 == 0


def cp4_rank3_admissible(a1: int, a2: int, a3: int) -> bool:
    return cp4_rank4_admissible(a1, a2, a3, 0)


class CensusRow(NamedTuple):
    coefficients: tuple[int, ...]
    closed_form: bool
    generic: bool


class CensusResult(NamedTuple):
    bound: int
    rank: int
    rows: tuple[CensusRow, ...]

    def realizable(self) -> list[tuple[int, ...]]:
        return [r.coefficients for r in self.rows if r.generic]

    def disagreements(self) -> list[tuple[int, ...]]:
        return [r.coefficients for r in self.rows if r.generic != r.closed_form]


def _u3_terms(m: CompiledManifold, u1: Coords, u3: Coords) -> list[int]:
    """The u3 monomials' share of rhs(2) and 4*rhs(3)."""
    pairings = pair_monomials(m, {("u1",): u1, ("c",): m.c, ("u3",): u3}, _U3_MONOMIALS)
    return [sum(map(mul, column, pairings)) for column in _U3_COLUMNS]


def enumerate(data: ManifoldData, bound: int, rank: int) -> list[tuple[Coords, bool]]:
    """(coefficients, realizable) for every rank-``rank`` tuple of the box:
    free coordinates in [-bound, bound], torsion ones of order d in range(d),
    flat over u1, u2, u3 (and u4), in lexicographic order.  Rank 3 decides
    (u1, u2, u3, 0).  Verdicts and the first exception are ``check_rank4``'s."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if rank not in (3, 4):
        raise ValueError("rank must be 3 or 4")
    m = data.compiled
    ranges = [[range(d) if d else range(-bound, bound + 1) for d in m.factors[n]] for n in (2, 4, 6, 8)]
    if rank == 3:
        ranges[3] = [range(1)] * len(m.factors[8])
    u1s, u2s, u3s, u4s = (list(product(*r)) for r in ranges)
    lhs = [m.pair(u4) for u4 in u4s]
    verdicts = {(a, b): [x % 3 == a and x % 2 == b for x in lhs] for a in range(3) for b in range(2)}
    failed = [False] * len(u4s)
    flags: list[bool] = []
    for u1 in u1s:
        u3_terms = None
        for u2 in u2s:
            u1u2 = m.cup(2, u1, 4, u2)
            lhs1 = condition1_lhs(data, u2)
            rest = None
            for i, u3 in builtins.enumerate(u3s):
                if condition1_rhs(data, u1u2, u3) != lhs1:
                    flags += failed
                    continue
                if rest is None:  # first at a tuple passing (1): errors are its own
                    _, rhs2, rhs3 = rank4_conditions(data, u1, u2, u3, u4s[0])[2]
                    u3_terms = u3_terms or [_u3_terms(m, u1, x) for x in u3s]
                    rest = (rhs2 - u3_terms[i][0], 4 * rhs3 - u3_terms[i][1])
                t2, t3 = u3_terms[i]
                rhs3 = integral_rhs3(rest[1] + t3, m.name)
                flags += verdicts[(rest[0] + t2) % 3, rhs3 % 2]
    return list(zip(product(*(r for rs in ranges[:rank] for r in rs)), flags))


def enumerate_cp4(bound: int, rank: int, data: ManifoldData | None = None) -> CensusResult:
    """Every tuple with coefficients in [-bound, bound], decided both ways: by
    ``enumerate`` on the built-in cp4 data and by the closed form, rank 3 as
    (a1, a2, a3, 0) as ``check_rank3`` does; lexicographic order."""
    pad = (0,) * (4 - rank)
    rows = enumerate(builtin("cp4") if data is None else data, bound, rank)
    return CensusResult(
        bound, rank, tuple(CensusRow(c, cp4_rank4_admissible(*c, *pad), g) for c, g in rows)
    )
