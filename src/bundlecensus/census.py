"""Exhaustive Chern-tuple census over cp4 with a closed-form cross-check.

On cp4 every class is an integer multiple of a power of the hyperplane
class, so a candidate tuple is four integers (a1, a2, a3, a4).  The
closed-form admissibility conditions are the classical congruences

    rank 4:  2*a4 == a2^2 + a2 + a1*(a1*a2 - a3)   mod 3
             2*a4 == a2^2 + a2 + a1*a2 - a3        mod 4
    rank 3:  the rank-4 congruences at a4 = 0.

The census evaluates both the closed form and the generic rank checker on
the built-in cp4 data for every tuple in the box; any disagreement is a
bug in one of the two paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .classify import rank4_realizable
from .cohomology import ManifoldData
from .fixtures import builtin


def cp4_rank4_admissible(a1: int, a2: int, a3: int, a4: int) -> bool:
    lhs = 2 * a4
    return (lhs - (a2 * a2 + a2 + a1 * (a1 * a2 - a3))) % 3 == 0 and (
        lhs - (a2 * a2 + a2 + a1 * a2 - a3)
    ) % 4 == 0


def cp4_rank3_admissible(a1: int, a2: int, a3: int) -> bool:
    return cp4_rank4_admissible(a1, a2, a3, 0)


@dataclass(frozen=True)
class CensusRow:
    coefficients: tuple[int, ...]
    closed_form: bool
    generic: bool


@dataclass(frozen=True)
class CensusResult:
    bound: int
    rank: int
    rows: tuple[CensusRow, ...]

    def realizable(self) -> list[tuple[int, ...]]:
        return [r.coefficients for r in self.rows if r.generic]

    def disagreements(self) -> list[tuple[int, ...]]:
        return [r.coefficients for r in self.rows if r.generic != r.closed_form]


def enumerate_cp4(bound: int, rank: int, data: ManifoldData | None = None) -> CensusResult:
    """Evaluate every tuple with coefficients in [-bound, bound] both ways.

    Deterministic lexicographic order; the generic path runs the rank
    checker's integer evaluator on the built-in cp4 data.  A rank-3 triple
    is checked, both ways, as the rank-4 tuple (a1, a2, a3, 0), as
    ``check_rank3`` does.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if rank not in (3, 4):
        raise ValueError("rank must be 3 or 4")
    if data is None:
        data = builtin("cp4")
    span = range(-bound, bound + 1)
    # each coefficient as the reduced coordinates of a class, as chern_tuple makes it
    u1s, u2s, u3s, u4s = ({a: data.compiled.reduce(d, (a,)) for a in span} for d in (2, 4, 6, 8))
    rows = []
    for coeffs in itertools.product(span, repeat=rank):
        a1, a2, a3, a4 = coeffs + (0,) * (4 - rank)
        generic = rank4_realizable(data, u1s[a1], u2s[a2], u3s[a3], u4s[a4])
        rows.append(CensusRow(coeffs, cp4_rank4_admissible(a1, a2, a3, a4), generic))
    return CensusResult(bound, rank, tuple(rows))
