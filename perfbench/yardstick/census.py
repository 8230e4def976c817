"""Exhaustive Chern-tuple census over cp4 with a closed-form cross-check.

On cp4 every class is an integer multiple of a power of the hyperplane
class, so a candidate tuple is four integers (a1, a2, a3, a4).  The
closed-form admissibility conditions are the classical congruences

    rank 4:  2*a4 == a2^2 + a2 + a1*(a1*a2 - a3)   mod 3
             2*a4 == a2^2 + a2 + a1*a2 - a3        mod 4
    rank 3:  the same two left-hand sides vanish.

The census evaluates both the closed form and the generic rank checker on
the built-in cp4 data for every tuple in the box; any disagreement is a
bug in one of the two paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .classify import check_rank3, check_rank4
from .cohomology import ManifoldData
from .fixtures import builtin


def cp4_rank4_admissible(a1: int, a2: int, a3: int, a4: int) -> bool:
    lhs = 2 * a4
    return (lhs - (a2 * a2 + a2 + a1 * (a1 * a2 - a3))) % 3 == 0 and (
        lhs - (a2 * a2 + a2 + a1 * a2 - a3)
    ) % 4 == 0


def cp4_rank3_admissible(a1: int, a2: int, a3: int) -> bool:
    return (a2 * a2 + a2 + a1 * (a1 * a2 - a3)) % 3 == 0 and (
        a2 * a2 + a2 + a1 * a2 - a3
    ) % 4 == 0


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

    Deterministic lexicographic order; the generic path runs the full
    rank checker on the built-in cp4 data.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if rank not in (3, 4):
        raise ValueError("rank must be 3 or 4")
    if data is None:
        data = builtin("cp4")
    span = range(-bound, bound + 1)
    rows = []
    if rank == 4:
        for coeffs in itertools.product(span, repeat=4):
            a1, a2, a3, a4 = coeffs
            u = data.chern_tuple((a1,), (a2,), (a3,), (a4,))
            rows.append(
                CensusRow(coeffs, cp4_rank4_admissible(*coeffs), check_rank4(data, u).realizable)
            )
    else:
        for coeffs in itertools.product(span, repeat=3):
            a1, a2, a3 = coeffs
            verdict = check_rank3(
                data, data.zclass(2, (a1,)), data.zclass(4, (a2,)), data.zclass(6, (a3,))
            )
            rows.append(CensusRow(coeffs, cp4_rank3_admissible(*coeffs), verdict.realizable))
    return CensusResult(bound, rank, tuple(rows))
