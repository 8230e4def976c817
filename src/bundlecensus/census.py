"""Exhaustive Chern-tuple census over a coordinate box.

One core, ``_census``, decides a box and returns two iterables: the coefficients (the
product over the box) and their verdicts.  ``enumerate`` zips them; ``enumerate_cp4``
builds its rows and its closed-form column from them by columns, with no Python frame
per tuple but the one call of the closed form.

The census decides validated data only: data whose report (``data.report``) fails a law
raises ``ManifoldValidationError`` before any verdict.  The core pairs the monomials of
``DEGREE8_TABLE`` by the census variables they read (``_STAGES``): (u2) once per value,
with c*c cupped once per box; every other one as an exact linear form
(``CompiledManifold.pair_form``, exact as H^8 = Z) in the operand of its last cup that
varies, contracted once per box where the fixed operand is c and once per u1 where it
reads u1.  Condition (1) is looked up by rho2(u3), which commutes with reduction on
validated data (the law ``rho2_times2``).

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
from itertools import chain, product, repeat
from operator import mul, xor
from typing import Iterable, NamedTuple

from .charclass import DEGREE8_TABLE, MONOMIALS, _steps, pair_monomials
from .classify import condition1_lhs, integral_rhs3
from .cohomology import CompiledManifold, Coords, ManifoldData, ManifoldValidationError
from .fixtures import builtin

# the rows of DEGREE8_TABLE but <u4>'s, as columns, grouped by the census
# variables they read; the census tests check that they add up to the table
_READS = {mono: tuple(u for u in ("u1", "u2", "u3", "u4") if u in mono) for mono, *_ in DEGREE8_TABLE}
_STAGES = {
    reads: tuple(zip(*(row for row in DEGREE8_TABLE if _READS[row[0]] == reads)))
    for reads in dict.fromkeys(_READS.values()) if "u4" not in reads
}
_LAST_CUPS = {step[0]: step[1:] for step in _steps(MONOMIALS)}  # product -> its last cup, as _steps cups it


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


def _share(m: CompiledManifold, reads: tuple[str, ...], products: dict) -> list[int]:
    """The share of rhs(2) and 4*rhs(3) of the monomials reading ``reads``, from ``products``
    as ``pair_monomials`` reads and fills it."""
    monomials, _, _, *columns = _STAGES[reads]
    pairings = pair_monomials(m, products, monomials)
    return [sum(map(mul, column, pairings)) for column in columns]


def _forms(m: CompiledManifold, reads: tuple[str, ...], fixed: dict) -> dict:
    """{monomial: (operand, weights)} for each monomial of the stage whose last cup has an
    operand in ``fixed``: that cup as a linear form in its other operand (``CompiledManifold.pair_form``)."""
    forms = {}
    for mono in _STAGES[reads][0]:
        prefix, a, factor, b = _LAST_CUPS[mono]
        if prefix in fixed or factor in fixed:
            weights = m.pair_form(a, fixed.get(prefix), b, fixed.get(factor))
            forms[mono] = (factor if prefix in fixed else prefix, weights)
    return forms


def _stage(reads: tuple[str, ...], forms: dict, operands: dict, totals: list) -> list:
    """``totals`` plus the stage's share of rhs(2) and 4*rhs(3) at each index of the value lists
    in ``operands``, each monomial through its form in ``forms``."""
    monomials, _, _, *columns = _STAGES[reads]
    for mono, k2, k3 in zip(monomials, *columns):
        operand, weights = forms[mono]
        pairings = [sum(map(mul, weights, v)) for v in operands[operand]]
        totals = [(t2 + k2 * p, t3 + k3 * p) for (t2, t3), p in zip(totals, pairings)]
    return totals


def _census(data: ManifoldData, bound: int, rank: int) -> tuple[Iterable[Coords], Iterable[bool]]:
    """The coefficients of the box and their verdicts, as ``enumerate`` pairs them; every
    verdict is decided, and every error raised, before this returns."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if rank not in (3, 4):
        raise ValueError("rank must be 3 or 4")
    if not data.report.ok:
        raise ManifoldValidationError(data.report)
    m = data.compiled
    ranges = [[range(d) if d else range(-bound, bound + 1) for d in m.factors[n]] for n in (2, 4, 6, 8)]
    if rank == 3:
        ranges[3] = [range(1)] * len(m.factors[8])
    u1s, u2s, u3s, u4s = (list(product(*r)) for r in ranges)
    lhs = [m.pair(u4) for u4 in u4s]
    verdicts = {(a, b): [x % 3 == a and x % 2 == b for x in lhs] for a in range(3) for b in range(2)}
    failed = [False] * len(u4s)
    by_rho2: dict[Coords, list[int]] = {}  # rho2(u3) -> the indices of those u3s
    for i, u3 in builtins.enumerate(u3s):
        by_rho2.setdefault(m.apply("rho2", 6, u3), []).append(i)
    lhs1s = [condition1_lhs(data, u2) for u2 in u2s]
    box = {("p1",): m.p1, ("c",): m.c, ("c", "c"): m.cup(2, m.c, 2, m.c)}
    by_u2 = [_share(m, ("u2",), {("u2",): x, **box}) for x in u2s]
    by_u3 = _stage(("u3",), _forms(m, ("u3",), box), {("u3",): u3s}, [(0, 0)] * len(u3s))
    box_forms = _forms(m, ("u1", "u2"), box)
    blocks: list[list[bool]] = []
    for u1 in u1s:
        u1u2s = [m.cup(2, u1, 4, u2) for u2 in u2s]
        fixed = {("u1",): u1, ("u1", "u1"): m.cup(2, u1, 2, u1)}
        forms = {**box_forms, **_forms(m, ("u1", "u2"), fixed)}
        u2_terms = _stage(("u1", "u2"), forms, {("u2",): u2s, ("u1", "u2"): u1u2s}, by_u2)
        u3_terms = _stage(("u1", "u3"), _forms(m, ("u1", "u3"), fixed), {("u3",): u3s}, by_u3)
        for lhs1, u1u2, (t2, t3) in zip(lhs1s, u1u2s, u2_terms):
            rows = [failed] * len(u3s)
            for i in by_rho2.get(tuple(map(xor, lhs1, m.apply("rho2", 6, u1u2))), ()):
                s2, s3 = u3_terms[i]
                s3 += t3
                if s3 % 4:
                    integral_rhs3(s3, m.name)
                rows[i] = verdicts[(t2 + s2) % 3, s3 // 4 % 2]
            blocks += rows
    return product(*(r for rs in ranges[:rank] for r in rs)), chain.from_iterable(blocks)


def enumerate(data: ManifoldData, bound: int, rank: int) -> list[tuple[Coords, bool]]:
    """(coefficients, realizable) for every rank-``rank`` tuple of the box:
    free coordinates in [-bound, bound], torsion ones of order d in range(d),
    flat over u1, u2, u3 (and u4), in lexicographic order.  Rank 3 decides
    (u1, u2, u3, 0).  Raises ``ManifoldValidationError`` on data that fails a law;
    otherwise the verdicts and the first exception are ``check_rank4``'s."""
    return list(zip(*_census(data, bound, rank)))


def enumerate_cp4(bound: int, rank: int, data: ManifoldData | None = None) -> CensusResult:
    """Every tuple with coefficients in [-bound, bound], decided both ways: by
    ``enumerate`` on the built-in cp4 data and by the closed form, rank 3 as
    (a1, a2, a3, 0) as ``check_rank3`` does; lexicographic order."""
    coefficients, verdicts = _census(builtin("cp4") if data is None else data, bound, rank)
    coefficients = list(coefficients)
    closed = map(cp4_rank4_admissible, *zip(*coefficients), *[repeat(0)] * (4 - rank))
    # CensusRow._make without its Python frame per row
    rows = tuple(map(tuple.__new__, repeat(CensusRow), zip(coefficients, closed, verdicts)))
    return CensusResult(bound, rank, rows)
