"""Exhaustive Chern-tuple census over a coordinate box.

``enumerate`` pairs the monomials of ``DEGREE8_TABLE`` by the census variables they
read (``_STAGES``): (u2) and (u3) once per value; (u1, u3) and (u1, u2) as exact linear
forms (``CompiledManifold.pair_form``) contracted once per u1, plus a term mod each finite
factor of H^8.  Condition (1) is looked up by rho2(u3) where rho2 at degree 6 commutes with
reduction, else compared per u3.  ``rank4_conditions`` runs at the first pass of (1).

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
from itertools import chain, product
from operator import mul, xor
from typing import Callable, NamedTuple

from .charclass import DEGREE8_TABLE, MONOMIALS, _steps, pair_monomials
from .classify import condition1_lhs, condition1_rhs, integral_rhs3, rank4_conditions
from .cohomology import CompiledManifold, Coords, ManifoldData
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
    """The share of rhs(2) and 4*rhs(3) of the monomials reading ``reads``."""
    monomials, _, _, *columns = _STAGES[reads]
    pairings = pair_monomials(m, {("p1",): m.p1, ("c",): m.c, **products}, monomials)
    return [sum(map(mul, column, pairings)) for column in columns]


def _stage(m: CompiledManifold, reads: tuple[str, ...], fixed: dict, operands: dict, totals: list) -> list:
    """``totals`` plus the stage's share of rhs(2) and 4*rhs(3) at each index of the value lists
    in ``operands``: each monomial's last cup as a linear form in its operand that ``fixed`` lacks."""
    monomials, _, _, *columns = _STAGES[reads]
    for mono, k2, k3 in zip(monomials, *columns):
        prefix, a, factor, b = _LAST_CUPS[mono]
        weights, finite = m.pair_form(a, fixed.get(prefix), b, fixed.get(factor))
        values = operands[factor if prefix in fixed else prefix]
        pairings = [sum(map(mul, weights, v)) for v in values]
        for w, d, row in finite:  # a finite factor of H^8: none on validated data
            pairings = [p + w * (sum(map(mul, row, v)) % d) for p, v in zip(pairings, values)]
        totals = [(t2 + k2 * p, t3 + k3 * p) for (t2, t3), p in zip(totals, pairings)]
    return totals


def _condition1(data: ManifoldData, u3s: list[Coords]) -> Callable[[Coords, Coords], list[int]]:
    """(Sq^2 rho2(u2), u1*u2) -> indices of the u3s passing (1); a lookup if rho2 commutes with reduction."""
    m = data.compiled
    index: dict[Coords, list[int]] = {}
    for i, u3 in builtins.enumerate(u3s):
        index.setdefault(m.apply("rho2", 6, u3), []).append(i)
    if any(d * v % 2 for row in m.ops["rho2"][6] for d, v in zip(m.factors[6], row)):
        return lambda lhs1, u1u2: [i for i in range(len(u3s)) if condition1_rhs(data, u1u2, u3s[i]) == lhs1]
    return lambda lhs1, u1u2: index.get(tuple(map(xor, lhs1, m.apply("rho2", 6, u1u2))), [])


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
    blocks: list[list[bool]] = []
    lhs1s = by_u2 = None
    for u1 in u1s:
        u1u2s = [m.cup(2, u1, 4, u2) for u2 in u2s]
        if lhs1s is None:  # check_rank4's order: u1*u2, then each side of (1)
            lhs1s = [condition1_lhs(data, u2) for u2 in u2s]
            passing = _condition1(data, u3s)
        u3_terms = None
        for j, (u2, u1u2) in builtins.enumerate(zip(u2s, u1u2s)):
            matches = passing(lhs1s[j], u1u2)
            if not matches:
                blocks += [failed] * len(u3s)
                continue
            if by_u2 is None:  # first tuple passing (1): check_rank4's errors; it reaches every cup table
                rank4_conditions(data, u1, u2, u3s[matches[0]], u4s[0])
                by_u2 = [_share(m, ("u2",), {("u2",): x}) for x in u2s]
                by_u3 = [_share(m, ("u3",), {("u3",): x}) for x in u3s]
            if u3_terms is None:
                fixed = {("u1",): u1, ("u1", "u1"): m.cup(2, u1, 2, u1), ("c",): m.c}
                u2_terms = _stage(m, ("u1", "u2"), fixed, {("u2",): u2s, ("u1", "u2"): u1u2s}, by_u2)
                u3_terms = _stage(m, ("u1", "u3"), fixed, {("u3",): u3s}, by_u3)
            t2, t3 = u2_terms[j]
            rows = [failed] * len(u3s)
            for i in matches:
                rhs3 = integral_rhs3(t3 + u3_terms[i][1], m.name)
                rows[i] = verdicts[(t2 + u3_terms[i][0]) % 3, rhs3 % 2]
            blocks += rows
    return list(zip(product(*(r for rs in ranges[:rank] for r in rs)), chain.from_iterable(blocks)))


def enumerate_cp4(bound: int, rank: int, data: ManifoldData | None = None) -> CensusResult:
    """Every tuple with coefficients in [-bound, bound], decided both ways: by
    ``enumerate`` on the built-in cp4 data and by the closed form, rank 3 as
    (a1, a2, a3, 0) as ``check_rank3`` does; lexicographic order."""
    pad = (0,) * (4 - rank)
    rows = enumerate(builtin("cp4") if data is None else data, bound, rank)
    return CensusResult(
        bound, rank, tuple(CensusRow(c, cp4_rank4_admissible(*c, *pad), g) for c, g in rows)
    )
