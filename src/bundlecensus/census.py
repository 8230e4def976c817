"""Exhaustive Chern-tuple census over a coordinate box.

One core, ``_census``, decides a box and returns two iterables: the coefficients (the
product over the box) and their verdicts.  ``enumerate`` zips them; ``enumerate_cp4``
builds its rows from them and its closed-form column from one residue mod 12, with no
Python frame per tuple.

The census decides validated data only: data whose report (``data.report``) fails a law
raises ``ManifoldValidationError`` before any verdict.  Conditions (2) and (3) read rhs(2)
mod 3 and 4*rhs(3) mod 8, which fold by CRT into one residue r = 16*rhs(2) + 9*4*rhs(3)
mod 24, and per u4 the verdicts at each r are one precomputed row (``_table``), None where
rhs(3) is not an integer.  The residue is a polynomial in the coordinates of u1, u2 and u3,
read off the manifold's compiled congruences (``data.congruences``), its terms split by the
variables they read (``_stages``).  By degree each term reads u3 once, alone or after u1, or
u2 once after u1, u1*u1 or u2, or u2 alone: per u2 and per u3 its share is one sum over the
terms, and per u1 the terms that read u1 are one weight vector on u2 and one on u3
(``_weights``), so per u1 the residue is one dot product with u2 plus one with u3.
Condition (1) depends on u1, u2 and u3 mod 2 alone, as the cup is bilinear and rho2 commutes
with reduction (the law ``rho2_times2``).  It is read, as ``check_rank4`` reads it, off its
one evaluator ``CompiledManifold.condition1``, once per parities of (u1, u2) at u3 = 0: the
sum of its sides there is the rho2(u3) it asks for, so each (u1, u2) row looks up at once the
residues of the u3s with that rho2; the other u3s fail (1).  Validated data has no None
verdict: the law ``rhs3_integral`` asks that rhs(3) be an integer wherever (1) holds.

On cp4 every class is an integer multiple of a power of the hyperplane
class, so a candidate tuple is four integers (a1, a2, a3, a4).  The
closed-form admissibility conditions are the classical congruences

    rank 4:  2*a4 == a2^2 + a2 + a1*(a1*a2 - a3)   mod 3
             2*a4 == a2^2 + a2 + a1*a2 - a3        mod 4
    rank 3:  the rank-4 congruences at a4 = 0.

They fold by CRT into one residue t mod 12: with s = 4*a1 + 9 (a1 mod 3, 1 mod 4),

    t = s*a3 - a2*(a2 + 1 + a1*s)   mod 12

is minus the right side of the mod-3 congruence mod 3 and of the mod-4 one mod 4, so
the closed form at (a1, a2, a3, a4) is its value at (1, 0, t, a4): 2*a4 == -t mod 12,
no a4 for odd t and one residue of a4 mod 6 for even t.  ``enumerate_cp4`` decides the
box both ways, by the generic census on cp4-shaped data (the built-in cp4 by default)
and by the closed form, evaluated at (1, 0, t, a4) for each t and a4 of the box: one getter
per (a1, a2) reads those 12 rows as the census core reads its table.  Any disagreement is
a bug in one of the two paths.
"""

from __future__ import annotations

import builtins
from itertools import chain, product, repeat
from math import prod
from operator import itemgetter, mul, xor
from typing import Iterable, NamedTuple

from .cohomology import Coords, ManifoldData, ManifoldValidationError
from .fixtures import builtin


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


def _stages(data: ManifoldData) -> dict[tuple[str, ...], list[tuple[tuple[int, ...], int, int]]]:
    """The residue r mod 24 as a polynomial, by the census variables its terms read: {reads: [(head,
    j, w)]} for w * prod(head) * v[j], v the variable of the last factor and head the indices of the
    others, into u1 or else into v.  r = rhs(2) mod 3 and r = 4*rhs(3) mod 8 (by CRT, as 16 = 1 mod 3
    and 0 mod 8, 9 = 0 mod 3 and 1 mod 8)."""
    m = data.compiled
    congruences = data.congruences
    residue = [(16 * k2 + 9 * k3) % 24 for k2, k3 in zip(*congruences.conditions[1:])]
    # the variable of each flat coordinate and its index there
    sizes = [len(m.factors[n]) for n in (2, 4, 6)]
    variables = [u for u, n in zip(("u1", "u2", "u3"), sizes) for _ in range(n)]
    indices = [i for n in sizes for i in range(n)]
    stages = {reads: [] for reads in (("u2",), ("u3",), ("u1", "u2"), ("u1", "u3"))}
    for mono, w in zip(congruences.monomials, residue):
        if w:
            *head, last = mono
            v = variables[last]
            reads = (variables[head[0]], v) if head and variables[head[0]] != v else (v,)
            stages[reads].append((tuple([indices[i] for i in head]), indices[last], w))
    return stages


def _weights(terms: list, x: Coords, n: int) -> list[int]:
    """The weights of the terms (head, j, w) of a stage on the n coordinates of the variable
    they read last, their heads read at x."""
    weights = [0] * n
    for head, j, w in terms:
        weights[j] += w * prod(map(x.__getitem__, head))
    return weights


def _table(lhs: list[int]) -> list:
    """For each residue r mod 24, the verdicts at the values ``lhs`` of <u4>: conditions (2) and
    (3) compare them with rhs(2) = r mod 3 and rhs(3) = r mod 8 // 4; None where r mod 4 is not 0,
    where rhs(3) is not an integer."""
    return [[x % 3 == r % 3 and x % 2 == r % 8 // 4 for x in lhs] if r % 4 == 0 else None for r in range(24)]


def _getter(indices: list[int]):
    """``itemgetter(*indices)``, which returns a sequence also for one index."""
    return itemgetter(*indices) if len(indices) > 1 else itemgetter(slice(indices[0], indices[0] + 1))


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
    table = _table([m.pair(u4) for u4 in u4s])
    # the table turned by t, so that entry s is the verdicts at residue t + s; entry 24 fails (1)
    turns, failed = table + table, [[False] * len(u4s)]
    tables = [turns[t : t + 24] + failed for t in range(24)]
    stages = _stages(data)
    n2, n3 = len(m.factors[4]), len(m.factors[6])
    r2s = [sum(map(mul, _weights(stages["u2",], u2, n2), u2)) % 24 for u2 in u2s]
    r3s = [sum(map(mul, _weights(stages["u3",], u3, n3), u3)) % 24 for u3 in u3s]
    # condition (1) asks rho2(u3) = Sq^2 rho2(u2) + rho2(u1*u2), which depends on the values mod 2
    # alone: the cup is bilinear and rho2 commutes with reduction on validated data (rho2_times2)
    p1s, p2s, p3s = ([tuple([x % 2 for x in u]) for u in us] for us in (u1s, u2s, u3s))
    rho2s = {p: m.apply("rho2", 6, p) for p in dict.fromkeys(p3s)}
    number = {key: k for k, key in builtins.enumerate(dict.fromkeys(rho2s.values()))}
    classes = [number[rho2s[p]] for p in p3s]
    # for each value of rho2(u3), and last for any other, its u3s' indices and len(u3s) for the others
    members = [
        [i if c == k else len(u3s) for i, c in builtins.enumerate(classes)] for k in range(len(number) + 1)
    ]
    keys = {  # the rho2(u3) that (1) asks for, by the parities of u1 and u2: the sum of its sides at u3 = 0
        (p, q): tuple(map(xor, *m.condition1(p, q, (0,) * n3)))
        for p in dict.fromkeys(p1s) for q in dict.fromkeys(p2s)
    }
    wanted = {p: [number.get(keys[p, q], len(number)) for q in p2s] for p in dict.fromkeys(p1s)}
    blocks: list = []
    for u1, p in zip(u1s, p1s):
        w2, w3 = _weights(stages["u1", "u2"], u1, n2), _weights(stages["u1", "u3"], u1, n3)
        s3s = [(r + sum(map(mul, w3, u3))) % 24 for r, u3 in zip(r3s, u3s)] + [24]
        rows = [_getter([s3s[i] for i in indices]) for indices in members]
        for k, r, u2 in zip(wanted[p], r2s, u2s):
            blocks += rows[k](tables[(r + sum(map(mul, w2, u2))) % 24])
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
    ``enumerate`` on ``data`` (the built-in cp4 data by default) and by the closed
    form, rank 3 as (a1, a2, a3, 0) as ``check_rank3`` does; lexicographic order.
    Raises ``ValueError`` on data not shaped like cp4."""
    data = builtin("cp4") if data is None else data
    if any(data.group(n).invariant_factors != (0,) for n in (2, 4, 6, 8)):
        groups = ", ".join(f"H^{n} = {data.group(n)}" for n in (2, 4, 6, 8))
        raise ValueError(f"enumerate_cp4 needs H^2, H^4, H^6 and H^8 each Z, as on cp4; {data.name} has {groups}")
    coefficients, verdicts = _census(data, bound, rank)
    # the closed form at (a1, a2, a3, a4) is its value at (1, 0, t, a4), t = slope*a3 - base mod 12
    # for slope = 4*a1 + 9 and base = a2*(a2 + 1 + a1*slope) (the module docstring)
    box = range(-bound, bound + 1)
    a4s = box if rank == 4 else range(1)
    n = len(a4s)
    values = [cp4_rank4_admissible(1, 0, t, a4) for t in range(12) for a4 in a4s] * 2
    # the values turned by a base b: entry k*n + j is the value at t = k - b and a4s[j]
    turns = [values[(12 - b) * n : (24 - b) * n] for b in range(12)]
    getters = {  # by the slope, the entries of each (a3, a4) in turn
        slope: _getter([slope * a3 % 12 * n + j for a3 in box for j in range(n)])
        for slope in dict.fromkeys((4 * a1 + 9) % 12 for a1 in box)
    }
    blocks = [
        getters[(4 * a1 + 9) % 12](turns[a2 * (a2 + 1 + a1 * (4 * a1 + 9)) % 12]) for a1 in box for a2 in box
    ]
    closed = chain.from_iterable(blocks)
    # CensusRow._make without its Python frame per row
    rows = tuple(map(tuple.__new__, repeat(CensusRow), zip(coefficients, closed, verdicts)))
    return CensusResult(bound, rank, rows)
