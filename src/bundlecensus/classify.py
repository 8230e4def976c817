"""Realizability decisions and isomorphism-class counts.

``check_rank4`` decides whether a tuple (u1, u2, u3, u4) occurs as the
Chern classes of a rank-4 bundle by evaluating three conditions:

(1)  Sq^2 rho2(u2) == rho2(u3 + u1*u2)  in H^6(M; Z/2),
(2)  <u4,[M]> == <p1*u2 - u1^2*u2 + u1*u3 - u2^2, [M]>          mod 3,
(3)  <u4,[M]> == <-u1^2*u2 + u1*u3
                  + [2*u2^2 + p1*u2 - 3*c^2*u2]/4
                  + c*(u1*u2 - u3)/2, [M]>                       mod 2.

Conditions (2) and (3) are only evaluated once (1) holds: on an actual
manifold (1) makes the rational right-hand side of (3) an integer, and the
law ``rhs3_integral`` checks that once, at load.  Every decision and count
takes its tuple through the gate ``ManifoldData.checked``.  A rank-3 tuple
(u1, u2, u3) is realizable iff (u1, u2, u3, 0) is realizable in rank 4.

The number of isomorphism classes sharing a realizable tuple is carried
by quotient groups computed from the manifold data: ``compute_B`` for
rank 4, ``compute_B x compute_T`` for rank 3.

``check_rank4`` is the one per-tuple decision.  It reads condition (1) off
``CompiledManifold.condition1``, the one evaluator of (1), which the census
and the law ``rhs3_integral`` read as well, and conditions (2) and (3),
<u4,[M]> and their right-hand sides, off the manifold's compiled
congruences (``data.congruences``): three dot products with the values of
its coordinate monomials, no cup.  ``compute_B`` applies rho2, Sq^2 and
beta to coordinate tuples through ``CompiledManifold.apply``, which reduces
and raises as ``apply_op`` does; neither it nor ``check_rank4`` builds a
class to reach a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .abelian import FGAbelianGroup, GroupElement, IntMatrix, subgroup_quotient
from .cohomology import ChernTuple, CohomologyClass, ManifoldData, cup


class OddGeneratorsMissing(LookupError):
    """The rank-3 fiber group needs the odd unitary generators as input."""


class Condition1(NamedTuple):
    passed: bool
    lhs: CohomologyClass
    rhs: CohomologyClass


class Condition2(NamedTuple):
    passed: bool
    lhs_value: int
    rhs_value: int
    lhs_mod3: int
    rhs_mod3: int


class Condition3(NamedTuple):
    passed: bool
    rhs_exact: Fraction
    lhs_mod2: int
    rhs_mod2: int


class Verdict(NamedTuple):
    """Realizability decision with a per-condition breakdown.

    ``condition2`` and ``condition3`` are None when condition (1) already
    failed.  ``realizable`` is the conjunction of all evaluated
    conditions.  ``condition3.rhs_exact`` is an integer on validated data
    (the law ``rhs3_integral``); its value, though not its parity, depends
    on the choice of spin^c class, and everything in ``decision_fields``
    does not.
    """

    rank: int
    realizable: bool
    condition1: Condition1
    condition2: Condition2 | None
    condition3: Condition3 | None
    notes: tuple[str, ...] = ()

    def decision_fields(self) -> tuple:
        c2 = self.condition2
        c3 = self.condition3
        return (
            self.rank,
            self.realizable,
            self.condition1,
            c2,
            None if c3 is None else (c3.passed, c3.lhs_mod2, c3.rhs_mod2),
        )


def check_rank4(data: ManifoldData, u: ChernTuple) -> Verdict:
    """Decide whether u is the Chern tuple of a rank-4 bundle over the data; u enters through
    the gate ``data.checked``."""
    u1, u2, u3, u4 = data.checked(u)
    lhs1, rhs1 = data.compiled.condition1(u1, u2, u3)
    condition1 = Condition1(
        lhs1 == rhs1, CohomologyClass(6, "Z2", lhs1), CohomologyClass(6, "Z2", rhs1)
    )
    if not condition1.passed:
        return Verdict(
            4,
            False,
            condition1,
            None,
            None,
            notes=("condition (1) failed; (2) and (3) not evaluated",),
        )

    congruences = data.congruences
    values = congruences.values(u1 + u2 + u3 + u4)
    lhs, rhs2, rhs3_times4 = (sum(map(mul, column, values)) for column in congruences.conditions)
    rhs3 = rhs3_times4 // 4
    condition2 = Condition2(lhs % 3 == rhs2 % 3, lhs, rhs2, lhs % 3, rhs2 % 3)
    condition3 = Condition3(lhs % 2 == rhs3 % 2, Fraction(rhs3), lhs % 2, rhs3 % 2)
    return Verdict(
        4,
        condition2.passed and condition3.passed,
        condition1,
        condition2,
        condition3,
    )


def check_rank3(
    data: ManifoldData,
    u1: CohomologyClass,
    u2: CohomologyClass,
    u3: CohomologyClass,
) -> Verdict:
    """Rank-3 realizability: (u1, u2, u3, 0) must be realizable in rank 4."""
    return check_rank4(data, ChernTuple(u1, u2, u3, data.zero(8)))._replace(rank=3)


def compute_B(data: ManifoldData) -> FGAbelianGroup:
    """Quotient of Bockstein images counting rank-4 bundles per Chern tuple.

    Numerator: beta of the mod-2 basis of H^5.  Denominator: beta of
    Sq^2 rho2 applied to the integral generators of H^3.  Always a finite
    group in which every element has order dividing 2.
    """
    m = data.compiled
    numerator = [GroupElement(m.apply("beta", 5, e)) for e in IntMatrix.identity(data.m2dim(5)).to_rows()]
    h3_units = IntMatrix.identity(data.ngens(3)).to_rows()
    denominator = [
        GroupElement(m.apply("beta", 5, m.apply("sq2", 3, m.apply("rho2", 3, e)))) for e in h3_units
    ]
    return subgroup_quotient(data.group(6), numerator, denominator)


def compute_T(
    data: ManifoldData,
    u1: CohomologyClass,
    u2: CohomologyClass,
    u3: CohomologyClass,
) -> FGAbelianGroup:
    """Quotient of H^7 counting the rank-3 lifts of a stable bundle.

    The denominator is generated by g7 + u1*g5 + u2*g3 + u3*g1 over the
    supplied odd-generator quadruples; the set of such elements is a
    subgroup because the odd universal generators are primitive.  An empty
    quadruple list means the image is trivial; None means the data was
    never supplied, which is an error.  (u1, u2, u3, 0) enters through the gate ``data.checked``.
    """
    data.checked(ChernTuple(u1, u2, u3, data.zero(8)))
    if data.odd_generators is None:
        raise OddGeneratorsMissing("T unavailable: supply odd unitary generators")
    h7 = data.group(7)
    numerator = [
        h7.element(1 if k == j else 0 for k in range(h7.num_generators))
        for j in range(h7.num_generators)
    ]
    denominator = []
    for g1, g3, g5, g7 in data.odd_generators:
        acc = data.add(g7, cup(data, u1, g5))
        acc = data.add(acc, cup(data, u2, g3))
        acc = data.add(acc, cup(data, u3, g1))
        denominator.append(GroupElement(acc.coords))
    return subgroup_quotient(h7, numerator, denominator)


def count_classes(
    data: ManifoldData,
    u: ChernTuple | tuple[CohomologyClass, CohomologyClass, CohomologyClass],
    rank: int,
) -> FGAbelianGroup | None:
    """Isomorphism classes sharing the given Chern classes, as a group.

    Rank 4: in bijection with compute_B.  Rank 3: in bijection, as a set,
    with compute_B x compute_T; the group structure is a cardinality
    carrier only.  Returns None when the tuple is not realizable.  At rank 3
    u is three classes, or a ``ChernTuple``, not realizable unless u4 = 0.
    """
    if rank not in (3, 4):
        raise ValueError(f"rank must be 3 or 4, got {rank}")
    if rank == 3 and not isinstance(u, ChernTuple):
        if len(u) != 3:
            raise ValueError(f"rank 3 expects a ChernTuple or three classes, got {len(u)}")
        u = ChernTuple(*u, data.zero(8))
    # u4 is checked by check_rank4, in H^8 = Z: a rank-3 bundle has c4 = 0
    if not check_rank4(data, u).realizable or rank == 3 and any(u.u4.coords):
        return None
    return data.B if rank == 4 else data.B.direct_sum(compute_T(data, u.u1, u.u2, u.u3))


def oracle_congruences(value: Fraction) -> tuple[bool, bool]:
    """Reconstruct the outcomes of conditions (2) and (3) from the oracle.

    24 times the Riemann-Roch value is an integer P by construction.
    Condition (2) holds iff P == 0 mod 3.  Under condition (1) the value
    times 6 is an integer, and condition (3) holds iff that integer is
    even, i.e. iff P == 0 mod 8.
    """
    p = value * 24
    if p.denominator != 1:
        raise ValueError(f"24 * {value} is not an integer")
    p = int(p)
    return p % 3 == 0, p % 8 == 0
