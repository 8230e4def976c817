"""Realizability decisions and isomorphism-class counts.

``check_rank4`` decides whether a tuple (u1, u2, u3, u4) occurs as the
Chern classes of a rank-4 bundle by evaluating three conditions:

(1)  Sq^2 rho2(u2) == rho2(u3 + u1*u2)  in H^6(M; Z/2),
(2)  <u4,[M]> == <p1*u2 - u1^2*u2 + u1*u3 - u2^2, [M]>          mod 3,
(3)  <u4,[M]> == <-u1^2*u2 + u1*u3
                  + [2*u2^2 + p1*u2 - 3*c^2*u2]/4
                  + c*(u1*u2 - u3)/2, [M]>                       mod 2.

Conditions (2) and (3) are only evaluated once (1) holds; the rational
right-hand side of (3) is guaranteed to be an integer exactly under (1),
so evaluating it earlier would raise spurious errors.  A rank-3 tuple
(u1, u2, u3) is realizable iff (u1, u2, u3, 0) is realizable in rank 4.

The number of isomorphism classes sharing a realizable tuple is carried
by quotient groups computed from the manifold data: ``compute_B`` for
rank 4, ``compute_B x compute_T`` for rank 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from .abelian import FGAbelianGroup, GroupElement, subgroup_quotient
from .charclass import CONDITION_COLUMNS, MONOMIALS, pair_monomials, symbol_products
from .cohomology import ChernTuple, CohomologyClass, ManifoldData, apply_op, cup


class InternalInconsistencyError(RuntimeError):
    """Condition (1) holds but the condition-(3) expression is not integral.

    This cannot happen for data describing an actual closed oriented
    spin^c 8-manifold; it signals corrupt ManifoldData."""


class OddGeneratorsMissing(LookupError):
    """The rank-3 fiber group needs the odd unitary generators as input."""


@dataclass(frozen=True)
class Condition1:
    passed: bool
    lhs: CohomologyClass
    rhs: CohomologyClass


@dataclass(frozen=True)
class Condition2:
    passed: bool
    lhs_value: int
    rhs_value: int
    lhs_mod3: int
    rhs_mod3: int


@dataclass(frozen=True)
class Condition3:
    passed: bool
    rhs_exact: Fraction
    lhs_mod2: int
    rhs_mod2: int
    integrality_violated: bool = False


@dataclass(frozen=True)
class Verdict:
    """Realizability decision with a per-condition breakdown.

    ``condition2`` and ``condition3`` are None when condition (1) already
    failed.  ``realizable`` is the conjunction of all evaluated
    conditions.  The exact rational in ``condition3`` depends on the
    choice of spin^c class; everything in ``decision_fields`` does not.
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
    """Decide whether u is the Chern tuple of a rank-4 bundle over the data."""
    u1u2 = cup(data, u.u1, u.u2)
    lhs1 = apply_op(data, "sq2", apply_op(data, "rho2", u.u2))
    rhs1 = apply_op(data, "rho2", data.add(u.u3, u1u2))
    condition1 = Condition1(lhs1 == rhs1, lhs1, rhs1)
    if not condition1.passed:
        return Verdict(
            4,
            False,
            condition1,
            None,
            None,
            notes=("condition (1) failed; (2) and (3) not evaluated",),
        )

    products = symbol_products(data, u)
    products["u1", "u2"] = u1u2
    pairings = pair_monomials(data, products, MONOMIALS)
    lhs, rhs2, rhs3_times4 = (sum(map(mul, column, pairings)) for column in CONDITION_COLUMNS)
    condition2 = Condition2(lhs % 3 == rhs2 % 3, lhs, rhs2, lhs % 3, rhs2 % 3)

    rhs3 = Fraction(rhs3_times4, 4)
    if rhs3.denominator != 1:
        raise InternalInconsistencyError(
            f"condition (3) right-hand side {rhs3} is not an integer although "
            f"condition (1) holds; manifold data {data.name!r} is inconsistent"
        )
    condition3 = Condition3(lhs % 2 == int(rhs3) % 2, rhs3, lhs % 2, int(rhs3) % 2)

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
    padded = ChernTuple(u1, u2, u3, data.zero(8))
    verdict = check_rank4(data, padded)
    return replace(verdict, rank=3)


def compute_B(data: ManifoldData) -> FGAbelianGroup:
    """Quotient of Bockstein images counting rank-4 bundles per Chern tuple.

    Numerator: beta of the mod-2 basis of H^5.  Denominator: beta of
    Sq^2 rho2 applied to the integral generators of H^3.  Always a finite
    group in which every element has order dividing 2.
    """
    h6 = data.group(6)
    numerator = []
    for i in range(data.m2dim(5)):
        basis = data.m2class(5, (1 if k == i else 0 for k in range(data.m2dim(5))))
        numerator.append(GroupElement(apply_op(data, "beta", basis).coords))
    denominator = []
    for j in range(data.ngens(3)):
        gen = data.zclass(3, (1 if k == j else 0 for k in range(data.ngens(3))))
        image = apply_op(data, "beta", apply_op(data, "sq2", apply_op(data, "rho2", gen)))
        denominator.append(GroupElement(image.coords))
    return subgroup_quotient(h6, numerator, denominator)


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
    never supplied, which is an error.
    """
    if data.odd_generators is None:
        raise OddGeneratorsMissing("T unavailable: supply odd unitary generators")
    h7 = data.group(7)
    numerator = [
        h7.element(1 if k == j else 0 for k in range(h7.num_generators))
        for j in range(h7.num_generators)
    ]
    denominator = []
    for g1, g3, g5, g7 in data.odd_generators:
        acc = g7
        acc = data.add(acc, cup(data, u1, g5))
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
    carrier only.  Returns None when the tuple is not realizable.
    """
    if rank == 4:
        if not isinstance(u, ChernTuple):
            raise ValueError("rank 4 expects a ChernTuple")
        if not check_rank4(data, u).realizable:
            return None
        return compute_B(data)
    if rank == 3:
        u1, u2, u3 = u if not isinstance(u, ChernTuple) else (u.u1, u.u2, u.u3)
        if not check_rank3(data, u1, u2, u3).realizable:
            return None
        return compute_B(data).direct_sum(compute_T(data, u1, u2, u3))
    raise ValueError(f"rank must be 3 or 4, got {rank}")


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
