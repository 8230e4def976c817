"""A change of cohomology basis moves every coordinate and no verdict.

``change_basis`` rewrites torsion-free data in new bases of H^2, H^4 and
H^6: coordinates map by x -> A*x for a unimodular A per degree, so every
cup table, matrix and class moves with them (the mod-2 ones by A mod 2),
while H^0, H^8, the pairing and the names stay.  The new tables are dense,
so the compiled form, the polynomial and the census read every product of
them.  The answers must not move: the report, the degree-8 columns against
the class-based reference, the verdicts, rr, B and the census box.
"""

import itertools
import random

import pytest
from test_congruences import assert_matches_reference

from bundlecensus import census
from bundlecensus.abelian import IntMatrix
from bundlecensus.charclass import rr_value
from bundlecensus.classify import Condition1, check_rank4
from bundlecensus.cohomology import apply_op, cup, validate_manifold
from bundlecensus.fixtures import builtin

BASES = ("cp1xcp3", "cp2xcp2")


def unimodular(rng, n: int) -> tuple[IntMatrix, IntMatrix]:
    """A seeded product of elementary matrices of size n, and its inverse."""
    A, inverse = IntMatrix.identity(n).to_rows(), IntMatrix.identity(n).to_rows()
    for _ in range(4 * n):
        i = rng.randrange(n)
        if n == 1 or rng.random() < 0.2:  # row i times -1
            A[i] = [-v for v in A[i]]
            for row in inverse:
                row[i] = -row[i]
        else:  # row i plus k times row j; the inverse's column j minus k times its column i
            j, k = rng.choice([j for j in range(n) if j != i]), rng.choice((-2, -1, 1, 2))
            A[i] = [v + k * w for v, w in zip(A[i], A[j])]
            for row in inverse:
                row[j] -= k * row[i]
    A, inverse = IntMatrix.from_rows(A, n), IntMatrix.from_rows(inverse, n)
    assert A @ inverse == IntMatrix.identity(n)
    return A, inverse


def change_basis(data, matrices: dict[int, tuple[IntMatrix, IntMatrix]]):
    """The data in the bases where a class of coordinates x has A*x, for each degree n with
    ``matrices[n] = (A, A^-1)``; the identity elsewhere.  Torsion-free data only.  Each new table
    entry and matrix column is the old product or operation at the old coordinates of the new
    basis vectors, the columns of A^-1, by the class-based ``cup`` and ``apply_op``."""
    assert all(not any(g.invariant_factors) for g in data.integral.groups)

    def forward(x):
        if x.degree not in matrices:
            return x
        return data.make_class(x.degree, x.ring, matrices[x.degree][0].apply(x.coords))

    def unit(degree, ring, j):  # new basis vector j, in old coordinates
        if degree in matrices:
            return data.make_class(degree, ring, matrices[degree][1].column(j))
        return data.make_class(degree, ring, (int(k == j) for k in range(data.dim(degree, ring))))

    def tables(ring, given):
        return {
            (a, b): {
                (i, j): forward(cup(data, unit(a, ring, i), unit(b, ring, j))).coords
                for i, j in table
            }
            for (a, b), table in given.items()
        }

    def maps(op, source_ring):
        return {
            n: IntMatrix.from_columns(
                [forward(apply_op(data, op, unit(n, source_ring, j))).coords for j in range(M.cols)], M.rows
            )
            for n, M in getattr(data, op).items()
        }

    return data._replace(
        cup_z=tables("Z", data.cup_z),
        cup_m2=tables("Z2", data.cup_m2),
        rho2=maps("rho2", "Z"),
        beta=maps("beta", "Z2"),
        sq2=maps("sq2", "Z2"),
        p1=forward(data.p1),
        spinc_class=forward(data.spinc_class),
        w2=None if data.w2 is None else forward(data.w2),
    )


def changed(name: str, seed: int):
    """(old, new, matrices): the builtin and the builtin in seeded new bases of H^2, H^4, H^6."""
    old = builtin(name)
    rng = random.Random(seed)
    matrices = {n: unimodular(rng, old.ngens(n)) for n in (2, 4, 6)}
    return old, change_basis(old, matrices), matrices


def nonzero_products(data) -> int:
    return sum(len(row) for table in data.compiled.cups.values() if table for row in table.values())


def moved(data, u, matrices, inverse: bool = False):
    """u's coordinates in the other basis, by A or by A^-1, as a tuple of data."""
    return data.chern_tuple(*(
        matrices[x.degree][inverse].apply(x.coords) if x.degree in matrices else x.coords for x in u.classes()
    ))


@pytest.mark.parametrize("name", BASES)
def test_a_change_of_basis_moves_no_answer(name):
    # the verdicts agree but for the coordinates of condition (1)'s sides, which move by A mod 2
    old, new, matrices = changed(name, 41)
    assert validate_manifold(new, strict=True).ok, str(validate_manifold(new, strict=True))
    assert nonzero_products(new) > nonzero_products(old)  # dense: the compiled form holds more
    assert new.B == old.B
    assert_matches_reference(new, random.Random(43), 12)

    def side(x):
        return new.m2class(6, matrices[6][0].apply(x.coords))

    rng = random.Random(47)
    for i in range(40):
        bound = 10**30 if i % 5 == 0 else 9
        u = old.chern_tuple(*([rng.randint(-bound, bound) for _ in range(old.ngens(n))] for n in (2, 4, 6, 8)))
        v = moved(new, u, matrices)
        before, after = check_rank4(old, u), check_rank4(new, v)
        c1 = before.condition1
        assert after.condition1 == Condition1(c1.passed, side(c1.lhs), side(c1.rhs)), u
        assert after._replace(condition1=None) == before._replace(condition1=None), u
        assert rr_value(new, v, self_check=True) == rr_value(old, u), u


@pytest.mark.parametrize("rank", [4, 3])
@pytest.mark.parametrize("name", BASES)
def test_a_change_of_basis_moves_no_census_verdict(name, rank):
    old, new, matrices = changed(name, 53)
    got = census.enumerate(new, 1, rank)
    sizes = list(itertools.accumulate(old.ngens(n) for n in (2, 4, 6, 8)))
    assert len(got) == 3 ** sizes[rank - 1]
    verdicts = set()
    for coefficients, realizable in got:
        coords = [coefficients[a:b] for a, b in zip([0, *sizes], sizes)]
        if rank == 3:
            coords[3] = (0,) * old.ngens(8)
        u = moved(old, new.chern_tuple(*coords), matrices, inverse=True)
        assert check_rank4(old, u).realizable == realizable, coefficients
        verdicts.add(realizable)
    assert verdicts == {True, False}
