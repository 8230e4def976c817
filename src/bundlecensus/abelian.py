"""Exact integer linear algebra over Z and Z/2.

Everything downstream (cohomology groups, Bockstein images, the bundle
counting quotients) reduces to three primitives implemented here:

* ``smith_normal_form(A)`` returning ``(U, D, V)`` with ``U @ A @ V == D``,
  ``U`` and ``V`` unimodular, ``D`` diagonal and nonnegative with each
  diagonal entry dividing the next;
* ``cokernel_presentation`` turning a relation matrix into the invariant
  factors of the presented group;
* ``subgroup_quotient`` computing ``<N> / <D>`` inside an ambient group
  given generator lists for numerator and denominator, from two Smith
  forms: one of the span, whose ``U`` gives coordinates in it, and the
  cokernel of those coordinates.

Every Smith form runs the one elimination ``_smith``, row operations on a
block transposed whenever a pivot does not divide its row, which updates
U and V only where a caller reads them: ``smith_normal_form`` (and through
it ``subgroup_quotient``) tracks both, ``cokernel_presentation`` neither.
Its last step, ``_divisibility_chain``, also gives
``FGAbelianGroup.canonical`` its invariant factors.  Over Z/2 there is
one elimination, ``kernel_mod2_rows``; ``rank_mod2_rows`` counts by it.
``VERIFY_POSTCONDITIONS`` checks each Smith form: a full form directly, a
bare diagonal by comparison with the full form of the same matrix.

Conventions: a group is a tuple of invariant factors ``(d1, ..., dk)``
where ``0`` encodes an infinite cyclic factor, finite factors come first
and each finite factor divides the next.  An element is a coordinate
vector of length ``k``, coordinate ``j`` reduced into ``[0, dj)`` whenever
``dj`` is finite.

All arithmetic uses Python's arbitrary-precision integers; intermediate
Smith normal form entries can overflow machine words even for small
inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from operator import index
from typing import Iterable, Sequence

VERIFY_POSTCONDITIONS = False
"""When true, every Smith form re-checks its postconditions.

The test suite flips this on so the decomposition is verified on every
call made anywhere in the package.
"""


class ContainmentError(ValueError):
    """A denominator generator escapes the subgroup spanned by the numerator."""


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """Dense integer matrix, row-major, arbitrary precision."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: Iterable[int]):
        rows, cols, entries = index(rows), index(cols), tuple(map(index, entries))
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        return tuple.__new__(cls, (rows, cols, entries))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"rows have width {width}, expected {cols}")
        else:
            width = 0 if cols is None else cols
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        cols = [list(c) for c in columns]
        for c in cols:
            if len(c) != rows:
                raise ValueError(f"column of length {len(c)}, expected {rows}")
        entries = tuple(cols[j][i] for i in range(rows) for j in range(len(cols)))
        return cls(rows, len(cols), entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def apply(self, vector: Sequence[int]) -> list[int]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError(f"vector of length {len(vector)}, expected {self.cols}")
        return [sum(a * x for a, x in zip(self.row(i), vector)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        columns = [other.column(j) for j in range(other.cols)]
        entries = tuple(
            sum(a * b for a, b in zip(self.row(i), c)) for i in range(self.rows) for c in columns
        )
        return IntMatrix(self.rows, other.cols, entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def determinant(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _smith(
    A: IntMatrix, transforms: bool
) -> tuple[IntMatrix | None, IntMatrix, IntMatrix | None]:
    """The Smith normal form core: ``(U, D, V)`` with ``U @ A @ V == D``.

    Row operations only, on the active block as a list of rows: each row is
    its A part followed by the transform riding with it, a row of U, or,
    once the block is transposed, a column of V.  The other side's
    transforms wait in ``aside``, one per column of the A part.

    Pivot rule: the entry of smallest nonzero absolute value in the A part,
    ties broken by lowest row then lowest column of the block, so the
    reduction (and hence U, V) is reproducible, and the same whether or not
    the transforms are tracked (untracked, they are returned as None).  The
    other rows subtract round(x / p) times the pivot row, and the smallest
    nonzero remainder is the next pivot row, until the pivot column is
    clear.  If p divides the rest of its row, clearing it is a column
    operation on that row and ``aside`` alone, and the pivot retires with
    its U row and V column; otherwise the row is reduced mod p and the
    block transposed.  ``_divisibility_chain`` turns the pivots into the
    diagonal.
    """
    m, n = A.rows, A.cols
    if not any(A.entries):
        return (IntMatrix.identity(m), A, IntMatrix.identity(n)) if transforms else (None, A, None)
    rows, aside = A.to_rows(), None
    if transforms:
        rows = [row + [0] * i + [1] + [0] * (m - 1 - i) for i, row in enumerate(rows)]
        aside = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    w, flipped = n, False  # the width of the A part; whether its rows are A's columns
    pivots, us, vs = [], [], []
    while True:
        best, pi = 0, -1
        for i, row in enumerate(rows):
            a = min(map(abs, filter(None, row[:w])), default=0)
            if a and (not best or a < best):
                best, pi = a, i
        if not best:
            break
        prow = rows[pi]
        c = list(map(abs, prow[:w])).index(best)
        while True:
            p = prow[c]
            p2, small, ni = 2 * p, 0, -1
            for k, row in enumerate(rows):
                if row[c] and k != pi:
                    q = (2 * row[c] + p) // p2
                    row = rows[k] = [x - q * y for x, y in zip(row, prow)]
                    a = abs(row[c])
                    if a and (not small or a < small):
                        small, ni = a, k
            if not small:
                break
            pi, prow = ni, rows[ni]
        qs = [(2 * x + p) // p2 for x in prow[:w]]
        qs[c] = 0
        if aside is not None:
            vc = aside[c]
            for j, q in enumerate(qs):
                if q:
                    aside[j] = [x - q * y for x, y in zip(aside[j], vc)]
        head = [x - q * p for x, q in zip(prow[:w], qs)]
        if head.count(0) < w - 1:
            prow[:w] = head
            if aside is None:
                rows, w = list(map(list, zip(*rows))), len(rows)
            else:
                rides = [row[w:] for row in rows]
                rows = [list(col) + v for col, v in zip(zip(*rows), aside)]
                aside, w = rides, len(rides)
            flipped = not flipped
            continue
        del rows[pi]
        for row in rows:
            del row[c]
        w -= 1
        if aside is not None:
            ride = prow[w + 1 :] if p > 0 else [-x for x in prow[w + 1 :]]  # D is nonnegative
            other = aside.pop(c)
            us.append(other if flipped else ride)
            vs.append(ride if flipped else other)
        pivots.append(abs(p))
    D = [0] * (m * n)
    for i, d in enumerate(_divisibility_chain(pivots, us, vs)):
        D[i * n + i] = d
    if aside is None:
        return None, IntMatrix(m, n, D), None
    rides = [row[w:] for row in rows]
    us += aside if flipped else rides
    vs += rides if flipped else aside
    U = IntMatrix(m, m, chain.from_iterable(us))
    return U, IntMatrix(m, n, D), IntMatrix(n, n, chain.from_iterable(zip(*vs)))


def _divisibility_chain(
    d: list[int], us: list[list[int]] | None = None, vs: list[list[int]] | None = None
) -> list[int]:
    """Make the nonnegative ``d`` a divisibility chain in place, and return it.

    Each step maps diag(a, b) to diag(g, ab / g), g = gcd(a, b) = s a + t b;
    a 0 divides only 0, so it takes the lcm and goes last.  With the U rows
    ``us`` and V columns ``vs`` of the pivots, the step maps them to
    s U_i + t U_j, -(b/g) U_i + (a/g) U_j and V_i + V_j, -(tb/g) V_i + (sa/g) V_j.
    """
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a if a else b:
                g = math.gcd(a, b)
                ag, bg = a // g, b // g
                d[i], d[j] = g, ag * b
                if us:
                    s = pow(ag, -1, bg)  # s a + t b == g
                    t = (1 - s * ag) // bg
                    Ui, Uj, Vi, Vj = us[i], us[j], vs[i], vs[j]
                    us[i] = [s * x + t * y for x, y in zip(Ui, Uj)]
                    us[j] = [ag * y - bg * x for x, y in zip(Ui, Uj)]
                    vs[i] = [x + y for x, y in zip(Vi, Vj)]
                    vs[j] = [s * ag * y - t * bg * x for x, y in zip(Vi, Vj)]
    return d


def _smith_with_inverses(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The full Smith form, unchecked: ``_smith`` tracking U and V.

    It computes no inverses despite its name, which is kept because the
    benchmark's traced run (``perfbench/tracing.py``) wraps this function
    by name to count and time every full Smith form.  ``_smith_diagonal``
    calls ``_smith`` directly, so the bare diagonals are not traced.
    """
    return _smith(A, True)


def smith_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize ``A`` as ``U @ A @ V == D`` by unimodular transforms.

    ``D`` is diagonal with nonnegative entries forming a divisibility
    chain ``d1 | d2 | ...`` along the nonzero diagonal.  Total on any
    integer matrix, including empty ones.
    """
    U, D, V = _smith_with_inverses(A)
    if VERIFY_POSTCONDITIONS:
        _verify_snf(A, U, D, V)
    return U, D, V


def _smith_diagonal(A: IntMatrix) -> IntMatrix:
    """``D`` of ``smith_normal_form(A)``, computed without U and V.

    With VERIFY_POSTCONDITIONS it is compared with the full form, which
    checks itself.
    """
    _, D, _ = _smith(A, False)
    if VERIFY_POSTCONDITIONS and D != smith_normal_form(A)[1]:
        raise AssertionError("SNF postcondition violated: differs from the full form")
    return D


def _verify_snf(A: IntMatrix, U: IntMatrix, D: IntMatrix, V: IntMatrix) -> None:
    if (U @ A) @ V != D:
        raise AssertionError("SNF postcondition violated: U*A*V != D")
    if abs(U.determinant()) != 1 or abs(V.determinant()) != 1:
        raise AssertionError("SNF postcondition violated: transform not unimodular")
    diag = D.diagonal()
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j and D.at(i, j):
                raise AssertionError("SNF postcondition violated: D not diagonal")
    if any(d < 0 for d in diag):
        raise AssertionError("SNF postcondition violated: negative diagonal entry")
    nonzero = [d for d in diag if d]
    if len(nonzero) != len([d for d in diag[: len(nonzero)] if d]):
        raise AssertionError("SNF postcondition violated: zero inside nonzero block")
    for a, b in zip(nonzero, nonzero[1:]):
        if b % a:
            raise AssertionError("SNF postcondition violated: divisibility chain broken")


class GroupElement(namedtuple("GroupElement", "coords")):
    """Coordinates of an element with respect to an ambient group's generators."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]):
        return tuple.__new__(cls, (tuple(map(index, coords)),))

    _make = classmethod(lambda cls, fields: cls(*fields))


class FGAbelianGroup(namedtuple("FGAbelianGroup", "invariant_factors")):
    """Finitely generated abelian group in canonical invariant-factor form.

    ``invariant_factors`` lists finite factors (each at least 2, each
    dividing the next) followed by zeros for the infinite cyclic factors.
    Unit factors are never stored, so equality of groups is equality of
    these tuples.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: Iterable[int] = ()):
        factors = tuple(map(index, invariant_factors))
        finite = [d for d in factors if d != 0]
        if any(d < 2 for d in finite):
            raise ValueError(f"finite invariant factors must be >= 2, got {factors}")
        if factors != tuple(finite) + (0,) * (len(factors) - len(finite)):
            raise ValueError("finite factors must precede infinite (0) factors")
        for a, b in zip(finite, finite[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {factors}")
        return tuple.__new__(cls, (factors,))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def canonical(cls, factors: Iterable[int]) -> "FGAbelianGroup":
        """Canonical form of a direct sum of cyclic groups Z/d (d=0 meaning Z).

        Accepts factors in any order, recombining coprime pieces, e.g.
        (3, 2) becomes (6,): the divisibility chain that ends every Smith
        form, with units dropped.
        """
        return cls(d for d in _divisibility_chain([abs(index(d)) for d in factors]) if d != 1)

    @property
    def num_generators(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int | None:
        """Number of elements, or None when the group is infinite."""
        if any(d == 0 for d in self.invariant_factors):
            return None
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def reduce(self, coords: Iterable[int]) -> tuple[int, ...]:
        """Coordinates reduced modulo the finite invariant factors."""
        c, factors = tuple(map(index, coords)), self.invariant_factors
        if len(c) != len(factors):
            raise ValueError(f"expected {len(factors)} coordinates, got {len(c)}")
        if factors and factors[0]:  # finite factors come first, so a free group reduces nothing
            return tuple([x % d if d else x for x, d in zip(c, factors)])
        return c

    def element(self, coords: Iterable[int]) -> GroupElement:
        return GroupElement(self.reduce(coords))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element(x + y for x, y in zip(a.coords, b.coords, strict=True))

    def scale(self, k: int, a: GroupElement) -> GroupElement:
        return self.element(k * x for x in a.coords)

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        return FGAbelianGroup.canonical(self.invariant_factors + other.invariant_factors)

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        return " x ".join("Z" if d == 0 else f"Z/{d}" for d in self.invariant_factors)


def cokernel_presentation(gens_count: int, relations: IntMatrix) -> FGAbelianGroup:
    """Invariant factors of ``Z^gens_count / column-span(relations)``.

    The columns of ``relations`` are the relation vectors; unit factors
    are dropped from the result.
    """
    if relations.rows != gens_count:
        raise ValueError(
            f"relations matrix has {relations.rows} rows for {gens_count} generators"
        )
    D = _smith_diagonal(relations)
    diag = [d for d in D.diagonal() if d != 0]
    torsion = tuple(d for d in diag if d != 1)
    free = gens_count - len(diag)
    return FGAbelianGroup(torsion + (0,) * free)


def _relation_columns(ambient: FGAbelianGroup) -> list[list[int]]:
    k = ambient.num_generators
    return [
        [d if i == j else 0 for i in range(k)]
        for j, d in enumerate(ambient.invariant_factors)
        if d
    ]


def subgroup_quotient(
    ambient: FGAbelianGroup,
    numerator_gens: Sequence[GroupElement],
    denominator_gens: Sequence[GroupElement],
) -> FGAbelianGroup:
    """The quotient ``<numerator_gens> / <denominator_gens>`` inside ``ambient``.

    Two Smith forms.  The first, ``U @ S @ V == D`` of
    ``S = [numerator | ambient relations]``, gives the span L of S the free
    basis ``d_i * (column i of U^-1)``, ``i < rank``: a vector g lies in L
    iff ``(U g)_i`` is divisible by ``d_i`` for ``i < rank`` and vanishes
    beyond the rank, and its coordinates are then ``(U g)_i / d_i``.  The
    unread V is c x c for the c columns of S, which are few beside its k
    rows on the quotients met here (on 28 x 6, V adds about 2% to U alone),
    so this is the full, checked ``smith_normal_form``.  The second is the
    cokernel of the coordinates of the denominator generators and the
    ambient relations.

    Raises ContainmentError unless every denominator generator lies in the
    subgroup generated by the numerator (modulo the ambient relations).
    """
    k = ambient.num_generators
    for g in list(numerator_gens) + list(denominator_gens):
        if len(g.coords) != k:
            raise ValueError(
                f"element has {len(g.coords)} coordinates, ambient has {k} generators"
            )
    relations = _relation_columns(ambient)
    span_cols = [list(g.coords) for g in numerator_gens] + relations
    U, D, _ = smith_normal_form(IntMatrix.from_columns(span_cols, k))
    pivots = [d for d in D.diagonal() if d]

    def coordinates(vector: Sequence[int]) -> list[int] | None:
        c = U.apply(vector)
        if any(c[len(pivots) :]) or any(x % d for x, d in zip(c, pivots)):
            return None
        return [x // d for x, d in zip(c, pivots)]

    expressed: list[list[int]] = []
    for g in denominator_gens:
        x = coordinates(g.coords)
        if x is None:
            raise ContainmentError(
                f"denominator generator {g.coords} not contained in the numerator subgroup"
            )
        expressed.append(x)
    for rel in relations:
        x = coordinates(rel)
        if x is None:  # pragma: no cover - relations are in the span by construction
            raise AssertionError("ambient relation escaped its own span")
        expressed.append(x)
    return cokernel_presentation(
        len(pivots), IntMatrix.from_columns(expressed, len(pivots))
    )


def kernel_mod2_rows(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """A basis over Z/2 of the x with sum x_i * rows[i] = 0 mod 2, as 0/1 tuples: one vector for each
    row that depends on the rows before it, in row order, with a 1 at that row and 0 after it.  An
    elimination on the lowest bit, each row and its combination of rows as the bits of an int."""
    rows = [sum((v % 2) << j for j, v in enumerate(row)) for row in rows]
    echelon, basis = [], []
    for i, v in enumerate(rows):
        x = 1 << i
        for w, y in echelon:
            if v & w & -w:
                v, x = v ^ w, x ^ y
        if v:
            echelon.append((v, x))
        else:
            basis.append(tuple(x >> k & 1 for k in range(len(rows))))
    return basis


def rank_mod2_rows(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Z/2 of the matrix with these rows."""
    rows = list(rows)
    return len(rows) - len(kernel_mod2_rows(rows))
