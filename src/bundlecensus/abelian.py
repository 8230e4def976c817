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

Every Smith form runs the one elimination ``_smith``, which updates U and
V only where a caller reads them: ``smith_normal_form`` (and through it
``subgroup_quotient``) tracks both, ``cokernel_presentation`` neither.
``VERIFY_POSTCONDITIONS`` checks each one: a full form directly, a bare
diagonal by comparison with the full form of the same matrix.

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
from dataclasses import dataclass
from typing import Iterable, Sequence

VERIFY_POSTCONDITIONS = False
"""When true, every Smith form re-checks its postconditions.

The test suite flips this on so the decomposition is verified on every
call made anywhere in the package.
"""


class ContainmentError(ValueError):
    """A denominator generator escapes the subgroup spanned by the numerator."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary precision."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(self.entries)}"
            )

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

    Pivot rule: the remaining entry of smallest nonzero absolute value,
    ties broken by lowest row index then lowest column index, so the
    reduction (and hence U, V) is reproducible.

    The elimination runs on one array: row i of A followed by row i of U,
    then the rows of V below, the transforms only when ``transforms``.
    Pivots are sought inside the A block only, row operations touch the
    first m rows and column operations the first n columns, so D comes
    out the same either way and untracked transforms cost nothing; they
    are returned as None.
    """
    m, n = A.rows, A.cols
    M = A.to_rows()
    if transforms:
        for i, row in enumerate(M):
            row.extend(1 if i == j else 0 for j in range(m))
        M.extend([1 if i == j else 0 for j in range(n)] for i in range(n))

    def row_add(i, j, q):
        # row_i += q * row_j
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]

    def col_swap(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]

    def col_add(j, k, q):
        # col_j += q * col_k
        for row in M:
            row[j] += q * row[k]

    t = 0
    limit = min(m, n)
    while t < limit:
        progressed = False
        while True:
            best = None
            for i in range(t, m):
                Mi = M[i]
                for j in range(t, n):
                    v = Mi[j]
                    if v:
                        a = v if v > 0 else -v
                        key = (a, i, j)
                        if best is None or key < best:
                            best = key
            if best is None:
                break
            progressed = True
            _, pi, pj = best
            if pi != t:
                M[t], M[pi] = M[pi], M[t]
            if pj != t:
                col_swap(t, pj)
            if M[t][t] < 0:
                M[t] = [-x for x in M[t]]
            p = M[t][t]
            for i in range(t + 1, m):
                if M[i][t]:
                    row_add(i, t, -(M[i][t] // p))
            for j in range(t + 1, n):
                if M[t][j]:
                    col_add(j, t, -(M[t][j] // p))
            if any(M[i][t] for i in range(t + 1, m)) or any(
                M[t][j] for j in range(t + 1, n)
            ):
                # the floor divisions left remainders smaller than the
                # pivot; the next sweep picks a strictly smaller pivot
                continue
            bad = None
            for i in range(t + 1, m):
                Mi = M[i]
                if any(Mi[j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            # fold the offending row into the pivot row so the next pivot
            # divides the whole remaining block
            row_add(t, bad, 1)
        if not progressed:
            break
        t += 1

    def block(rows, lo, hi):
        return IntMatrix(len(rows), hi - lo, tuple(x for row in rows for x in row[lo:hi]))

    if not transforms:
        return None, block(M, 0, n), None
    return block(M[:m], n, n + m), block(M[:m], 0, n), block(M[m:], 0, n)


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


@dataclass(frozen=True)
class GroupElement:
    """Coordinates of an element with respect to an ambient group's generators."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))


@dataclass(frozen=True)
class FGAbelianGroup:
    """Finitely generated abelian group in canonical invariant-factor form.

    ``invariant_factors`` lists finite factors (each at least 2, each
    dividing the next) followed by zeros for the infinite cyclic factors.
    Unit factors are never stored, so equality of groups is equality of
    these tuples.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        finite = [d for d in factors if d != 0]
        if any(d < 2 for d in finite):
            raise ValueError(f"finite invariant factors must be >= 2, got {factors}")
        if factors != tuple(finite) + (0,) * (len(factors) - len(finite)):
            raise ValueError("finite factors must precede infinite (0) factors")
        for a, b in zip(finite, finite[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {factors}")

    @classmethod
    def canonical(cls, factors: Iterable[int]) -> "FGAbelianGroup":
        """Canonical form of a direct sum of cyclic groups Z/d (d=0 meaning Z).

        Accepts factors in any order, recombining coprime pieces, e.g.
        (3, 2) becomes (6,).
        """
        fs = [abs(int(d)) for d in factors]
        k = len(fs)
        cols = [[d if i == j else 0 for i in range(k)] for j, d in enumerate(fs) if d]
        return cokernel_presentation(k, IntMatrix.from_columns(cols, k))

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

    def element(self, coords: Iterable[int]) -> GroupElement:
        c = [int(x) for x in coords]
        if len(c) != self.num_generators:
            raise ValueError(
                f"expected {self.num_generators} coordinates, got {len(c)}"
            )
        return GroupElement(
            tuple(x % d if d else x for x, d in zip(c, self.invariant_factors))
        )

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
    rows on the quotients met here (28 x 6 costs under 10% more than U
    alone), so this is the full, checked ``smith_normal_form``.  The
    second is the cokernel of the coordinates of the denominator generators
    and the ambient relations.

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


def rank_mod2(A: IntMatrix) -> int:
    """Rank of ``A`` viewed over Z/2."""
    masks = []
    for i in range(A.rows):
        mask = 0
        for j, v in enumerate(A.row(i)):
            if v % 2:
                mask |= 1 << j
        if mask:
            masks.append(mask)
    rank = 0
    while masks:
        pivot = masks.pop()
        rank += 1
        low = pivot & -pivot
        masks = [m ^ pivot if m & low else m for m in masks]
        masks = [m for m in masks if m]
    return rank
