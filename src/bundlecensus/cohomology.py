"""Cohomological data of a closed oriented 8-manifold, plus validation.

A ``ManifoldData`` bundles the integral and mod-2 cohomology groups in
degrees 0..8, cup product structure constants, the operations rho2
(mod-2 reduction), beta (Bockstein) and Sq^2, the first Pontryagin class,
a spin^c characteristic class, and the evaluation against the fundamental
class.  Who checks what: the parser (``manifold_io``) checks a file's
tokens, declared sizes and duplicate sections, and gives line numbers.
The ``ManifoldData`` constructor rejects data whose sections do not fit
its groups (``shape_problems``), so no query meets a misshapen matrix,
table or class.  ``validate_manifold`` runs each law of ``LAWS`` once, on
the compiled form that every query reads too, so a validated manifold is
compiled once; a law whose prerequisites (``NEEDS``) failed yields nothing.
``tables_complete`` asks for every table a query reads, so validated also
means complete, and ``rhs3_integral`` that the right-hand side of (3) is an
integer wherever condition (1) holds; it reads 4*rhs(3) off the one degree-8
evaluator, the polynomial ``charclass`` compiles (``data.congruences``), so
loading builds it.  Every query of conditions (1)-(3), rr and the counts
takes its tuple through one gate, ``ManifoldData.checked``, and so decides
validated data only.

Classes are stored with coordinates reduced modulo the invariant factor
of each generator, or mod 2, so equality of classes is a plain tuple
comparison: the ``ManifoldData`` constructor reduces the classes it holds.

Every record of the package is a tuple: a ``NamedTuple``, or a
``namedtuple`` subclass whose ``__new__`` checks or fills in its fields and
whose ``_make`` is the constructor, so that ``_replace`` does too.  Derive a
variant with ``record._replace(field=value)``.  No record is a dataclass:
importing ``dataclasses`` (and with it ``inspect``) and creating one would
cost every cold start of the package about 10 ms.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import add, index, mul, xor
from typing import Iterable, Iterator, Literal, NamedTuple

from .abelian import FGAbelianGroup, IntMatrix, kernel_mod2_rows, rank_mod2_rows

TOP_DEGREE = 8
DEGREES = range(TOP_DEGREE + 1)

Ring = Literal["Z", "Z2"]

CupTable = dict[tuple[int, int], tuple[int, ...]]


class MissingOperationError(LookupError):
    """A cup table or operation matrix needed for a computation is absent."""


class ManifoldShapeError(ValueError):
    """Raised when building ManifoldData whose sections do not fit its groups:
    the first problem ``shape_problems`` finds, with its ``section`` key."""

    def __init__(self, section: tuple, message: str):
        self.section = section
        super().__init__(message)


class ManifoldValidationError(ValueError):
    """Raised when loading data that fails validation; carries the report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(r.name for r in report.failures())
        super().__init__(f"manifold data failed validation: {failed}")


class CohomologyClass(namedtuple("CohomologyClass", "degree ring coords")):
    """A cohomology class as reduced coordinates in a fixed graded basis."""

    __slots__ = ()

    def __new__(cls, degree: int, ring: Ring, coords: Iterable[int]):
        self = tuple.__new__(cls, (index(degree), ring, tuple(map(index, coords))))
        self.__post_init__()
        return self

    def __post_init__(self):  # its own method: perfbench's tracer counts classes by it
        if self.ring not in ("Z", "Z2"):
            raise ValueError(f"unknown coefficient ring {self.ring!r}")

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


class GradedGroupZ(namedtuple("GradedGroupZ", "groups names")):
    """Integral cohomology: one presented group per degree 0..8."""

    __slots__ = ()

    def __new__(cls, groups: tuple[FGAbelianGroup, ...], names: tuple[tuple[str, ...], ...]):
        if len(groups) != TOP_DEGREE + 1 or len(names) != TOP_DEGREE + 1:
            raise ValueError("need groups and generator names for degrees 0..8")
        for n, (g, nm) in enumerate(zip(groups, names)):
            if len(nm) != g.num_generators:
                raise ValueError(
                    f"degree {n}: {g.num_generators} generators but {len(nm)} names"
                )
        return tuple.__new__(cls, (groups, names))

    _make = classmethod(lambda cls, fields: cls(*fields))


class GradedGroupMod2(namedtuple("GradedGroupMod2", "dims names")):
    """Mod-2 cohomology: one F2 vector space dimension per degree 0..8."""

    __slots__ = ()

    def __new__(cls, dims: tuple[int, ...], names: tuple[tuple[str, ...], ...]):
        dims = tuple(map(index, dims))
        if len(dims) != TOP_DEGREE + 1 or len(names) != TOP_DEGREE + 1:
            raise ValueError("need dimensions and basis names for degrees 0..8")
        for n, (d, nm) in enumerate(zip(dims, names)):
            if d < 0 or len(nm) != d:
                raise ValueError(f"degree {n}: dimension {d} but {len(nm)} names")
        return tuple.__new__(cls, (dims, names))

    _make = classmethod(lambda cls, fields: cls(*fields))


class ChernTuple(namedtuple("ChernTuple", "u1 u2 u3 u4")):
    """Candidate Chern classes (u1, u2, u3, u4) in degrees 2, 4, 6, 8."""

    __slots__ = ()

    def __new__(
        cls, u1: CohomologyClass, u2: CohomologyClass, u3: CohomologyClass, u4: CohomologyClass
    ):
        for u, deg in zip((u1, u2, u3, u4), (2, 4, 6, 8)):
            if not isinstance(u, CohomologyClass):
                raise ValueError(f"component of type {type(u).__name__}, expected integral degree {deg}")
            if u.degree != deg or u.ring != "Z":
                raise ValueError(f"component of degree {u.degree}/{u.ring}, expected integral degree {deg}")
        return tuple.__new__(cls, (u1, u2, u3, u4))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def classes(self) -> tuple[CohomologyClass, ...]:
        return (self.u1, self.u2, self.u3, self.u4)


OddQuadruple = tuple[CohomologyClass, CohomologyClass, CohomologyClass, CohomologyClass]


class ManifoldData(
    namedtuple(
        "ManifoldData",
        "name integral mod2 cup_z rho2 beta sq2 pairing p1 spinc_class w2 odd_generators cup_m2",
    )
):
    """Full finite description of the cohomology of a closed oriented 8-manifold.

    Fields: ``name: str``; ``integral: GradedGroupZ``; ``mod2:
    GradedGroupMod2``; ``cup_z: dict[tuple[int, int], CupTable]``; ``rho2``,
    ``beta``, ``sq2: dict[int, IntMatrix]``; ``pairing: tuple[int, ...]``;
    ``p1``, ``spinc_class: CohomologyClass``; ``w2: CohomologyClass | None =
    None``; ``odd_generators: tuple[OddQuadruple, ...] | None = None``;
    ``cup_m2: dict[tuple[int, int], CupTable]``, a fresh ``{}`` when omitted.

    ``cup_z[(a, b)]`` maps generator index pairs (i, j) to the coordinates
    of the product in degree a+b.  ``rho2[n]``, ``beta[n]`` and ``sq2[n]``
    are matrices from source coordinates to target coordinates (rows =
    target, columns = source); beta raises degree by one, Sq^2 by two.
    ``odd_generators`` lists quadruples of classes in degrees 1, 3, 5, 7
    generating the image of the odd-degree unitary transgressions; None
    means this information was not supplied.

    Construction, and so ``_replace``, ``_make`` and unpickling, raises
    ``ManifoldShapeError`` for the first problem ``shape_problems`` finds,
    then reduces ``p1``, ``spinc_class``, ``w2`` and ``odd_generators``.
    Read-only: assigning or deleting any attribute raises ``AttributeError``.
    There are no ``__slots__``, so the cached properties live in the
    instance dict, and a ``_replace``d instance computes them afresh.
    """

    def __new__(
        cls, name, integral, mod2, cup_z, rho2, beta, sq2, pairing, p1, spinc_class,
        w2=None, odd_generators=None, cup_m2=None,
    ):
        fields = (name, integral, mod2, cup_z, rho2, beta, sq2, tuple(map(index, pairing)))
        cup_m2 = {} if cup_m2 is None else cup_m2
        self = tuple.__new__(cls, (*fields, p1, spinc_class, w2, odd_generators, cup_m2))
        for section, message in shape_problems(self):
            raise ManifoldShapeError(section, message)

        def reduce(x: CohomologyClass) -> CohomologyClass:
            return self.make_class(x.degree, x.ring, x.coords)

        return tuple.__new__(cls, (
            *fields, reduce(p1), reduce(spinc_class), None if w2 is None else reduce(w2),
            None if odd_generators is None else tuple(tuple(map(reduce, q)) for q in odd_generators),
            cup_m2,
        ))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # -- shape helpers -------------------------------------------------

    def group(self, degree: int) -> FGAbelianGroup:
        return self.integral.groups[degree]

    def ngens(self, degree: int) -> int:
        return len(self.integral.groups[degree].invariant_factors)

    def m2dim(self, degree: int) -> int:
        return self.mod2.dims[degree]

    def dim(self, degree: int, ring: str) -> int:
        return self.ngens(degree) if ring == "Z" else self.m2dim(degree)

    # -- class constructors and arithmetic -----------------------------

    def zclass(self, degree: int, coords: Iterable[int]) -> CohomologyClass:
        return CohomologyClass(degree, "Z", self.integral.groups[degree].reduce(coords))

    def m2class(self, degree: int, bits: Iterable[int]) -> CohomologyClass:
        b = tuple(index(x) % 2 for x in bits)
        if len(b) != self.m2dim(degree):
            raise ValueError(
                f"expected {self.m2dim(degree)} mod-2 coordinates in degree {degree}, got {len(b)}"
            )
        return CohomologyClass(degree, "Z2", b)

    def make_class(self, degree: int, ring: str, coords: Iterable[int]) -> CohomologyClass:
        return self.zclass(degree, coords) if ring == "Z" else self.m2class(degree, coords)

    def zero(self, degree: int, ring: str = "Z") -> CohomologyClass:
        return CohomologyClass(degree, ring, (0,) * self.dim(degree, ring))

    def add(self, x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
        if (x.degree, x.ring) != (y.degree, y.ring):
            raise ValueError("cannot add classes of different degree or ring")
        return self.make_class(
            x.degree, x.ring, (a + b for a, b in zip(x.coords, y.coords, strict=True))
        )

    def scale(self, k: int, x: CohomologyClass) -> CohomologyClass:
        return self.make_class(x.degree, x.ring, (k * a for a in x.coords))

    def chern_tuple(
        self,
        u1: Iterable[int],
        u2: Iterable[int],
        u3: Iterable[int],
        u4: Iterable[int],
    ) -> ChernTuple:
        return ChernTuple(
            self.zclass(2, u1), self.zclass(4, u2), self.zclass(6, u3), self.zclass(8, u4)
        )

    @cached_property
    def compiled(self) -> "CompiledManifold":
        """The integer form of this data, built on first use (validating is one) and kept.

        ``_replace`` makes a new instance and so a new compilation; the
        dicts of an instance must not be mutated in place once it has been
        compiled."""
        return _compile(self)

    @cached_property
    def report(self) -> "ValidationReport":
        """The results of ``LAWS``, kept as ``B`` is: what ``checked`` requires of every query,
        and what ``validate_manifold`` returns or extends."""
        return _run(self, LAWS)

    def checked(self, u: ChernTuple) -> tuple[Coords, Coords, Coords, Coords]:
        """The one gate of a question u, and its one rule: u is a ``ChernTuple``, whose constructor
        checks each position's type, degree and ring, or ``ValueError``; each class is checked and
        reduced by its position, 2, 4, 6 or 8 (``ValueError``); then the report must pass, or
        ``ManifoldValidationError``.  A class carries no manifold identity, so a class of another
        manifold with as many coordinates cannot be caught."""
        if not isinstance(u, ChernTuple):
            raise ValueError("rank 4 expects a ChernTuple")
        reduce, (u1, u2, u3, u4) = self.compiled.reduce, u
        coords = reduce(2, u1.coords), reduce(4, u2.coords), reduce(6, u3.coords), reduce(8, u4.coords)
        if not self.report.ok:
            raise ManifoldValidationError(self.report)
        return coords

    @cached_property
    def B(self) -> FGAbelianGroup:
        """``classify.compute_B``, which no Chern tuple changes, kept as ``compiled`` is."""
        from .classify import compute_B  # classify imports this module
        return compute_B(self)

    @cached_property
    def todd_rows(self) -> tuple[dict[int, tuple[int, ...]], int]:
        """``charclass.compute_todd_rows``, which no Chern tuple changes, kept as ``B`` is."""
        from .charclass import compute_todd_rows  # charclass imports this module
        return compute_todd_rows(self)

    @cached_property
    def congruences(self) -> "Congruences":
        """``charclass.compile_congruences``, which no Chern tuple changes, kept as ``B`` is.
        Built by validation, by the law ``rhs3_integral``, where the laws it needs hold."""
        from .charclass import compile_congruences  # charclass imports this module
        return compile_congruences(self)


# -- the four operations ------------------------------------------------

_OP_SPECS = {
    "rho2": ("Z", "Z2", 0),
    "beta": ("Z2", "Z", 1),
    "sq2": ("Z2", "Z2", 2),
}


def _op_shape(data: ManifoldData, op: str, degree: int) -> tuple[int, int]:
    """(rows, cols) of op's matrix at degree: its target and source dimensions."""
    src_ring, tgt_ring, shift = _OP_SPECS[op]
    tgt_degree = degree + shift
    tgt = data.dim(tgt_degree, tgt_ring) if tgt_degree <= TOP_DEGREE else 0
    return tgt, data.dim(degree, src_ring)


def _zero_shape(data: ManifoldData, op: str, degree: int) -> tuple[int, int] | None:
    """The shape of op's matrix at degree when a side is trivial, else None:
    if not supplied, the matrix is zero in the first case, missing in the second."""
    shape = _op_shape(data, op, degree)
    return shape if 0 in shape else None


def apply_op(data: ManifoldData, op: str, x: CohomologyClass) -> CohomologyClass:
    """Apply rho2, beta or sq2 to a class of the matching coefficient ring."""
    if op not in _OP_SPECS:
        raise ValueError(f"unknown operation {op!r}")
    src_ring, tgt_ring, shift = _OP_SPECS[op]
    if x.ring != src_ring:
        raise ValueError(f"{op} expects a {src_ring} class, got {x.ring}")
    tgt_degree = x.degree + shift
    if tgt_degree > TOP_DEGREE:
        raise ValueError(f"{op} applied in degree {x.degree} lands beyond degree 8")
    M = getattr(data, op).get(x.degree)
    if M is None and (shape := _zero_shape(data, op, x.degree)):
        M = IntMatrix.zeros(*shape)
    if M is None:
        raise MissingOperationError(f"missing {op} matrix at degree {x.degree}")
    return data.make_class(tgt_degree, tgt_ring, M.apply(list(x.coords)))


def cup(data: ManifoldData, x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
    """Bilinear extension of the structure-constant tables.

    Tables are looked up in either orientation; swapping introduces the
    graded sign, which only matters when both degrees are odd.  Products
    with a trivial factor or a trivial target need no table.
    """
    if x.ring != y.ring:
        raise ValueError("cup product requires matching coefficient rings")
    ring = x.ring
    a, b = x.degree, y.degree
    n = a + b
    if n > TOP_DEGREE:
        raise ValueError(f"cup product in degree {n} exceeds the dimension of the manifold")
    dim = data.ngens if ring == "Z" else data.m2dim
    for z in (x, y):
        if len(z.coords) != dim(z.degree):  # worded as ``reduce`` words it
            raise ValueError(f"expected {dim(z.degree)} coordinates, got {len(z.coords)}")
    if a == 0 or b == 0:
        scalar_cls, other = (x, y) if a == 0 else (y, x)
        coeff = scalar_cls.coords[0] if scalar_cls.coords else 0
        return data.scale(coeff, other)
    tables = data.cup_z if ring == "Z" else data.cup_m2
    if (table := tables.get((a, b))) is not None:
        left, right, sign = x.coords, y.coords, 1
    elif (table := tables.get((b, a))) is not None:  # entry (i, j) is the product of y_i and x_j
        left, right, sign = y.coords, x.coords, -1 if a % 2 and b % 2 and ring == "Z" else 1
    elif dim(a) == 0 or dim(b) == 0 or dim(n) == 0:
        return data.zero(n, ring)
    else:
        raise MissingOperationError(f"missing cup product table for degrees ({a}, {b})")
    acc = [0] * dim(n)
    for (i, j), coords in table.items():
        if coeff := sign * left[i] * right[j]:
            for k, c in enumerate(coords):
                if c:
                    acc[k] += coeff * c
    return data.zclass(n, acc) if ring == "Z" else data.m2class(n, acc)


def pair_top(data: ManifoldData, x: CohomologyClass) -> int:
    """Evaluate a top-degree integral class against the fundamental class."""
    if x.ring != "Z" or x.degree != TOP_DEGREE:
        raise ValueError("pairing is defined on integral classes of degree 8")
    return sum(c * w for c, w in zip(x.coords, data.pairing, strict=True))


# -- the compiled form ------------------------------------------------------

# {i: ((j, ((k, c), ...)), ...)}: by left generator i, each right generator j
# whose product with it is nonzero, that product's nonzero coefficients c on
# target generators k; zero coefficients and vanishing products are left out.
SparseTable = dict[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]
Coords = tuple[int, ...]
Rows = tuple[Coords, ...]

# The products of u1, u2, u3 with the odd generators g5, g3, g1 that T takes.
ODD_CUPS = ((2, 5), (4, 3), (6, 1))


class CompiledManifold(NamedTuple):
    """What the validation laws, conditions (1)-(3), B and the Riemann-Roch
    closed form read of a manifold, as plain int tuples, so that they run on
    coordinate tuples without building classes.  Immutable; a NamedTuple.

    ``factors[n]`` are the invariant factors of H^n and ``m2dims[n]`` the
    dimension of H^n(Z/2).  ``cups[a, b]`` is the
    integral product H^a x H^b -> H^(a+b) as a ``SparseTable``, for even
    a, b >= 2 and for T's three odd tables ``ODD_CUPS``: transposed when
    only the (b, a) table is given, empty when a side is trivial and None
    when the table is missing; every compiled reader reaches it through
    ``table``.  ``ops[op][n]`` are the rows of the matrix of rho2, beta or
    Sq^2 at each degree n whose target degree is at most 8: empty or zero
    rows when a side is trivial, None when the matrix is missing.  Every
    result is reduced where ``cup`` and ``apply_op`` reduce it, so they
    agree bit for bit.
    """

    factors: tuple[tuple[int, ...], ...]
    m2dims: tuple[int, ...]
    cups: dict[tuple[int, int], SparseTable | None]
    ops: dict[str, tuple[Rows | None, ...]]
    pairing: Coords
    p1: Coords
    c: Coords

    def _check(self, degree: int, coords, ring: Ring = "Z") -> Coords:
        """coords, raising ``ValueError`` unless it has one entry per generator of H^degree, or of
        H^degree(Z/2) for the ring Z2."""
        n = len(self.factors[degree]) if ring == "Z" else self.m2dims[degree]
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates, got {len(coords)}")
        return coords

    def reduce(self, degree: int, coords) -> Coords:
        """Integral coordinates reduced as ``FGAbelianGroup.reduce`` does, checked as ``_check`` does."""
        factors = self.factors[degree]
        if len(coords) != len(factors):
            raise ValueError(f"expected {len(factors)} coordinates, got {len(coords)}")
        if factors and factors[0]:  # finite factors come first, so a free group reduces nothing
            return tuple([x % d if d else x for x, d in zip(coords, factors)])
        return tuple(coords)

    def table(self, a: int, b: int) -> SparseTable:
        """``cups[a, b]``, raising ``cup``'s ``MissingOperationError`` where the table is missing."""
        table = self.cups[a, b]
        if table is None:
            raise MissingOperationError(f"missing cup product table for degrees ({a}, {b})")
        return table

    def cup(self, a: int, x: Coords, b: int, y: Coords) -> Coords:
        """``cup`` of integral classes of degrees a, b >= 2 whose table is compiled, walking the
        table by left index at the nonzero coordinates of x."""
        x, y = self._check(a, x), self._check(b, y)
        table, acc = self.table(a, b), [0] * len(self.factors[a + b])
        for i, row in table.items():
            if v := x[i]:
                for j, terms in row:
                    if coeff := v * y[j]:
                        for k, c in terms:
                            acc[k] += coeff * c
        return self.reduce(a + b, acc)

    def apply(self, op: str, degree: int, x: Coords) -> Coords:
        """``apply_op`` of op at degree on coordinates: reduced mod 2 after
        rho2 and Sq^2, in H^(degree+1) after beta; raising ``reduce``'s
        ``ValueError`` unless x has one entry per generator of op's source,
        integral for rho2 and mod 2 otherwise, then ``apply_op``'s
        ``MissingOperationError`` where the matrix is missing."""
        self._check(degree, x, _OP_SPECS[op][0])
        rows = self.ops[op][degree]
        if rows is None:
            raise MissingOperationError(f"missing {op} matrix at degree {degree}")
        if op == "beta":
            return self.reduce(degree + 1, [sum(map(mul, row, x)) for row in rows])
        return tuple([sum(map(mul, row, x)) % 2 for row in rows])

    def condition1(self, u1: Coords, u2: Coords, u3: Coords) -> tuple[Coords, Coords]:
        """The two sides of condition (1), Sq^2 rho2(u2) and rho2(u3 + u1*u2), as mod-2
        coordinates of H^6; raising ``MissingOperationError`` for the cup (2, 4) first, then for
        rho2 and Sq^2 at degree 4, then for rho2 at degree 6."""
        u1u2 = self.cup(2, u1, 4, u2)
        lhs = self.apply("sq2", 4, self.apply("rho2", 4, u2))
        return lhs, self.apply("rho2", 6, self.reduce(6, tuple(map(add, self._check(6, u3), u1u2))))

    def pair(self, x: Coords) -> int:
        """``pair_top`` of a degree-8 coordinate tuple."""
        if len(x) != len(self.pairing):
            raise ValueError(f"expected {len(self.pairing)} coordinates in degree 8, got {len(x)}")
        return sum(map(mul, x, self.pairing))


def _sparse_table(data: ManifoldData, a: int, b: int) -> SparseTable | None:
    if (a, b) in data.cup_z:
        entries = data.cup_z[(a, b)].items()
    elif (b, a) in data.cup_z:
        entries = (((j, i), coords) for (i, j), coords in data.cup_z[(b, a)].items())
    elif 0 in (data.ngens(a), data.ngens(b), data.ngens(a + b)):
        return {}
    else:
        return None
    table = {}
    for (i, j), coords in entries:
        if terms := tuple((k, c) for k, c in enumerate(coords) if c):
            table.setdefault(i, []).append((j, terms))
    return {i: tuple(row) for i, row in table.items()}


def _compile(data: ManifoldData) -> CompiledManifold:
    """The compiled form of the data; ``data.compiled`` caches it."""

    def rows(op: str, degree: int) -> Rows | None:
        M = getattr(data, op).get(degree)
        if M is not None:
            return tuple(M.row(i) for i in range(M.rows))
        shape = _zero_shape(data, op, degree)
        return None if shape is None else ((0,) * shape[1],) * shape[0]

    even = [(a, b) for a in (2, 4, 6) for b in (2, 4, 6) if a + b <= TOP_DEGREE]
    return CompiledManifold(
        factors=tuple(g.invariant_factors for g in data.integral.groups),
        m2dims=data.mod2.dims,
        cups={(a, b): _sparse_table(data, a, b) for a, b in (*even, *ODD_CUPS)},
        ops={
            op: tuple(rows(op, n) for n in range(TOP_DEGREE + 1 - shift))
            for op, (_, _, shift) in _OP_SPECS.items()
        },
        pairing=data.pairing,
        p1=data.p1.coords,
        c=data.spinc_class.coords,
    )


# -- validation ----------------------------------------------------------

class LawResult(NamedTuple):
    name: str
    passed: bool
    witness: str | None = None


class ValidationReport(namedtuple("ValidationReport", "results")):
    """The results of the laws, in order.  ``ok``, whether every law passed, is filled in when the
    report is built, as every query reads it; no ``__slots__``, so it lives in the instance dict.
    Read-only: assigning or deleting any attribute raises ``AttributeError``."""

    def __new__(cls, results: Iterable[LawResult]):
        self = tuple.__new__(cls, (tuple(results),))
        vars(self)["ok"] = all(r.passed for r in self.results)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def failures(self) -> tuple[LawResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def law(self, name: str) -> LawResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def __str__(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            suffix = f"  ({r.witness})" if r.witness and not r.passed else ""
            lines.append(f"{status}  {r.name}{suffix}")
        return "\n".join(lines)


def _counterexample(name: str, witnesses: Iterable[str]) -> LawResult:
    """The result of a law that holds unless it has a witness: the first one."""
    witness = next(iter(witnesses), None)
    return LawResult(name, witness is None, witness)


def _class_problem(
    data: ManifoldData, label: str, cls: CohomologyClass, degree: int, ring: str
) -> str | None:
    if (cls.degree, cls.ring) != (degree, ring):
        return f"{label}: expected a degree-{degree} {ring} class, got degree {cls.degree} {cls.ring}"
    n = data.dim(degree, ring)
    if len(cls.coords) != n:
        what = "mod-2 coordinates" if ring == "Z2" else f"coordinates in degree {degree}"
        return f"{label}: expected {n} {what}, got {len(cls.coords)}"
    return None


def shape_problems(data: ManifoldData) -> Iterator[tuple[tuple, str]]:
    """(section, message) for each shape problem of data, in the order and
    wording of the manifold parser, which raises the first on its section's
    line, and ``ManifoldData`` raises the first when it is built.
    ``section`` is the parser's key: ("map", op, degree); (kind, a, b) for a
    whole cup table and (kind, a, b, i, j) for one entry, kind "cup" or
    "cup2"; ("pairing",), ("p1",), ("spinc",), ("w2",); ("oddgen", block,
    degree) for an odd generator and ("oddgen", block) for a whole block.
    A table reports its first missing generator pair only."""
    for op in sorted(_OP_SPECS):
        for degree, M in sorted(getattr(data, op).items()):
            if degree not in DEGREES:
                yield ("map", op, degree), f"{op} at degree {degree}: degree out of range"
            elif (M.rows, M.cols) != (shape := _op_shape(data, op, degree)):
                yield ("map", op, degree), (
                    f"{op} at degree {degree}: expected a {shape[0]}x{shape[1]} matrix, got {M.rows}x{M.cols}"
                )
    for kind, ring, tables in (("cup", "Z", data.cup_z), ("cup2", "Z2", data.cup_m2)):
        for (a, b), table in sorted(tables.items()):
            name = f"{kind} table ({a}, {b})"
            if a not in DEGREES or b not in DEGREES:
                yield (kind, a, b), f"{name}: degree out of range"
                continue
            if a + b > TOP_DEGREE:
                yield (kind, a, b), f"{name}: target degree exceeds 8"
                continue
            rows, cols, length = data.dim(a, ring), data.dim(b, ring), data.dim(a + b, ring)
            for (i, j), coords in table.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    yield (kind, a, b, i, j), f"{name}: generator pair ({i}, {j}) out of range"
                elif len(coords) != length:
                    yield (kind, a, b, i, j), (
                        f"{name} pair ({i}, {j}): expected {length} coordinates, got {len(coords)}"
                    )
            missing = next(((i, j) for i in range(rows) for j in range(cols) if (i, j) not in table), None)
            if missing is not None:
                yield (kind, a, b), f"{name}: missing entry for generator pair {missing}"
    if len(data.pairing) != data.ngens(TOP_DEGREE):
        yield ("pairing",), (
            f"pairing vector has {len(data.pairing)} entries, H^8 has {data.ngens(TOP_DEGREE)} generators"
        )
    classes = [("p1", data.p1, 4, "Z"), ("spinc", data.spinc_class, 2, "Z")]
    if data.w2 is not None:
        classes.append(("w2", data.w2, 2, "Z2"))
    for label, cls, degree, ring in classes:
        if problem := _class_problem(data, label, cls, degree, ring):
            yield (label,), problem
    for q, block in enumerate(data.odd_generators or ()):
        if len(block) != 4:
            yield ("oddgen", q), f"oddgen block {q}: expected 4 classes, got {len(block)}"
            continue
        for degree, cls in zip((1, 3, 5, 7), block):
            if problem := _class_problem(data, f"oddgen g{degree}", cls, degree, "Z"):
                yield ("oddgen", q, degree), problem


def _h0_is_Z(data: ManifoldData) -> Iterator[LawResult]:
    yield LawResult("h0_is_Z", data.compiled.factors[0] == (0,), f"H^0 = {data.group(0)}")


def _h8_is_Z(data: ManifoldData) -> Iterator[LawResult]:
    top = data.compiled.factors[TOP_DEGREE]
    yield LawResult("h8_is_Z", top == (0,), f"H^8 = {data.group(TOP_DEGREE)}")


def _mod2_dims(data: ManifoldData) -> Iterator[LawResult]:
    # Universal coefficients: H^n(Z/2) = H^n (x) Z/2 + Tor(H^(n+1), Z/2), one
    # dimension per free or even factor of H^n and per even finite factor of
    # H^(n+1); H^9 = 0.
    factors = data.compiled.factors
    tensor = [sum(d % 2 == 0 for d in f) for f in factors]
    tor = [sum(d % 2 == 0 for d in f if d) for f in factors[1:]] + [0]
    yield _counterexample("mod2_dims", (
        f"degree {n}: dim H^{n}(Z/2) = {dim}, expected {t + r}"
        for n, (dim, t, r) in enumerate(zip(data.mod2.dims, tensor, tor))
        if dim != t + r
    ))


# The laws below read a matrix's columns off its compiled rows as zip(*rows);
# zero rows, where a side is trivial, give no counterexample.

def _rho2_times2(data: ManifoldData) -> Iterator[LawResult]:
    # rho2 after multiplication by 2 vanishes: equivalently each generator
    # of odd finite order must have an even rho2 column.
    m = data.compiled
    yield _counterexample("rho2_times2", (
        f"degree {degree} generator {data.integral.names[degree][j]}"
        for degree, R in enumerate(m.ops["rho2"]) if R
        for j, (d, column) in enumerate(zip(m.factors[degree], zip(*R)))
        if any((d * v) % 2 for v in column)
    ))


def _beta_torsion(data: ManifoldData) -> Iterator[LawResult]:
    # Bockstein image is 2-torsion.
    m = data.compiled
    yield _counterexample("beta_torsion", (
        f"degree {degree} basis element {data.mod2.names[degree][i]}"
        for degree, B in enumerate(m.ops["beta"]) if B
        for i, column in enumerate(zip(*B))
        if any(m.reduce(degree + 1, [2 * v for v in column]))
    ))


def _beta_rho2(data: ManifoldData) -> Iterator[LawResult]:
    # beta after rho2 vanishes.
    m = data.compiled
    yield _counterexample("beta_rho2", (
        f"degree {degree} generator {data.integral.names[degree][j]}"
        for degree, (R, B) in enumerate(zip(m.ops["rho2"], m.ops["beta"])) if R and B
        for j, column in enumerate(zip(*R))
        if any(m.apply("beta", degree, [x % 2 for x in column]))
    ))


def _spinc_reduction(data: ManifoldData) -> Iterator[LawResult]:
    if data.w2 is None:
        return
    m = data.compiled
    if m.ops["rho2"][2] is None:
        yield LawResult("spinc_reduction", False, "rho2 at degree 2 unavailable")
    else:
        reduced = m.apply("rho2", 2, m.c)
        witness = f"rho2(c) = {reduced}, w2 = {data.w2.coords}"
        yield LawResult("spinc_reduction", reduced == data.w2.coords, witness)


def _pairing_surjective(data: ManifoldData) -> Iterator[LawResult]:
    pairing = data.compiled.pairing
    yield LawResult("pairing_surjective", any(abs(w) == 1 for w in pairing), f"pairing = {pairing}")


def _cup_commutes(data: ManifoldData) -> Iterator[LawResult]:
    # Tables supplied in both orientations (the compiled form keeps one) must
    # agree; even degrees only, as odd-degree pairs differ by the graded sign.
    yield _counterexample("cup_commutes", (
        f"cup ({a},{b}) entry ({i},{j}) disagrees with cup ({b},{a})"
        for (a, b), table in sorted(data.cup_z.items())
        if a % 2 == b % 2 == 0 and (b, a) in data.cup_z and (a, b) <= (b, a)
        for (i, j), coords in table.items()
        if data.cup_z[(b, a)].get((j, i), coords) != coords
    ))


def _sq2_squares_deg2(data: ManifoldData) -> Iterator[LawResult]:
    # Sq^2 of basis element i, column i of the matrix, is its square, the
    # (i, i) entry of the cup2 table.
    if (2, 2) not in data.cup_m2:
        return
    S = data.compiled.ops["sq2"][2]
    if S is None:
        yield LawResult("sq2_squares_deg2", False, "sq2 at degree 2 unavailable")
        return
    squares = data.cup_m2[2, 2]
    yield _counterexample("sq2_squares_deg2", (
        f"basis element {name}"
        for i, (name, column) in enumerate(zip(data.mod2.names[2], zip(*S)))
        if [v % 2 for v in column] != [v % 2 for v in squares[i, i]]
    ))


# The matrices that condition (1) and B apply, as (op, degree).
QUERIED_MATRICES = (("rho2", 3), ("rho2", 4), ("rho2", 6), ("sq2", 3), ("sq2", 4), ("beta", 5))


def _tables_complete(data: ManifoldData) -> Iterator[LawResult]:
    # Every table a query reads is given where it is not trivially zero, so no
    # query on validated data raises MissingOperationError; each witness is the
    # message that query would raise.
    m = data.compiled
    odd = data.odd_generators is not None  # T's tables are read only where odd generators are given
    cups = [ab for ab, table in m.cups.items() if table is None and (odd or ab not in ODD_CUPS)]
    yield _counterexample("tables_complete", (
        *(f"missing cup product table for degrees {ab}" for ab in cups),
        *(f"missing {op} matrix at degree {n}" for op, n in QUERIED_MATRICES if m.ops[op][n] is None),
    ))


def _torsion_pairs_to_zero(data: ManifoldData) -> Iterator[LawResult]:
    # A class x of finite order d pairs to 0 with every y of the complementary
    # degree: d*<x*y, [M]> = <(d*x)*y, [M]> = 0 in Z.  So a product may be paired
    # before it is reduced, as the census pairs u1*u2*c.  A missing table fails
    # tables_complete.
    m = data.compiled
    units = {a: IntMatrix.identity(len(m.factors[a])).to_rows() for a in (2, 4, 6)}
    yield _counterexample("torsion_pairs_to_zero", (
        f"degree {a} generator {data.integral.names[a][i]}"
        for a in (2, 4, 6) if m.cups[a, 8 - a] is not None
        for i, d in enumerate(m.factors[a]) if d
        if any(m.pair(m.cup(a, units[a][i], 8 - a, y)) for y in units[8 - a])
    ))


def _rhs3_integral(data: ManifoldData) -> Iterator[LawResult]:
    # On an actual manifold condition (1) makes the right-hand side of (3) an integer.  Moving u1 by e and
    # u3 by e*u2 keeps (1) and 4*rhs(3) mod 4, as <e*u2*c> = <c*(e*u2)>, so u1 = 0 decides.  There (1)
    # is linear in x = (u2, u3) mod 2, the sum of its two sides (``CompiledManifold.condition1``) at the
    # units of x giving its Z/2 columns, so it holds on a lattice L of integer x, and P(x) = 4*rhs(3),
    # read off the compiled polynomial, is additive mod 4, as the cup commutes: a cross term of u2 has
    # the coefficient 4<e_i*e_j>, a square an even one, and every other term is linear.  So P vanishes
    # mod 4 on L if it does on a generating set of L: the lifts of a Z/2 kernel basis of (1), and 2e for
    # every coordinate e.  Exact, and every table it reads given, where the laws it needs hold; linear
    # algebra over Z/2 and the polynomial at each generator, so its cost is a polynomial in the numbers
    # of generators.
    m, congruences = data.compiled, data.congruences
    n1, n2, n3, n4 = (len(m.factors[n]) for n in (2, 4, 6, 8))
    units = IntMatrix.identity(n2 + n3).to_rows()
    columns = [tuple(map(xor, *m.condition1((0,) * n1, x[:n2], x[n2:]))) for x in units]
    generators = kernel_mod2_rows(columns) + [tuple(2 * v for v in x) for x in units]

    def witness(x: Coords, value: int) -> str:
        vectors = " ".join(",".join(map(str, u)) or "-" for u in ((0,) * n1, x[:n2], x[n2:]))
        return f"(1) holds at --chern {vectors} but 4*rhs(3) = {value}"

    column = congruences.conditions[2]
    values = ((x, sum(map(mul, column, congruences.values((0,) * n1 + x + (0,) * n4)))) for x in generators)
    yield _counterexample("rhs3_integral", (witness(x, value) for x, value in values if value % 4))


def _bockstein_exact(data: ManifoldData) -> Iterator[LawResult]:
    # im rho2 = ker beta, degree by degree, by mod-2 rank counting; as beta_torsion holds, a nonzero
    # coordinate of a beta column is d/2 in Z/d, one bit.  beta at degree 8 lands in H^9 = 0.
    m = data.compiled
    for degree, (R, B) in enumerate(zip(m.ops["rho2"], (*m.ops["beta"], ()))):
        name = f"bockstein_exact_deg{degree}"
        if missing := [op for op, M in (("rho2", R), ("beta", B)) if M is None]:  # both its sides nontrivial
            yield LawResult(name, False, "missing " + " and ".join(missing))
            continue
        columns = [m.reduce(degree + 1, column) for column in zip(*B)]
        im_rho2 = rank_mod2_rows(R)
        ker_beta = data.m2dim(degree) - rank_mod2_rows([[1 if c else 0 for c in column] for column in columns])
        yield LawResult(name, im_rho2 == ker_beta, f"dim im rho2 = {im_rho2}, dim ker beta = {ker_beta}")


# Each law yields its results: none when it does not apply.  Every law reads
# well-shaped data, which ``ManifoldData`` checks when it is built.  A law runs
# only where no law it ``NEEDS``, by the name the report prints, has failed.
LAWS = (
    _h0_is_Z,
    _h8_is_Z,
    _mod2_dims,
    _rho2_times2,
    _beta_torsion,
    _beta_rho2,
    _spinc_reduction,
    _pairing_surjective,
    _cup_commutes,
    _sq2_squares_deg2,
    _tables_complete,
    _torsion_pairs_to_zero,
    _rhs3_integral,
)
NEEDS = {
    _rhs3_integral: ("h8_is_Z", "rho2_times2", "cup_commutes", "tables_complete", "torsion_pairs_to_zero"),
    _bockstein_exact: ("beta_torsion",),
}


def _run(data: ManifoldData, laws, results=()) -> ValidationReport:
    """The report of ``results``, then of each of ``laws`` run once, in order, where its ``NEEDS`` hold."""
    for law in laws:
        if not any(r.name in NEEDS.get(law, ()) and not r.passed for r in results):
            results = (*results, *law(data))
    return ValidationReport(results)


def validate_manifold(data: ManifoldData, strict: bool = False) -> ValidationReport:
    """The laws of ``LAWS``, in order, on the data: ``data.report``, made once per instance.  On
    validated data no query raises ``MissingOperationError`` (``tables_complete``), classes of
    finite order pair to 0 (``torsion_pairs_to_zero``), and the right-hand side of (3) is an
    integer wherever condition (1) holds (``rhs3_integral``).  With ``strict=True`` that report is
    extended, and none of its laws run again: where ``beta_torsion`` holds, im rho2 = ker beta is
    verified degree by degree by mod-2 rank counting, and a degree whose rho2 or beta matrix is
    missing fails.  The shape is not a law: the constructor of ``ManifoldData`` has checked it.
    """
    if not strict:
        return data.report
    return _run(data, (_bockstein_exact,), data.report.results)
