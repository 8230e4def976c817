"""Cohomological data of a closed oriented 8-manifold, plus validation.

A ``ManifoldData`` bundles the integral and mod-2 cohomology groups in
degrees 0..8, cup product structure constants, the operations rho2
(mod-2 reduction), beta (Bockstein) and Sq^2, the first Pontryagin class,
a spin^c characteristic class, and the evaluation against the fundamental
class.  ``validate_manifold`` checks the algebraic laws this data must
satisfy; everything else trusts validated data.

Classes are stored with coordinates reduced modulo the invariant factor
of each generator, so equality of classes is a plain tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, Iterator, Literal, NamedTuple

from .abelian import FGAbelianGroup, IntMatrix, rank_mod2

TOP_DEGREE = 8
DEGREES = range(TOP_DEGREE + 1)

Ring = Literal["Z", "Z2"]

CupTable = dict[tuple[int, int], tuple[int, ...]]


class MissingOperationError(LookupError):
    """A cup table or operation matrix needed for a computation is absent."""


class ManifoldValidationError(ValueError):
    """Raised when loading data that fails validation; carries the report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(r.name for r in report.failures())
        super().__init__(f"manifold data failed validation: {failed}")


@dataclass(frozen=True)
class CohomologyClass:
    """A cohomology class as reduced coordinates in a fixed graded basis."""

    degree: int
    ring: Ring
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.ring not in ("Z", "Z2"):
            raise ValueError(f"unknown coefficient ring {self.ring!r}")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class GradedGroupZ:
    """Integral cohomology: one presented group per degree 0..8."""

    groups: tuple[FGAbelianGroup, ...]
    names: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.groups) != TOP_DEGREE + 1 or len(self.names) != TOP_DEGREE + 1:
            raise ValueError("need groups and generator names for degrees 0..8")
        for n, (g, nm) in enumerate(zip(self.groups, self.names)):
            if len(nm) != g.num_generators:
                raise ValueError(
                    f"degree {n}: {g.num_generators} generators but {len(nm)} names"
                )


@dataclass(frozen=True)
class GradedGroupMod2:
    """Mod-2 cohomology: one F2 vector space dimension per degree 0..8."""

    dims: tuple[int, ...]
    names: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.dims) != TOP_DEGREE + 1 or len(self.names) != TOP_DEGREE + 1:
            raise ValueError("need dimensions and basis names for degrees 0..8")
        for n, (d, nm) in enumerate(zip(self.dims, self.names)):
            if d < 0 or len(nm) != d:
                raise ValueError(f"degree {n}: dimension {d} but {len(nm)} names")


@dataclass(frozen=True)
class ChernTuple:
    """Candidate Chern classes (u1, u2, u3, u4) in degrees 2, 4, 6, 8."""

    u1: CohomologyClass
    u2: CohomologyClass
    u3: CohomologyClass
    u4: CohomologyClass

    def __post_init__(self):
        for u, deg in zip(self.classes(), (2, 4, 6, 8)):
            if u.degree != deg or u.ring != "Z":
                raise ValueError(f"component of degree {u.degree}/{u.ring}, expected integral degree {deg}")

    def classes(self) -> tuple[CohomologyClass, ...]:
        return (self.u1, self.u2, self.u3, self.u4)


OddQuadruple = tuple[CohomologyClass, CohomologyClass, CohomologyClass, CohomologyClass]


@dataclass(frozen=True)
class ManifoldData:
    """Full finite description of the cohomology of a closed oriented 8-manifold.

    ``cup_z[(a, b)]`` maps generator index pairs (i, j) to the coordinates
    of the product in degree a+b.  ``rho2[n]``, ``beta[n]`` and ``sq2[n]``
    are matrices from source coordinates to target coordinates (rows =
    target, columns = source); beta raises degree by one, Sq^2 by two.
    ``odd_generators`` lists quadruples of classes in degrees 1, 3, 5, 7
    generating the image of the odd-degree unitary transgressions; None
    means this information was not supplied.
    """

    name: str
    integral: GradedGroupZ
    mod2: GradedGroupMod2
    cup_z: dict[tuple[int, int], CupTable]
    rho2: dict[int, IntMatrix]
    beta: dict[int, IntMatrix]
    sq2: dict[int, IntMatrix]
    pairing: tuple[int, ...]
    p1: CohomologyClass
    spinc_class: CohomologyClass
    w2: CohomologyClass | None = None
    odd_generators: tuple[OddQuadruple, ...] | None = None
    cup_m2: dict[tuple[int, int], CupTable] = field(default_factory=dict)

    # -- shape helpers -------------------------------------------------

    def group(self, degree: int) -> FGAbelianGroup:
        return self.integral.groups[degree]

    def ngens(self, degree: int) -> int:
        return self.integral.groups[degree].num_generators

    def m2dim(self, degree: int) -> int:
        return self.mod2.dims[degree]

    def dim(self, degree: int, ring: str) -> int:
        return self.ngens(degree) if ring == "Z" else self.m2dim(degree)

    # -- class constructors and arithmetic -----------------------------

    def zclass(self, degree: int, coords: Iterable[int]) -> CohomologyClass:
        elt = self.group(degree).element(coords)
        return CohomologyClass(degree, "Z", elt.coords)

    def m2class(self, degree: int, bits: Iterable[int]) -> CohomologyClass:
        b = tuple(int(x) % 2 for x in bits)
        if len(b) != self.m2dim(degree):
            raise ValueError(
                f"expected {self.m2dim(degree)} mod-2 coordinates in degree {degree}, got {len(b)}"
            )
        return CohomologyClass(degree, "Z2", b)

    def make_class(self, degree: int, ring: str, coords: Iterable[int]) -> CohomologyClass:
        return self.zclass(degree, coords) if ring == "Z" else self.m2class(degree, coords)

    def zero(self, degree: int, ring: str = "Z") -> CohomologyClass:
        return self.make_class(degree, ring, (0,) * self.dim(degree, ring))

    def add(self, x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
        if (x.degree, x.ring) != (y.degree, y.ring):
            raise ValueError("cannot add classes of different degree or ring")
        return self.make_class(
            x.degree, x.ring, (a + b for a, b in zip(x.coords, y.coords, strict=True))
        )

    def negate(self, x: CohomologyClass) -> CohomologyClass:
        return self.make_class(x.degree, x.ring, (-a for a in x.coords))

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
        """The integer form of this data, built on first use and kept.

        ``dataclasses.replace`` makes a new instance and so a new
        compilation; the dicts of an instance must not be mutated in place
        once it has been compiled."""
        return _compile(self)

    @cached_property
    def B(self) -> FGAbelianGroup:
        """``classify.compute_B``, which no Chern tuple changes, kept as ``compiled`` is."""
        from .classify import compute_B  # classify imports this module
        return compute_B(self)


# -- the four operations ------------------------------------------------

_OP_SPECS = {
    "rho2": ("Z", "Z2", 0),
    "beta": ("Z2", "Z", 1),
    "sq2": ("Z2", "Z2", 2),
}


def _op_dims(dim: Callable[[int, str], int], op: str, degree: int) -> tuple[int, int]:
    """(source, target) dimensions of op at degree, given dim(degree, ring)."""
    src_ring, tgt_ring, shift = _OP_SPECS[op]
    src = dim(degree, src_ring)
    tgt_degree = degree + shift
    tgt = dim(tgt_degree, tgt_ring) if tgt_degree <= TOP_DEGREE else 0
    return src, tgt


def _available_matrix(data: ManifoldData, op: str, degree: int) -> IntMatrix | None:
    """The matrix of an operation, a canonical zero matrix when either side
    is trivial, or None when it was not supplied or is misshapen."""
    src, tgt = _op_dims(data.dim, op, degree)
    M = getattr(data, op).get(degree)
    if M is None:
        return IntMatrix.zeros(tgt, src) if src == 0 or tgt == 0 else None
    return M if (M.rows, M.cols) == (tgt, src) else None


def _misshapen(data: ManifoldData, op: str, degree: int, M: IntMatrix) -> str:
    src, tgt = _op_dims(data.dim, op, degree)
    return f"expected {tgt}x{src}, got {M.rows}x{M.cols}"


def _operation_matrix(data: ManifoldData, op: str, degree: int) -> IntMatrix:
    """``_available_matrix``, raising where it gives None."""
    M = _available_matrix(data, op, degree)
    if M is None:
        supplied = getattr(data, op).get(degree)
        if supplied is None:
            raise MissingOperationError(f"missing {op} matrix at degree {degree}")
        raise ValueError(f"{op} matrix at degree {degree}: {_misshapen(data, op, degree, supplied)}")
    return M


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
    M = _operation_matrix(data, op, x.degree)
    image = M.apply(list(x.coords))
    return data.make_class(tgt_degree, tgt_ring, image)


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
    if a == 0 or b == 0:
        scalar_cls, other = (x, y) if a == 0 else (y, x)
        coeff = scalar_cls.coords[0] if scalar_cls.coords else 0
        return data.scale(coeff, other)
    tables = data.cup_z if ring == "Z" else data.cup_m2
    table = tables.get((a, b))
    swapped = False
    if table is None:
        table = tables.get((b, a))
        swapped = True
    if table is None:
        if data.dim(a, ring) == 0 or data.dim(b, ring) == 0 or data.dim(n, ring) == 0:
            return data.zero(n, ring)
        raise MissingOperationError(f"missing cup product table for degrees ({a}, {b})")
    sign = -1 if (swapped and a % 2 and b % 2 and ring == "Z") else 1
    acc = [0] * data.dim(n, ring)
    for (i, j), coords in table.items():
        coeff = x.coords[j] * y.coords[i] if swapped else x.coords[i] * y.coords[j]
        if coeff:
            for k, c in enumerate(coords):
                acc[k] += sign * coeff * c
    return data.make_class(n, ring, acc)


def pair_top(data: ManifoldData, x: CohomologyClass) -> int:
    """Evaluate a top-degree integral class against the fundamental class."""
    if x.ring != "Z" or x.degree != TOP_DEGREE:
        raise ValueError("pairing is defined on integral classes of degree 8")
    return sum(c * w for c, w in zip(x.coords, data.pairing, strict=True))


# -- the compiled form ------------------------------------------------------

# (i, j, ((k, c), ...)): generator i times generator j has coefficient c on
# target generator k; zero coefficients are left out.
SparseTable = tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
Coords = tuple[int, ...]
Rows = tuple[Coords, ...]


class CompiledManifold(NamedTuple):
    """What conditions (1)-(3) and the Riemann-Roch closed form read of a
    manifold, as plain int tuples, so that they run on coordinate tuples
    without building classes.  Immutable; a NamedTuple rather than a frozen
    dataclass, whose creation adds over a millisecond to every import of
    the package.

    ``factors[n]`` are the invariant factors of H^n.  ``cups[a, b]`` is the
    integral product H^a x H^b -> H^(a+b) for even a, b >= 2, transposed
    when only the (b, a) table is given, empty when a side is trivial and
    None when the table is missing.  ``rho2_4``, ``sq2_4`` and ``rho2_6``
    are the rows of the operation matrices of condition (1), None when a
    matrix is missing or misshapen (``apply_op`` then raises for it).
    Every result is reduced where ``cup`` reduces it, so the two agree
    bit for bit.
    """

    name: str
    factors: tuple[tuple[int, ...], ...]
    cups: dict[tuple[int, int], SparseTable | None]
    rho2_4: Rows | None
    sq2_4: Rows | None
    rho2_6: Rows | None
    pairing: Coords
    p1: Coords
    c: Coords

    def reduce(self, degree: int, coords) -> Coords:
        """Integral coordinates reduced as ``FGAbelianGroup.element`` does."""
        factors = self.factors[degree]
        if len(coords) != len(factors):
            raise ValueError(f"expected {len(factors)} coordinates, got {len(coords)}")
        if any(factors):
            return tuple([x % d if d else x for x, d in zip(coords, factors)])
        return tuple(coords)

    def chern_coords(self, u: ChernTuple) -> tuple[Coords, Coords, Coords, Coords]:
        """The coordinates of u's classes, checked and reduced as ``chern_tuple`` makes them."""
        return tuple(self.reduce(x.degree, x.coords) for x in u.classes())

    def cup(self, a: int, x: Coords, b: int, y: Coords) -> Coords:
        """``cup`` of integral classes of even degrees a, b >= 2."""
        table = self.cups[a, b]
        if table is None:
            raise MissingOperationError(f"missing cup product table for degrees ({a}, {b})")
        acc = [0] * len(self.factors[a + b])
        for i, j, terms in table:
            coeff = x[i] * y[j]
            if coeff:
                for k, c in terms:
                    acc[k] += coeff * c
        return self.reduce(a + b, acc)

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
        return ()
    else:
        return None
    return tuple(
        (i, j, tuple((k, c) for k, c in enumerate(coords) if c)) for (i, j), coords in entries
    )


def _compile(data: ManifoldData) -> CompiledManifold:
    """The compiled form of the data; ``data.compiled`` caches it."""

    def rows(op: str, degree: int) -> Rows | None:
        M = _available_matrix(data, op, degree)
        return None if M is None else tuple(M.row(i) for i in range(M.rows))

    return CompiledManifold(
        name=data.name,
        factors=tuple(g.invariant_factors for g in data.integral.groups),
        cups={
            (a, b): _sparse_table(data, a, b)
            for a in (2, 4, 6)
            for b in (2, 4, 6)
            if a + b <= TOP_DEGREE
        },
        rho2_4=rows("rho2", 4),
        sq2_4=rows("sq2", 4),
        rho2_6=rows("rho2", 6),
        pairing=data.pairing,
        p1=data.p1.coords,
        c=data.spinc_class.coords,
    )


# -- validation ----------------------------------------------------------

@dataclass(frozen=True)
class LawResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

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


def _beta_bit_matrix(data: ManifoldData, degree: int, M: IntMatrix) -> IntMatrix | None:
    """Rewrite a Bockstein matrix over the 2-torsion basis of the target.

    Returns None when some column is not 2-torsion (the torsion law
    reports that separately)."""
    if degree >= TOP_DEGREE:
        return IntMatrix.zeros(0, M.cols)
    group = data.group(degree + 1)
    # the element of order 2 of Z/d for even d; Z and Z/odd have none
    halves = [d // 2 if d % 2 == 0 else 0 for d in group.invariant_factors]
    rows = [j for j, h in enumerate(halves) if h]
    bits = []
    for i in range(M.cols):
        col = group.element(M.column(i)).coords
        if any(c and c != h for c, h in zip(col, halves)):
            return None
        bits.append([1 if col[j] else 0 for j in rows])
    return IntMatrix.from_columns(bits, len(rows))


def _counterexample(name: str, witnesses: Iterable[str]) -> LawResult:
    """The result of a law that holds unless it has a witness: the first one."""
    witness = next(iter(witnesses), None)
    return LawResult(name, witness is None, witness)


def _matrices(data: ManifoldData, *ops: str, below: int = TOP_DEGREE + 1):
    """(degree, one matrix per op) at each degree below ``below`` where the
    first op's matrix is supplied and all are available: the canonical zero
    matrix of an unsupplied one has no counterexample to give."""
    for degree in sorted(getattr(data, ops[0]).keys() & range(below)):
        matrices = [_available_matrix(data, op, degree) for op in ops]
        if None not in matrices:
            yield degree, *matrices


def _shape(data: ManifoldData) -> Iterator[LawResult]:
    problems = []
    for op in _OP_SPECS:
        for degree, M in sorted(getattr(data, op).items()):
            if degree not in DEGREES:
                problems.append(f"{op} at degree {degree}: degree out of range")
            elif _available_matrix(data, op, degree) is None:
                problems.append(f"{op} at degree {degree}: {_misshapen(data, op, degree, M)}")
    if len(data.pairing) != data.ngens(TOP_DEGREE):
        problems.append(
            f"pairing vector of length {len(data.pairing)}, H^8 has {data.ngens(TOP_DEGREE)} generators"
        )
    for label, cls, degree, ring in (("p1", data.p1, 4, "Z"), ("spinc", data.spinc_class, 2, "Z")):
        if cls.degree != degree or cls.ring != ring or len(cls.coords) != data.dim(degree, ring):
            problems.append(f"{label}: not a well-formed degree-{degree} {ring} class")
    if data.w2 is not None:
        if data.w2.degree != 2 or data.w2.ring != "Z2" or len(data.w2.coords) != data.m2dim(2):
            problems.append("w2: not a well-formed degree-2 mod-2 class")
    for ring, tables in (("Z", data.cup_z), ("Z2", data.cup_m2)):
        for (a, b), table in sorted(tables.items()):
            if a + b > TOP_DEGREE:
                problems.append(f"cup table ({a},{b}): target degree out of range")
                continue
            for (i, j), coords in table.items():
                if not (0 <= i < data.dim(a, ring) and 0 <= j < data.dim(b, ring)):
                    problems.append(f"cup table ({a},{b}): index ({i},{j}) out of range")
                elif len(coords) != data.dim(a + b, ring):
                    problems.append(
                        f"cup table ({a},{b}) entry ({i},{j}): expected "
                        f"{data.dim(a + b, ring)} coordinates, got {len(coords)}"
                    )
    if data.odd_generators is not None:
        for q, quad in enumerate(data.odd_generators):
            for cls, degree in zip(quad, (1, 3, 5, 7)):
                if cls.degree != degree or cls.ring != "Z" or len(cls.coords) != data.ngens(degree):
                    problems.append(f"odd generator block {q}: degree-{degree} entry malformed")
    yield LawResult("shape", not problems, "; ".join(problems) or None)


def _h0_is_Z(data: ManifoldData) -> Iterator[LawResult]:
    yield LawResult("h0_is_Z", data.group(0).invariant_factors == (0,), f"H^0 = {data.group(0)}")


def _h8_is_Z(data: ManifoldData) -> Iterator[LawResult]:
    top = data.group(TOP_DEGREE)
    yield LawResult("h8_is_Z", top.invariant_factors == (0,), f"H^8 = {top}")


def _rho2_times2(data: ManifoldData) -> Iterator[LawResult]:
    # rho2 after multiplication by 2 vanishes: equivalently each generator
    # of odd finite order must have an even rho2 column.
    yield _counterexample("rho2_times2", (
        f"degree {degree} generator {data.integral.names[degree][j]}"
        for degree, R in _matrices(data, "rho2")
        for j, d in enumerate(data.group(degree).invariant_factors)
        if any((d * v) % 2 for v in R.column(j))
    ))


def _beta_torsion(data: ManifoldData) -> Iterator[LawResult]:
    # Bockstein image is 2-torsion.
    yield _counterexample("beta_torsion", (
        f"degree {degree} basis element {data.mod2.names[degree][i]}"
        for degree, B in _matrices(data, "beta", below=TOP_DEGREE)
        for i in range(B.cols)
        if any(data.group(degree + 1).element(2 * v for v in B.column(i)).coords)
    ))


def _beta_rho2(data: ManifoldData) -> Iterator[LawResult]:
    # beta after rho2 vanishes.
    yield _counterexample("beta_rho2", (
        f"degree {degree} generator {data.integral.names[degree][j]}"
        for degree, R, B in _matrices(data, "rho2", "beta", below=TOP_DEGREE)
        for j in range(R.cols)
        if any(data.group(degree + 1).element(B.apply([x % 2 for x in R.column(j)])).coords)
    ))


def _spinc_reduction(data: ManifoldData) -> Iterator[LawResult]:
    if data.w2 is None:
        return
    R = _available_matrix(data, "rho2", 2)
    if R is None:
        yield LawResult("spinc_reduction", False, "rho2 at degree 2 unavailable")
    else:
        reduced = data.m2class(2, R.apply(list(data.spinc_class.coords)))
        witness = f"rho2(c) = {reduced.coords}, w2 = {data.w2.coords}"
        yield LawResult("spinc_reduction", reduced == data.w2, witness)


def _pairing_surjective(data: ManifoldData) -> Iterator[LawResult]:
    yield LawResult(
        "pairing_surjective", any(abs(w) == 1 for w in data.pairing), f"pairing = {data.pairing}"
    )


def _cup_commutes(data: ManifoldData) -> Iterator[LawResult]:
    # Tables supplied in both orientations must agree (even degrees only;
    # odd-degree pairs would differ by the graded sign).
    yield _counterexample("cup_commutes", (
        f"cup ({a},{b}) entry ({i},{j}) disagrees with cup ({b},{a})"
        for (a, b), table in sorted(data.cup_z.items())
        if a % 2 == b % 2 == 0 and (b, a) in data.cup_z and (a, b) <= (b, a)
        for (i, j), coords in table.items()
        if data.cup_z[(b, a)].get((j, i), coords) != coords
    ))


def _sq2_squares_deg2(data: ManifoldData) -> Iterator[LawResult]:
    if (2, 2) not in data.cup_m2:
        return
    S = _available_matrix(data, "sq2", 2)
    if S is None:
        yield LawResult("sq2_squares_deg2", False, "sq2 at degree 2 unavailable")
        return
    n = data.m2dim(2)
    basis = (data.m2class(2, [int(k == i) for k in range(n)]) for i in range(n))
    yield _counterexample("sq2_squares_deg2", (
        f"basis element {name}"
        for name, x in zip(data.mod2.names[2], basis)
        if data.m2class(4, S.apply(x.coords)) != cup(data, x, x)
    ))


def _bockstein_exact(data: ManifoldData) -> Iterator[LawResult]:
    # im rho2 = ker beta, degree by degree, by mod-2 rank counting.
    for degree in DEGREES:
        R, B = _available_matrix(data, "rho2", degree), _available_matrix(data, "beta", degree)
        if R is None or B is None:
            continue
        name = f"bockstein_exact_deg{degree}"
        bits = _beta_bit_matrix(data, degree, B)
        if bits is None:
            yield LawResult(name, False, "beta image not 2-torsion")
            continue
        im_rho2 = rank_mod2(R)
        ker_beta = data.m2dim(degree) - rank_mod2(bits)
        yield LawResult(
            name, im_rho2 == ker_beta, f"dim im rho2 = {im_rho2}, dim ker beta = {ker_beta}"
        )


# Each law yields its results: none when it does not apply.
LAWS = (
    _shape,
    _h0_is_Z,
    _h8_is_Z,
    _rho2_times2,
    _beta_torsion,
    _beta_rho2,
    _spinc_reduction,
    _pairing_surjective,
    _cup_commutes,
    _sq2_squares_deg2,
)


def validate_manifold(data: ManifoldData, strict: bool = False) -> ValidationReport:
    """Check the algebraic laws the encoded data must satisfy.

    Always checked: shape compatibility, H^0 = Z, H^8 = Z, rho2 composed
    with doubling vanishes, Bockstein images are 2-torsion, beta after
    rho2 vanishes, rho2(c) = w2 when w2 is given, the pairing hits +-1, cup
    tables given in both orientations agree, and (when a mod-2 degree-2
    product table exists) Sq^2 squares degree-2 classes.  With
    ``strict=True`` the exactness of the Bockstein sequence, im rho2 =
    ker beta, is verified degree by degree by mod-2 rank counting.
    """
    laws = LAWS + (_bockstein_exact,) if strict else LAWS
    return ValidationReport(tuple(r for law in laws for r in law(data)))
