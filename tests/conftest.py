import pytest
from hypothesis import settings

from bundlecensus import abelian
from bundlecensus.abelian import FGAbelianGroup, IntMatrix
from bundlecensus.cohomology import (
    CohomologyClass,
    GradedGroupMod2,
    GradedGroupZ,
    ManifoldData,
)
from bundlecensus.fixtures import builtin

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True, scope="session")
def _verify_snf_postconditions():
    # re-check U*A*V == D, unimodularity and the divisibility chain on
    # every Smith normal form computed anywhere in the suite
    abelian.VERIFY_POSTCONDITIONS = True
    yield
    abelian.VERIFY_POSTCONDITIONS = False


@pytest.fixture(scope="session")
def cp4():
    return builtin("cp4")


@pytest.fixture(scope="session")
def s8():
    return builtin("s8")


@pytest.fixture(scope="session")
def hp2():
    return builtin("hp2")


@pytest.fixture(scope="session")
def cp2xcp2():
    return builtin("cp2xcp2")


@pytest.fixture(scope="session")
def cp1xcp3():
    return builtin("cp1xcp3")


@pytest.fixture(scope="session")
def torsion_demo():
    return builtin("torsion-demo")


def graded_pair(zmap, mmap):
    """Build (GradedGroupZ, GradedGroupMod2) from sparse degree maps."""
    groups, znames, dims, mnames = [], [], [], []
    for n in range(9):
        factors, names = zmap.get(n, ((), ()))
        groups.append(FGAbelianGroup(factors))
        znames.append(tuple(names))
        basis = mmap.get(n, ())
        dims.append(len(basis))
        mnames.append(tuple(basis))
    return GradedGroupZ(tuple(groups), tuple(znames)), GradedGroupMod2(
        tuple(dims), tuple(mnames)
    )


def make_h7_demo() -> ManifoldData:
    """Synthetic data with H^7 = Z and one odd quadruple (0, 0, 0, 2w)."""
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 7: ((0,), ("w",)), 8: ((0,), ("v",))},
        {0: ("1",), 7: ("w",), 8: ("v",)},
    )
    return ManifoldData(
        name="h7-demo",
        integral=integral,
        mod2=mod2,
        cup_z={},
        rho2={n: IntMatrix.identity(1) for n in (0, 7, 8)},
        beta={7: IntMatrix.zeros(1, 1)},
        sq2={},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", ()),
        spinc_class=CohomologyClass(2, "Z", ()),
        odd_generators=(
            (
                CohomologyClass(1, "Z", ()),
                CohomologyClass(3, "Z", ()),
                CohomologyClass(5, "Z", ()),
                CohomologyClass(7, "Z", (2,)),
            ),
        ),
    )


@pytest.fixture(scope="session")
def h7_demo():
    return make_h7_demo()


def make_cp4_with_h6_torsion(ts: int = 0) -> ManifoldData:
    """cp4 with H^6 = Z/2<s> + Z<t^3> and t*t^2 = t^3 + s, so that u1*u2 reaches the torsion of
    H^6; s is the Bockstein of b5 in H^5(Z/2), and t*s = ts*t^4.  Passes every law, strict
    ones too, for ts = 0; with ts odd, s pairs to ts with t and fails torsion_pairs_to_zero."""
    cp4 = builtin("cp4")
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 2: ((0,), ("t",)), 4: ((0,), ("t^2",)), 6: ((2, 0), ("s", "t^3")), 8: ((0,), ("t^4",))},
        {0: ("1",), 2: ("t",), 4: ("t^2",), 5: ("b5",), 6: ("s", "t^3"), 8: ("t^4",)},
    )
    return cp4._replace(
        name="cp4-h6-torsion",
        integral=integral,
        mod2=mod2,
        cup_z={
            (2, 2): {(0, 0): (1,)},
            (2, 4): {(0, 0): (1, 1)},
            (2, 6): {(0, 0): (ts,), (0, 1): (1,)},
            (4, 4): {(0, 0): (1,)},
        },
        rho2={**cp4.rho2, 6: IntMatrix.identity(2)},
        beta={5: IntMatrix.from_rows([[1], [0]], 1)},
        sq2={**cp4.sq2, 4: IntMatrix.zeros(2, 1), 6: IntMatrix.from_rows([[0, 1]], 2)},
    )


def connected_sum(name: str, *summands: ManifoldData) -> ManifoldData:
    """The connected sum of data with torsion-free, even cohomology and pairing (1,): degrees 2
    to 6 side by side, products across summands zero, H^0 and the top class shared; p1, c and
    w2 add up.  A spin^c manifold again, so every law holds where it holds on each summand."""
    sizes = [[d.ngens(n) if 0 < n < 8 else 0 for n in range(9)] for d in summands]
    offsets = [[sum(s[n] for s in sizes[:k]) for n in range(9)] for k in range(len(summands))]
    total = [sum(s[n] for s in sizes) if 0 < n < 8 else 1 for n in range(9)]

    def place(k: int, n: int, coords) -> tuple[int, ...]:  # summand k's coordinates among the sum's
        if not 0 < n < 8:
            return tuple(coords)
        out = [0] * total[n]
        out[offsets[k][n] : offsets[k][n] + len(coords)] = coords
        return tuple(out)

    def tables(field: str) -> dict:
        out = {}
        for k, d in enumerate(summands):
            for (a, b), table in getattr(d, field).items():
                out.setdefault((a, b), {}).update(
                    {(i + offsets[k][a], j + offsets[k][b]): place(k, a + b, v) for (i, j), v in table.items()}
                )
        zero = {(a, b): {(i, j): (0,) * total[a + b] for i in range(total[a]) for j in range(total[b])} for a, b in out}
        return {ab: {**zero[ab], **table} for ab, table in out.items()}

    def maps(field: str, shift: int, degrees) -> dict:
        out = {}
        for n in (n for n in degrees if total[n] and total[n + shift]):
            rows = [[0] * total[n] for _ in range(total[n + shift])]
            for k, d in enumerate(summands):
                if n in getattr(d, field):
                    matrix = getattr(d, field)[n]
                    for i in range(matrix.rows):
                        for j in range(matrix.cols):
                            rows[offsets[k][n + shift] + i][offsets[k][n] + j] += matrix.at(i, j)
            out[n] = IntMatrix.from_rows(rows, total[n])
        return out

    def added(field: str, n: int) -> tuple[int, ...]:
        return tuple(map(sum, zip(*(place(k, n, (getattr(d, field) or d.zero(n)).coords) for k, d in enumerate(summands)))))

    names = {n: tuple(f"{x}_{k}" for k, d in enumerate(summands) for x in d.integral.names[n]) for n in range(2, 8, 2)}
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), **{n: ((0,) * len(x), x) for n, x in names.items() if x}, 8: ((0,), ("top",))},
        {0: ("1",), **{n: x for n, x in names.items() if x}, 8: ("top",)},
    )
    return ManifoldData(
        name=name,
        integral=integral,
        mod2=mod2,
        cup_z=tables("cup_z"),
        rho2={0: IntMatrix.identity(1), **maps("rho2", 0, range(2, 8, 2)), 8: IntMatrix.identity(1)},
        beta={},
        sq2=maps("sq2", 2, range(0, 7, 2)),
        pairing=(1,),
        p1=CohomologyClass(4, "Z", added("p1", 4)),
        spinc_class=CohomologyClass(2, "Z", added("spinc_class", 2)),
        w2=CohomologyClass(2, "Z2", added("w2", 2)),
        odd_generators=(),
        cup_m2=tables("cup_m2"),
    )


def unchecked(data: ManifoldData, **fields) -> ManifoldData:
    """data with fields replaced, built without the constructor's shape
    check: misshapen data for tests to serialize or to ask ``shape_problems``
    about.  ``unchecked(...)._replace()`` runs the check."""
    return tuple.__new__(ManifoldData, {**data._asdict(), **fields}.values())


def misshape(data: ManifoldData, rng) -> ManifoldData:
    """One seeded edit of data that may break its shape, built ``unchecked``:
    a matrix of random shape at a degree in 0..8, a dropped or added cup
    entry, a cup entry of the wrong length, or a pairing, p1, w2 or odd
    generator of the wrong length.  Entries are dropped only from tables of
    two or more, since an empty table serializes to nothing."""

    def vec(n: int, ring: str = "Z") -> tuple[int, ...]:
        return tuple(rng.randrange(2) if ring == "Z2" else rng.randrange(-3, 4) for _ in range(n))

    def wrong_length(coords, ring: str = "Z") -> tuple[int, ...]:
        return vec(len(coords) + 1 if not coords or rng.randrange(2) else len(coords) - 1, ring)

    edit = rng.randrange(4)
    if edit == 0:
        op, degree = rng.choice(("rho2", "beta", "sq2")), rng.randrange(9)
        rows, cols = rng.randrange(4), rng.randrange(4)
        return unchecked(data, **{op: {**getattr(data, op), degree: IntMatrix(rows, cols, vec(rows * cols))}})
    field, ring = rng.choice((("cup_z", "Z"), ("cup_m2", "Z2")))
    tables = getattr(data, field)
    if edit == 1:
        droppable = [ab for ab, table in tables.items() if len(table) >= 2]
        if droppable and rng.randrange(2):
            ab = rng.choice(sorted(droppable))
            gone = rng.choice(sorted(tables[ab]))
            table = {ij: coords for ij, coords in tables[ab].items() if ij != gone}
        else:
            a = rng.randrange(9)
            ab = (a, rng.randrange(9 - a))
            ij = (rng.randrange(data.dim(ab[0], ring) + 1), rng.randrange(data.dim(ab[1], ring) + 1))
            table = {**tables.get(ab, {}), ij: vec(data.dim(sum(ab), ring), ring)}
        return unchecked(data, **{field: {**tables, ab: table}})
    if edit == 2 and tables:
        ab = rng.choice(sorted(tables))
        ij = rng.choice(sorted(tables[ab]))
        return unchecked(data, **{field: {**tables, ab: {**tables[ab], ij: wrong_length(tables[ab][ij], ring)}}})
    targets = ["pairing", "p1"] + ["w2"] * (data.w2 is not None) + ["oddgen"] * bool(data.odd_generators)
    target = rng.choice(targets)
    if target == "pairing":
        return unchecked(data, pairing=wrong_length(data.pairing))
    if target == "p1":
        return unchecked(data, p1=CohomologyClass(4, "Z", wrong_length(data.p1.coords)))
    if target == "w2":
        return unchecked(data, w2=CohomologyClass(2, "Z2", wrong_length(data.w2.coords, "Z2")))
    q = rng.randrange(len(data.odd_generators))
    k = rng.randrange(4)
    block = list(data.odd_generators[q])
    block[k] = CohomologyClass(block[k].degree, "Z", wrong_length(block[k].coords))
    blocks = list(data.odd_generators)
    blocks[q] = tuple(block)
    return unchecked(data, odd_generators=tuple(blocks))
