"""Built-in manifold descriptions used as fixtures and CLI inputs.

``cp4`` is the 4-dimensional complex projective space with its standard
truncated polynomial cohomology ring, p1 = 5t^2 and spin^c class c = 5t.
``cp2xcp2`` and ``cp1xcp3`` are Kunneth products of projective spaces,
``hp2`` the quaternionic projective plane, ``s8`` the 8-sphere.

``torsion-demo`` is synthetic cohomology data (it is not claimed to be
the cohomology of any actual manifold): it has a Z/2 in H^6 hit by the
Bockstein from H^5(Z/2), so the rank-4 counting group is Z/2 and Chern
classes do not classify.
"""

from __future__ import annotations

import itertools
from functools import cache

from .abelian import FGAbelianGroup, IntMatrix
from .cohomology import (
    CohomologyClass,
    CupTable,
    GradedGroupMod2,
    GradedGroupZ,
    ManifoldData,
    validate_manifold,
)

BUILTIN_NAMES = ("cp4", "s8", "hp2", "cp2xcp2", "cp1xcp3", "torsion-demo")


def _monomial_name(exponents: tuple[int, ...], variables: tuple[str, ...]) -> str:
    parts = []
    for e, v in zip(exponents, variables):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "".join(parts) or "1"


def _cp_product(name: str, caps: tuple[int, ...], variables: tuple[str, ...]) -> ManifoldData:
    """Product of complex projective spaces CP^caps[0] x CP^caps[1] x ...

    Monomial basis x^e ordered by descending exponent tuples, cup product
    by exponent addition truncated at the caps, Sq^2 from the total
    squaring formula on degree-2 generators, p1 and c from the product
    formulas.  Total real dimension must be 8.
    """
    if 2 * sum(caps) != 8:
        raise ValueError("caps must describe an 8-dimensional product")
    k = len(caps)
    by_degree: dict[int, list[tuple[int, ...]]] = {n: [] for n in range(9)}
    for e in itertools.product(*(range(c + 1) for c in caps)):
        by_degree[2 * sum(e)].append(e)
    for n in range(9):
        by_degree[n].sort(reverse=True)
    position = {e: i for n in range(9) for i, e in enumerate(by_degree[n])}

    def dim(n: int) -> int:
        return len(by_degree[n])

    groups = tuple(FGAbelianGroup((0,) * dim(n)) for n in range(9))
    names = tuple(
        tuple(_monomial_name(e, variables) for e in by_degree[n]) for n in range(9)
    )
    integral = GradedGroupZ(groups, names)
    mod2 = GradedGroupMod2(tuple(dim(n) for n in range(9)), names)

    def product_table(a: int, b: int) -> CupTable:
        table: CupTable = {}
        for i, e in enumerate(by_degree[a]):
            for j, f in enumerate(by_degree[b]):
                g = tuple(x + y for x, y in zip(e, f))
                coords = [0] * dim(a + b)
                if all(x <= cap for x, cap in zip(g, caps)):
                    coords[position[g]] = 1
                table[(i, j)] = tuple(coords)
        return table

    cup_z = {pair: product_table(*pair) for pair in ((2, 2), (2, 4), (2, 6), (4, 4))}
    cup_m2 = {(2, 2): product_table(2, 2)}

    rho2 = {n: IntMatrix.identity(dim(n)) for n in range(9) if dim(n)}

    sq2 = {}
    for n in (0, 2, 4, 6):
        if dim(n) == 0 or dim(n + 2) == 0:
            continue
        cols = []
        for e in by_degree[n]:
            acc = [0] * dim(n + 2)
            for i in range(k):
                if e[i] % 2:
                    g = tuple(x + (1 if idx == i else 0) for idx, x in enumerate(e))
                    if all(x <= cap for x, cap in zip(g, caps)):
                        acc[position[g]] = 1
            cols.append(acc)
        sq2[n] = IntMatrix.from_columns(cols, dim(n + 2))

    p1 = [0] * dim(4)
    for i, cap in enumerate(caps):
        square = tuple(2 if idx == i else 0 for idx in range(k))
        if all(x <= c for x, c in zip(square, caps)):
            p1[position[square]] += cap + 1
    c = [0] * dim(2)
    for i, cap in enumerate(caps):
        c[position[tuple(1 if idx == i else 0 for idx in range(k))]] += cap + 1

    data = ManifoldData(
        name=name,
        integral=integral,
        mod2=mod2,
        cup_z=cup_z,
        cup_m2=cup_m2,
        rho2=rho2,
        beta={},
        sq2=sq2,
        pairing=(1,),
        p1=CohomologyClass(4, "Z", tuple(p1)),
        spinc_class=CohomologyClass(2, "Z", tuple(c)),
        w2=CohomologyClass(2, "Z2", tuple(x % 2 for x in c)),
        odd_generators=(),
    )
    return data


def _graded(
    z_by_degree: dict[int, tuple[tuple[int, ...], tuple[str, ...]]],
    m2_by_degree: dict[int, tuple[str, ...]],
) -> tuple[GradedGroupZ, GradedGroupMod2]:
    groups, znames, dims, mnames = [], [], [], []
    for n in range(9):
        factors, nm = z_by_degree.get(n, ((), ()))
        groups.append(FGAbelianGroup(factors))
        znames.append(tuple(nm))
        basis = m2_by_degree.get(n, ())
        dims.append(len(basis))
        mnames.append(tuple(basis))
    return (
        GradedGroupZ(tuple(groups), tuple(znames)),
        GradedGroupMod2(tuple(dims), tuple(mnames)),
    )


def _s8() -> ManifoldData:
    integral, mod2 = _graded(
        {0: ((0,), ("1",)), 8: ((0,), ("v",))},
        {0: ("1",), 8: ("v",)},
    )
    return ManifoldData(
        name="s8",
        integral=integral,
        mod2=mod2,
        cup_z={},
        rho2={0: IntMatrix.identity(1), 8: IntMatrix.identity(1)},
        beta={},
        sq2={},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", ()),
        spinc_class=CohomologyClass(2, "Z", ()),
        odd_generators=(),
    )


def _hp2() -> ManifoldData:
    integral, mod2 = _graded(
        {0: ((0,), ("1",)), 4: ((0,), ("u",)), 8: ((0,), ("u^2",))},
        {0: ("1",), 4: ("u",), 8: ("u^2",)},
    )
    return ManifoldData(
        name="hp2",
        integral=integral,
        mod2=mod2,
        cup_z={(4, 4): {(0, 0): (1,)}},
        rho2={n: IntMatrix.identity(1) for n in (0, 4, 8)},
        beta={},
        sq2={},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", (2,)),
        spinc_class=CohomologyClass(2, "Z", ()),
        odd_generators=(),
    )


def _torsion_demo() -> ManifoldData:
    # H^6 = Z/2 generated by s; the Bockstein carries the H^5(Z/2) basis
    # class x5 onto s, and Sq^2 rho2 H^3 = 0, so the counting group is Z/2.
    integral, mod2 = _graded(
        {0: ((0,), ("1",)), 6: ((2,), ("s",)), 8: ((0,), ("v",))},
        {0: ("1",), 5: ("x5",), 6: ("x6",), 8: ("v",)},
    )
    return ManifoldData(
        name="torsion-demo",
        integral=integral,
        mod2=mod2,
        cup_z={},
        rho2={n: IntMatrix.identity(1) for n in (0, 6, 8)},
        beta={5: IntMatrix(1, 1, (1,))},
        sq2={},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", ()),
        spinc_class=CohomologyClass(2, "Z", ()),
        odd_generators=(),
    )


_CONSTRUCTORS = {
    "cp4": lambda: _cp_product("cp4", (4,), ("t",)),
    "s8": _s8,
    "hp2": _hp2,
    "cp2xcp2": lambda: _cp_product("cp2xcp2", (2, 2), ("a", "b")),
    "cp1xcp3": lambda: _cp_product("cp1xcp3", (1, 3), ("a", "b")),
    "torsion-demo": _torsion_demo,
}


@cache
def builtin(name: str) -> ManifoldData:
    """A validated built-in ManifoldData by name.

    Built and validated once per process, so also compiled at most once:
    every call returns the same shared instance, which is read-only.
    Derive variants with ``dataclasses.replace``; never mutate its dicts."""
    try:
        constructor = _CONSTRUCTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r} (choose from {', '.join(BUILTIN_NAMES)})"
        ) from None
    data = constructor()
    report = validate_manifold(data)
    if not report.ok:  # pragma: no cover - would be a fixture bug
        raise AssertionError(f"builtin {name} fails validation:\n{report}")
    return data
