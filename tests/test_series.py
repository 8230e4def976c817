"""The Riemann-Roch series behind ``rr_value(..., self_check=True)``.

``rr_value_by_series`` dots the Todd rows of the data, built once per
instance, with a bracket cupped from the tuple.  It must equal the frozen
per-call series of ``series_reference`` bit for bit, raise what it raises,
stay independent of the closed form and still catch a fault in it.
"""

import random
from fractions import Fraction

import degree8_reference
import pytest
from conftest import make_h7_demo
from series_reference import rr_value_by_series as reference_series

from bundlecensus import charclass
from bundlecensus.charclass import (
    DEGREE8_TABLE,
    RationalClassPolynomial,
    rr_value,
    rr_value_by_series,
)
from bundlecensus.cohomology import ChernTuple, CohomologyClass
from bundlecensus.fixtures import _DATA, BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import parse_manifold

NAMES = BUILTIN_NAMES + ("h7-demo",)


def manifold(name):
    return make_h7_demo() if name == "h7-demo" else builtin(name)


def coordinates(data, rng, bound):
    return [[rng.randint(-bound, bound) for _ in range(data.ngens(d))] for d in (2, 4, 6, 8)]


def seeded_tuples(data, rng, count):
    """Tuples made by ``chern_tuple``; one in ten has coordinates near 10^40."""
    return [
        data.chern_tuple(*coordinates(data, rng, 10**40 if i % 10 == 0 else 9))
        for i in range(count)
    ]


def hand_built(data, rng, count):
    """Tuples of classes built directly, so torsion coordinates stay unreduced."""
    return [
        ChernTuple(*map(CohomologyClass, (2, 4, 6, 8), "ZZZZ", coordinates(data, rng, 50)))
        for _ in range(count)
    ]


def outcome(fn, data, u):
    try:
        return fn(data, u)
    except Exception as exc:
        return type(exc), str(exc)


def shifted(cls, rng):
    """cls with one coordinate moved by +-1, left unreduced."""
    coords = list(cls.coords)
    coords[rng.randrange(len(coords))] += rng.choice((-1, 1))
    return cls._replace(coords=tuple(coords))


def mutate(data, rng):
    """One seeded, unvalidated value change: a p1 coordinate, c, or one
    entry of an even-degree cup table and its mirror, moved by +-1."""
    tables = sorted(ab for ab, table in data.cup_z.items() if table and ab[0] % 2 == ab[1] % 2 == 0)
    choices = ["p1"] * bool(data.p1.coords) + ["c"] * bool(data.spinc_class.coords) + ["cup"] * bool(tables)
    kind = rng.choice(choices)
    if kind == "p1":
        return data._replace(p1=shifted(data.p1, rng))
    if kind == "c":
        return data._replace(spinc_class=shifted(data.spinc_class, rng))
    a, b = rng.choice(tables)
    i, j = rng.choice(sorted(data.cup_z[a, b]))
    coords = list(data.cup_z[a, b][i, j])
    coords[rng.randrange(len(coords))] += rng.choice((-1, 1))
    cup_z = {**data.cup_z, (a, b): {**data.cup_z[a, b], (i, j): tuple(coords)}}
    if (b, a) in cup_z:
        cup_z[b, a] = {**cup_z[b, a], (j, i): tuple(coords)}
    return data._replace(cup_z=cup_z)


@pytest.mark.parametrize("name", NAMES)
def test_series_equals_the_per_call_reference(name):
    data = manifold(name)
    rng = random.Random(11_0001)
    for u in seeded_tuples(data, rng, 60) + hand_built(data, rng, 30):
        assert rr_value_by_series(data, u) == reference_series(data, u)


# s8 and torsion-demo have no p1, c or cup entry to move
@pytest.mark.parametrize("name", ["cp4", "hp2", "cp2xcp2", "cp1xcp3"])
def test_series_equals_the_reference_on_mutated_data(name):
    rng = random.Random(11_0002)
    for _ in range(20):
        data = mutate(builtin(name), rng)
        for u in seeded_tuples(data, rng, 4) + hand_built(data, rng, 2):
            assert outcome(rr_value_by_series, data, u) == outcome(reference_series, data, u)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_missing_cup_table_raises_as_the_reference(name):
    base = builtin(name)
    rng = random.Random(11_0003)
    for key in sorted(base.cup_z):
        data = base._replace(cup_z={k: v for k, v in base.cup_z.items() if k != key})
        for u in seeded_tuples(data, rng, 3) + hand_built(data, rng, 2):
            assert outcome(rr_value_by_series, data, u) == outcome(reference_series, data, u)


@pytest.mark.parametrize("name", ["cp4", "cp2xcp2", "torsion-demo"])
def test_wrong_coordinate_count_raises_value_error(name):
    data = builtin(name)
    rng = random.Random(11_0004)
    u = hand_built(data, rng, 1)[0]
    cases = [("u1", [1]), ("u2", [1]), ("u3", [1]), ("u4", [1]), ("u4", None)]
    if data.ngens(2):  # a trivial H^2 has no coordinate to drop
        cases.append(("u1", None))
    for component, extra in cases:
        cls = getattr(u, component)
        coords = cls.coords[:-1] if extra is None else cls.coords + tuple(extra)
        bad = u._replace(**{component: cls._replace(coords=coords)})
        assert outcome(rr_value_by_series, data, bad) == outcome(reference_series, data, bad)
        with pytest.raises(ValueError, match="coordinates, got"):
            rr_value_by_series(data, bad)


@pytest.mark.parametrize("index", range(len(DEGREE8_TABLE)))
def test_self_check_catches_a_wrong_closed_form_coefficient(index, monkeypatch):
    # one 24*rr coefficient off by one: the self-check must fail exactly on
    # the tuples where that monomial pairs to nonzero in the class-based reference
    terms = [(Fraction(k24 + (i == index), 24), mono) for i, (mono, k24, *_) in enumerate(DEGREE8_TABLE)]
    monkeypatch.setattr(charclass, "RR_FUNCTIONAL", RationalClassPolynomial(tuple(terms)))
    mono = DEGREE8_TABLE[index][0]
    rng = random.Random(11_0005 + index)
    caught_on = []
    for name in BUILTIN_NAMES:
        data = builtin(name)
        for u in seeded_tuples(data, rng, 30):
            if degree8_reference.pairing(data, u, mono):
                with pytest.raises(AssertionError, match="disagrees with closed form"):
                    rr_value(data, u, self_check=True)
                caught_on.append(name)
            else:
                rr_value(data, u, self_check=True)
    # every monomial is live on cp4, whose classes are all nonzero
    assert "cp4" in caught_on


def test_replace_gets_fresh_todd_rows(cp4):
    u = cp4.chern_tuple((1,), (2,), (3,), (4,))
    rows = cp4.todd_rows
    moved = cp4._replace(p1=cp4.zclass(4, (17,)))
    assert "todd_rows" not in vars(moved)
    assert moved.todd_rows != rows and cp4.todd_rows is rows
    assert rr_value_by_series(moved, u) == reference_series(moved, u) != rr_value_by_series(cp4, u)


@pytest.mark.parametrize("name", ["cp4", "torsion-demo"])
def test_todd_rows_are_lazy_and_independent_of_the_closed_form(name, monkeypatch):
    # validating a file compiles it, so the series runs on a fresh instance
    data = parse_manifold(_DATA / f"{name}.manifold")._replace()
    assert not vars(data)
    u = data.chern_tuple(*coordinates(data, random.Random(11_0006), 9))
    expected = reference_series(data, u)
    assert "todd_rows" not in vars(data)
    for table in ("DEGREE8_TABLE", "MONOMIALS", "RR_FUNCTIONAL", "CONDITION_COLUMNS"):
        monkeypatch.setattr(charclass, table, None)
    assert rr_value_by_series(data, u) == expected
    assert "todd_rows" in vars(data) and "compiled" not in vars(data)
