import hashlib
import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import make_h7_demo

from bundlecensus import census
from bundlecensus.abelian import FGAbelianGroup, IntMatrix
from bundlecensus.census import (
    CensusRow,
    cp4_rank3_admissible,
    cp4_rank4_admissible,
    enumerate_cp4,
)
from bundlecensus.charclass import (
    CONDITION_COLUMNS,
    DEGREE8_TABLE,
    MONOMIALS,
    chern_product,
    pair_monomials,
    rr_value,
    symbol_products,
)
from bundlecensus.classify import InternalInconsistencyError, OddGeneratorsMissing, check_rank4, count_classes
from bundlecensus.cohomology import (
    CompiledManifold,
    ManifoldValidationError,
    MissingOperationError,
    validate_manifold,
)
from bundlecensus.fixtures import BUILTIN_NAMES, builtin


def test_bound_zero_rank4_only_trivial_tuple():
    result = enumerate_cp4(0, 4)
    assert result.realizable() == [(0, 0, 0, 0)]
    assert result.disagreements() == []


def test_bound_zero_rank3():
    result = enumerate_cp4(0, 3)
    assert result.realizable() == [(0, 0, 0)]


@pytest.mark.parametrize("rank", [3, 4])
def test_no_disagreements_at_small_bound(rank):
    assert enumerate_cp4(2, rank).disagreements() == []


def test_rows_are_lexicographically_ordered():
    rows = [r.coefficients for r in enumerate_cp4(1, 4).rows]
    assert rows == sorted(rows)
    assert len(rows) == 3**4


def test_rank3_realizable_triples_satisfy_parity():
    # a2^2 + a2 is even, so the mod-4 congruence forces a1*a2 = a3 mod 2
    for a1, a2, a3 in enumerate_cp4(6, 3).realizable():
        assert (a1 * a2 - a3) % 2 == 0


def test_closed_form_congruences():
    assert cp4_rank4_admissible(4, 6, 4, 1)
    assert not cp4_rank4_admissible(0, 0, 0, 1)
    assert cp4_rank3_admissible(0, 2, 2)
    assert not cp4_rank3_admissible(0, 1, 0)


def test_argument_validation():
    with pytest.raises(ValueError, match="bound"):
        enumerate_cp4(-1, 4)
    with pytest.raises(ValueError, match="rank"):
        enumerate_cp4(1, 2)


# sha256 of repr([(coefficients, closed_form, generic), ...]) of enumerate_cp4(6, rank),
# recorded before the census was staged; any refactor must keep it
CP4_CENSUS_SHA256 = {
    4: "2ee9e17b6b3210f3f7d3f525e266b1229b0514198bbfc7c7f818e1470172d07f",
    3: "f680a88e3beb1f7620a505e428ac14dd1596bab53929e4761c9f1f1321898346",
}


@pytest.mark.parametrize("rank", [4, 3])
def test_cp4_census_is_pinned(rank):
    rows = enumerate_cp4(6, rank).rows
    key = repr([(r.coefficients, r.closed_form, r.generic) for r in rows]).encode()
    assert hashlib.sha256(key).hexdigest() == CP4_CENSUS_SHA256[rank]


# sha256 of repr(census.enumerate(data, bound, rank)) off cp4, recorded
# before the census was staged by the variables each monomial reads
CENSUS_SHA256 = {
    ("s8", 1, 4): "b14619a2d7bcea1279ec60ded25b5d34d49ff0adcfa7ee0ca4fc191e52cb9f10",
    ("s8", 1, 3): "2a2691ef67527b5138d7de87d6367878f1893b77d48777d69d0d55d5ffb081d9",
    ("hp2", 1, 4): "45e6db005440aa08cbf24953659be472dd8978f23d116d2edd72d5998efda771",
    ("hp2", 1, 3): "6b988323a9e919d0ea95a18cd4878d764cc22cfe29c8dd92f8418be1fa9ce865",
    ("cp2xcp2", 1, 4): "4030325405be319b38f33d56e2679008a0096ce7054ef53401cbd82609a447e7",
    ("cp2xcp2", 1, 3): "ec2eb7f29449e7a8ace06d5e171d784d88c58d54e563d895f62497ce3f58fe31",
    ("cp1xcp3", 1, 4): "cb6d3a922fe346323372cf5c592cc8d93fb045e4f76291332bcf1f26fb1c5c2b",
    ("cp1xcp3", 1, 3): "007cb069da431782e5d958818d53b82a41032b2f2708a058db4e4e1f070d7ec2",
    ("h7-demo", 1, 4): "b14619a2d7bcea1279ec60ded25b5d34d49ff0adcfa7ee0ca4fc191e52cb9f10",
    ("h7-demo", 1, 3): "2a2691ef67527b5138d7de87d6367878f1893b77d48777d69d0d55d5ffb081d9",
    ("torsion-demo", 3, 4): "ecd4158d6f5c26f5fe789aa4adf3fcb5323a69239594835e42f68b04b307621a",
    ("torsion-demo", 3, 3): "e6ba8e47d592bf9ebb55e870c222b56c6ddb7d24e9d0375bac4c7f8a9d51d56c",
}


@pytest.mark.parametrize("name, bound, rank", sorted(CENSUS_SHA256))
def test_census_is_pinned_off_cp4(name, bound, rank):
    data = make_h7_demo() if name == "h7-demo" else builtin(name)
    digest = hashlib.sha256(repr(census.enumerate(data, bound, rank)).encode()).hexdigest()
    assert digest == CENSUS_SHA256[name, bound, rank]


def test_stages_split_the_table():
    # every monomial but <u4> lies in exactly the stage of the variables it reads
    staged = [row for stage in census._STAGES.values() for row in zip(*stage)]
    assert sorted(staged) == sorted(row for row in DEGREE8_TABLE if "u4" not in row[0])
    for reads, (monomials, *_) in census._STAGES.items():
        assert {tuple(u for u in ("u1", "u2", "u3") if u in mono) for mono in monomials} == {reads}
    assert sorted(census._STAGES) == [("u1", "u2"), ("u1", "u3"), ("u2",), ("u3",)]


@pytest.mark.parametrize("name", ["cp2xcp2", "cp1xcp3", "torsion-demo"])
def test_stage_shares_sum_to_the_right_hand_sides(name):
    # the shares, on the coordinates as the census pairs them, add up to
    # rhs(2) and 4*rhs(3) over the whole table
    data = builtin(name)
    m = data.compiled
    rng = random.Random(5)
    for _ in range(20):
        u = [tuple(rng.randrange(d) if d else rng.randint(-3, 3) for d in m.factors[n]) for n in (2, 4, 6, 8)]
        products = symbol_products(m, *u)
        pairings = pair_monomials(m, products, MONOMIALS)
        shares = [census._share(m, reads, dict(products)) for reads in census._STAGES]
        expected = [sum(map(operator.mul, column, pairings)) for column in CONDITION_COLUMNS[1:]]
        assert [sum(column) for column in zip(*shares)] == expected


def per_tuple_census(data, bound, rank):
    """The box of ``census.enumerate`` decided tuple by tuple by
    ``check_rank4``; the first exception as (type, message)."""
    m = data.compiled
    ranges = [[range(d) if d else range(-bound, bound + 1) for d in m.factors[n]] for n in (2, 4, 6, 8)]
    if rank == 3:
        ranges[3] = [range(1)] * len(m.factors[8])
    sizes = list(itertools.accumulate(len(r) for r in ranges))
    rows = []
    for coords in itertools.product(*itertools.chain(*ranges)):
        u = data.chern_tuple(*(coords[a:b] for a, b in zip([0] + sizes, sizes)))
        try:
            rows.append((coords[: sizes[rank - 1]], check_rank4(data, u).realizable))
        except Exception as exc:
            return type(exc), str(exc)
    return rows


def staged_census(data, bound, rank):
    try:
        return census.enumerate(data, bound, rank)
    except Exception as exc:
        return type(exc), str(exc)


def _with_torsion(data, degree, d):
    """H^degree with its first free generator made cyclic of order d."""
    groups = list(data.integral.groups)
    groups[degree] = FGAbelianGroup((d,) + groups[degree].invariant_factors[1:])
    return data._replace(integral=data.integral._replace(groups=tuple(groups)))


def _odd_torsion_in_h6(data, rng):
    # rho2 of odd torsion must vanish; an odd entry in its column breaks the
    # linearity of rho2 o reduce, which the census must not assume
    if not data.m2dim(6) or data.group(6).invariant_factors[:1] != (0,):
        return data
    rows = [[rng.choice((1, 3, -1, 0, 2)) for _ in range(data.ngens(6))] for _ in range(data.m2dim(6))]
    rows[0][0] = 1
    rho2 = {**data.rho2, 6: IntMatrix.from_rows(rows, data.ngens(6))}
    return _with_torsion(data, 6, rng.choice((3, 5)))._replace(rho2=rho2)


def _torsion_in_h8(data, rng):
    if data.group(8).invariant_factors[:1] != (0,):
        return data
    pairing = (rng.choice((1, 2, 3)),) + data.pairing[1:]
    return _with_torsion(data, 8, rng.choice((2, 3, 4, 6)))._replace(pairing=pairing)


def _drop_cup_table(data, rng):
    if not data.cup_z:
        return data
    key = rng.choice(sorted(data.cup_z))
    return data._replace(cup_z={k: v for k, v in data.cup_z.items() if k != key})


def _drop_matrix(data, rng):
    op, degree = rng.choice((("rho2", 4), ("rho2", 6), ("sq2", 4)))
    return data._replace(**{op: {k: v for k, v in getattr(data, op).items() if k != degree}})


def _shift_p1_and_c(data, rng):
    # moves rhs(3) off the integers on some tuples that pass (1)
    def shift(x):
        return x._replace(coords=tuple(c + rng.randint(-2, 2) for c in x.coords))

    return data._replace(p1=shift(data.p1), spinc_class=shift(data.spinc_class))


MUTATIONS = (
    _odd_torsion_in_h6,
    _torsion_in_h8,
    _drop_cup_table,
    _drop_matrix,
    _shift_p1_and_c,
)


def mutated_manifolds(count, seed):
    """Unvalidated data: each a builtin or h7-demo under one or two mutations."""
    rng = random.Random(seed)
    bases = [builtin(name) for name in BUILTIN_NAMES] + [make_h7_demo()]
    for _ in range(count):
        data = rng.choice(bases)
        for mutate in rng.sample(MUTATIONS, rng.randint(1, 2)):
            data = mutate(data, rng)
        yield data


@pytest.mark.parametrize("rank", [4, 3])
@pytest.mark.parametrize(
    "name, bound", [(name, 1) for name in BUILTIN_NAMES] + [("torsion-demo", 3), ("h7-demo", 1)]
)
def test_census_matches_per_tuple_evaluation(name, bound, rank):
    data = make_h7_demo() if name == "h7-demo" else builtin(name)
    expected = per_tuple_census(data, bound, rank)
    assert isinstance(expected, list) and any(g for _, g in expected)
    assert census.enumerate(data, bound, rank) == expected


def missing_tables(data, u):
    """The MissingOperationError messages the queries raise on tuple u; an
    InternalInconsistencyError or OddGeneratorsMissing is an answer here."""
    queries = (
        lambda: check_rank4(data, u),
        lambda: count_classes(data, u, 4),
        lambda: count_classes(data, u[:3], 3),
        lambda: rr_value(data, u, self_check=True),
        lambda: chern_product(u, u, data),
        lambda: census.enumerate(data, 0, 4),
    )
    messages = []
    for query in queries:
        try:
            query()
        except MissingOperationError as exc:
            messages.append(str(exc))
        except (InternalInconsistencyError, OddGeneratorsMissing):
            pass
    return messages


def census_matches_on_validated_data(data, bound, rank):
    """The census raises ManifoldValidationError exactly when data fails a law;
    otherwise it is ``per_tuple_census``.  The outcome's name."""
    report = validate_manifold(data)
    got = staged_census(data, bound, rank)
    if not report.ok:
        assert got == (ManifoldValidationError, str(ManifoldValidationError(report))), (data.name, rank)
        return "ManifoldValidationError"
    expected = per_tuple_census(data, bound, rank)
    assert got == expected, (data.name, rank)
    assert got[:1] != (MissingOperationError,), (data.name, rank)  # validated data has every table
    return expected[0].__name__ if isinstance(expected, tuple) else "answered"


def test_census_matches_per_tuple_evaluation_on_unvalidated_data():
    outcomes = Counter()
    rng = random.Random(3)
    for data in mutated_manifolds(200, seed=11):
        for rank in (4, 3):
            outcomes[census_matches_on_validated_data(data, 1, rank)] += 1
        if validate_manifold(data).ok:  # and no query on it misses a table
            m = data.compiled
            coords = [[rng.randrange(d) if d else rng.randint(-3, 3) for d in m.factors[n]] for n in (2, 4, 6, 8)]
            for u in (data.chern_tuple(*coords), data.chern_tuple(*([0] * len(f) for f in m.factors[2:9:2]))):
                assert missing_tables(data, u) == [], data.name
    # every kind of outcome is exercised, and a missing table is none of them
    assert set(outcomes) == {"answered", "ManifoldValidationError", "InternalInconsistencyError"}, outcomes


@pytest.mark.parametrize("name, ranks", [("torsion-demo", (4, 3)), ("cp2xcp2", (3,))])
def test_census_looks_condition_1_up_where_rho2_commutes_with_reduction(name, ranks, monkeypatch):
    # rho2 at degree 6 commutes with reduction on validated data (rho2_times2), so the
    # census applies it once per u3 and once per (u1, u2), never per tuple
    data = builtin(name)
    applied = Counter()
    apply = CompiledManifold.apply

    def counted(self, op, degree, x):
        applied[op, degree] += 1
        return apply(self, op, degree, x)

    monkeypatch.setattr(CompiledManifold, "apply", counted)
    for rank in ranks:
        expected = per_tuple_census(data, 2, rank)
        assert any(g for _, g in expected) and not all(g for _, g in expected)
        applied.clear()
        assert census.enumerate(data, 2, rank) == expected
        u1s, u2s, u3s = (_box_size_of(data, 2, n) for n in (2, 4, 6))
        assert applied["rho2", 6] == u3s + u1s * u2s


def _box_size_of(data, bound, degree):
    """The number of values of the census variable of that degree."""
    return math.prod(d or 2 * bound + 1 for d in data.compiled.factors[degree])


def _box_size(data, bound, rank):
    return math.prod(_box_size_of(data, bound, n) for n in (2, 4, 6, 8)[:rank])


def test_census_matches_per_tuple_evaluation_on_unvalidated_data_at_bound_2():
    for data in mutated_manifolds(120, seed=23):
        for rank in (4, 3):
            if _box_size(data, 2, rank) <= 20_000:
                census_matches_on_validated_data(data, 2, rank)


@pytest.mark.parametrize("mutate", [None, _odd_torsion_in_h6], ids=["as-is", "h6"])
@pytest.mark.parametrize("name", BUILTIN_NAMES + ("h7-demo",))
def test_pair_form_is_the_pairing_of_the_cup(name, mutate):
    data = make_h7_demo() if name == "h7-demo" else builtin(name)
    rng = random.Random(7)
    if mutate:
        data = mutate(data, rng)
    m = data.compiled

    def coords(n):
        return tuple(rng.randint(-5, 5) for _ in m.factors[n])

    for a, b in ((2, 6), (4, 4), (6, 2)):
        for _ in range(10):
            x, y = coords(a), coords(b)
            right, left = m.pair_form(a, x, b, None), m.pair_form(a, None, b, y)
            for _ in range(5):
                v, w = coords(b), coords(a)
                assert sum(map(operator.mul, right, v)) == m.pair(m.cup(a, x, b, v))
                assert sum(map(operator.mul, left, w)) == m.pair(m.cup(a, w, b, y))
    cp4 = builtin("cp4")
    missing = cp4._replace(cup_z={k: v for k, v in cp4.cup_z.items() if k != (2, 6)}).compiled
    with pytest.raises(MissingOperationError, match=r"missing cup product table for degrees \(2, 6\)"):
        missing.pair_form(2, (1,), 6, None)


@pytest.fixture
def stage_calls(monkeypatch):
    """What the census pairs: each ``census._share`` call as (stage, whether c*c came with the
    products), and each ``CompiledManifold.pair_form`` contraction as its degrees (a, b)."""
    shares, forms = [], []
    share, pair_form = census._share, CompiledManifold.pair_form

    def counted_share(m, reads, products):
        shares.append((reads, ("c", "c") in products))
        return share(m, reads, products)

    def counted_form(self, a, x, b, y):
        forms.append((a, b))
        return pair_form(self, a, x, b, y)

    monkeypatch.setattr(census, "_share", counted_share)
    monkeypatch.setattr(CompiledManifold, "pair_form", counted_form)
    return shares, forms


@pytest.mark.parametrize(
    "name, bound, rank", [("cp4", 2, 4), ("cp4", 4, 3), ("cp2xcp2", 1, 4), ("cp2xcp2", 2, 3)]
)
def test_census_shares_once_per_u2_and_per_u3(name, bound, rank, stage_calls):
    # each box-level stage is paired once per value, never per tuple or per u1: (u2) by one share
    # per u2 with c*c cupped once per box; (u3) <c*u3> and <(u1*u2)*c> by one form per box; the
    # stages reading u1 by one form per u1, <u1*u3> (2, 6) and <(u1*u1)*u2> (4, 4)
    shares, forms = stage_calls
    data = builtin(name)
    census.enumerate(data, bound, rank)
    u1s, u2s = [math.prod(d or 2 * bound + 1 for d in data.compiled.factors[n]) for n in (2, 4)]
    assert Counter(shares) == {(("u2",), True): u2s}
    assert Counter(forms) == {(2, 6): 1 + u1s, (4, 4): u1s, (6, 2): 1}


def test_enumerate_cp4_evaluates_the_closed_form_per_tuple(monkeypatch):
    # a wrong closed form, looked up in the module at call time, shows as disagreements
    monkeypatch.setattr(census, "cp4_rank4_admissible", lambda *a: True)
    assert enumerate_cp4(1, 4).disagreements()
    assert enumerate_cp4(2, 3).disagreements()


@pytest.mark.parametrize("rank", [4, 3])
@pytest.mark.parametrize("bound", range(4))
def test_cp4_rows_are_census_rows_of_enumerate_and_the_closed_form(bound, rank):
    pad = (0,) * (4 - rank)
    rows = enumerate_cp4(bound, rank).rows
    pairs = census.enumerate(builtin("cp4"), bound, rank)
    assert len(rows) == len(pairs) == (2 * bound + 1) ** rank
    for row, (c, generic) in zip(rows, pairs):
        assert type(row) is CensusRow
        assert (row.coefficients, row.closed_form, row.generic) == (c, cp4_rank4_admissible(*c, *pad), generic)


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cp4_census.py"


@pytest.mark.parametrize("args", [(), ("--builtin", "torsion-demo")], ids=["cp4", "torsion-demo"])
def test_census_script_runs(args):
    src = str(Path(census.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--bound", "1", *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    if not args:  # both ranks timed both ways and cross-checked, and the sample rr values printed
        assert run.stdout.count(", 0 cross-check disagreements\n") == 2, run.stdout
        timed = r"rank [43]: .* [\d.]+ us per tuple in census\.enumerate, [\d.]+ in enumerate_cp4, "
        assert len(re.findall(timed, run.stdout)) == 2, run.stdout
        assert "rr(4, 6, 4, 1) = -53\n" in run.stdout, run.stdout
