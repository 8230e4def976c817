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
from bundlecensus.charclass import CONDITION_COLUMNS, DEGREE8_TABLE, MONOMIALS, pair_monomials, symbol_products
from bundlecensus.classify import check_rank4, condition1_rhs
from bundlecensus.cohomology import CompiledManifold, MissingOperationError
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


def test_census_matches_per_tuple_evaluation_on_unvalidated_data():
    outcomes = Counter()
    for data in mutated_manifolds(200, seed=11):
        for rank in (4, 3):
            expected = per_tuple_census(data, 1, rank)
            assert staged_census(data, 1, rank) == expected, (data.name, rank)
            outcomes[expected[0].__name__ if isinstance(expected, tuple) else "answered"] += 1
    # every kind of outcome is exercised
    assert set(outcomes) == {"answered", "MissingOperationError", "InternalInconsistencyError"}, outcomes


def _box_size(data, bound, rank):
    return math.prod(d or 2 * bound + 1 for n in (2, 4, 6, 8)[:rank] for d in data.compiled.factors[n])


def test_census_matches_per_tuple_evaluation_on_unvalidated_data_at_bound_2():
    for data in mutated_manifolds(120, seed=23):
        for rank in (4, 3):
            if _box_size(data, 2, rank) <= 20_000:
                assert staged_census(data, 2, rank) == per_tuple_census(data, 2, rank), (data.name, rank)


@pytest.fixture
def per_u3_comparisons(monkeypatch):
    """The calls of condition1_rhs the census makes: none where it looks (1) up."""
    calls = []

    def counted(*args):
        calls.append(args)
        return condition1_rhs(*args)

    monkeypatch.setattr(census, "condition1_rhs", counted)
    return calls


def _rho2_commutes_with_reduction(data):
    m = data.compiled
    return not any(d * v % 2 for row in m.ops["rho2"][6] for d, v in zip(m.factors[6], row))


@pytest.mark.parametrize(
    "name, seed, bound",
    [("cp4", 0, 2), ("cp4", 1, 2), ("cp1xcp3", 0, 1), ("cp1xcp3", 1, 1)],
    ids=["cp4-Z5", "cp4-Z3", "cp1xcp3-Z5", "cp1xcp3-Z3"],
)
def test_census_compares_per_u3_where_rho2_does_not_commute_with_reduction(
    name, seed, bound, per_u3_comparisons
):
    # an odd finite factor of H^6 with an odd rho2 column: rho2(u3 + u1*u2)
    # is not rho2(u3) + rho2(u1*u2) once the sum is reduced
    data = _odd_torsion_in_h6(builtin(name), random.Random(seed))
    assert data.compiled.factors[6][0] == (5, 3)[seed]
    assert not _rho2_commutes_with_reduction(data)
    for rank in (4, 3):
        assert staged_census(data, bound, rank) == per_tuple_census(data, bound, rank)
    assert per_u3_comparisons


@pytest.mark.parametrize("name, ranks", [("torsion-demo", (4, 3)), ("cp2xcp2", (3,))])
def test_census_looks_condition_1_up_where_rho2_commutes_with_reduction(name, ranks, per_u3_comparisons):
    data = builtin(name)
    assert _rho2_commutes_with_reduction(data)
    for rank in ranks:
        expected = per_tuple_census(data, 2, rank)
        assert any(g for _, g in expected) and not all(g for _, g in expected)
        assert census.enumerate(data, 2, rank) == expected
    assert per_u3_comparisons == []


@pytest.mark.parametrize("name", ["cp4", "cp1xcp3", "cp2xcp2", "hp2"])
def test_census_reduces_the_pairing_mod_a_finite_factor_of_h8(name):
    # H^8 = Z/4 with pairing weight 3: <x*y> is w * (its coordinate mod 4),
    # which no single linear form gives; the census adds it per value
    data = _torsion_in_h8(builtin(name), random.Random(5))
    assert (data.compiled.factors[8], data.pairing) == ((4,), (3,))
    for rank in (4, 3):
        expected = per_tuple_census(data, 1, rank)
        assert isinstance(expected, list) and any(g for _, g in expected)
        assert census.enumerate(data, 1, rank) == expected


def _form_value(form, v):
    weights, finite = form
    return sum(map(operator.mul, weights, v)) + sum(w * (sum(map(operator.mul, row, v)) % d) for w, d, row in finite)


@pytest.mark.parametrize("mutate", [None, _torsion_in_h8, _odd_torsion_in_h6], ids=["as-is", "h8", "h6"])
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
                assert _form_value(right, v) == m.pair(m.cup(a, x, b, v))
                assert _form_value(left, w) == m.pair(m.cup(a, w, b, y))
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


def test_census_raises_the_first_missing_table_check_rank4_reaches():
    # without (2, 2) and (4, 4), check_rank4 reaches u1*u1 first; the stages
    # alone would reach u2*u2 first
    cp4 = builtin("cp4")
    data = cp4._replace(cup_z={k: v for k, v in cp4.cup_z.items() if k not in ((2, 2), (4, 4))})
    for rank in (4, 3):
        expected = per_tuple_census(data, 1, rank)
        assert expected[1] == "missing cup product table for degrees (2, 2)"
        assert staged_census(data, 1, rank) == expected


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
