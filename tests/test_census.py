import hashlib
import itertools
import math
import operator
import random
import re
import time
from collections import Counter
from functools import cached_property

import degree8_reference
import pytest
from conftest import connected_sum, graded_pair, make_cp4_with_h6_torsion, make_h7_demo

from bundlecensus import census, charclass
from bundlecensus.abelian import FGAbelianGroup, IntMatrix
from bundlecensus.census import (
    CensusRow,
    cp4_rank3_admissible,
    cp4_rank4_admissible,
    enumerate_cp4,
)
from bundlecensus.charclass import DEGREE8_TABLE, chern_product, rr_value
from bundlecensus.classify import OddGeneratorsMissing, check_rank4, count_classes
from bundlecensus.cohomology import (
    CohomologyClass,
    CompiledManifold,
    LawResult,
    ManifoldData,
    ManifoldValidationError,
    MissingOperationError,
    apply_op,
    cup,
    pair_top,
    validate_manifold,
)
from bundlecensus.fixtures import BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import parse_manifold, serialize_manifold


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
    # a bound or rank that is not an int is refused by its type, first, on both entry points
    cp4 = builtin("cp4")
    misuses = [(1, 4.0, "int and float"), (1.5, 4, "float and int"), ("2", 4, "str and int"), (None, 4, "NoneType and int")]
    for bound, rank, types in misuses + [(-1.0, 2, "float and int")]:  # the type before the sign and the rank
        message = f"^bound and rank must be ints, got {types}$"
        with pytest.raises(ValueError, match=message):
            census.enumerate(cp4, bound, rank)
        with pytest.raises(ValueError, match=message):
            enumerate_cp4(bound, rank)
    assert census.enumerate(cp4, True, 4) == census.enumerate(cp4, 1, 4)  # a bool is an int
    assert enumerate_cp4(True, 4) == enumerate_cp4(1, 4)
    with pytest.raises(ValueError, match="^enumerate_cp4 needs"):  # its shape check comes first
        enumerate_cp4(1.5, 4, builtin("s8"))


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
    # every term of the residue polynomial, (16*rhs(2) + 9*4*rhs(3)) mod 24 as compiled, lies in
    # exactly the stage of the variables it reads, and the stages hold every term
    for data in [builtin(name) for name in BUILTIN_NAMES] + [make_h7_demo(), make_cp4_with_h6_torsion()]:
        m = data.compiled
        sizes = [len(m.factors[n]) for n in (2, 4, 6)]
        offsets = dict(zip(("u1", "u2", "u3"), itertools.accumulate([0] + sizes)))
        owner = [u for u, n in zip(("u1", "u2", "u3"), sizes) for _ in range(n)]
        stages = census._stages(data)
        assert sorted(stages) == [("u1", "u2"), ("u1", "u3"), ("u2",), ("u3",)]
        terms = {}
        for reads, stage in stages.items():
            for head, j, w in stage:
                mono = tuple(offsets[reads[0]] + i for i in head) + (offsets[reads[-1]] + j,)
                assert mono not in terms and tuple(dict.fromkeys(owner[i] for i in mono)) == reads, data.name
                terms[mono] = w
        congruences = data.congruences
        residue = [(16 * k2 + 9 * k3) % 24 for k2, k3 in zip(*congruences.conditions[1:])]
        assert terms == {mono: r for mono, r in zip(congruences.monomials, residue) if r}, data.name


@pytest.mark.parametrize("name", ["cp2xcp2", "cp1xcp3", "torsion-demo"])
def test_stage_shares_sum_to_the_right_hand_sides(name):
    # the stages, each read as the census reads it (per u1 a weight vector on the last variable it
    # reads, or per value of that variable alone), add up to the residue of rhs(2) and 4*rhs(3)
    # of the class-based reference over the whole table
    data = builtin(name)
    m = data.compiled
    rng = random.Random(5)
    stages = census._stages(data)
    for _ in range(20):
        coords = [tuple(rng.randrange(d) if d else rng.randint(-3, 3) for d in m.factors[n]) for n in (2, 4, 6, 8)]
        _, _, rhs2, rhs3_times4 = degree8_reference.columns(data, data.chern_tuple(*coords))
        values = dict(zip(("u1", "u2", "u3"), coords))
        shares = []
        for reads, stage in stages.items():
            v = values[reads[-1]]
            shares.append(sum(map(operator.mul, census._weights(stage, values[reads[0]], len(v)), v)))
        assert sum(shares) % 24 == (16 * rhs2 + 9 * rhs3_times4) % 24


def test_one_residue_mod_24_decides_conditions_2_and_3():
    # the residue 16*rhs(2) + 9*4*rhs(3) mod 24 of each monomial is rhs(2) mod 3 and 4*rhs(3) mod 8
    # at once, and the table of verdicts at each residue is conditions (2) and (3), None where
    # rhs(3) is not an integer
    for mono, _, _, k2, k3 in DEGREE8_TABLE:
        assert ((16 * k2 + 9 * k3) % 24 % 3, (16 * k2 + 9 * k3) % 24 % 8) == (k2 % 3, k3 % 8), mono
    lhs = list(range(-7, 8))
    table = census._table(lhs)
    for rhs2 in range(-6, 7):
        for rhs3_times4 in range(-17, 18):
            verdicts = table[(16 * rhs2 + 9 * rhs3_times4) % 24]
            if rhs3_times4 % 4:
                assert verdicts is None
            else:
                assert verdicts == [x % 3 == rhs2 % 3 and x % 2 == rhs3_times4 // 4 % 2 for x in lhs]


def per_tuple_census(data, bound, rank):
    """The box of ``census.enumerate`` decided tuple by tuple by
    ``check_rank4``; the first exception as (type, message).  Both read
    ``data.congruences`` for degree 8, which ``test_congruences`` holds to a
    class-based reference."""
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
    OddGeneratorsMissing is an answer here."""
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
        except OddGeneratorsMissing:
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
    # every kind of outcome is exercised, and a missing table is none of them: validated data is
    # answered, tuple by tuple as in the census
    assert set(outcomes) == {"answered", "ManifoldValidationError"}, outcomes


@pytest.fixture
def form_builds(monkeypatch):
    """The data of each build of condition (1)'s mod-2 form, ``data.form``."""
    builds, build = [], ManifoldData.form.func
    counted = cached_property(lambda data: builds.append(data) or build(data))
    counted.__set_name__(ManifoldData, "form")
    monkeypatch.setattr(ManifoldData, "form", counted)
    return builds


@pytest.mark.parametrize("name, ranks", [("torsion-demo", (4, 3)), ("cp2xcp2", (3,))])
def test_census_looks_condition_1_up_where_rho2_commutes_with_reduction(name, ranks, monkeypatch, form_builds):
    # rho2 at degree 6 commutes with reduction on validated data (rho2_times2) and the cup is
    # bilinear, so condition (1) depends on u1, u2 and u3 mod 2 alone: the census applies rho2 at 6
    # once per parity of u3, and reads (1) per parities of (u1, u2) off the compiled mod-2 form,
    # whose build, once per instance, applies rho2 at 6 once per generator of H^6; never per tuple
    data = builtin(name)._replace()
    form_builds.clear()  # the builtin's own, where this test loads it first
    applied = Counter()
    apply = CompiledManifold.apply

    def counted(self, op, degree, x):
        applied[op, degree] += 1
        return apply(self, op, degree, x)

    monkeypatch.setattr(CompiledManifold, "apply", counted)
    for k, rank in enumerate(ranks):
        applied.clear()
        got = census.enumerate(data, 2, rank)
        p3s = _parities_of(data, 2, 6)
        assert form_builds == [data] and "form" in vars(data)
        assert applied["rho2", 6] == p3s + (data.ngens(6) if k == 0 else 0)
        expected = per_tuple_census(data, 2, rank)
        assert any(g for _, g in expected) and not all(g for _, g in expected)
        assert got == expected
    assert form_builds == [data]


def _box_size_of(data, bound, degree):
    """The number of values of the census variable of that degree."""
    return math.prod(d or 2 * bound + 1 for d in data.compiled.factors[degree])


def _parities_of(data, bound, degree):
    """The number of values mod 2 of the census variable of that degree."""
    return math.prod(min(d or 2 * bound + 1, 2) for d in data.compiled.factors[degree])


def _box_size(data, bound, rank):
    return math.prod(_box_size_of(data, bound, n) for n in (2, 4, 6, 8)[:rank])


@pytest.mark.parametrize("rank", [4, 3])
def test_census_matches_per_tuple_evaluation_where_u1_u2_reaches_torsion_in_h6(rank):
    # t*t^2 = t^3 + s with s of order 2: u1*u2 is reduced at degree 6 before it is paired with c
    # tuple by tuple, and not in the census's form, which torsion_pairs_to_zero makes the same
    data = make_cp4_with_h6_torsion()
    expected = per_tuple_census(data, 2, rank)
    assert isinstance(expected, list) and any(g for _, g in expected) and not all(g for _, g in expected)
    assert census.enumerate(data, 2, rank) == expected


def test_census_refuses_a_torsion_class_that_pairs_to_nonzero():
    mutant = make_cp4_with_h6_torsion(ts=1)
    with pytest.raises(ManifoldValidationError, match="torsion_pairs_to_zero"):
        census.enumerate(mutant, 1, 4)


def test_census_matches_per_tuple_evaluation_on_unvalidated_data_at_bound_2():
    outcomes = Counter()
    for data in mutated_manifolds(120, seed=23):
        for rank in (4, 3):
            if _box_size(data, 2, rank) <= 20_000:
                outcomes[census_matches_on_validated_data(data, 2, rank)] += 1
    assert set(outcomes) == {"answered", "ManifoldValidationError"}, outcomes


def first_non_integral_rhs3(data, bound):
    """The first (u1, u2, u3) of the rank-3 box, tuple by tuple, where condition (1) holds and
    4*rhs(3) is not a multiple of 4, both class-based (``apply_op``, ``cup`` and the reference);
    None where there is none.  At bound 2 the free coordinates reach every residue mod 4."""
    m = data.compiled
    ranges = [[range(d) if d else range(-bound, bound + 1) for d in m.factors[n]] for n in (2, 4, 6)]
    zero = (0,) * len(m.factors[8])
    for us in itertools.product(*(itertools.product(*r) for r in ranges)):
        u = data.chern_tuple(*us, zero)
        lhs1 = apply_op(data, "sq2", apply_op(data, "rho2", u.u2))
        if lhs1 == apply_op(data, "rho2", data.add(u.u3, cup(data, u.u1, u.u2))):
            if degree8_reference.columns(data, u)[3] % 4:
                return us
    return None


@pytest.mark.parametrize("count, seed, rejected", [(200, 11, 3), (120, 23, 6)])
def test_rhs3_integral_rejects_the_mutants_whose_box_is_not_integral(count, seed, rejected):
    # of the mutants that pass every other law, rhs3_integral rejects exactly those with a tuple of
    # the bound-2 rank-3 box where (1) holds and rhs(3) is not an integer: the ones whose census
    # once raised at query time, each with p1 and c moved
    failed = []
    for data in mutated_manifolds(count, seed):
        others = [r for r in data.report.results if r.name != "rhs3_integral"]
        if all(r.passed for r in others):
            assert data.report.ok == (first_non_integral_rhs3(data, 2) is None), data.name
            failed += [] if data.report.ok else [data.name]
    assert len(failed) == rejected, failed


def make_sq2_demo(p1: int) -> ManifoldData:
    """Synthetic data with H^4 = Z<v>, v*v the generator of H^8, H^7 = Z/2 and Sq^2 rho2(v) = s,
    the Bockstein preimage of H^7 in H^6(Z/2).  Condition (1) holds at even u2 alone, where
    4*rhs(3) = 2*u2^2 + p1*u2: a multiple of 4 at u2 = 0, but not at u2 = 2 for odd p1."""
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), 4: ((0,), ("v",)), 7: ((2,), ("z",)), 8: ((0,), ("w",))},
        {0: ("1",), 4: ("v",), 6: ("s",), 7: ("z",), 8: ("w",)},
    )
    return ManifoldData(
        name="sq2-demo",
        integral=integral,
        mod2=mod2,
        cup_z={(4, 4): {(0, 0): (1,)}},
        rho2={n: IntMatrix.identity(1) for n in (0, 4, 7, 8)},
        beta={6: IntMatrix.identity(1), 7: IntMatrix.zeros(1, 1)},
        sq2={4: IntMatrix.identity(1)},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", (p1,)),
        spinc_class=CohomologyClass(2, "Z", ()),
    )


def test_rhs3_integral_reads_u2_mod_4():
    # where (1) holds at even u2 alone, only u2 = 2 shows that rhs(3) is not an integer: there
    # <s*v> = p1 is odd, s = p1 + c*c
    for p1 in (1, 3):
        data = make_sq2_demo(p1)
        witness = f"(1) holds at --chern - 2 - but 4*rhs(3) = {8 + 2 * p1}"
        assert data.report.failures() == (LawResult("rhs3_integral", False, witness),)
        assert first_non_integral_rhs3(data, 2) == ((), (-2,), ())
    data = make_sq2_demo(2)
    assert validate_manifold(data, strict=True).ok and first_non_integral_rhs3(data, 2) is None
    for rank in (4, 3):
        assert census.enumerate(data, 2, rank) == per_tuple_census(data, 2, rank)


def random_even_data(rng: random.Random) -> ManifoldData:
    """Seeded synthetic data with free H^2, H^4 and H^6 of rank at most 2 and symmetric, random
    cup tables, Sq^2 and rho2 in degree 6, p1 and c: the cup products of u1 reach H^6, so (1) and
    4*rhs(3) mod 4 depend on u1 as well."""
    n2, n4, n6 = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    names = {n: tuple(f"e{n}_{i}" for i in range(k)) for n, k in ((2, n2), (4, n4), (6, n6))}
    integral, mod2 = graded_pair(
        {0: ((0,), ("1",)), **{n: ((0,) * len(x), x) for n, x in names.items()}, 8: ((0,), ("top",))},
        {0: ("1",), **names, 8: ("top",)},
    )

    def table(a, b, size):
        entries = {}
        for i in range(len(names[a])):
            for j in range(len(names[b])):
                entries[i, j] = entries.get((j, i)) if a == b and j < i else tuple(rng.randint(-2, 2) for _ in range(size))
        return entries

    def bits(rows, cols):
        return IntMatrix(rows, cols, [rng.randint(0, 1) for _ in range(rows * cols)])

    return ManifoldData(
        name="random-even",
        integral=integral,
        mod2=mod2,
        cup_z={(2, 2): table(2, 2, n4), (2, 4): table(2, 4, n6), (2, 6): table(2, 6, 1), (4, 4): table(4, 4, 1)},
        rho2={0: IntMatrix.identity(1), 2: IntMatrix.identity(n2), 4: IntMatrix.identity(n4), 6: bits(n6, n6), 8: IntMatrix.identity(1)},
        beta={},
        sq2={2: bits(n4, n2), 4: bits(n6, n4), 6: bits(1, n6)},
        pairing=(1,),
        p1=CohomologyClass(4, "Z", tuple(rng.randint(-3, 3) for _ in range(n4))),
        spinc_class=CohomologyClass(2, "Z", tuple(rng.randint(-2, 2) for _ in range(n2))),
    )


def test_rhs3_integral_is_decided_at_u1_0_on_random_data():
    # moving u1 by e and u3 by e*u2 keeps (1) and 4*rhs(3) mod 4, so the law reads u1 = 0 alone; the
    # per-tuple box reads every u1 of the bound-2 box
    outcomes = Counter()
    rng = random.Random(43)
    for _ in range(24):
        data = random_even_data(rng)
        law = data.report.law("rhs3_integral")
        assert law.passed == (first_non_integral_rhs3(data, 2) is None), data
        outcomes[law.passed] += 1
    assert outcomes[True] >= 3 and outcomes[False] >= 3, outcomes


def test_rhs3_integral_is_polynomial_in_the_betti_numbers(tmp_path):
    # six cp2xcp2 and two hp2: H^2 = Z^12, H^4 = Z^20 and H^6 = Z^12, so 2^44 classes of (u1, u2,
    # u3) mod 2, but one elimination over Z/2 at u1 = 0.  The law holds, and fails once p1 moves by
    # 2 on the last hp2 generator; both files load in a fraction of the bound
    data = connected_sum("six-cp2xcp2-two-hp2", *[builtin("cp2xcp2")] * 6, *[builtin("hp2")] * 2)
    assert [len(data.compiled.factors[n]) for n in (2, 4, 6)] == [12, 20, 12]
    moved = data._replace(p1=data.zclass(4, data.p1.coords[:-1] + (data.p1.coords[-1] + 2,)))
    good, bad = tmp_path / "good.manifold", tmp_path / "bad.manifold"
    good.write_text(serialize_manifold(data))
    bad.write_text(serialize_manifold(moved))
    start = time.perf_counter()
    assert parse_manifold(good, strict=True).report.ok
    with pytest.raises(ManifoldValidationError) as refused:
        parse_manifold(bad)
    assert time.perf_counter() - start < 10
    witness = f"(1) holds at --chern {','.join('0' * 12)} {','.join('0' * 19)},1 {','.join('0' * 12)} but 4*rhs(3) = 6"
    assert refused.value.report.failures() == (LawResult("rhs3_integral", False, witness),)


def test_a_connected_sum_of_twenty_two_loads_and_answers_within_the_bound(tmp_path):
    # twenty cp2xcp2 and two hp2: H^2 = Z^40, H^4 = Z^62 and H^6 = Z^40.  Loading builds the degree-8
    # polynomial for rhs3_integral, at a cost that follows the products that exist.  Products across
    # summands vanish, so a tuple placed in the first summand meets the conditions it meets on cp2xcp2
    summand = builtin("cp2xcp2")
    data = connected_sum("twenty-cp2xcp2-two-hp2", *[summand] * 20, *[builtin("hp2")] * 2)
    path = tmp_path / "sum.manifold"
    path.write_text(serialize_manifold(data))
    start = time.perf_counter()
    loaded = parse_manifold(path, strict=True)
    assert [len(loaded.compiled.factors[n]) for n in (2, 4, 6)] == [40, 62, 40]
    for us in (((1, 0), (0, 0, 0), (0, 0), (0,)), ((0, 0), (0, 0, 0), (0, 0), (1,))):
        placed = [u + (0,) * (loaded.ngens(n) - len(u)) for u, n in zip(us, (2, 4, 6, 8))]
        verdict = check_rank4(loaded, loaded.chern_tuple(*placed))
        expected = check_rank4(summand, summand.chern_tuple(*us))
        assert verdict.realizable == (us[3] == (0,)) == expected.realizable
        assert (verdict.condition2, verdict.condition3) == (expected.condition2, expected.condition3)
    assert time.perf_counter() - start < 10


FIXTURES = {
    **{name: lambda name=name: builtin(name) for name in BUILTIN_NAMES},
    "h7-demo": make_h7_demo,
    "cp4-h6-torsion": make_cp4_with_h6_torsion,
    "cp4-p1-2": lambda: builtin("cp4")._replace(p1=builtin("cp4").zclass(4, (2,))),
    "sq2-demo": lambda: make_sq2_demo(2),
    "sq2-demo-p1-1": lambda: make_sq2_demo(1),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_condition_1_and_4_rhs3_mod_4_move_as_the_law_reads_them(name):
    # (1) reads parities, and 4*rhs(3) mod 4, read off the compiled polynomial at the unreduced
    # coordinates, has period 2 in each coordinate of u1 and u3 and 4 in each of u2; moving the
    # j-th coordinate of u2 by 2 adds 2<s*e_j>, s = p1 + c*c, paired class by class.  So the
    # lattice where (1) holds contains 2e for every coordinate e, and the law rhs3_integral, which
    # reads 4*rhs(3) at 2e and at the lifts of a Z/2 kernel basis of (1), sees every box, on the
    # fixtures and where the law fails
    data = FIXTURES[name]()
    m, congruences = data.compiled, data.congruences
    zero = (0,) * len(m.factors[8])
    s = data.add(data.p1, cup(data, data.spinc_class, data.spinc_class))
    ells = [pair_top(data, cup(data, s, data.zclass(4, y))) for y in IntMatrix.identity(data.ngens(4)).to_rows()]

    def decide(u1, u2, u3):
        lhs1, rhs1 = data.condition1(u1, u2, u3)
        rhs3_times4 = sum(map(operator.mul, congruences.conditions[2], congruences.values(u1 + u2 + u3 + zero)))
        return lhs1 == rhs1, rhs3_times4 % 4

    rng = random.Random(29)
    for _ in range(30):
        us = [tuple(rng.randint(-9, 9) for _ in m.factors[n]) for n in (2, 4, 6)]
        at = decide(*us)
        for k, period in enumerate((2, 4, 2)):
            for i in range(len(us[k])):
                shifted = list(us)
                shifted[k] = us[k][:i] + (us[k][i] + rng.choice((-1, 1, 2)) * period,) + us[k][i + 1 :]
                assert decide(*shifted) == at, (us, k, i)
        for j in range(len(us[1])):
            u2 = us[1][:j] + (us[1][j] + 2,) + us[1][j + 1 :]
            assert decide(us[0], u2, us[2]) == (at[0], (at[1] + 2 * ells[j]) % 4), (us, j)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_rhs3_times4_is_additive_mod_4_at_u1_0(name):
    # the fact rhs3_integral rests on: at u1 = 0, P(x) = 4*rhs(3) at x = (u2, u3), read off the
    # compiled polynomial, is additive mod 4 (a cross term of u2 has the coefficient 4<e_i*e_j>, a
    # square an even one, every other term is linear), so P vanishes mod 4 on the lattice where (1)
    # holds if it does on a generating set of it; at unreduced torsion coordinates and near 10^30
    data = FIXTURES[name]()
    m, congruences = data.compiled, data.congruences
    n1, n4 = len(m.factors[2]), len(m.factors[8])
    n = len(m.factors[4]) + len(m.factors[6])

    def rhs3_times4(x):
        return sum(map(operator.mul, congruences.conditions[2], congruences.values((0,) * n1 + x + (0,) * n4)))

    rng = random.Random(47)
    for i in range(60):
        near = 10**30 if i % 3 == 0 else 0
        x, y = (tuple(rng.choice((-1, 1)) * near + rng.randint(-50, 50) for _ in range(n)) for _ in range(2))
        assert (rhs3_times4(tuple(map(operator.add, x, y))) - rhs3_times4(x) - rhs3_times4(y)) % 4 == 0, (x, y)


def p1_shifted_manifolds(per_base, seed):
    """Validated data whose verdicts move: per builtin or fixture, ``per_base`` pairs (base, base
    with p1 moved by 4*y) for y in H^4.  4*rhs(3) and rhs(2) move by 4*<y*u2>, so every law still
    holds while conditions (2) and (3) change.  Not a mutation of ``mutated_manifolds``, whose
    corpora are pinned by their seeds."""
    rng = random.Random(seed)
    for base in [builtin(name) for name in BUILTIN_NAMES] + [make_h7_demo(), make_cp4_with_h6_torsion()]:
        for _ in range(per_base):
            y = [rng.choice((-2, -1, 1, 3)) for _ in base.p1.coords]
            yield base, base._replace(p1=base.zclass(4, [p + 4 * k for p, k in zip(base.p1.coords, y)]))


def test_census_matches_per_tuple_evaluation_on_p1_shifted_manifolds():
    moved = Counter()
    for base, data in p1_shifted_manifolds(2, seed=31):
        assert data.report.ok, data.name
        for rank in (4, 3):
            got = census.enumerate(data, 1, rank)
            assert got == per_tuple_census(data, 1, rank), (data.name, rank)
            moved[data.name] += got != census.enumerate(base, 1, rank)
    # verdicts move wherever H^4 pairs with itself: on every base with a nonzero rhs(3) polynomial
    assert {name for name, n in moved.items() if n} == {"cp4", "hp2", "cp2xcp2", "cp1xcp3", "cp4-h6-torsion"}, moved


@pytest.fixture
def stage_calls(monkeypatch):
    """What the census cups and compiles: each ``CompiledManifold.cup`` call, by its degrees
    (a, b), and each ``ManifoldData.condition1`` call, by the degrees (2, 4) of the product it
    reads; and the data of each ``charclass.compile_congruences`` call."""
    cups, builds = Counter(), []
    cup, condition1 = CompiledManifold.cup, ManifoldData.condition1
    compile_congruences = charclass.compile_congruences

    def counted_cup(self, a, x, b, y):
        cups[a, b] += 1
        return cup(self, a, x, b, y)

    def counted_condition1(self, u1, u2, u3):
        cups["condition1", 2, 4] += 1
        return condition1(self, u1, u2, u3)

    def counted_compile(data):
        builds.append(data)
        return compile_congruences(data)

    monkeypatch.setattr(CompiledManifold, "cup", counted_cup)
    monkeypatch.setattr(ManifoldData, "condition1", counted_condition1)
    monkeypatch.setattr(charclass, "compile_congruences", counted_compile)
    return cups, builds


@pytest.mark.parametrize(
    "name, bound, rank", [("cp4", 2, 4), ("cp4", 4, 3), ("cp2xcp2", 1, 4), ("cp2xcp2", 2, 3)]
)
def test_census_shares_once_per_u2_and_per_u3(name, bound, rank, stage_calls, form_builds):
    # the residue is read off the compiled polynomial, built once per instance: per u2 and per u3
    # one sum over its terms, per u1 one weight vector on u2 and one on u3.  Nothing is cupped:
    # u1*u2 for condition (1) is read off the compiled mod-2 form, also built once per instance,
    # once per parities of (u1, u2)
    cups, builds = stage_calls
    data = builtin(name)._replace()
    builds.clear(), form_builds.clear()  # the builtin's own, where this test loads it first
    census.enumerate(data, bound, rank)
    assert len(builds) == 1 and builds[0] is data
    assert form_builds == [data] and "form" in vars(data)
    cups.clear()
    census.enumerate(data, bound, rank)
    u1s, u2s = (_box_size_of(data, bound, n) for n in (2, 4))
    assert len(builds) == 1 and form_builds == [data]
    assert cups == {("condition1", 2, 4): _parities_of(data, bound, 2) * _parities_of(data, bound, 4)}
    assert cups["condition1", 2, 4] < u1s * u2s
    moved = data._replace()
    census.enumerate(moved, bound, rank)
    assert len(builds) == 2 and builds[1] is moved
    assert form_builds == [data, moved]


def test_enumerate_cp4_evaluates_the_closed_form_at_call_time(monkeypatch):
    # a wrong closed form, looked up in the module at call time, shows as disagreements
    monkeypatch.setattr(census, "cp4_rank4_admissible", lambda *a: True)
    assert enumerate_cp4(1, 4).disagreements()
    assert enumerate_cp4(2, 3).disagreements()


@pytest.mark.parametrize("rank", [4, 3])
def test_cp4_closed_form_column_is_the_closed_form_tuple_by_tuple(rank):
    # bound 6 and up covers a full period of the residue: 12 in a1, a2 and a3, 6 in a4
    pad = (0,) * (4 - rank)
    for bound in range(8):
        rows = enumerate_cp4(bound, rank).rows
        assert [r.coefficients for r in rows] == list(itertools.product(range(-bound, bound + 1), repeat=rank))
        assert [r.closed_form for r in rows] == [cp4_rank4_admissible(*r.coefficients, *pad) for r in rows]


@pytest.mark.parametrize("rank", [4, 3])
@pytest.mark.parametrize("bound", [0, 1, 3, 6])
def test_cp4_closed_form_is_called_twelve_times_per_a4(bound, rank, monkeypatch):
    calls = []
    closed_form = census.cp4_rank4_admissible

    def counted(*args):
        calls.append(args)
        return closed_form(*args)

    monkeypatch.setattr(census, "cp4_rank4_admissible", counted)
    assert enumerate_cp4(bound, rank).disagreements() == []
    a4s = range(-bound, bound + 1) if rank == 4 else range(1)
    assert len(calls) == 12 * len(a4s)
    assert sorted(calls) == sorted((1, 0, t, a4) for t in range(12) for a4 in a4s)


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "cp4"])
def test_enumerate_cp4_refuses_data_not_shaped_like_cp4(name, monkeypatch):
    # refused before the census runs, where the closed form's four coordinates would not fit
    monkeypatch.setattr(census, "_census", None)
    refusal = "needs H^2, H^4, H^6 and H^8 each Z, as on cp4; "
    with pytest.raises(ValueError, match=re.escape(refusal + name)) as raised:
        enumerate_cp4(1, 4, builtin(name))
    if name == "hp2":  # the groups it lists are the four the closed form reads
        assert str(raised.value).endswith(refusal + "hp2 has H^2 = 0, H^4 = Z, H^6 = 0, H^8 = Z")


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
