"""``data.congruences``: ``DEGREE8_TABLE`` compiled into integer polynomials per manifold.

``check_rank4``, the closed form of rr and the census core all read
the compiled polynomial, so ``per_tuple_census`` no longer checks degree 8
independently of the census.  These tests hold the polynomial to the
class-based reference of ``degree8_reference``, derive the classical cp4
congruences from it, and check that it is built once per instance, at
load, by the law ``rhs3_integral``.
"""

import itertools
import random
from operator import mul

import degree8_reference
import pytest
from conftest import make_cp4_with_h6_torsion, make_h7_demo
from test_census import mutated_manifolds, p1_shifted_manifolds

from bundlecensus import census, charclass
from bundlecensus.census import cp4_rank4_admissible
from bundlecensus.charclass import DEGREE8_TABLE, compile_congruences
from bundlecensus.classify import check_rank4
from bundlecensus.cohomology import ManifoldValidationError, validate_manifold
from bundlecensus.fixtures import _DATA, BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import parse_manifold


def compiled_columns(data, u):
    """The pairing of each table monomial and the condition columns, read off the polynomial."""
    congruences = data.congruences
    values = congruences.values(sum(data.checked(u), ()))
    pairings = [sum(c * values[k] for k, c in congruences.pairings[mono]) for mono, *_ in DEGREE8_TABLE]
    return pairings, [sum(map(mul, column, values)) for column in congruences.conditions]


def reference_columns(data, u):
    pairings = [degree8_reference.pairing(data, u, mono) for mono, *_ in DEGREE8_TABLE]
    return pairings, list(degree8_reference.columns(data, u)[1:])


def assert_matches_reference(data, rng, count):
    m = data.compiled
    for i in range(count):
        bound = 10**40 if i % 4 == 0 else 9
        u = data.chern_tuple(*([rng.randint(-bound, bound) for _ in m.factors[n]] for n in (2, 4, 6, 8)))
        assert compiled_columns(data, u) == reference_columns(data, u), (data.name, u)


MADE = {"h7-demo": make_h7_demo, "cp4-h6-torsion": make_cp4_with_h6_torsion}


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(MADE))
def test_congruences_are_the_class_based_reference(name):
    data = MADE[name]() if name in MADE else builtin(name)
    assert validate_manifold(data).ok
    assert_matches_reference(data, random.Random(17), 40)


def test_congruences_are_the_class_based_reference_on_validated_mutants():
    rng = random.Random(19)
    checked = 0
    for data in mutated_manifolds(200, seed=11):
        if validate_manifold(data).ok:
            assert_matches_reference(data, rng, 8)
            checked += 1
    assert checked >= 50, checked


def test_congruences_are_the_class_based_reference_on_p1_shifted_manifolds():
    # valid data whose <p1*u2> moves, on every builtin and fixture; the other terms of degree 8 are
    # those of the bases
    rng = random.Random(37)
    for _, data in p1_shifted_manifolds(2, seed=31):
        assert validate_manifold(data).ok
        assert_matches_reference(data, rng, 8)


def as_dict(congruences, column):
    return {mono: c for mono, c in zip(congruences.monomials, column) if c}


def test_cp4_congruences_are_the_classical_ones():
    # a1, a2, a3, a4 are the flat coordinates 0, 1, 2, 3: <u4> = a4,
    # rhs(2) = -a1^2*a2 + a1*a3 - a2^2 + 5*a2 and
    # 4*rhs(3) = -4*a1^2*a2 + 4*a1*a3 + 10*a1*a2 - 10*a3 + 2*a2^2 - 70*a2
    congruences = builtin("cp4").congruences
    lhs, rhs2, rhs3_times4 = (as_dict(congruences, column) for column in congruences.conditions)
    assert lhs == {(3,): 1}
    assert rhs2 == {(0, 0, 1): -1, (0, 2): 1, (1, 1): -1, (1,): 5}
    assert rhs3_times4 == {(0, 0, 1): -4, (0, 2): 4, (0, 1): 10, (2,): -10, (1, 1): 2, (1,): -70}


def test_term_counts_of_the_right_hand_sides():
    congruences = {name: builtin(name).congruences for name in BUILTIN_NAMES}
    counts = {name: tuple(len(as_dict(c, column)) for column in c.conditions[1:]) for name, c in congruences.items()}
    assert counts == {
        "cp4": (4, 6), "cp1xcp3": (6, 12), "cp2xcp2": (9, 16), "hp2": (2, 2), "s8": (0, 0), "torsion-demo": (0, 0)
    }


def test_cp4_residue_is_the_closed_form_over_a_cell():
    # the residue mod 24 as the census reads it (census._stages and _table, condition (1) from
    # ManifoldData.condition1) decides exactly the hand-written congruences of
    # cp4_rank4_admissible over a whole cell: a1, a2, a3 mod 24 and a4 mod 6
    data = builtin("cp4")
    stages = census._stages(data)
    table = census._table(list(range(6)))
    for a in itertools.product(range(24), repeat=3):
        values = dict(zip(("u1", "u2", "u3"), ((x,) for x in a)))
        r = sum(
            sum(map(mul, census._weights(stage, values[reads[0]], 1), values[reads[-1]]))
            for reads, stage in stages.items()
        ) % 24
        lhs1, rhs1 = data.condition1(*values.values())
        passes1 = lhs1 == rhs1
        assert passes1 <= (r % 4 == 0), a
        verdicts = table[r] if passes1 else [False] * 6
        assert verdicts == [cp4_rank4_admissible(*a, a4) for a4 in range(6)], a
    # the closed form at (1, 0, t, a4), as enumerate_cp4 reads it: 2*a4 = -t mod 12 has the one
    # solution a4 = -t/2 mod 6 for even t and none for odd t
    residues = [[a4 for a4 in range(6) if cp4_rank4_admissible(1, 0, t, a4)] for t in range(12)]
    assert residues == [[0], [], [5], [], [4], [], [3], [], [2], [], [1], []]


def test_congruences_are_built_on_first_use_and_kept_per_instance(monkeypatch):
    # the first use is the law rhs3_integral: loading builds the polynomial once and every query
    # reads that one; data that fails a law rhs3_integral needs builds none, and a replaced
    # instance builds its own when its report is made
    builds = []

    def counted(data):
        builds.append(data.name)
        return compile_congruences(data)

    monkeypatch.setattr(charclass, "compile_congruences", counted)
    data = parse_manifold(_DATA / "cp4.manifold")
    assert "congruences" in vars(data) and builds == ["cp4"]
    congruences = data.congruences
    u = data.chern_tuple((1,), (2,), (3,), (4,))
    assert reference_columns(data, u) == compiled_columns(data, u)
    assert check_rank4(data, data.chern_tuple((1,), (1,), (1,), (0,))).condition2 is not None
    assert data.congruences is congruences
    incomplete = data._replace(sq2={})
    with pytest.raises(ManifoldValidationError, match="tables_complete$"):
        check_rank4(incomplete, incomplete.chern_tuple((1,), (1,), (1,), (0,)))
    assert "congruences" not in vars(incomplete) and builds == ["cp4"]
    moved = data._replace(p1=data.zclass(4, (17,)))
    assert "congruences" not in vars(moved)
    assert moved.report.ok and "congruences" in vars(moved) and builds == ["cp4", "cp4"]
    assert moved.congruences != congruences
    assert compiled_columns(moved, u) == reference_columns(moved, u) != reference_columns(data, u)
