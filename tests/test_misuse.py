"""Misshapen questions to the public entries: each is refused with ``ValueError`` or ``LookupError``.

A question is a ``ChernTuple``, read by the one gate ``ManifoldData.checked``.
The fixed cases are the ones a plain sequence once slipped past the gate with:
on cp4 the classes of u = (0, 1, 0, 0) out of degree order were decided
realizable with rr 0, while u itself is unrealizable with rr -17/6.  The fuzz
draws a wrong degree, a wrong ring, a wrong length, a permuted order, a
non-class entry or a wrong count, and asks that no entry answers a misshapen
question or fails with anything but ``ValueError`` or ``LookupError``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bundlecensus import (
    ChernTuple,
    CohomologyClass,
    FGAbelianGroup,
    apply_op,
    builtin,
    check_rank4,
    chern_inverse,
    chern_product,
    compute_T,
    count_classes,
    cup,
    pair_top,
    rr_value,
)
from bundlecensus.classify import check_rank3


@pytest.fixture(scope="module")
def u(cp4):
    return cp4.chern_tuple((0,), (1,), (0,), (0,))


def test_the_tuple_itself_is_answered(cp4, u):
    assert not check_rank4(cp4, u).realizable
    assert rr_value(cp4, u) == rr_value(cp4, u, self_check=True) == Fraction(-17, 6)
    assert compute_T(cp4, u.u1, u.u2, u.u3) == FGAbelianGroup(())


@pytest.mark.parametrize("case", [
    "check_rank4", "rr_value", "rr_value-self_check", "chern_product", "chern_inverse",
    "check_rank4-three", "check_rank4-mod2", "count_classes",
])
def test_a_plain_sequence_is_refused(cp4, u, case):
    permuted = (u.u2, u.u1, u.u3, u.u4)
    call = {
        "check_rank4": lambda: check_rank4(cp4, permuted),
        "rr_value": lambda: rr_value(cp4, permuted),
        "rr_value-self_check": lambda: rr_value(cp4, permuted, self_check=True),
        "chern_product": lambda: chern_product(permuted, u, cp4),
        "chern_inverse": lambda: chern_inverse(list(u), cp4),
        "check_rank4-three": lambda: check_rank4(cp4, (u.u1, u.u2, u.u3)),
        "check_rank4-mod2": lambda: check_rank4(cp4, (cp4.m2class(2, (1,)), u.u2, u.u3, u.u4)),
        "count_classes": lambda: count_classes(cp4, permuted, 4),
    }[case]
    with pytest.raises(ValueError, match="^rank 4 expects a ChernTuple$"):
        call()


def test_a_tuple_of_ints_is_refused_by_type():
    with pytest.raises(ValueError, match="^component of type int, expected integral degree 2$"):
        ChernTuple(0, 1, 0, 0)


def test_compute_t_refuses_classes_out_of_order(cp4, u):
    with pytest.raises(ValueError, match="^component of degree 4/Z, expected integral degree 2$"):
        compute_T(cp4, u.u2, u.u1, u.u3)
    with pytest.raises(ValueError, match="^component of degree 2/Z2, expected integral degree 2$"):
        compute_T(cp4, cp4.m2class(2, (1,)), u.u2, u.u3)


# -- the fuzz -------------------------------------------------------------

NAMES = ("cp4", "cp2xcp2", "torsion-demo")
RANKS = {"check_rank4": 4, "rr_value": 4, "chern_product": 4, "chern_inverse": 4, "count_classes-4": 4,
         "check_rank3": 3, "compute_T": 3, "count_classes-3": 3}


def entry(name, data, classes, plain):
    """The entry name asked about classes, at its rank: a ChernTuple where it takes one, unless
    plain."""
    u = tuple(classes) if plain else ChernTuple(*classes) if RANKS[name] == 4 else None
    return {
        "check_rank4": lambda: check_rank4(data, u),
        "rr_value": lambda: rr_value(data, u, self_check=True),
        "chern_product": lambda: chern_product(u, u, data),
        "chern_inverse": lambda: chern_inverse(u, data),
        "count_classes-4": lambda: count_classes(data, u, 4),
        "check_rank3": lambda: check_rank3(data, *classes),
        "compute_T": lambda: compute_T(data, *classes),
        "count_classes-3": lambda: count_classes(data, tuple(classes), 3),
    }[name]


@st.composite
def questions(draw):
    """(entry, data, classes, plain, well shaped): one misuse, or none, of a seeded well-shaped
    question.  A wrong count and a plain sequence go to the entries that take a sequence; the
    others take the classes as arguments, and Python refuses a wrong count of those."""
    data = builtin(draw(st.sampled_from(NAMES)))
    name = draw(st.sampled_from(sorted(RANKS)))
    degrees = (2, 4, 6, 8)[: RANKS[name]]
    classes = [data.zclass(d, draw(st.lists(st.integers(-3, 3), min_size=data.ngens(d), max_size=data.ngens(d))))
               for d in degrees]
    sequence = name not in ("check_rank3", "compute_T")
    misuse = draw(st.sampled_from(
        ("none", "degree", "ring", "length", "permuted", "non-class") + ("count", "plain") * sequence
    ))
    k = draw(st.integers(0, len(classes) - 1))
    x = classes[k]
    if misuse == "degree":
        classes[k] = data.zero(draw(st.sampled_from([d for d in range(9) if d != x.degree])))
    elif misuse == "ring":
        classes[k] = CohomologyClass(x.degree, "Z2", (0,) * data.m2dim(x.degree))
    elif misuse == "length":
        classes[k] = CohomologyClass(x.degree, "Z", x.coords + (1,))
    elif misuse == "permuted":
        j = (k + 1) % len(classes)
        classes[k], classes[j] = classes[j], classes[k]
    elif misuse == "non-class":
        classes[k] = draw(st.sampled_from((0, x.coords, tuple(x), None)))
    elif misuse == "count":
        classes = classes[:-1] if draw(st.booleans()) else classes + [data.zero(8)]
    plain = misuse == "count" or misuse == "plain" and RANKS[name] == 4
    return name, data, classes, plain, misuse in ("none", "plain") and not plain


@settings(derandomize=True, max_examples=400)
@given(questions())
def test_a_misshapen_question_is_refused(question):
    name, data, classes, plain, well_shaped = question
    try:
        answer = entry(name, data, classes, plain)()
    except ValueError:
        assert not well_shaped
    except LookupError:  # a missing table or odd generators, or a misshapen class meeting one first
        pass
    else:
        assert well_shaped, answer


@st.composite
def class_calls(draw):
    """A class-path call and whether its operands fit: right or wrong degree, ring or length."""
    data = builtin(draw(st.sampled_from(NAMES)))
    degree, ring = draw(st.integers(0, 8)), draw(st.sampled_from(("Z", "Z2")))
    n = max(0, data.dim(degree, ring) + draw(st.sampled_from((0, 0, 0, 1, -1))))
    x = CohomologyClass(degree, ring, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    fits = n == data.dim(degree, ring)
    name = draw(st.sampled_from(("cup", "apply_op", "pair_top")))
    if name == "cup":
        y = data.zero(draw(st.integers(0, 8)), draw(st.sampled_from(("Z", "Z2"))))
        fits = fits and x.ring == y.ring and x.degree + y.degree <= 8
        return (lambda: cup(data, x, y)), fits
    if name == "apply_op":
        op = draw(st.sampled_from(("rho2", "beta", "sq2")))
        shift, source = {"rho2": (0, "Z"), "beta": (1, "Z2"), "sq2": (2, "Z2")}[op]
        return (lambda: apply_op(data, op, x)), fits and ring == source and degree + shift <= 8
    return (lambda: pair_top(data, x)), fits and (degree, ring) == (8, "Z")


@settings(derandomize=True, max_examples=300)
@given(class_calls())
def test_a_misshapen_class_is_refused(call):
    make, fits = call
    try:
        make()
    except ValueError:
        assert not fits
    except LookupError:  # a missing table or matrix
        pass
    else:
        assert fits
