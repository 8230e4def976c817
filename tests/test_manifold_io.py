import random
from itertools import product
from pathlib import Path

import pytest

import bundlecensus
from bundlecensus.cli import main
from bundlecensus.cohomology import ManifoldValidationError, cup
from bundlecensus.fixtures import BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import (
    MAX_GENERATORS,
    ManifoldParseError,
    parse_manifold,
    parse_manifold_text,
    serialize_manifold,
)

MINIMAL = """
manifold point-like
integral 0 free 1
integral 8 free 1
mod2 0 dim 1
mod2 8 dim 1
map rho2 0 rows 1 cols 1
1
map rho2 8 rows 1 cols 1
1
pairing 1
p1 -
spinc -
"""
END = len(MINIMAL.splitlines())  # the number of a line appended to MINIMAL is END + 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_round_trip_builtins(name):
    data = builtin(name)
    assert parse_manifold_text(serialize_manifold(data)) == data


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_rings_are_associative_and_commutative(name):
    data = builtin(name)
    assert data.name == name  # the file's header names the file
    gens = {
        n: [data.zclass(n, [int(i == k) for i in range(data.ngens(n))]) for k in range(data.ngens(n))]
        for n in (2, 4, 6)
    }
    for a, b in product(gens, repeat=2):
        if a + b > 8:
            continue
        for x, y in product(gens[a], gens[b]):
            assert cup(data, x, y) == cup(data, y, x), (a, b, x, y)
        for c in gens:
            if a + b + c <= 8:
                for x, y, z in product(gens[a], gens[b], gens[c]):
                    assert cup(data, cup(data, x, y), z) == cup(data, x, cup(data, y, z)), (x, y, z)


def test_minimal_file_parses():
    data = parse_manifold_text(MINIMAL)
    assert data.name == "point-like"
    assert data.ngens(8) == 1
    assert data.odd_generators is None


def test_missing_pairing_section():
    text = MINIMAL.replace("pairing 1\n", "")
    with pytest.raises(ManifoldParseError, match="missing section: pairing"):
        parse_manifold_text(text)


def test_missing_spinc_section():
    text = MINIMAL.replace("spinc -\n", "")
    with pytest.raises(ManifoldParseError, match="missing section: spinc"):
        parse_manifold_text(text)


def test_missing_manifold_header():
    text = MINIMAL.replace("manifold point-like\n", "")
    with pytest.raises(ManifoldParseError, match="missing section: manifold"):
        parse_manifold_text(text)


def test_wrong_matrix_shape_names_operation_and_degree(cp4):
    text = serialize_manifold(cp4).replace(
        "map rho2 2 rows 1 cols 1", "map rho2 2 rows 1 cols 3"
    ).replace("\n1\nmap rho2 4", "\n1 0 0\nmap rho2 4")
    with pytest.raises(ManifoldParseError, match=r"rho2 at degree 2: expected a 1x1 matrix"):
        parse_manifold_text(text)


def test_parse_errors_carry_line_numbers():
    text = "manifold x\nintegral 2 free oops\n"
    with pytest.raises(ManifoldParseError, match="line 2"):
        parse_manifold_text(text)


def test_unknown_keyword():
    with pytest.raises(ManifoldParseError, match="unknown keyword"):
        parse_manifold_text("manifold x\nfrobnicate 1\n")


def test_degree_out_of_range():
    with pytest.raises(ManifoldParseError, match="out of range"):
        parse_manifold_text("manifold x\nintegral 9 free 1\n")


ODDGEN_BLOCK = "oddgen\ng1 -\ng3 -\ng5 -\ng7 -\n"


@pytest.mark.parametrize(
    "extra, section",
    [
        ("manifold y", "manifold"),
        ("integral 0 free 1", "integral 0"),
        ("integral 00 free 1", "integral 0"),
        ("mod2 8 dim 1", "mod2 8"),
        ("names z 0 one\nnames z 0 unit", "names z 0"),
        ("names m2 8 top\nnames m2 08 top", "names m2 8"),
        ("map rho2 0 rows 1 cols 1\n1", "map rho2 0"),
        ("cup 0 8 0 0 -> 1\ncup 0 8 0 0 -> 1", "cup 0 8 0 0"),
        ("cup2 0 8 0 0 -> 1\ncup2 0 8 0 0 -> 1", "cup2 0 8 0 0"),
        ("pairing 1", "pairing"),
        ("p1 -", "p1"),
        ("spinc -", "spinc"),
        ("w2 -\nw2 -", "w2"),
        ("oddgen trivial\noddgen trivial", "oddgen"),
        ("oddgen trivial\n" + ODDGEN_BLOCK, "oddgen"),
        (ODDGEN_BLOCK + "oddgen trivial", "oddgen"),
    ],
    ids=[
        "manifold", "integral", "integral-00", "mod2", "names-z", "names-m2-08", "map", "cup",
        "cup2", "pairing", "p1", "spinc", "w2", "oddgen-trivial-twice",
        "oddgen-trivial-then-block", "oddgen-block-then-trivial",
    ],
)
def test_duplicate_sections_rejected(extra, section):
    text = MINIMAL + extra + "\n"
    with pytest.raises(ManifoldParseError, match=f"duplicate {section} \\(first on line") as info:
        parse_manifold_text(text)
    keyword = section.split()[0]
    lines = text.splitlines()
    assert info.value.line == max(n for n, l in enumerate(lines, 1) if l.split()[:1] == [keyword])


def test_oddgen_blocks_repeat():
    data = parse_manifold_text(MINIMAL + ODDGEN_BLOCK * 2)
    assert len(data.odd_generators) == 2


def test_incomplete_cup_table_rejected(cp2xcp2):
    lines = serialize_manifold(cp2xcp2).splitlines()
    dropped = next(l for l in lines if l.startswith("cup 2 2 0 1"))
    text = "\n".join(l for l in lines if l != dropped)
    with pytest.raises(ManifoldParseError, match=r"missing entry for generator pair \(0, 1\)"):
        parse_manifold_text(text)


@pytest.mark.parametrize(
    "factors, message",
    [
        ("4 2", "integral degree 6"),
        ("0", f"line {len(MINIMAL.splitlines()) + 1}: torsion factors must be >= 2"),
        ("", f"line {len(MINIMAL.splitlines()) + 1}: torsion needs at least one factor"),
        ("1_0", "expected an integer, got '1_0'"),
        ("+2", "expected an integer, got '\\+2'"),
        ("\u0662", "expected an integer, got '\u0662'"),
    ],
    ids=["chain", "zero", "empty", "underscore", "plus", "non-ascii"],
)
def test_bad_torsion_chain_rejected(factors, message):
    text = MINIMAL + f"integral 6 free 0 torsion {factors}\n"
    with pytest.raises(ManifoldParseError, match=message):
        parse_manifold_text(text)


def test_oddgen_block_requires_all_four_lines():
    text = MINIMAL + "oddgen\ng1 -\ng3 -\n"
    with pytest.raises(ManifoldParseError, match="g5"):
        parse_manifold_text(text)


def test_oddgen_trivial_versus_absent():
    data = parse_manifold_text(MINIMAL + "oddgen trivial\n")
    assert data.odd_generators == ()
    assert parse_manifold_text(MINIMAL).odd_generators is None


def test_comments_and_blank_lines_ignored():
    noisy = "\n# header comment\n" + MINIMAL.replace(
        "pairing 1", "pairing 1  # evaluation against the fundamental class"
    )
    assert parse_manifold_text(noisy).pairing == (1,)


def test_parse_manifold_validates_by_default(tmp_path, cp4):
    path = tmp_path / "broken.manifold"
    path.write_text(serialize_manifold(cp4).replace("spinc 5", "spinc 4"))
    with pytest.raises(ManifoldValidationError, match="spinc_reduction"):
        parse_manifold(path)
    data = parse_manifold(path, validate=False)
    assert data.spinc_class.coords == (4,)


def test_serializer_is_stable(cp4):
    text = serialize_manifold(cp4)
    assert serialize_manifold(parse_manifold_text(text)) == text


@pytest.mark.parametrize(
    "line",
    [
        "integral 3 free 100000000",
        "integral 3 torsion " + " ".join(["2"] * 257),
        "mod2 3 dim 100000000",
    ],
)
def test_declared_sizes_are_capped(line):
    with pytest.raises(ManifoldParseError, match=f"exceeds the limit of {MAX_GENERATORS}") as info:
        parse_manifold_text(MINIMAL + line + "\n")
    assert info.value.line == len(MINIMAL.splitlines()) + 1


def test_sizes_at_the_cap_parse():
    sizes = f"integral 3 free {MAX_GENERATORS}\nmod2 3 dim {MAX_GENERATORS}\n"
    data = parse_manifold_text(MINIMAL + sizes)
    assert data.ngens(3) == data.m2dim(3) == MAX_GENERATORS


@pytest.mark.parametrize(
    "line, what",
    [
        ("map sq2 3 rows -1 cols 0", "rows"),
        ("map sq2 3 rows 0 cols -1", "cols"),
        ("mod2 3 dim -1", "mod-2 dimension"),
    ],
    ids=["rows", "cols", "dim"],
)
def test_negative_sizes_rejected_on_their_line(line, what, tmp_path, capsys):
    text = MINIMAL + line + "\n"
    number = len(MINIMAL.splitlines()) + 1
    with pytest.raises(ManifoldParseError, match=f"{what} must be nonnegative, got -1") as info:
        parse_manifold_text(text)
    assert info.value.line == number
    path = tmp_path / "negative.manifold"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert f"error: line {number}: {what} must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("ring", ["z", "m2"])
def test_names_count_rejected_on_its_line(ring):
    with pytest.raises(ManifoldParseError, match=f"names {ring} 8: 2 names for") as info:
        parse_manifold_text(MINIMAL + f"names {ring} 8 a b\n")
    assert info.value.line == len(MINIMAL.splitlines()) + 1


@pytest.mark.parametrize(
    "text, message, line",
    [
        (MINIMAL + "integral 6 free 0 torsion 4 2\n", "integral degree 6: .*divisibility", END + 1),
        (
            MINIMAL.replace("pairing 1", "pairing 1 0"),
            "pairing vector has 2 entries",
            MINIMAL.splitlines().index("pairing 1") + 1,
        ),
        (MINIMAL + "oddgen\ng1 -\ng3 1\ng5 -\ng7 -\n", "oddgen g3: expected 0 coordinates", END + 3),
        (
            MINIMAL + "integral 2 free 2\ncup 2 2 1 1 -> -\ncup 2 2 0 0 -> -\n",
            r"cup table \(2, 2\): missing entry for generator pair \(0, 1\)",
            END + 2,
        ),
    ],
    ids=["divisibility", "pairing", "oddgen", "cup-missing"],
)
def test_checks_after_reading_name_their_line(text, message, line):
    with pytest.raises(ManifoldParseError, match=message) as info:
        parse_manifold_text(text)
    assert info.value.line == line


def test_repeated_free_rejected_on_its_line():
    with pytest.raises(ManifoldParseError, match="free rank given twice") as info:
        parse_manifold_text(MINIMAL + "integral 2 free 5 free 1\n")
    assert info.value.line == END + 1


SHIPPED = Path(bundlecensus.__file__).parent / "data"
INSERTED_LINES = (
    "manifold y", "integral 3 free 1", "integral 6 torsion 2", "mod2 2 dim 1", "names z 2 a",
    "names m2 8 v", "map rho2 2 rows 1 cols 1\n1", "map sq2 2 rows 1 cols 1\n1",
    "cup 2 2 0 0 -> 1", "cup2 2 2 0 0 -> 1", "pairing 1", "p1 -", "spinc 0", "w2 1",
    "oddgen trivial", "oddgen\ng1 -\ng3 -\ng5 -\ng7 -",
)
TOKENS = ("-", "0", "1", "2", "-1", "9", "free", "torsion", "dim", "->", "x", "z", "m2", "beta", "257")


def mutate(text: str, rng: random.Random) -> str:
    """One to three seeded edits: delete, duplicate or swap lines, replace
    or drop a token, or insert a section line."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        edit = rng.randrange(6)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit in (3, 4) and tokens:
            k = rng.randrange(len(tokens))
            if edit == 3:
                tokens[k] = rng.choice(TOKENS + tuple(tokens))
            else:
                del tokens[k]
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, rng.choice(INSERTED_LINES))
    return "\n".join(lines) + "\n"


def test_seeded_mutations_fail_on_a_line_or_round_trip():
    rng = random.Random(2020)
    bases = [(SHIPPED / f"{name}.manifold").read_text() for name in BUILTIN_NAMES]
    accepted = 0
    for _ in range(1000):
        text = mutate(rng.choice(bases), rng)
        try:
            data = parse_manifold_text(text)
        except ManifoldParseError as exc:
            assert exc.line is not None or exc.message.startswith("missing section: "), text
            continue
        accepted += 1
        assert parse_manifold_text(serialize_manifold(data)) == data, text
    assert 50 < accepted < 950  # the edits neither all fail nor all pass
