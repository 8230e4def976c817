from importlib import resources

import pytest

from bundlecensus.cohomology import ManifoldValidationError
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


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_round_trip_builtins(name):
    data = builtin(name)
    assert parse_manifold_text(serialize_manifold(data)) == data


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shipped_files_match_builtins(name, tmp_path):
    text = resources.files("bundlecensus").joinpath(f"data/{name}.manifold").read_text()
    path = tmp_path / f"{name}.manifold"
    path.write_text(text)
    assert parse_manifold(path) == builtin(name)


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


def test_duplicate_sections_rejected():
    text = MINIMAL + "\np1 -\n"
    with pytest.raises(ManifoldParseError, match="duplicate p1"):
        parse_manifold_text(text)


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
    ],
    ids=["chain", "zero"],
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
