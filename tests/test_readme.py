"""The README's examples: the "Library entry points" code runs and shows
what it says, and the "Manifold file format" example is a complete file."""

from fractions import Fraction
from pathlib import Path

from bundlecensus.cohomology import apply_op, cup, validate_manifold
from bundlecensus.manifold_io import parse_manifold_text

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_points_block() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library entry points") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)].splitlines()


def test_library_entry_points_example():
    # the statements run first, then each commented expression is evaluated
    lines = entry_points_block()
    namespace: dict = {}
    exec("\n".join(line for line in lines if "#" not in line), namespace)
    shown = [
        (eval(code, namespace), comment.strip())
        for code, _, comment in (line.partition("#") for line in lines)
        if comment
    ]
    assert [comment for _, comment in shown] == [
        "True",
        "trivial group: Chern classes classify",
        "Fraction(-53, 1)",
    ]
    (realizable, _), (group, _), (rr, _) = shown
    assert realizable is True
    assert group.is_trivial
    assert rr == Fraction(-53, 1) and repr(rr) == "Fraction(-53, 1)"


def file_format_example() -> str:
    text = README.read_text()
    section = text[text.index("## Manifold file format") :]
    start = section.index("```\n") + len("```\n")
    return section[start : section.index("```", start)]


def test_file_format_example_is_a_complete_file():
    data = parse_manifold_text(file_format_example())
    assert validate_manifold(data, strict=True).ok
    # what its comments say
    assert data.name == "example"
    assert data.group(2).invariant_factors == (2, 0) and data.integral.names[2] == ("a", "t")
    assert data.m2dim(2) == 2
    t = data.zclass(2, (0, 1))
    assert cup(data, t, t) == data.zclass(4, (1,))
    assert apply_op(data, "rho2", data.spinc_class) == data.w2
    assert data.odd_generators == ()
