"""The README's "Library entry points" example runs and shows what it says."""

from fractions import Fraction
from pathlib import Path

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
