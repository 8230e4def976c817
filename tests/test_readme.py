"""The README's examples: the "Library entry points" code runs and shows
what it says, the "Manifold file format" example is a complete file, and every path the
README names exists."""

import re
from fractions import Fraction
from pathlib import Path

from bundlecensus.cohomology import apply_op, cup, validate_manifold
from bundlecensus.manifold_io import parse_manifold_text

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
    report = validate_manifold(data, strict=True)
    assert report.ok
    assert report.law("tables_complete").passed  # its cup 4 4 table is the one it needs
    assert [r.name for r in report.results if r.name.startswith("bockstein")] == [
        f"bockstein_exact_deg{n}" for n in range(9)
    ]
    # what its comments say
    assert data.name == "example"
    assert data.group(2).invariant_factors == (2, 0) and data.integral.names[2] == ("a", "t")
    assert data.m2dim(2) == 2
    t = data.zclass(2, (0, 1))
    assert cup(data, t, t) == data.zclass(4, (1,))
    assert apply_op(data, "rho2", data.spinc_class) == data.w2
    assert data.odd_generators == ()


def test_file_format_example_needs_its_mod2_groups():
    # without the mod-2 groups of degrees 0, 1, 4 and 8, the beta that lands
    # in H^2 and the rho2 into those groups, the example fails the
    # universal-coefficient law alone
    lines = file_format_example().splitlines()
    beta = next(k for k, line in enumerate(lines) if line.startswith("map beta 1"))
    rho2 = [k for k, line in enumerate(lines) if line[:10] in ("map rho2 0", "map rho2 4", "map rho2 8")]
    dropped = {beta, beta + 1, beta + 2, *rho2, *(k + 1 for k in rho2)}
    old = [
        line for k, line in enumerate(lines)
        if not (k in dropped or line[:6] in ("mod2 0", "mod2 1", "mod2 4", "mod2 8"))
    ]
    report = validate_manifold(parse_manifold_text("\n".join(old)), strict=True)
    assert report.failures() == (report.law("mod2_dims"),)
    assert report.law("tables_complete").passed
    assert report.law("mod2_dims").witness == "degree 0: dim H^0(Z/2) = 0, expected 1"


# a file with one of these suffixes, or a directory written with its trailing slash
PATH = re.compile(r"(?:[\w<>.-]+/)*[\w<>-]+\.(?:py|md|json|toml|manifold)|(?:[\w.-]+/)+")


def resolves(path: str) -> bool:
    """path exists from the repository root or, a bare module name such as ``charclass.py``, in the package."""
    return (ROOT / path).exists() or ("/" not in path and (ROOT / "src" / "bundlecensus" / path).exists())


def missing_paths(text: str) -> list[str]:
    """The paths named in text's backticks that do not resolve; a ``<name>`` placeholder is skipped."""
    named = [word for span in re.findall(r"`([^`\n]+)`", text) for word in span.split() if PATH.fullmatch(word)]
    return [path for path in named if "<" not in path and not resolves(path)]


def test_every_path_the_readme_names_exists():
    assert missing_paths(README.read_text()) == []


def test_a_stale_path_is_caught():
    text = (
        "Run `python3 scripts/cp4_census.py --bound 6`, or time `census.enumerate` (`census.py`)\n"
        "with `python3 perfbench/run.py --workload census-cp4` in `perfbench/`; see `tests/`,\n"
        "`src/bundlecensus/data/<name>.manifold`, `c/2`, `Z/2` and `scripts/`.\n"
    )
    assert missing_paths(text) == ["scripts/cp4_census.py", "scripts/"]
