import hashlib
import random
import re
import sys

import pytest
from conftest import make_h7_demo

from bundlecensus import census, cli
from bundlecensus.cli import main
from bundlecensus.fixtures import BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import serialize_manifold

from test_manifold_io import SHIPPED, mutate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "cp4", "--strict")
    assert code == 0
    assert "PASS  bockstein_exact_deg4" in out


def test_validate_reports_failures(capsys, tmp_path, cp4):
    path = tmp_path / "bad.manifold"
    path.write_text(serialize_manifold(cp4).replace("spinc 5", "spinc 4"))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "FAIL  spinc_reduction" in out


def test_rank4_realizable_exit_zero(capsys):
    code, out, _ = run(capsys, "rank4", "--builtin", "cp4", "--chern", "4", "6", "4", "1")
    assert code == 0
    assert "realizable (rank 4): yes" in out


def test_rank4_unrealizable_exit_one(capsys):
    code, out, _ = run(capsys, "rank4", "--builtin", "cp4", "--chern", "0", "0", "0", "1")
    assert code == 1
    assert "realizable (rank 4): no" in out


def test_rank3_on_product_manifold(capsys):
    code, out, _ = run(
        capsys, "rank3", "--builtin", "cp2xcp2", "--chern", "0,0", "0,0,0", "0,0"
    )
    assert code == 0
    assert "rank 3" in out


def test_rank4_negative_vectors_are_coordinates(capsys):
    # O(-1,0) + O(0,-1): total Chern class (1 - a)(1 - b) = 1 - a - b + ab
    code, out, _ = run(
        capsys, "rank4", "--builtin", "cp2xcp2", "--chern", "-1,-1", "0,1,0", "0,0", "0"
    )
    assert code == 0
    assert "realizable (rank 4): yes" in out

    code, out, _ = run(
        capsys, "rank4", "--builtin", "cp2xcp2", "--chern", "-1,0", "0,1,0", "0,0", "0"
    )
    assert code == 1
    assert "realizable (rank 4): no" in out


def test_condition_1_sides_print_with_mod2_names(capsys, tmp_path, cp2xcp2):
    # both sides of (1) are mod-2 classes of H^6: Sq^2 rho2(ab) = rho2(u3) = x + y, not a^2b + ab^2
    path = tmp_path / "renamed.manifold"
    text = serialize_manifold(cp2xcp2)
    assert "names m2 6 a^2b ab^2\n" in text
    path.write_text(text.replace("names m2 6 a^2b ab^2\n", "names m2 6 x y\n"))
    code, out, _ = run(capsys, "rank4", str(path), "--chern", "0,0", "0,1,0", "1,1", "0")
    assert code == 1
    assert "PASS   [lhs = x + y, rhs = x + y]\n" in out


def test_missing_input_is_input_error(capsys):
    code, _, err = run(capsys, "rank4", "--chern", "0", "0", "0", "0")
    assert code == 2
    assert "no input" in err


def test_unreadable_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.manifold"))
    assert code == 2
    assert "error:" in err


def test_wrong_vector_length_is_input_error(capsys):
    code, _, err = run(capsys, "rank4", "--builtin", "cp4", "--chern", "1,2", "0", "0", "0")
    assert code == 2
    assert "degree 2 expects 1 coordinates" in err
    # an empty entry is an error, not a dropped coordinate; "-" is the only
    # empty vector; an entry is an optional "-" and ASCII digits, nothing else
    for argv in (
        ("cp2xcp2", "1,,0", "0,1,0", "0,0", "0"),
        ("cp2xcp2", "1,0,", "0,1,0", "0,0", "0"),
        ("torsion-demo", ",", "-", "0", "0"),
        ("cp4", "1_0", "0", "0", "0"),
        ("cp4", "+5", "0", "0", "0"),
        ("cp4", " 1", "0", "0", "0"),
        ("cp4", "\u0665", "0", "0", "0"),
        ("cp2xcp2", "1,+0", "0,1,0", "0,0", "0"),
    ):
        code, _, err = run(capsys, "rank4", "--builtin", argv[0], "--chern", *argv[1:])
        assert code == 2
        assert f"bad coordinate vector {argv[1]!r}" in err


def test_wrong_vector_count_is_input_error(capsys):
    code, out, err = run(capsys, "count", "--builtin", "cp4", "--rank", "3", "--chern", "0", "0", "0", "0")
    assert code == 2 and not out
    assert "--chern needs 3 vectors (degrees (2, 4, 6)), got 4" in err


def test_overlong_coordinate_is_a_bad_vector(capsys):
    # one past the interpreter's digit limit for int(), which stays as it is
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run(capsys, "rank4", "--builtin", "cp4", "--chern", digits, "0", "0", "0")
    assert code == 2 and not out
    # the error names the degree, the entry and its length, not the text
    assert f"error: bad coordinate vector for degree 2: entry 1 of 1 (length {len(digits)})" in err
    assert "set_int_max_str_digits" not in err
    assert max(map(len, err.splitlines())) < 200


def test_long_vector_errors_stay_short(capsys):
    # 2,000 valid coordinates where cp4 wants one, then the same with a bad
    # last entry: the count and the position are named, the text is not
    many = ",".join(["12345"] * 2000)
    for vector, message in (
        (many, "degree 2 expects 1 coordinates, got 2000 in a vector of length 11999"),
        (many + ",x", "degree 2: entry 2001 of 2001 (length 1)"),
    ):
        code, out, err = run(capsys, "rank4", "--builtin", "cp4", "--chern", vector, "0", "0", "0")
        assert code == 2 and not out
        assert message in err
        assert max(map(len, err.splitlines())) < 200


# each shipped file without a table its queries read; its --chern vectors
MISSING_TABLES = {
    "cp4": (("cup 4 4",), ("1", "1", "1", "0")),
    "torsion-demo": (("map beta 5", "1"), ("-", "-", "0", "0")),
}


@pytest.mark.parametrize(
    "command", ["validate", "rank4", "rank3", "count", "groups", "oracle"]
)
@pytest.mark.parametrize("name", sorted(MISSING_TABLES))
def test_a_missing_table_fails_at_load(capsys, tmp_path, name, command):
    # the file parses, but a query would miss the table: every subcommand
    # refuses it as an input error, with tables_complete in the report
    dropped, chern = MISSING_TABLES[name]
    lines = (SHIPPED / f"{name}.manifold").read_text().splitlines()
    if len(dropped) == 1:  # every line of a cup table
        lines = [line for line in lines if not line.startswith(dropped[0])]
    else:  # a matrix header and its rows
        start = next(k for k, line in enumerate(lines) if line.startswith(dropped[0]))
        del lines[start : start + len(dropped)]
    path = tmp_path / f"{name}.manifold"
    path.write_text("\n".join(lines) + "\n")
    argv = {
        "validate": (),
        "rank4": ("--chern", *chern),
        "rank3": ("--chern", *chern[:3]),
        "count": ("--rank", "4", "--chern", *chern),
        "groups": ("--chern", *chern[:3]),
        "oracle": ("--chern", *chern),
    }[command]
    code, out, err = run(capsys, command, str(path), *argv)
    assert code == 2
    report = out if command == "validate" else err  # validate prints its report as its answer
    assert "FAIL  tables_complete" in report, (out, err)
    if command != "validate":
        assert out == ""


def test_non_integral_rhs3_is_refused_at_load(capsys, tmp_path, cp4):
    # p1 = 2 makes the right-hand side of (3) non-integral where (1) holds: an
    # input error (2) for every query, and validate names the tuple
    path = tmp_path / "corrupt.manifold"
    path.write_text(serialize_manifold(cp4).replace("p1 5", "p1 2"))
    for chern in (("0", "1", "0", "0"), ("0", "0", "0", "0")):
        code, out, err = run(capsys, "rank4", str(path), "--chern", *chern)
        assert (code, out) == (2, "")
        assert "FAIL  rhs3_integral" in err and err.endswith("error: manifold data failed validation: rhs3_integral\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "FAIL  rhs3_integral  ((1) holds at --chern 0 1 0 but 4*rhs(3) = -71)" in out


def test_count_command(capsys):
    code, out, _ = run(
        capsys, "count", "--builtin", "torsion-demo", "--rank", "4",
        "--chern", "-", "-", "0", "0",
    )
    assert code == 0
    assert "Z/2" in out and "2 element(s)" in out

    code, out, _ = run(
        capsys, "count", "--builtin", "cp4", "--rank", "4", "--chern", "0", "0", "0", "1"
    )
    assert code == 1
    assert "unrealizable" in out


def test_count_rank3(capsys):
    code, out, _ = run(
        capsys, "count", "--builtin", "cp4", "--rank", "3", "--chern", "0", "2", "2"
    )
    assert code == 0
    assert "1 element(s)" in out


def test_count_rank3_negative_vectors_are_coordinates(capsys):
    code, out, _ = run(
        capsys, "count", "--builtin", "cp2xcp2", "--rank", "3",
        "--chern", "-1,-1", "0,1,0", "0,0",
    )
    assert code == 0
    assert "1 element(s)" in out


def test_groups_command(capsys):
    code, out, _ = run(capsys, "groups", "--builtin", "torsion-demo")
    assert code == 0
    assert "B = Z/2" in out
    assert "T =" not in out

    code, out, _ = run(capsys, "groups", "--builtin", "cp4", "--chern", "0", "0", "0")
    assert code == 0
    assert "T = 0" in out


def test_groups_without_odd_generators(capsys, tmp_path, cp4):
    text = "\n".join(
        l for l in serialize_manifold(cp4).splitlines() if not l.startswith("oddgen")
    )
    path = tmp_path / "noodd.manifold"
    path.write_text(text)
    code, out, err = run(capsys, "groups", str(path), "--chern", "0", "0", "0")
    assert code == 2
    assert "odd unitary generators" in err
    assert out == ""


def test_groups_bad_vector_prints_no_partial_answer(capsys):
    code, out, err = run(capsys, "groups", "--builtin", "cp4", "--chern", "1", "2", "x")
    assert code == 2
    assert out == ""
    assert "bad coordinate vector 'x'" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--builtin", "cp4", "--chern", "0", "0", "0", "1")
    assert code == 0
    assert out.startswith("-1/6")
    assert "not an integer" in out

    code, out, _ = run(capsys, "oracle", "--builtin", "cp4", "--chern", "0", "0", "0", "6")
    assert out.startswith("-1 ")
    assert "(integer)" in out


def test_enumerate_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "cp4", "--bound", "1", "--rank", "4")
    assert code == 0
    assert "cross-check disagreements: 0" in out
    assert "census: rank 4" in out


def test_enumerate_bound_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "cp4", "--bound", "0", "--rank", "4")
    assert code == 0
    assert "realizable: 1 of 1 tuples" in out


def test_enumerate_csv(capsys):
    code, out, err = run(
        capsys, "enumerate", "--builtin", "cp4", "--bound", "1", "--rank", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2,a3"
    assert all(len(l.split(",")) == 3 for l in lines[1:])
    assert "cross-check disagreements: 0" in err


def test_enumerate_disagreement_exits_3(capsys, monkeypatch):
    # the closed form negated: every tuple disagrees with the classification
    admissible = census.cp4_rank4_admissible
    monkeypatch.setattr(census, "cp4_rank4_admissible", lambda *a: not admissible(*a))
    code, out, err = run(capsys, "enumerate", "--builtin", "cp4", "--bound", "1", "--rank", "3")
    assert code == 3
    assert "cross-check disagreements: 27" in out
    assert len(re.findall(r"^disagreement at ", err, re.MULTILINE)) == 20


def test_enumerate_rejects_other_builtins(capsys):
    code, _, err = run(capsys, "enumerate", "--builtin", "s8", "--bound", "1", "--rank", "4")
    assert code == 2
    assert "cp4" in err


def test_enumerate_box_is_capped(capsys):
    # 23**4 = 279,841 tuples: rejected before any row is built
    code, _, err = run(capsys, "enumerate", "--builtin", "cp4", "--bound", "11", "--rank", "4")
    assert code == 2
    assert f"the box has more than the limit of {cli.MAX_CENSUS_TUPLES} tuples" in err
    cli._check_census_box(10, 4)  # 21**4 = 194,481 tuples: accepted


def test_builtins_load_from_any_working_directory(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    builtin.cache_clear()
    for name in BUILTIN_NAMES:
        assert builtin(name).name == name
    assert main(["rank4", "--builtin", "cp4", "--chern", "4", "6", "4", "1"]) == 0


def test_unknown_builtin_rejected():
    with pytest.raises(SystemExit):
        main(["validate", "--builtin", "cp9"])


def test_file_and_builtin_together_is_error(capsys, tmp_path):
    path = tmp_path / "x.manifold"
    path.write_text(serialize_manifold(builtin("s8")))
    code, _, err = run(capsys, "validate", str(path), "--builtin", "cp4")
    assert code == 2
    assert "not both" in err


def test_oversized_declaration_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "huge.manifold"
    path.write_text(serialize_manifold(builtin("cp4")) + "integral 3 free 100000000\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "exceeds the limit" in err


@pytest.mark.parametrize("exc", [AssertionError("closed form disagrees"), MemoryError()])
def test_crash_is_exit_3_without_traceback(capsys, monkeypatch, exc):
    def crash(args, data, u):
        raise exc

    monkeypatch.setattr(cli, "cmd_decide", crash)
    code, out, err = run(capsys, "rank4", "--builtin", "cp4", "--chern", "0", "0", "0", "0")
    assert code == 3
    assert err.startswith(f"internal error: {type(exc).__name__}")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_pass_through(monkeypatch, exc):
    def stop(args, data, u):
        raise exc

    monkeypatch.setattr(cli, "cmd_decide", stop)
    with pytest.raises(exc):
        main(["rank4", "--builtin", "cp4", "--chern", "0", "0", "0", "0"])


# every subcommand that reads a manifold, with the rest of a valid cp4 question
QUESTIONS = {
    "validate": (),
    "rank4": ("--chern", "0", "0", "0", "0"),
    "rank3": ("--chern", "0", "0", "0"),
    "count": ("--rank", "4", "--chern", "0", "0", "0", "0"),
    "groups": (),
    "oracle": ("--chern", "0", "0", "0", "0"),
}


@pytest.mark.parametrize("command", QUESTIONS)
def test_no_validate_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, str(SHIPPED / "cp4.manifold"), "--no-validate", *QUESTIONS[command]])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-validate" in capsys.readouterr().err


def test_a_file_failing_a_law_gets_no_answer(capsys, tmp_path, cp4):
    # w2 flipped fails spinc_reduction, pairing 2 fails pairing_surjective
    path = tmp_path / "unlawful.manifold"
    path.write_text(serialize_manifold(cp4).replace("w2 1", "w2 0").replace("pairing 1", "pairing 2"))
    failed = ("FAIL  spinc_reduction", "FAIL  pairing_surjective")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2 and all(line in out for line in failed)
    rank3_count = ("--rank", "3", "--chern", "0", "0", "0")
    for command, rest in [*QUESTIONS.items(), ("count", rank3_count)]:
        if command != "validate":
            code, out, err = run(capsys, command, str(path), *rest)
            assert (code, out) == (2, ""), command
            assert all(line in err for line in failed), command
            assert "error: manifold data failed validation: spinc_reduction, pairing_surjective" in err


# the values of a file: matrix rows, and what follows these line heads
VALUES = re.compile(r"(?:(?:pairing|p1|spinc|w2|g\d)\s|cup2? .*->\s|(?=-?\d))(.*)")


def nudge(text: str, rng: random.Random) -> str:
    """Add -1, 1 or 2 to one seeded value: a matrix entry, a cup coefficient,
    or an entry of the pairing, p1, spinc, w2 or an odd generator."""
    lines = text.splitlines()
    spots = []
    for i, line in enumerate(lines):
        values = VALUES.fullmatch(line)
        if values:
            head, tail = line[: values.start(1)], values[1].split()
            spots += [(i, head, tail, k) for k, token in enumerate(tail) if re.fullmatch(r"-?\d+", token)]
    i, head, tail, k = rng.choice(spots)
    tail[k] = str(int(tail[k]) + rng.choice((-1, 1, 2)))
    lines[i] = head + " ".join(tail)
    return "\n".join(lines) + "\n"


def test_mutated_files_get_only_documented_outcomes(capsys, tmp_path):
    # parse, validate, then answer: a file that loads is answered (0 or 1) or
    # refused (2); never a crash, and never 3, which only a census cross-check
    # disagreement or a crash gives
    rng = random.Random(1414)
    path = tmp_path / "mutated.manifold"
    codes = []
    for _ in range(200):
        name = rng.choice(BUILTIN_NAMES)
        text = (SHIPPED / f"{name}.manifold").read_text()
        for _ in range(rng.randint(1, 2)):
            text = mutate(text, rng) if rng.randrange(4) == 0 else nudge(text, rng)
        path.write_text(text)
        base = builtin(name)

        def chern(*degrees):
            vectors = []
            for d in degrees:
                n = max(0, base.ngens(d) + (rng.choice((-1, 1)) if rng.randrange(16) == 0 else 0))
                vectors.append(",".join(str(rng.randint(-3, 3)) for _ in range(n)) or "-")
            return ("--chern", *vectors)

        argv = rng.choice([
            ("validate", "--strict"),
            ("rank4", *chern(2, 4, 6, 8)),
            ("rank3", *chern(2, 4, 6)),
            ("count", "--rank", "3", *chern(2, 4, 6)),
            ("count", "--rank", "4", *chern(2, 4, 6, 8)),
            ("groups",),
            ("groups", *chern(2, 4, 6)),
            ("oracle", *chern(2, 4, 6, 8)),
        ])
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code in (0, 1, 2), (argv, err)
        assert "internal error" not in err and "Traceback" not in err, (argv, err)
        codes.append(code)
    assert {0, 1, 2} <= set(codes), codes


def transcript_argvs(tmp_path, rng):
    """A seeded corpus of invocations: every subcommand on every builtin and on serialized files
    (h7-demo, one failing a law, one that does not parse, one missing a cup table, one without odd
    generators), a path that does not exist, a file and a builtin together and no input at all;
    --chern vectors of the right length, short, long, huge or malformed."""
    cp4 = builtin("cp4")
    text = serialize_manifold(cp4)
    files = {
        "h7-demo": (serialize_manifold(make_h7_demo()), make_h7_demo()),
        "lawless": (text.replace("spinc 5", "spinc 4"), cp4),
        "unparsable": (text.replace("pairing 1", "pairing one"), cp4),
        "no-cup-4-4": ("".join(line for line in text.splitlines(True) if not line.startswith("cup 4 4")), cp4),
        "no-oddgen": (text.replace("oddgen trivial\n", ""), cp4),
    }
    sources = [(("--builtin", name), builtin(name)) for name in BUILTIN_NAMES]
    for name, (contents, data) in files.items():
        path = tmp_path / f"{name}.manifold"
        path.write_text(contents)
        sources.append(((str(path),), data))
    sources += [
        ((str(tmp_path / "absent.manifold"),), cp4),
        ((str(tmp_path / "h7-demo.manifold"), "--builtin", "cp4"), cp4),
        ((), cp4),
    ]

    def vector(data, degree):
        n, kind = data.ngens(degree), rng.randrange(20)
        n = max(0, n - 1) if kind == 0 else n + 1 if kind == 1 else n
        bound = 10**30 if kind == 2 else 3
        coords = [str(rng.randint(-bound, bound)) for _ in range(n)]
        if kind == 3 and coords:
            coords[rng.randrange(n)] = rng.choice(("x", "", "+1", "1.0", "0x1"))
        return ",".join(coords) or "-"

    def chern(data, *degrees):
        return ("--chern", *(vector(data, d) for d in degrees))

    for source, data in sources:
        yield ("validate", *source)
        yield ("validate", *source, "--strict")
        yield ("groups", *source)
        yield ("count", *source, "--rank", "3", *chern(data, 2, 4, 6, 8))
        for _ in range(8):
            yield ("rank4", *source, *chern(data, 2, 4, 6, 8))
            yield ("rank3", *source, *chern(data, 2, 4, 6))
            yield ("count", *source, "--rank", "4", *chern(data, 2, 4, 6, 8))
            yield ("count", *source, "--rank", "3", *chern(data, 2, 4, 6))
            yield ("groups", *source, *chern(data, 2, 4, 6))
            yield ("oracle", *source, *chern(data, 2, 4, 6, 8))
    for rest in (
        ("--bound", "0", "--rank", "4"),
        ("--builtin", "cp4", "--bound", "1", "--rank", "3"),
        ("--bound", "1", "--rank", "4", "--format", "csv"),
        ("--builtin", "s8", "--bound", "1", "--rank", "4"),
        ("--bound", "11", "--rank", "4"),
        ("--bound", "-1", "--rank", "3"),
    ):
        yield ("enumerate", *rest)


# sha256 of the transcript (argv, exit code, stdout, stderr) of transcript_argvs(tmp_path,
# random.Random(35)), the temporary directory written <tmp>; recorded before the subcommands
# shared one way in, which must not change a byte of it
TRANSCRIPT_SHA256 = "1a1003302b1b1f1c523520d351a10d59d222a328e8e93dc825007011e7fa890f"


def test_the_cli_transcript_is_pinned(capsys, tmp_path):
    digest, codes = hashlib.sha256(), set()
    for argv in transcript_argvs(tmp_path, random.Random(35)):
        code, out, err = run(capsys, *argv)
        codes.add(code)
        entry = repr((argv, code, out, err)).replace(str(tmp_path), "<tmp>")
        digest.update(entry.encode() + b"\n")
    assert codes == {0, 1, 2}
    assert digest.hexdigest() == TRANSCRIPT_SHA256
