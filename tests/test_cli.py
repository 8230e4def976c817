import pytest

from bundlecensus import cli
from bundlecensus.cli import main
from bundlecensus.fixtures import BUILTIN_NAMES, builtin
from bundlecensus.manifold_io import serialize_manifold


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


def test_internal_inconsistency_exit_three(capsys, tmp_path, cp4):
    path = tmp_path / "corrupt.manifold"
    path.write_text(serialize_manifold(cp4).replace("p1 5", "p1 2"))
    code, _, err = run(capsys, "rank4", str(path), "--chern", "0", "1", "0", "0")
    assert code == 3
    assert "internal inconsistency" in err


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
    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_rank4", crash)
    code, out, err = run(capsys, "rank4", "--builtin", "cp4", "--chern", "0", "0", "0", "0")
    assert code == 3
    assert err.startswith(f"internal error: {type(exc).__name__}")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_pass_through(monkeypatch, exc):
    def stop(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_rank4", stop)
    with pytest.raises(exc):
        main(["rank4", "--builtin", "cp4", "--chern", "0", "0", "0", "0"])
