"""Tests of the benchmark itself: every workload runs clean at a tiny size,
and every oracle fires on a deliberately wrong answer.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness, run, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    CensusCp4,
    CliCold,
    Presentations,
    QueriesMixed,
    rank_and_det,
    rr_oracle,
    snf_findings,
)


def prepared(cls, seed=3):
    workload = cls(seed, tiny=True)
    state = workload.load()
    requests = workload.requests(state)
    return workload, state, requests, harness.references(workload, state, requests)


def one_pass(workload, state, requests, refs, run_fn=None):
    tally = harness.Tally()
    harness.passes(workload, state, requests, refs, tally, 0, run_fn or workload.run)
    return tally


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(run.ALIASES) == set(WORKLOADS)
    scaled = set(run.END_TO_END) - {"peak_rss_mb"}
    assert all(set(run.YARDSTICK_REFERENCE[name]) == scaled for name in WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_tiny_size_beside_the_yardstick(name):
    workload, state, requests, refs = prepared(WORKLOADS[name])
    assert not any(isinstance(r, Exception) for r in refs)
    tally = harness.Tally()
    yardstick = workload.load(yardstick=True)
    assert yardstick.bc.__name__ == "perfbench.yardstick"
    program, reference = harness.passes(
        workload, state, requests, refs, tally, 0, workload.run, yardstick, 3 * len(requests)
    )
    assert len(program) == len(reference) == 3
    assert tally.attempted == 3 * sum(workload.work(r) for r in requests)
    assert (tally.failed, tally.findings) == (0, [])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_depend_on_the_seed_only(name):
    a = WORKLOADS[name](5, tiny=True)
    b = WORKLOADS[name](5, tiny=True)
    c = WORKLOADS[name](6, tiny=True)
    state = a.load()
    assert harness.digest(a.requests(state)) == harness.digest(b.requests(state))
    if name != "census-cp4":  # the census varies only the order of its boxes
        assert harness.digest(a.requests(state)) != harness.digest(c.requests(state))


def test_census_oracle_fires_on_a_wrong_closed_form(monkeypatch):
    workload, state, requests, refs = prepared(CensusCp4)
    monkeypatch.setattr(state.bc.census, "cp4_rank4_admissible", lambda *a: True)
    monkeypatch.setattr(state.bc.census, "cp4_rank3_admissible", lambda *a: True)
    tally = one_pass(workload, state, requests, refs)
    assert 0 < tally.failed <= tally.attempted
    assert "closed=True" in tally.findings[0]


def test_queries_oracle_fires_on_a_wrong_count(monkeypatch):
    workload, state, requests, refs = prepared(QueriesMixed)
    requests = [(name, "count4", coords) for name, _, coords in requests]
    refs = harness.references(workload, state, requests)
    assert any(ref.verdict.realizable for ref in refs)
    monkeypatch.setattr(state.bc, "count_classes", lambda *a: None)
    tally = one_pass(workload, state, requests, refs)
    assert tally.failed == sum(ref.verdict.realizable for ref in refs)


def test_rr_oracle_fires_on_wrong_verdicts():
    bc = QueriesMixed(0).load().bc
    data = bc.builtin("cp4")
    u = data.chern_tuple((0,), (0,), (0,), (1,))  # rr = -1/6: unrealizable
    verdict = bc.check_rank4(data, u)
    rr = bc.rr_value(data, u)
    assert rr_oracle(verdict, rr, bc.oracle_congruences) == []
    flipped = type(verdict)(4, True, verdict.condition1, verdict.condition2, verdict.condition3)
    assert rr_oracle(flipped, rr, bc.oracle_congruences)
    assert rr_oracle(verdict, rr + Fraction(1, 6), bc.oracle_congruences)


def test_rr_oracle_is_gated_on_condition_1():
    # Off the condition-(1) locus rr can be integral on an unrealizable tuple;
    # the oracle must not call that a disagreement.
    bc = QueriesMixed(0).load().bc
    data = bc.builtin("cp1xcp3")
    rng = random.Random(0)
    for _ in range(500):
        coords = [tuple(rng.randint(-3, 3) for _ in range(data.ngens(d))) for d in (2, 4, 6, 8)]
        u = data.chern_tuple(*coords)
        verdict = bc.check_rank4(data, u)
        rr = bc.rr_value(data, u)
        if rr.denominator == 1 and not verdict.realizable:
            assert not verdict.condition1.passed
            assert rr_oracle(verdict, rr, bc.oracle_congruences) == []
            return
    pytest.fail("no integral rr on an unrealizable tuple found")


def test_presentations_oracle_fires_on_a_wrong_group(monkeypatch):
    workload, state, requests, refs = prepared(Presentations)
    trivial = state.bc.FGAbelianGroup(())
    monkeypatch.setattr(state.bc, "cokernel_presentation", lambda *a: trivial)
    monkeypatch.setattr(state.bc, "subgroup_quotient", lambda *a: trivial)
    tally = one_pass(workload, state, requests, refs)
    nontrivial = sum(factors != () for _, factors in refs)
    assert tally.failed == nontrivial > 0


def test_snf_check_fires_on_a_wrong_decomposition():
    bc = Presentations(0).load().bc
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    U, D, V = bc.smith_normal_form(bc.IntMatrix.from_rows(rows))
    findings, factors = snf_findings(rows, (U, D, V))
    assert findings == [] and factors == (2, 6, 12)
    wrong = bc.IntMatrix(3, 3, (2, 0, 0, 0, 6, 0, 0, 0, 24))
    findings, _ = snf_findings(rows, (U, wrong, V))
    assert "U*A*V != D" in findings
    assert any("det" in f for f in findings)


def test_rank_and_det_agree_with_exact_arithmetic():
    bc = Presentations(0).load().bc
    rng = random.Random(1)
    for n in range(1, 7):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert rank_and_det(rows)[1] == bc.IntMatrix.from_rows(rows).determinant()
    low = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    assert rank_and_det(low) == (2, None)
    assert rank_and_det([[0, 0], [0, 0]]) == (0, 0)


def test_cli_oracle_fires_on_a_wrong_answer():
    workload, state, requests, refs = prepared(CliCold)
    code, line = refs[0]
    assert workload.check(requests[0], refs[0], (code, line)) == []
    assert workload.check(requests[0], refs[0], (code + 1, line))
    assert workload.check(requests[0], refs[0], (code, line + "x"))


def test_traced_pass_counts_repeat_exactly():
    def traced_counts():
        workload, state, requests, refs = prepared(QueriesMixed)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_state = workload.load()
            before = dict(tracer.counts)
            tally = harness.Tally()
            for i, (request, ref) in enumerate(zip(requests, refs)):
                tracer.request = i
                harness.execute(workload, traced_state, request, ref, tally, workload.run_in_process)
        finally:
            tracer.uninstall()
        assert tally.failed == 0
        metrics = tracing.layer_metrics(tracer, before, len(requests))
        return {k: v for k, v in metrics.items() if not k.endswith("_us")}, metrics

    counts, metrics = traced_counts()
    assert counts == traced_counts()[0]
    assert set(metrics) | {"cli.startup_ms", "cli.import_ms", "trace.overhead_pct"} == set(run.PER_LAYER)
    assert counts["cohomology.cup_calls"] > 0 and counts["abelian.snf_calls"] > 0


def test_tracer_restores_every_binding():
    bc = QueriesMixed(0).load().bc
    before = (bc.classify.cup, bc.cohomology.cup, bc.FGAbelianGroup.element, bc.abelian._smith_with_inverses)
    tracer = tracing.Tracer()
    tracer.install()
    assert bc.classify.cup is not before[0]
    tracer.uninstall()
    assert (bc.classify.cup, bc.cohomology.cup, bc.FGAbelianGroup.element, bc.abelian._smith_with_inverses) == before


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert (harness.min_samples(90), harness.min_samples(99)) == (100, 1000)
    ordered = [float(i) for i in range(100)]
    assert harness.percentile(ordered, 90) == pytest.approx(89.1)
    assert harness.percentile(ordered, 50) == pytest.approx(49.5)


def test_refuses_to_time_with_snf_verification_on(monkeypatch):
    abelian = QueriesMixed(0).load().bc.abelian
    monkeypatch.setattr(abelian, "VERIFY_POSTCONDITIONS", True)
    assert run.main(["--workload", "census-cp4", "--seed", "1", "--seconds", "1"]) == 2


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-cp4", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
