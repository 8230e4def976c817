#!/usr/bin/env python3
"""The bundlecensus benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload census-cp4 --seed 1 --seconds 24 --trace 0

Run from anywhere; the program is imported from the ``src/`` beside this
directory and never from elsewhere.  The seed makes the requests; every
answer of the program is checked by an oracle computed outside the timed
region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (work units: census tuples,
queries, presentations, CLI invocations) and ``metrics``.  A readable
summary goes to standard error, and ``perfbench/out/`` receives a report
with sample counts, raw figures, the digest of the inputs and the
machine facts.

``--trace 0`` measures the end-to-end metrics, untraced.  Passes of the
program alternate with passes of the yardstick, a frozen copy of the
program (``perfbench/yardstick``); each timed figure is the program's
figure times the yardstick's reference figure over the yardstick's figure
in the same run, so that drift of the machine's speed cancels:

    throughput_per_s  work units per second of request time
    latency_p50_ms    median latency of one request (a census request is
                      one box of 625 or 729 tuples)
    latency_tail_ms   p90 latency (p99 on queries-mixed); the run goes on
                      until at least 10 samples lie beyond it
    setup_s           median of 7 cold set-ups, each in a fresh interpreter
    peak_rss_mb       peak resident set size of this process, not scaled

``--trace 1`` runs the program's requests in-process (``cli.main`` for
cli-cold), half the time untraced, then one traced pass, and reports the
per-layer metrics of ``tracing.layer_metrics`` plus:

    cli.startup_ms      a bare ``python -c pass``
    cli.import_ms       ``import bundlecensus.cli`` on top of that
    trace.overhead_pct  traced pass against the median untraced pass

Exits 2 without a result when the checkout holds no bundlecensus sources
or abelian.VERIFY_POSTCONDITIONS is not at its shipped default, False.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, CheckoutError  # noqa: E402

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "abelian.snf_calls": "calls/op",
    "abelian.snf_us": "us/call",
    "abelian.snf_max_entry_bits": "bits",
    "abelian.subgroup_quotient_us": "us/call",
    "abelian.element_calls": "calls/op",
    "cohomology.cup_calls": "calls/op",
    "cohomology.cup_us": "us/call",
    "cohomology.apply_op_calls": "calls/op",
    "cohomology.apply_op_us": "us/call",
    "cohomology.pair_top_calls": "calls/op",
    "cohomology.pair_top_us": "us/call",
    "cohomology.class_objects": "objects/op",
    "cohomology.validate_us": "us/call",
    "classify.check_rank4_self_us": "us/call",
    "classify.compute_B_us": "us/call",
    "classify.compute_T_us": "us/call",
    "charclass.rr_closed_us": "us/call",
    "charclass.rr_series_us": "us/call",
    "census.closed_form_us": "us/call",
    "census.tuple_build_us": "us/call",
    "manifold_io.parse_us": "us/call",
    "fixtures.builtin_us": "us/call",
    "fixtures.builtin_calls": "calls/op",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
}
# The yardstick's figures on the reference machine, a 2-vCPU virtual machine
# with Python 3.11.7; see timed() and perfbench/yardstick/README.md.
YARDSTICK_REFERENCE = {
    "census-cp4": {"throughput_per_s": 7890.0, "latency_p50_ms": 84.2, "latency_tail_ms": 100.0, "setup_s": 0.0312},
    "queries-mixed": {"throughput_per_s": 4540.0, "latency_p50_ms": 0.147, "latency_tail_ms": 0.639, "setup_s": 0.0352},
    "presentations": {"throughput_per_s": 41.9, "latency_p50_ms": 12.3, "latency_tail_ms": 59.0, "setup_s": 0.027},
    "cli-cold": {"throughput_per_s": 10.3, "latency_p50_ms": 95.9, "latency_tail_ms": 114.0, "setup_s": 0.0352},
}
# The same figures under the workload-specific names of the benchmark's
# design, (metric, factor); recorded in the report only.
ALIASES = {
    "census-cp4": {"census_tuples_per_s": ("throughput_per_s", 1)},
    "queries-mixed": {
        "queries_per_s": ("throughput_per_s", 1),
        "query_p50_us": ("latency_p50_ms", 1e3),
        "query_tail_us": ("latency_tail_ms", 1e3),
    },
    "presentations": {
        "presentations_per_s": ("throughput_per_s", 1),
        "presentation_p50_ms": ("latency_p50_ms", 1),
        "presentation_tail_ms": ("latency_tail_ms", 1),
    },
    "cli-cold": {"cli_p50_ms": ("latency_p50_ms", 1), "cli_tail_ms": ("latency_tail_ms", 1)},
}


def figures(passes, units: int, tail_p: float) -> dict[str, float]:
    """Throughput, median and tail latency of one side's passes."""
    latencies = sorted(x for p in passes for x in p)
    return {
        "throughput_per_s": units / sum(latencies),
        "latency_p50_ms": harness.percentile(latencies, 50) * 1e3,
        "latency_tail_ms": harness.percentile(latencies, tail_p) * 1e3,
    }


def timed(workload, state, requests, refs, tally, seconds):
    setup, yardstick_setup = harness.setup_seconds(workload.name)
    yardstick = workload.load(yardstick=True)
    runs, yardstick_runs = harness.passes(
        workload, state, requests, refs, tally, seconds, workload.run,
        yardstick, harness.min_samples(workload.tail_p),
    )
    per_pass = sum(workload.work(r) for r in requests)
    raw = figures(runs, per_pass * len(runs), workload.tail_p)
    raw["setup_s"] = statistics.median(setup)
    reference = figures(yardstick_runs, per_pass * len(yardstick_runs), workload.tail_p)
    reference["setup_s"] = statistics.median(yardstick_setup)
    scale = YARDSTICK_REFERENCE[workload.name]
    metrics = {name: raw[name] * scale[name] / reference[name] for name in scale}
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    details = {
        "samples": len(runs) * len(requests),
        "passes": len(runs),
        "tail_percentile": workload.tail_p,
        "raw": raw,
        "yardstick": reference,
        "setup_samples_s": setup,
        "yardstick_setup_samples_s": yardstick_setup,
        "aliases": {
            alias: metrics[name] * factor
            for alias, (name, factor) in ALIASES[workload.name].items()
        },
    }
    return metrics, details


def traced(workload, state, requests, refs, tally, seconds, spans_path):
    untraced, _ = harness.passes(
        workload, state, requests, refs, tally, seconds / 2, workload.run_in_process
    )
    untraced_s = statistics.median(sum(p) for p in untraced)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_state = workload.load()
        counts_before = dict(tracer.counts)
        traced_s = 0.0
        for i, (request, ref) in enumerate(zip(requests, refs)):
            tracer.request = i
            traced_s += harness.execute(
                workload, traced_state, request, ref, tally, workload.run_in_process
            )
        tracer.request = -1
    finally:
        tracer.uninstall()
    units = sum(workload.work(r) for r in requests)
    metrics = tracing.layer_metrics(tracer, counts_before, units)
    metrics["cli.startup_ms"], metrics["cli.import_ms"] = harness.cli_start_ms()
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
    harness.OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)
    details = {
        "untraced_passes": len(untraced),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": len(tracer.names),
        "spans_file": str(spans_path.relative_to(harness.ROOT)),
        "units_per_pass": units,
        "layers": tracer.aggregate(),
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bundlecensus benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        state = workload.load()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if state.bc.abelian.VERIFY_POSTCONDITIONS is not False:
        print("perfbench: abelian.VERIFY_POSTCONDITIONS is not at its default, False", file=sys.stderr)
        return 2

    requests = workload.requests(state)
    refs = harness.references(workload, state, requests)
    tally = harness.Tally()
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = harness.OUT / f"{stem}-spans.jsonl.gz"
        metrics, details = traced(workload, state, requests, refs, tally, args.seconds, spans_path)
        units = PER_LAYER
    else:
        metrics, details = timed(workload, state, requests, refs, tally, args.seconds)
        units = END_TO_END

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len(requests),
        "inputs_sha256": harness.digest(requests),
        "facts": harness.run_facts(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "findings": tally.findings,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
    }
    path = harness.write_report(f"{stem}.json", report)

    print(
        f"{workload.name} seed {args.seed}: {len(requests)} requests, inputs sha256 "
        f"{report['inputs_sha256'][:16]}, {tally.failed} of {tally.attempted} failed",
        file=sys.stderr,
    )
    for finding in tally.findings:
        print(f"  FAILED {finding}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:32} {metrics[name]:14.4f} {unit}", file=sys.stderr)
    print(f"  report: {path.relative_to(harness.ROOT)}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
