"""Timing loop, statistics and run facts shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from perfbench.workloads import ROOT, child_env

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 7
START_PROBES = 5
MIN_BEYOND = 10  # samples a tail percentile must leave beyond it


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of an ascending list."""
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def min_samples(p: float) -> int:
    """Samples needed for MIN_BEYOND of them to lie beyond percentile ``p``."""
    return math.ceil(MIN_BEYOND * 100 / (100 - p) - 1e-9)


class Tally:
    """Attempted and failed work units, with the first oracle findings."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def add(self, units: int, failed_units: int, findings: list[str]) -> None:
        self.attempted += units
        self.failed += failed_units
        self.findings.extend(findings[: self.KEEP - len(self.findings)])


def execute(workload, state, request, reference, tally: Tally, run) -> float:
    """Run one request, check its answer and return the seconds it took."""
    units = workload.work(request)
    t0 = perf_counter()
    try:
        result = run(state, request)
    except Exception as exc:  # a failing request is counted and the run goes on
        elapsed = perf_counter() - t0
        tally.add(units, units, [f"{str(request)[:80]}: {type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = perf_counter() - t0
    if isinstance(reference, Exception):
        findings = [f"{str(request)[:80]}: no reference: {type(reference).__name__}: {reference}"]
    else:
        findings = workload.check(request, reference, result)
    tally.add(units, min(units, len(findings)), findings)
    return elapsed


def references(workload, state, requests: list) -> list:
    """Reference answers, or the exception that computing one raised."""
    out = []
    for request in requests:
        try:
            out.append(workload.expect(state, request))
        except Exception as exc:  # the request then fails each time it runs
            out.append(exc)
    return out


def passes(workload, state, requests, refs, tally: Tally, seconds: float, run,
           yardstick=None, samples: int = 0) -> tuple[list[list[float]], list[list[float]]]:
    """Closed loop with one client: whole passes over the requests until
    ``seconds`` have elapsed and the program has ``samples`` latencies.

    Whole passes keep the request mix, and so the latency distribution,
    the same in every run.  Given the yardstick's state, every request is
    also run on the yardstick, right before or right after the program in
    turn, so that both feel the same drift of machine speed; the
    yardstick's answers are not checked, and an exception from it ends
    the run.  Returns the latencies of the program's passes and of the
    yardstick's.
    """
    program, reference = [], []
    deadline = perf_counter() + seconds
    turn = 0
    while True:
        ours, theirs = [], []
        for request, ref in zip(requests, refs):
            turn += 1
            if yardstick is not None and turn % 2:
                theirs.append(_elapsed(run, yardstick, request))
            ours.append(execute(workload, state, request, ref, tally, run))
            if yardstick is not None and not turn % 2:
                theirs.append(_elapsed(run, yardstick, request))
        program.append(ours)
        if yardstick is not None:
            reference.append(theirs)
        if perf_counter() >= deadline and len(program) * len(requests) >= samples:
            return program, reference


def _elapsed(run, state, request) -> float:
    t0 = perf_counter()
    run(state, request)
    return perf_counter() - t0


def setup_seconds(workload_name: str) -> tuple[list[float], list[float]]:
    """Cold set-up times of the program and of the yardstick, alternating,
    each measured in a fresh interpreter."""
    samples: tuple[list[float], list[float]] = ([], [])
    for _ in range(SETUP_PROBES):
        for package, out in (("program", samples[0]), ("yardstick", samples[1])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), workload_name, package],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            out.append(float(proc.stdout.split()[-1]))
    return samples


def cli_start_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing bundlecensus.cli
    on top of it, in milliseconds."""
    bare, loaded = [], []
    for _ in range(START_PROBES):
        for code, samples in (("pass", bare), ("import bundlecensus.cli", loaded)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True, timeout=60)
            samples.append(perf_counter() - t0)
    start = statistics.median(bare)
    return start * 1e3, (statistics.median(loaded) - start) * 1e3


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(requests: list) -> str:
    return hashlib.sha256(json.dumps(requests, sort_keys=True).encode()).hexdigest()


def run_facts() -> dict:
    """Machine and source facts recorded beside every result."""
    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": None,
        "git_dirty": None,
    }
    # Only a checkout that is itself a repository: git must not search above it.
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return facts
        if sha.returncode == 0 and status.returncode == 0:
            facts["git_sha"] = sha.stdout.strip()
            facts["git_dirty"] = bool(status.stdout.strip())
    return facts


def write_report(name: str, report: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
