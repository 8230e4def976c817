"""Traced run: wrap the package's functions from outside and keep spans in memory.

A span is (name, request, parent, start, end).  Each wrapped function is
patched at every binding of the same object in a loaded bundlecensus
module, e.g. ``classify.cup`` as well as ``cohomology.cup``; methods are
patched on their class.  Two very frequent constructors are only counted.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# (span name, module, attribute).  ``_smith_with_inverses`` is the Smith
# normal form itself: smith_normal_form, column_space_basis and solve all
# call it, so wrapping it counts every SNF the package computes.
FUNCTIONS = (
    ("abelian.snf", "bundlecensus.abelian", "_smith_with_inverses"),
    ("abelian.cokernel_presentation", "bundlecensus.abelian", "cokernel_presentation"),
    ("abelian.subgroup_quotient", "bundlecensus.abelian", "subgroup_quotient"),
    ("cohomology.cup", "bundlecensus.cohomology", "cup"),
    ("cohomology.apply_op", "bundlecensus.cohomology", "apply_op"),
    ("cohomology.pair_top", "bundlecensus.cohomology", "pair_top"),
    ("cohomology.validate", "bundlecensus.cohomology", "validate_manifold"),
    ("classify.check_rank4", "bundlecensus.classify", "check_rank4"),
    ("classify.check_rank3", "bundlecensus.classify", "check_rank3"),
    ("classify.count_classes", "bundlecensus.classify", "count_classes"),
    ("classify.compute_B", "bundlecensus.classify", "compute_B"),
    ("classify.compute_T", "bundlecensus.classify", "compute_T"),
    ("charclass.rr_value", "bundlecensus.charclass", "rr_value"),
    ("charclass.rr_series", "bundlecensus.charclass", "rr_value_by_series"),
    ("census.enumerate_cp4", "bundlecensus.census", "enumerate_cp4"),
    ("census.closed_form", "bundlecensus.census", "cp4_rank4_admissible"),
    ("census.closed_form", "bundlecensus.census", "cp4_rank3_admissible"),
    ("manifold_io.parse", "bundlecensus.manifold_io", "parse_manifold"),
    ("fixtures.builtin", "bundlecensus.fixtures", "builtin"),
    ("cli.main", "bundlecensus.cli", "main"),
)
# (span name, module, class, method)
METHODS = (
    ("charclass.rr_closed", "bundlecensus.charclass", "RationalClassPolynomial", "evaluate"),
    ("census.tuple_build", "bundlecensus.cohomology", "ManifoldData", "chern_tuple"),
)
# Counted, not timed: tens of calls per request, each a few microseconds.
COUNTERS = (
    ("abelian.element", "bundlecensus.abelian", "FGAbelianGroup", "element"),
    ("cohomology.class_objects", "bundlecensus.cohomology", "CohomologyClass", "__post_init__"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.requests: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.request = -1  # index of the request being traced; -1 during set-up
        self.counts: dict[str, int] = {name: 0 for name, *_ in COUNTERS}
        self.snf_bits: dict[int, int] = {}  # request -> largest SNF entry, in bits
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        names, requests, parents = self.names, self.requests, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            requests.append(self.request)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                starts[sid] = t0
                stack.pop()

        return wrapper

    def _snf(self, fn):
        timed = self._span("abelian.snf", fn)

        def wrapper(A):
            result = timed(A)
            # U, D and V; measured after the span ends, so it stays out of snf time
            bits = max((abs(x).bit_length() for m in result[:3] for x in m.entries), default=0)
            if bits > self.snf_bits.get(self.request, 0):
                self.snf_bits[self.request] = bits
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "bundlecensus"]
        for name, modname, attr in FUNCTIONS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            fn = getattr(module, attr)
            wrapper = self._snf(fn) if name == "abelian.snf" else self._span(name, fn)
            for m in loaded:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    self._patch(m, key, wrapper)
        for group, make in ((METHODS, self._span), (COUNTERS, self._counter)):
            for name, modname, clsname, attr in group:
                cls = getattr(sys.modules[modname], clsname)
                self._patch(cls, attr, make(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls (all, and during requests), inclusive and self seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[sid]
        table: dict[str, dict[str, float]] = {}
        for sid, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "request_calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["request_calls"] += self.requests[sid] >= 0
            row["inclusive_s"] += durations[sid]
            row["self_s"] += durations[sid] - children[sid]
        return table

    def write(self, path) -> None:
        """Write every span as one JSON line, times in microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as out:
            for sid, name in enumerate(self.names):
                record = {
                    "id": sid,
                    "name": name,
                    "request": self.requests[sid],
                    "parent": self.parents[sid],
                    "start_us": round((self.starts[sid] - origin) * 1e6, 3),
                    "end_us": round((self.ends[sid] - origin) * 1e6, 3),
                }
                out.write(json.dumps(record) + "\n")


def per_call_us(table, name: str, key: str = "inclusive_s") -> float:
    row = table.get(name)
    return row[key] / row["calls"] * 1e6 if row else 0.0


def per_request(table, name: str, requests: int) -> float:
    row = table.get(name)
    return row["request_calls"] / requests if row else 0.0


def layer_metrics(tracer: Tracer, counts_before: dict[str, int], requests: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that the spans give.

    ``*_calls`` and ``class_objects`` are per request and repeat exactly.
    ``*_us`` are microseconds per call over set-up and requests, inclusive
    of callees, except check_rank4_self, parse and builtin, which exclude
    the wrapped functions they call (validation is validate_us).
    """
    table = tracer.aggregate()
    counted = {name: tracer.counts[name] - counts_before[name] for name in tracer.counts}
    request_bits = [bits for request, bits in tracer.snf_bits.items() if request >= 0]
    return {
        "abelian.snf_calls": per_request(table, "abelian.snf", requests),
        "abelian.snf_us": per_call_us(table, "abelian.snf"),
        "abelian.snf_max_entry_bits": max(request_bits, default=0),
        "abelian.subgroup_quotient_us": per_call_us(table, "abelian.subgroup_quotient"),
        "abelian.element_calls": counted["abelian.element"] / requests,
        "cohomology.cup_calls": per_request(table, "cohomology.cup", requests),
        "cohomology.cup_us": per_call_us(table, "cohomology.cup"),
        "cohomology.apply_op_calls": per_request(table, "cohomology.apply_op", requests),
        "cohomology.apply_op_us": per_call_us(table, "cohomology.apply_op"),
        "cohomology.pair_top_calls": per_request(table, "cohomology.pair_top", requests),
        "cohomology.pair_top_us": per_call_us(table, "cohomology.pair_top"),
        "cohomology.class_objects": counted["cohomology.class_objects"] / requests,
        "cohomology.validate_us": per_call_us(table, "cohomology.validate"),
        "classify.check_rank4_self_us": per_call_us(table, "classify.check_rank4", "self_s"),
        "classify.compute_B_us": per_call_us(table, "classify.compute_B"),
        "classify.compute_T_us": per_call_us(table, "classify.compute_T"),
        "charclass.rr_closed_us": per_call_us(table, "charclass.rr_closed"),
        "charclass.rr_series_us": per_call_us(table, "charclass.rr_series"),
        "census.closed_form_us": per_call_us(table, "census.closed_form"),
        "census.tuple_build_us": per_call_us(table, "census.tuple_build"),
        "manifold_io.parse_us": per_call_us(table, "manifold_io.parse", "self_s"),
        "fixtures.builtin_us": per_call_us(table, "fixtures.builtin", "self_s"),
        "fixtures.builtin_calls": per_request(table, "fixtures.builtin", requests),
    }
