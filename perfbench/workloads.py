"""The four bundlecensus workloads.

Each workload turns a seed into a list of requests, sets up the package
state the requests need, runs one request at a time and checks every
answer against an oracle that is computed outside the timed region.

    census-cp4      exhaustive cp4 boxes through ``enumerate_cp4``
    queries-mixed   single-tuple queries over all six builtins
    presentations   integer relation matrices through the SNF layer
    cli-cold        one ``python -m bundlecensus.cli`` process per request

The package is imported inside ``load`` only, so that the set-up probe
times a cold import.  Every call into the package goes through a module
attribute looked up at call time, so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "bundlecensus"
YARDSTICK_DIR = ROOT / "perfbench" / "yardstick"


class CheckoutError(RuntimeError):
    """The checkout does not hold the bundlecensus sources."""


def import_package(yardstick: bool = False, submodule: str = ""):
    """Import the program from this checkout's ``src/``, never from elsewhere,
    or, with ``yardstick``, the frozen copy under ``perfbench/yardstick``."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise CheckoutError(f"no bundlecensus sources under {SRC}")
    name, directory, path = (
        ("perfbench.yardstick", YARDSTICK_DIR, ROOT) if yardstick else ("bundlecensus", PACKAGE_DIR, SRC)
    )
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
    if submodule:
        name = f"{name}.{submodule}"
    module = importlib.import_module(name)
    if not Path(module.__file__).resolve().is_relative_to(directory.resolve()):
        raise CheckoutError(f"{name} was imported from {module.__file__}, not from {directory}")
    return module


class State(NamedTuple):
    """What set-up leaves behind: the package modules and loaded manifolds."""

    bc: object
    data: dict
    cli: object = None


class Workload:
    """Interface shared by the workloads; ``tiny`` shrinks the inputs for tests."""

    name = ""
    why = ""
    tail_p = 90.0  # percentile reported as the tail

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def load(self, yardstick: bool = False) -> State:
        """Set-up: import the package and build or parse every manifold used."""
        raise NotImplementedError

    def requests(self, state: State) -> list:
        raise NotImplementedError

    def expect(self, state: State, request):
        """Reference answer for one request, computed outside the timed region."""
        raise NotImplementedError

    def run(self, state: State, request):
        """The timed request."""
        raise NotImplementedError

    def check(self, request, reference, result) -> list[str]:
        """Oracle findings for one timed result; empty when it is correct."""
        raise NotImplementedError

    def work(self, request) -> int:
        """Work units in one request: tuples for the census, 1 elsewhere."""
        return 1

    def run_in_process(self, state: State, request):
        """The request as executed inside this process, for the traced run."""
        return self.run(state, request)


# -- census-cp4 ------------------------------------------------------------


def cp4_closed_form(coeffs: tuple[int, ...]) -> bool:
    """The classical congruences for CP^4, written independently of census.py.

    rank 4:  2*a4 = a2^2 + a2 + a1*(a1*a2 - a3)  mod 3
             2*a4 = a2^2 + a2 + a1*a2 - a3       mod 4
    rank 3:  the same with a4 = 0.
    """
    a1, a2, a3 = coeffs[:3]
    a4 = coeffs[3] if len(coeffs) == 4 else 0
    mod3 = 2 * a4 - (a2 * a2 + a2 + a1 * (a1 * a2 - a3))
    mod4 = 2 * a4 - (a2 * a2 + a2 + a1 * a2 - a3)
    return mod3 % 3 == 0 and mod4 % 4 == 0


class CensusCp4(Workload):
    name = "census-cp4"
    why = "exhaustive cp4 boxes, rank 4 and 3: the paper's headline census, mostly cup/apply_op and classify"
    # Boxes of similar size (625 and 729 tuples), so that the latency of one
    # census request is nearly unimodal; unequal counts put the median
    # inside one box size rather than between the two.
    BOUNDS = {4: 2, 3: 4}
    COUNTS = {4: 7, 3: 5}

    def load(self, yardstick: bool = False) -> State:
        bc = import_package(yardstick)
        return State(bc, {"cp4": bc.builtin("cp4")})

    def requests(self, state: State) -> list:
        bounds = {4: 1, 3: 1} if self.tiny else self.BOUNDS
        counts = {4: 1, 3: 1} if self.tiny else self.COUNTS
        out = [(rank, bounds[rank]) for rank in counts for _ in range(counts[rank])]
        random.Random(self.seed).shuffle(out)
        return out

    def expect(self, state: State, request):
        rank, bound = request
        box = itertools.product(range(-bound, bound + 1), repeat=rank)
        return [(coeffs, cp4_closed_form(coeffs)) for coeffs in box]

    def run(self, state: State, request):
        rank, bound = request
        return state.bc.enumerate_cp4(bound, rank, state.data["cp4"])

    def check(self, request, reference, result) -> list[str]:
        rows = result.rows
        if len(rows) != len(reference):
            return [f"{request}: {len(rows)} rows, expected {len(reference)}"]
        return [
            f"{request}: tuple {coeffs} generic={row.generic} closed={row.closed_form}, "
            f"expected {expected}"
            for row, (coeffs, expected) in zip(rows, reference)
            if row.coefficients != coeffs
            or row.generic != expected
            or row.closed_form != expected
        ]

    def work(self, request) -> int:
        rank, bound = request
        return (2 * bound + 1) ** rank


# -- queries-mixed ---------------------------------------------------------

# Weighted toward the manifolds with several generators per degree, which
# exercise the cup tables and (through count) the small SNF path.
MANIFOLD_WEIGHTS = {
    "cp2xcp2": 4,
    "cp1xcp3": 4,
    "torsion-demo": 3,
    "cp4": 2,
    "hp2": 1,
    "s8": 1,
}
QUERY_WEIGHTS = {"rank4": 3, "rank3": 2, "count4": 2, "count3": 2, "rr": 3}
SMALL_COORD = 6
LARGE_COORD = 10**40
LARGE_SHARE = 0.1
# The rank-4 counting group B: Z/2 on torsion-demo, trivial elsewhere.  T is
# trivial on every builtin (H^7 = 0), so the rank-3 group is B as well.
EXPECTED_B = {"torsion-demo": (2,)}


class QueryReference(NamedTuple):
    verdict: object
    rr: object
    findings: tuple[str, ...]


def rr_oracle(verdict, rr, oracle_congruences) -> list[str]:
    """Cross-check a rank-4 verdict against the Riemann-Roch value.

    Every realizable tuple has an integral rr.  The converse, "rr integral
    => realizable", and the reconstruction of conditions (2) and (3) from
    24*rr hold only where condition (1) holds, so both are gated on it.
    README.md and ROADMAP.md state the ungated equivalence for every
    tuple, but it is false: over 2000 random tuples per manifold with
    coordinates in [-6, 6], rr was integral on 70 unrealizable tuples on
    cp2xcp2, 246 on cp1xcp3 and 230 on torsion-demo, each time with
    condition (1) failing.
    """
    findings = []
    integral = rr.denominator == 1
    if verdict.realizable and not integral:
        findings.append(f"realizable tuple with non-integral rr {rr}")
    if verdict.condition1.passed:
        if integral != verdict.realizable:
            findings.append(f"condition (1) holds, rr {rr}, realizable={verdict.realizable}")
        try:
            congruences = oracle_congruences(rr)
        except ValueError as exc:
            findings.append(f"oracle_congruences: {exc}")
        else:
            conditions = (verdict.condition2.passed, verdict.condition3.passed)
            if congruences != conditions:
                findings.append(f"rr congruences {congruences} != conditions (2),(3) {conditions}")
    return findings


class QueriesMixed(Workload):
    name = "queries-mixed"
    why = "seeded single-tuple queries over all builtins, small and huge coordinates: charclass, classify and small SNF"
    tail_p = 99.0
    QUERIES = 1500

    def load(self, yardstick: bool = False) -> State:
        bc = import_package(yardstick)
        return State(bc, {name: bc.builtin(name) for name in bc.BUILTIN_NAMES})

    def requests(self, state: State) -> list:
        rng = random.Random(self.seed)
        names = list(MANIFOLD_WEIGHTS)
        kinds = list(QUERY_WEIGHTS)
        out = []
        for _ in range(20 if self.tiny else self.QUERIES):
            name = rng.choices(names, weights=list(MANIFOLD_WEIGHTS.values()))[0]
            kind = rng.choices(kinds, weights=list(QUERY_WEIGHTS.values()))[0]
            bound = LARGE_COORD if rng.random() < LARGE_SHARE else SMALL_COORD
            data = state.data[name]
            coords = [
                tuple(rng.randint(-bound, bound) for _ in range(data.ngens(degree)))
                for degree in (2, 4, 6, 8)
            ]
            if kind in ("rank3", "count3"):
                coords[3] = (0,) * data.ngens(8)
            out.append((name, kind, tuple(coords)))
        return out

    def expect(self, state: State, request) -> QueryReference:
        name, _, coords = request
        bc = state.bc
        data = state.data[name]
        u = data.chern_tuple(*coords)
        verdict = bc.check_rank4(data, u)
        try:
            rr = bc.rr_value(data, u, self_check=True)
        except AssertionError as exc:
            return QueryReference(verdict, None, (f"rr self-check: {exc}",))
        return QueryReference(verdict, rr, tuple(rr_oracle(verdict, rr, bc.oracle_congruences)))

    def run(self, state: State, request):
        name, kind, (c1, c2, c3, c4) = request
        bc = state.bc
        data = state.data[name]
        if kind == "rank4":
            return bc.check_rank4(data, data.chern_tuple(c1, c2, c3, c4))
        if kind == "count4":
            return bc.count_classes(data, data.chern_tuple(c1, c2, c3, c4), 4)
        if kind == "rr":
            return bc.rr_value(data, data.chern_tuple(c1, c2, c3, c4), self_check=True)
        u1, u2, u3 = data.zclass(2, c1), data.zclass(4, c2), data.zclass(6, c3)
        if kind == "rank3":
            return bc.check_rank3(data, u1, u2, u3)
        return bc.count_classes(data, (u1, u2, u3), 3)

    def check(self, request, reference: QueryReference, result) -> list[str]:
        name, kind, _ = request
        findings = [f"{request}: {f}" for f in reference.findings]
        verdict = reference.verdict
        if kind == "rank4":
            ok = result.decision_fields() == verdict.decision_fields()
        elif kind == "rank3":
            ok = result.rank == 3 and result.decision_fields()[1:] == verdict.decision_fields()[1:]
        elif kind == "rr":
            ok = result == reference.rr
        else:
            # count_classes is None exactly when the tuple is unrealizable
            expected = EXPECTED_B.get(name, ()) if verdict.realizable else None
            got = None if result is None else result.invariant_factors
            ok = got == expected
        if not ok:
            findings.append(f"{request}: answer {result} disagrees with the reference")
        return findings


# -- presentations ---------------------------------------------------------


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def rank_and_det(rows: list[list[int]]) -> tuple[int, int | None]:
    """Rank over Q and, for a square matrix, the determinant.

    Fraction-free (Bareiss) elimination that skips columns without a
    pivot; independent of the package's own linear algebra.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        p = a[rank]
        for i in range(rank + 1, m):
            ai = a[i]
            for j in range(col + 1, n):
                ai[j] = (ai[j] * p[col] - ai[col] * p[j]) // prev
            ai[col] = 0
        prev = p[col]
        rank += 1
        if rank == m:
            break
    det = None
    if m == n:
        det = (sign * prev if m else 1) if rank == n else 0
    return rank, det


def snf_findings(rows: list[list[int]], snf) -> tuple[list[str], tuple[int, ...]]:
    """Verify U*A*V = D, the shape of D and |det A| = prod(D) on one SNF.

    Returns the findings and the invariant factors D implies for the
    cokernel of A.
    """
    U, D, V = (m.to_rows() for m in snf)
    m = len(rows)
    n = len(rows[0]) if m else 0
    findings = []
    if matmul(matmul(U, rows), V) != D:
        findings.append("U*A*V != D")
    diag = [D[i][i] for i in range(min(m, n))]
    if any(D[i][j] for i in range(m) for j in range(n) if i != j):
        findings.append("D is not diagonal")
    nonzero = [d for d in diag if d]
    if any(d < 0 for d in diag) or diag[: len(nonzero)] != nonzero:
        findings.append(f"D diagonal {diag} is not nonnegative with zeros last")
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        findings.append(f"D diagonal {diag} breaks the divisibility chain")
    rank, det = rank_and_det(rows)
    if rank != len(nonzero):
        findings.append(f"rank {rank} but {len(nonzero)} nonzero invariant factors")
    if det:
        order = 1
        for d in nonzero:
            order *= d
        if order != abs(det):
            findings.append(f"group order {order} != |det| {abs(det)}")
    factors = tuple(d for d in nonzero if d != 1) + (0,) * (m - len(nonzero))
    return findings, factors


class Presentations(Workload):
    name = "presentations"
    why = "seeded relation matrices n=4..28 with entries up to 1000, square, rectangular and rank-deficient: the only load where SNF dominates"
    ENTRY = 1000
    SQUARE = (4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24)
    RECTANGULAR = (4, 8, 12, 16, 20)  # n x (n+3) and (n+3) x n
    DEFICIENT = (6, 10, 14, 18, 22)  # n x n of rank n // 2
    QUOTIENT = (4, 8, 12, 16, 20, 24, 28)  # ambient Z^n, up to 6 numerator generators
    FACTOR_ENTRY = 9  # rank-deficient factors keep products within ENTRY
    COEFF_ENTRY = 5

    def load(self, yardstick: bool = False) -> State:
        return State(import_package(yardstick), {})

    def requests(self, state: State) -> list:
        rng = random.Random(self.seed)

        def matrix(r, c, e):
            return [[rng.randint(-e, e) for _ in range(c)] for _ in range(r)]

        if self.tiny:
            square, rect, deficient, quotient = (4, 6), (4,), (6,), (4,)
        else:
            square, rect, deficient, quotient = (
                self.SQUARE, self.RECTANGULAR, self.DEFICIENT, self.QUOTIENT,
            )
        out = [("coker", matrix(n, n, self.ENTRY)) for n in square]
        out += [("coker", matrix(n, n + 3, self.ENTRY)) for n in rect]
        out += [("coker", matrix(n + 3, n, self.ENTRY)) for n in rect]
        out += [
            ("coker", matmul(matrix(n, n // 2, self.FACTOR_ENTRY), matrix(n // 2, n, self.FACTOR_ENTRY)))
            for n in deficient
        ]
        for n in quotient:
            r = min(6, n - 1)
            numerator = matrix(n, r, self.ENTRY)
            coeffs = matrix(r, r, self.COEFF_ENTRY)
            while not rank_and_det(coeffs)[1]:
                coeffs = matrix(r, r, self.COEFF_ENTRY)
            out.append(("quotient", numerator, coeffs))
        rng.shuffle(out)
        return out

    def expect(self, state: State, request):
        bc = state.bc
        if request[0] == "coker":
            rows = request[1]
            A = bc.IntMatrix.from_rows(rows, len(rows[0]))
            return snf_findings(rows, bc.smith_normal_form(A))
        # <N> / <N*C> with N of full column rank is the cokernel of C.
        _, numerator, coeffs = request
        findings, factors = snf_findings(
            coeffs, bc.smith_normal_form(bc.IntMatrix.from_rows(coeffs, len(coeffs)))
        )
        if rank_and_det(numerator)[0] != len(coeffs):
            findings.append("numerator generators are not independent")
        return findings, factors

    def run(self, state: State, request):
        bc = state.bc
        if request[0] == "coker":
            rows = request[1]
            return bc.cokernel_presentation(len(rows), bc.IntMatrix.from_rows(rows, len(rows[0])))
        _, numerator, coeffs = request
        gens = [list(col) for col in zip(*numerator)]
        denominators = [list(col) for col in zip(*matmul(numerator, coeffs))]
        return bc.subgroup_quotient(
            bc.FGAbelianGroup((0,) * len(numerator)),
            [bc.GroupElement(g) for g in gens],
            [bc.GroupElement(d) for d in denominators],
        )

    def check(self, request, reference, result) -> list[str]:
        findings, factors = reference
        label = f"{request[0]} {len(request[1])}x{len(request[1][0])}"
        out = [f"{label}: {f}" for f in findings]
        if result.invariant_factors != factors:
            out.append(f"{label}: group {result.invariant_factors}, expected {factors}")
        return out


# -- cli-cold --------------------------------------------------------------


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts: the checkout's
    sources and the yardstick first, and bytecode caching on, as for an
    installed package, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_argv(request: list[str]) -> list[str]:
    """Requests name shipped files relative to the checkout, so their digest
    does not depend on where the checkout lies."""
    return [str(ROOT / a) if a.endswith(".manifold") else a for a in request]


def first_line(text: str) -> str:
    return text.splitlines()[0] if text else ""


class CliCold(Workload):
    name = "cli-cold"
    why = "one cold CLI process per question: interpreter start, import, parse and validate dominate, not the query"
    KINDS = ("validate", "rank4", "rank3", "count", "groups", "oracle")
    PER_KIND = 2

    def load(self, yardstick: bool = False) -> State:
        bc = import_package(yardstick)
        cli = import_package(yardstick, "cli")
        data = {name: bc.builtin(name) for name in bc.BUILTIN_NAMES}
        for path in sorted((PACKAGE_DIR / "data").glob("*.manifold")):
            bc.parse_manifold(path, strict=True)
        return State(bc, data, cli)

    def requests(self, state: State) -> list:
        rng = random.Random(self.seed)
        names = sorted(state.data)

        def chern(data, degrees):
            # Non-negative coordinates: the CLI's argparse reads a vector such
            # as "-1,2" as an option and exits 2, a known CLI defect.
            return [
                ",".join(str(rng.randint(0, SMALL_COORD)) for _ in range(data.ngens(d))) or "-"
                for d in degrees
            ]

        kinds = self.KINDS[:3] if self.tiny else self.KINDS * self.PER_KIND
        out = []
        for kind in kinds:
            name = rng.choice(names)
            data = state.data[name]
            shipped = str((PACKAGE_DIR / "data" / f"{name}.manifold").relative_to(ROOT))
            if kind == "validate":
                argv = ["validate", "--strict", shipped]
            elif kind == "rank4":
                argv = ["rank4", shipped, "--chern", *chern(data, (2, 4, 6, 8))]
            elif kind == "rank3":
                argv = ["rank3", "--builtin", name, "--chern", *chern(data, (2, 4, 6))]
            elif kind == "count":
                rank = rng.choice((3, 4))
                degrees = (2, 4, 6, 8)[:rank]
                argv = ["count", "--builtin", name, "--rank", str(rank), "--chern", *chern(data, degrees)]
            elif kind == "groups":
                argv = ["groups", "--builtin", name, "--chern", *chern(data, (2, 4, 6))]
            else:
                argv = ["oracle", "--builtin", name, "--chern", *chern(data, (2, 4, 6, 8))]
            out.append(argv)
        rng.shuffle(out)
        return out

    def expect(self, state: State, request):
        return self.run_in_process(state, request)

    def run(self, state: State, request):
        proc = subprocess.run(
            [sys.executable, "-m", state.cli.__name__, *cli_argv(request)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, first_line(proc.stdout)

    def run_in_process(self, state: State, request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state.cli.main(cli_argv(request))
        return code, first_line(out.getvalue())

    def check(self, request, reference, result) -> list[str]:
        if result != reference:
            return [f"{' '.join(request)}: got {result}, in-process answer {reference}"]
        return []


WORKLOADS = {w.name: w for w in (CensusCp4, QueriesMixed, Presentations, CliCold)}
