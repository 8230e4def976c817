"""Command-line surface.

Subcommands: validate, rank4, rank3, count, groups, oracle, enumerate.
Exit codes: 0 success / realizable, 1 unrealizable, 2 input error, which
includes data that fails a law (``validate`` prints which), 3 a census
cross-check disagreement or any other internal error, which is reported in
one line without a traceback: a crash never exits 0 or 1.

A question enters one way, in ``main``, for every subcommand.  ``_load``
reads the manifold: a file parsed unvalidated, so that ``validate`` can list
every failed law, or a builtin as shipped.  Every other subcommand then
needs its report to pass, or exits 2 with the report on stderr.  The
``--chern`` vectors are parsed for the degrees of its rank, and the handler
answers from the data and those classes.

Chern classes are passed as one coordinate vector per degree, each vector
comma-separated, '-' for a degree with no generators, e.g.

    bundlecensus rank4 --builtin cp4 --chern 4 6 4 1
    bundlecensus rank4 --builtin cp2xcp2 --chern 1,0 0,1,0 0,0 0
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .census import enumerate_cp4
from .charclass import rr_value
from .classify import OddGeneratorsMissing, check_rank3, check_rank4, compute_T, count_classes
from .cohomology import (
    ChernTuple,
    CohomologyClass,
    ManifoldData,
    ManifoldValidationError,
    validate_manifold,
)
from .fixtures import BUILTIN_NAMES, builtin
from .manifold_io import ManifoldParseError, parse_int, parse_manifold_text

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

MAX_CENSUS_TUPLES = 250_000
"""Largest coordinate box ``enumerate`` decides.  Every row of a census is
held in memory, about 260 bytes each, so the box is checked before any row
is built."""


def _load(args: argparse.Namespace) -> ManifoldData:
    if args.builtin and args.file:
        raise ManifoldParseError("give either a file or --builtin, not both")
    if args.builtin:
        return builtin(args.builtin)
    if args.file:
        return parse_manifold_text(Path(args.file).read_text())
    raise ManifoldParseError("no input: give a file or --builtin NAME")


# A --chern vector whose repr is longer is described in errors, not echoed.
_ECHO_LIMIT = 100


def _parse_vector(text: str, expected: int, degree: int) -> tuple[int, ...]:
    tokens = [] if text == "-" else text.split(",")
    shown = repr(text) if len(repr(text)) <= _ECHO_LIMIT else None
    coords = []
    for k, token in enumerate(tokens, 1):
        try:
            coords.append(parse_int(token))
        except ManifoldParseError:
            raise ManifoldParseError(
                f"bad coordinate vector {shown}" if shown else
                f"bad coordinate vector for degree {degree}: entry {k} of {len(tokens)}"
                f" (length {len(token)}) is not an accepted integer"
            ) from None
    if len(coords) != expected:
        raise ManifoldParseError(
            f"degree {degree} expects {expected} coordinates, got {len(coords)}"
            + (f" in {shown}" if shown else f" in a vector of length {len(text)}")
        )
    return tuple(coords)


def _chern_classes(data: ManifoldData, vectors: list[str], rank: int):
    """The classes of degrees 2, 4, ..., 2 * rank: a ``ChernTuple`` at rank 4, else a tuple."""
    degrees = (2, 4, 6, 8)[:rank]
    if len(vectors) != len(degrees):
        raise ManifoldParseError(
            f"--chern needs {len(degrees)} vectors (degrees {degrees}), got {len(vectors)}"
        )
    classes = [data.zclass(d, _parse_vector(v, data.ngens(d), d)) for v, d in zip(vectors, degrees)]
    return ChernTuple(*classes) if rank == 4 else tuple(classes)


def _class_str(data: ManifoldData, cls: CohomologyClass) -> str:
    names = (
        data.integral.names[cls.degree] if cls.ring == "Z" else data.mod2.names[cls.degree]
    )
    parts = [
        (name if c == 1 else f"{c}*{name}")
        for c, name in zip(cls.coords, names)
        if c
    ]
    return " + ".join(parts) if parts else "0"


def _print_verdict(data: ManifoldData, verdict) -> None:
    c1 = verdict.condition1

    def mark(ok):
        return "PASS" if ok else "FAIL"

    print(
        f"condition (1)  Sq^2 rho2(u2) == rho2(u3 + u1*u2): {mark(c1.passed)}"
        f"   [lhs = {_class_str(data, c1.lhs)}, rhs = {_class_str(data, c1.rhs)}]"
    )
    if verdict.condition2 is None:
        print("condition (2)  skipped (condition (1) failed)")
        print("condition (3)  skipped (condition (1) failed)")
    else:
        c2 = verdict.condition2
        print(
            f"condition (2)  <u4,[M]> == <p1*u2 - u1^2*u2 + u1*u3 - u2^2,[M]> mod 3: "
            f"{mark(c2.passed)}   [{c2.lhs_value} vs {c2.rhs_value}: {c2.lhs_mod3} vs {c2.rhs_mod3} mod 3]"
        )
        c3 = verdict.condition3
        print(
            f"condition (3)  mod-2 congruence, exact right-hand side {c3.rhs_exact}: "
            f"{mark(c3.passed)}   [{c3.lhs_mod2} vs {c3.rhs_mod2} mod 2]"
        )
    print(f"realizable (rank {verdict.rank}): {'yes' if verdict.realizable else 'no'}")


def _group_str(group) -> str:
    order = group.order()
    size = "infinitely many" if order is None else str(order)
    return f"{group}   [{size} element(s)]"


def cmd_validate(args: argparse.Namespace, data: ManifoldData, u) -> int:
    report = validate_manifold(data, strict=args.strict)
    print(f"manifold {data.name}")
    print(report)
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_decide(args: argparse.Namespace, data: ManifoldData, u) -> int:
    verdict = check_rank4(data, u) if args.rank == 4 else check_rank3(data, *u)
    _print_verdict(data, verdict)
    return EXIT_OK if verdict.realizable else EXIT_UNREALIZABLE


def cmd_count(args: argparse.Namespace, data: ManifoldData, u) -> int:
    group = count_classes(data, u, args.rank)
    if group is None:
        print("unrealizable: no bundle has these Chern classes")
        return EXIT_UNREALIZABLE
    print(f"isomorphism classes with these Chern classes: {_group_str(group)}")
    return EXIT_OK


def cmd_groups(args: argparse.Namespace, data: ManifoldData, u) -> int:
    # everything that can fail runs before the first line is printed
    lines = [f"B = {_group_str(data.B)}"]
    if u is not None:
        lines.append(f"T = {_group_str(compute_T(data, *u))}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace, data: ManifoldData, u) -> int:
    value = rr_value(data, u, self_check=True)
    note = "integer" if value.denominator == 1 else "not an integer: no bundle realizes this tuple"
    print(f"{value}   ({note})")
    return EXIT_OK


def _check_census_box(bound: int, rank: int) -> None:
    """Reject a cp4 box of more than MAX_CENSUS_TUPLES tuples; a negative
    bound is left to ``enumerate_cp4`` to reject."""
    if bound >= 0 and (2 * bound + 1) ** rank > MAX_CENSUS_TUPLES:
        raise ManifoldParseError(
            f"--bound {bound} --rank {rank}: the box has more than the limit of "
            f"{MAX_CENSUS_TUPLES} tuples"
        )


def cmd_enumerate(args: argparse.Namespace, data: ManifoldData, u) -> int:
    if args.builtin != "cp4":
        raise ManifoldParseError("enumerate currently supports --builtin cp4 only")
    _check_census_box(args.bound, args.rank)
    result = enumerate_cp4(args.bound, args.rank, data)
    realizable = result.realizable()
    disagreements = result.disagreements()
    header = [f"a{i}" for i in range(1, args.rank + 1)]
    if args.format == "csv":
        print(",".join(header))
        for coeffs in realizable:
            print(",".join(str(c) for c in coeffs))
        summary = sys.stderr
    else:
        print(f"census: rank {args.rank} Chern tuples on cp4 with |a_i| <= {args.bound}")
        print("  " + "".join(f"{h:>6}" for h in header))
        for coeffs in realizable:
            print("  " + "".join(f"{c:>6}" for c in coeffs))
        summary = sys.stdout
    print(
        f"realizable: {len(realizable)} of {len(result.rows)} tuples; "
        f"cross-check disagreements: {len(disagreements)}",
        file=summary,
    )
    if disagreements:
        for coeffs in disagreements[:20]:
            print(f"disagreement at {coeffs}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlecensus",
        description=(
            "Decide which Chern classes arise from rank 3 and 4 complex vector "
            "bundles over a closed oriented 8-dimensional spin^c manifold, and "
            "count the isomorphism classes realizing them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def question(name: str, func, help: str, rank: int | None = None) -> argparse.ArgumentParser:
        """A subcommand that asks about a manifold; its --chern vectors are of degrees up to 2 * rank."""
        p = sub.add_parser(name, help=help)
        p.add_argument("file", nargs="?", help="manifold description file")
        p.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a built-in manifold")
        p.set_defaults(func=func, rank=rank, chern=None)
        return p

    p = question("validate", cmd_validate, "check the algebraic laws of a manifold description")
    p.add_argument("--strict", action="store_true", help="also check Bockstein exactness")
    p = question("rank4", cmd_decide, "decide rank-4 realizability of (u1, u2, u3, u4)", 4)
    p.add_argument("--chern", nargs=4, required=True, metavar="VEC")
    p = question("rank3", cmd_decide, "decide rank-3 realizability of (u1, u2, u3)", 3)
    p.add_argument("--chern", nargs=3, required=True, metavar="VEC")
    p = question("count", cmd_count, "count isomorphism classes with given Chern classes")
    p.add_argument("--rank", type=int, choices=(3, 4), required=True)
    p.add_argument("--chern", nargs="+", required=True, metavar="VEC")
    p = question("groups", cmd_groups, "print the counting groups B and, given --chern, T", 3)
    p.add_argument("--chern", nargs=3, metavar="VEC")
    p = question("oracle", cmd_oracle, "print the exact rational Riemann-Roch value", 4)
    p.add_argument("--chern", nargs=4, required=True, metavar="VEC")

    p = sub.add_parser("enumerate", help="census of all tuples within a coefficient bound")
    p.add_argument("--builtin", default="cp4")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--rank", type=int, choices=(3, 4), required=True)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_enumerate, file=None, chern=None)

    # argparse reads a token such as "-1,0" as an option: its pattern for a
    # negative number matches only "-<digits>".  No option here starts with
    # a digit, so every "-<digit>..." token is a coordinate vector.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = _load(args)
        if args.command != "validate" and not data.report.ok:
            raise ManifoldValidationError(data.report)
        u = None if args.chern is None else _chern_classes(data, args.chern, args.rank)
        return args.func(args, data, u)
    except (OddGeneratorsMissing, OSError, ValueError) as exc:  # a missing table fails at load
        if isinstance(exc, ManifoldValidationError):
            print(exc.report, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must not read as an answer, 0 or 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
