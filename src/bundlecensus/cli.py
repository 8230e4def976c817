"""Command-line surface.

Subcommands: validate, rank4, rank3, count, groups, oracle, enumerate.
Exit codes: 0 success / realizable, 1 unrealizable, 2 input error,
3 internal inconsistency (integrality of the mod-2 expression violated,
or census cross-check disagreement) or any other internal error, which is
reported in one line without a traceback: a crash never exits 0 or 1.

Chern classes are passed as one coordinate vector per degree, each vector
comma-separated, '-' for a degree with no generators, e.g.

    bundlecensus rank4 --builtin cp4 --chern 4 6 4 1
    bundlecensus rank4 --builtin cp2xcp2 --chern 1,0 0,1,0 0,0 0
"""

from __future__ import annotations

import argparse
import re
import sys

from .abelian import ContainmentError
from .census import enumerate_cp4
from .charclass import rr_value
from .classify import (
    InternalInconsistencyError,
    OddGeneratorsMissing,
    check_rank3,
    check_rank4,
    compute_T,
    count_classes,
)
from .cohomology import (
    ChernTuple,
    CohomologyClass,
    ManifoldData,
    ManifoldValidationError,
    MissingOperationError,
    validate_manifold,
)
from .fixtures import BUILTIN_NAMES, builtin
from .manifold_io import ManifoldParseError, parse_int, parse_manifold

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

MAX_CENSUS_TUPLES = 250_000
"""Largest coordinate box ``enumerate`` decides.  Every row of a census is
held in memory, about 260 bytes each, so the box is checked before any row
is built."""


def _add_source(parser: argparse.ArgumentParser, no_validate: bool = True) -> None:
    parser.add_argument("file", nargs="?", help="manifold description file")
    parser.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a built-in manifold")
    if no_validate:
        parser.add_argument(
            "--no-validate", action="store_true", help="skip validation after parsing"
        )


def _load(args: argparse.Namespace) -> ManifoldData:
    if args.builtin and args.file:
        raise ManifoldParseError("give either a file or --builtin, not both")
    if args.builtin:
        return builtin(args.builtin)
    if args.file:
        return parse_manifold(args.file, validate=not args.no_validate)
    raise ManifoldParseError("no input: give a file or --builtin NAME")


def _parse_vector(text: str, expected: int, degree: int) -> tuple[int, ...]:
    if text == "-":
        coords: tuple[int, ...] = ()
    else:
        try:
            coords = tuple(parse_int(t) for t in text.split(","))
        except ManifoldParseError:
            raise ManifoldParseError(f"bad coordinate vector {text!r}") from None
    if len(coords) != expected:
        raise ManifoldParseError(
            f"degree {degree} expects {expected} coordinates, got {len(coords)} in {text!r}"
        )
    return coords


def _chern_classes(data: ManifoldData, vectors: list[str], degrees: tuple[int, ...]):
    if len(vectors) != len(degrees):
        raise ManifoldParseError(
            f"--chern needs {len(degrees)} vectors (degrees {degrees}), got {len(vectors)}"
        )
    return [
        data.zclass(d, _parse_vector(v, data.ngens(d), d))
        for v, d in zip(vectors, degrees)
    ]


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


def cmd_validate(args: argparse.Namespace) -> int:
    data = _load(args)
    report = validate_manifold(data, strict=args.strict)
    print(f"manifold {data.name}")
    print(report)
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_rank4(args: argparse.Namespace) -> int:
    data = _load(args)
    verdict = check_rank4(data, ChernTuple(*_chern_classes(data, args.chern, (2, 4, 6, 8))))
    _print_verdict(data, verdict)
    return EXIT_OK if verdict.realizable else EXIT_UNREALIZABLE


def cmd_rank3(args: argparse.Namespace) -> int:
    data = _load(args)
    u1, u2, u3 = _chern_classes(data, args.chern, (2, 4, 6))
    verdict = check_rank3(data, u1, u2, u3)
    _print_verdict(data, verdict)
    return EXIT_OK if verdict.realizable else EXIT_UNREALIZABLE


def cmd_count(args: argparse.Namespace) -> int:
    data = _load(args)
    classes = _chern_classes(data, args.chern, (2, 4, 6, 8)[: args.rank])
    u = ChernTuple(*classes) if args.rank == 4 else tuple(classes)
    group = count_classes(data, u, args.rank)
    if group is None:
        print("unrealizable: no bundle has these Chern classes")
        return EXIT_UNREALIZABLE
    print(f"isomorphism classes with these Chern classes: {_group_str(group)}")
    return EXIT_OK


def cmd_groups(args: argparse.Namespace) -> int:
    data = _load(args)
    # everything that can fail runs before the first line is printed
    lines = [f"B = {_group_str(data.B)}"]
    if args.chern is not None:
        u1, u2, u3 = _chern_classes(data, args.chern, (2, 4, 6))
        lines.append(f"T = {_group_str(compute_T(data, u1, u2, u3))}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    data = _load(args)
    u = ChernTuple(*_chern_classes(data, args.chern, (2, 4, 6, 8)))
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


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.builtin != "cp4":
        raise ManifoldParseError("enumerate currently supports --builtin cp4 only")
    _check_census_box(args.bound, args.rank)
    result = enumerate_cp4(args.bound, args.rank)
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

    p = sub.add_parser("validate", help="check the algebraic laws of a manifold description")
    _add_source(p, no_validate=False)
    p.add_argument("--strict", action="store_true", help="also check Bockstein exactness")
    # a file is loaded unvalidated, so that the report lists every failed law
    p.set_defaults(func=cmd_validate, no_validate=True)

    p = sub.add_parser("rank4", help="decide rank-4 realizability of (u1, u2, u3, u4)")
    _add_source(p)
    p.add_argument("--chern", nargs=4, required=True, metavar="VEC")
    p.set_defaults(func=cmd_rank4)

    p = sub.add_parser("rank3", help="decide rank-3 realizability of (u1, u2, u3)")
    _add_source(p)
    p.add_argument("--chern", nargs=3, required=True, metavar="VEC")
    p.set_defaults(func=cmd_rank3)

    p = sub.add_parser("count", help="count isomorphism classes with given Chern classes")
    _add_source(p)
    p.add_argument("--rank", type=int, choices=(3, 4), required=True)
    p.add_argument("--chern", nargs="+", required=True, metavar="VEC")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("groups", help="print the counting groups B and, given --chern, T")
    _add_source(p)
    p.add_argument("--chern", nargs=3, metavar="VEC")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("oracle", help="print the exact rational Riemann-Roch value")
    _add_source(p)
    p.add_argument("--chern", nargs=4, required=True, metavar="VEC")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("enumerate", help="census of all tuples within a coefficient bound")
    p.add_argument("--builtin", default="cp4")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--rank", type=int, choices=(3, 4), required=True)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_enumerate)

    # argparse reads a token such as "-1,0" as an option: its pattern for a
    # negative number matches only "-<digits>".  No option here starts with
    # a digit, so every "-<digit>..." token is a coordinate vector.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (
        ManifoldParseError,
        ManifoldValidationError,
        MissingOperationError,
        ContainmentError,
        OddGeneratorsMissing,
        OSError,
        ValueError,
    ) as exc:
        if isinstance(exc, ManifoldValidationError):
            print(exc.report, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must not read as an answer, 0 or 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
