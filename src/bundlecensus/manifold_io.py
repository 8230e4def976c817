"""Line-oriented plain-text description of a ManifoldData.

The format is integer-only, '#' starts a comment, and every dimension is
explicit, so fixture files diff cleanly and round-trip bit-exactly.

Grammar (one production per line; lines may appear in any order except
that matrix rows follow their header and g-lines follow their oddgen):

    file      = { line } ;
    line      = header | integral | mod2 | names | matrix | cupline
              | vector | oddgen | comment | blank ;
    header    = "manifold" NAME ;
    integral  = "integral" DEG [ "free" NAT ] [ "torsion" NAT+ ] ;
    mod2      = "mod2" DEG "dim" NAT ;
    names     = "names" ( "z" | "m2" ) DEG NAME* ;
    matrix    = "map" OP DEG "rows" NAT "cols" NAT NEWLINE ROW{rows} ;
    OP        = "rho2" | "beta" | "sq2" ;
    ROW       = VEC ;                        (* exactly cols integers *)
    cupline   = ( "cup" | "cup2" ) DEG DEG NAT NAT "->" VEC ;
    vector    = ( "pairing" | "p1" | "spinc" | "w2" ) VEC ;
    oddgen    = "oddgen" [ "trivial" ]
                [ NEWLINE "g1" VEC NEWLINE "g3" VEC
                  NEWLINE "g5" VEC NEWLINE "g7" VEC ] ;
    VEC       = "-" | INT+ ;                 (* "-" = empty vector *)
    INT       = [ "-" ] NAT ;
    NAT       = ( "0" .. "9" )+ ;            (* ASCII digits only *)
    DEG       = "0" .. "8" ;

Degrees not declared are trivial.  Torsion factors must be >= 2 and form
a divisibility chain; torsion generators precede free ones.  Matrices are
target-by-source: row r, column c holds the coefficient of target
generator r in the image of source generator c ('-' stands for an empty
row).  "cup" lines give integral products of generator pairs, "cup2"
optional mod-2 products; a declared table must list every generator pair.
"manifold", "pairing", "p1" and "spinc" are mandatory sections.  An
absent oddgen section means the odd transgression data was not supplied;
"oddgen trivial" declares it known to be trivial.

The parser reads the text in one pass.  It checks the tokens, the
declared sizes (none above MAX_GENERATORS) and that a section appears
once per keyword and identifying tokens ("integral DEG", "names z|m2
DEG", "map OP DEG", "cup A B I J", ...; only oddgen blocks repeat, and
"free" appears once per integral line), and every ManifoldParseError but
a missing section names its line.  ``ManifoldData`` checks the shape
(``cohomology.shape_problems``: matrix sizes, complete cup tables, vector
lengths), which the parser reports on the first line of the section it
names, and stores the classes reduced.  ``parse_manifold`` also runs
``validate_manifold``, which checks the laws on the compiled form.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

from .abelian import FGAbelianGroup, IntMatrix
from .cohomology import (
    CohomologyClass,
    GradedGroupMod2,
    GradedGroupZ,
    ManifoldData,
    ManifoldShapeError,
    ManifoldValidationError,
    TOP_DEGREE,
    _OP_SPECS,
    validate_manifold,
)

_INT = re.compile("-?[0-9]+")

MAX_GENERATORS = 256
"""Largest free rank, number of torsion factors or mod-2 dimension a file
may declare for one degree.  Declared sizes are checked against it before
anything of that size is built, so a file cannot ask for unbounded memory."""


class ManifoldParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line that is neither blank nor a comment."""
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield number, tokens


def parse_int(token: str, line: int | None = None) -> int:
    """An INT token: an optional '-' and ASCII digits, nothing else."""
    if not _INT.fullmatch(token):
        raise ManifoldParseError(f"expected an integer, got {token!r}", line)
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        digits = len(token.lstrip("-"))
        raise ManifoldParseError(f"integer of {digits} digits is too long", line) from None


def _vec(tokens: list[str], line: int) -> tuple[int, ...]:
    if not tokens:
        raise ManifoldParseError("expected a coordinate vector or '-'", line)
    return () if tokens == ["-"] else tuple(parse_int(t, line) for t in tokens)


def _degree(token: str, line: int) -> int:
    d = parse_int(token, line)
    if not 0 <= d <= TOP_DEGREE:
        raise ManifoldParseError(f"degree {d} out of range 0..8", line)
    return d


def _nat(what: str, token: str, line: int) -> int:
    n = parse_int(token, line)
    if n < 0:
        raise ManifoldParseError(f"{what} must be nonnegative, got {n}", line)
    return n


def _check_size(what: str, size: int, line: int) -> None:
    if size > MAX_GENERATORS:
        raise ManifoldParseError(f"{what} {size} exceeds the limit of {MAX_GENERATORS}", line)


def _integral(words: list[str], line: int) -> tuple[int, ...]:
    """The invariant factors an integral line's words after its degree
    declare: its torsion factors, then a 0 per free generator."""
    free, torsion = None, ()
    words = iter(words)
    for word in words:
        if word == "free":
            if free is not None:
                raise ManifoldParseError("free rank given twice", line)
            free = parse_int(next(words, "-1"), line)  # a missing rank reads as -1
            if free < 0:
                raise ManifoldParseError("free rank must be a nonnegative integer", line)
            _check_size("free rank", free, line)
        elif word == "torsion":
            tokens = list(words)
            _check_size("number of torsion factors", len(tokens), line)
            torsion = tuple(parse_int(t, line) for t in tokens)
            if not torsion:
                raise ManifoldParseError("torsion needs at least one factor", line)
            if any(d < 2 for d in torsion):
                raise ManifoldParseError("torsion factors must be >= 2", line)
        else:
            raise ManifoldParseError(f"unexpected token {word!r}", line)
    return torsion + (0,) * (free or 0)


def _matrix(lines: Iterator, what: str, rows: int, cols: int, line: int) -> IntMatrix:
    """The rows of a map block, read from the lines after its header on ``line``."""
    entries: list[int] = []
    for _ in range(rows):
        number, tokens = next(lines, (None, None))
        if number is None:
            raise ManifoldParseError(f"{what}: expected {rows} matrix rows", line)
        row = _vec(tokens, number)
        if len(row) != cols:
            raise ManifoldParseError(f"{what}: matrix row has {len(row)} entries, expected {cols}", number)
        entries.extend(row)
    return IntMatrix(rows, cols, entries)


def parse_manifold_text(text: str) -> ManifoldData:
    """Parse a manifold description; every error but a missing section names its line."""
    lines = _lines(text)
    first: dict[tuple, int] = {}  # each section's line; ("oddgen", block, K): its gK line
    name, odd = None, None  # odd: the oddgen blocks, None when there is no oddgen section
    factors, dims = [()] * (TOP_DEGREE + 1), [0] * (TOP_DEGREE + 1)
    names: dict[tuple[str, int], tuple[str, ...]] = {}  # (ring, degree) -> generator names
    matrices: dict[str, dict[int, IntMatrix]] = {op: {} for op in _OP_SPECS}
    cups: dict[str, dict] = {"cup": {}, "cup2": {}}  # keyword -> (a, b) -> (i, j) -> coords
    vectors: dict[str, tuple[int, ...]] = {}

    def once(number: int, *section) -> None:  # checked before the rest of the line is read
        if section in first:
            what = " ".join(map(str, section))
            raise ManifoldParseError(f"duplicate {what} (first on line {first[section]})", number)
        first[section] = number

    for number, (key, *rest) in lines:
        if key == "manifold":
            if len(rest) != 1:
                raise ManifoldParseError("manifold header takes exactly one name", number)
            once(number, key)
            name = rest[0]
        elif key == "integral":
            if not rest:
                raise ManifoldParseError("integral line needs a degree", number)
            deg = _degree(rest[0], number)
            once(number, key, deg)
            factors[deg] = _integral(rest[1:], number)
        elif key == "mod2":
            if len(rest) != 3 or rest[1] != "dim":
                raise ManifoldParseError("expected: mod2 DEG dim D", number)
            deg = _degree(rest[0], number)
            once(number, key, deg)
            dims[deg] = _nat("mod-2 dimension", rest[2], number)
            _check_size("mod-2 dimension", dims[deg], number)
        elif key == "names":
            if len(rest) < 2 or rest[0] not in ("z", "m2"):
                raise ManifoldParseError("expected: names z|m2 DEG NAME...", number)
            ring, deg = rest[0], _degree(rest[1], number)
            once(number, key, ring, deg)
            names[ring, deg] = tuple(rest[2:])
        elif key == "map":
            if len(rest) != 6 or rest[2] != "rows" or rest[4] != "cols":
                raise ManifoldParseError("expected: map OP DEG rows R cols C", number)
            op = rest[0]
            if op not in _OP_SPECS:
                raise ManifoldParseError(f"unknown operation {op!r}", number)
            deg = _degree(rest[1], number)
            once(number, key, op, deg)
            rows, cols = _nat("rows", rest[3], number), _nat("cols", rest[5], number)
            matrices[op][deg] = _matrix(lines, f"{op} at degree {deg}", rows, cols, number)
        elif key in ("cup", "cup2"):
            if len(rest) < 5 or rest[4] != "->":
                raise ManifoldParseError(f"expected: {key} A B I J -> VEC", number)
            a, b = _degree(rest[0], number), _degree(rest[1], number)
            i, j = parse_int(rest[2], number), parse_int(rest[3], number)
            once(number, key, a, b, i, j)
            cups[key].setdefault((a, b), {})[i, j] = _vec(rest[5:], number)
        elif key in ("pairing", "p1", "spinc", "w2"):
            once(number, key)
            vectors[key] = _vec(rest, number)
        elif key == "oddgen":
            if not odd or rest == ["trivial"]:  # only oddgen blocks repeat
                once(number, key)
            odd = odd or []
            if rest == ["trivial"]:
                continue
            if rest:
                raise ManifoldParseError("expected: oddgen  (or: oddgen trivial)", number)
            block = []
            for deg in (1, 3, 5, 7):
                g_number, g_tokens = next(lines, (None, [None]))
                if g_tokens[0] != f"g{deg}":
                    raise ManifoldParseError(f"oddgen block needs a g{deg} line", number)
                first["oddgen", len(odd), deg] = g_number
                block.append(CohomologyClass(deg, "Z", _vec(g_tokens[1:], g_number)))
            odd.append(tuple(block))
        else:
            raise ManifoldParseError(f"unknown keyword {key!r}", number)

    for mandatory in ("manifold", "pairing", "p1", "spinc"):
        if (mandatory,) not in first:
            raise ManifoldParseError(f"missing section: {mandatory}")

    def named(ring: str, n: int, count: int, counted: str) -> tuple[str, ...]:
        given = names.get((ring, n), tuple(f"{ring[0]}{n}_{i}" for i in range(count)))
        if len(given) != count:
            message = f"names {ring} {n}: {len(given)} names for {counted}"
            raise ManifoldParseError(message, first["names", ring, n])
        return given

    groups, znames = [], []
    for n in range(TOP_DEGREE + 1):
        try:
            groups.append(FGAbelianGroup(factors[n]))
        except ValueError as exc:
            raise ManifoldParseError(f"integral degree {n}: {exc}", first["integral", n]) from None
        count = groups[n].num_generators
        znames.append(named("z", n, count, f"{count} generators"))
    mnames = [named("m2", n, d, f"dimension {d}") for n, d in enumerate(dims)]
    try:
        return ManifoldData(
            name=name,
            integral=GradedGroupZ(tuple(groups), tuple(znames)),
            mod2=GradedGroupMod2(tuple(dims), tuple(mnames)),
            cup_z=cups["cup"],
            cup_m2=cups["cup2"],
            **matrices,
            pairing=vectors["pairing"],
            p1=CohomologyClass(4, "Z", vectors["p1"]),
            spinc_class=CohomologyClass(2, "Z", vectors["spinc"]),
            w2=CohomologyClass(2, "Z2", vectors["w2"]) if "w2" in vectors else None,
            odd_generators=None if odd is None else tuple(odd),
        )
    except ManifoldShapeError as exc:  # on its section's first line, a whole table's too
        line = min(n for s, n in first.items() if s[: len(exc.section)] == exc.section)
        raise ManifoldParseError(str(exc), line) from None


def parse_manifold(path, strict: bool = False) -> ManifoldData:
    """Parse a manifold file and validate its laws (``parse_manifold_text`` does not)."""
    data = parse_manifold_text(Path(path).read_text())
    report = validate_manifold(data, strict=True) if strict else data.report
    if not report.ok:
        raise ManifoldValidationError(report)
    return data


def _fmt_vec(coords) -> str:
    return " ".join(str(int(c)) for c in coords) if len(coords) else "-"


def _fmt_names(field: str, names) -> str:
    for name in names:
        if name.split() != [name] or "#" in name:
            raise ValueError(f"{field}: {name!r} is not a name: empty, or with whitespace or '#'")
    return " ".join(names)


def serialize_manifold(data: ManifoldData) -> str:
    """Render data in the file format; parsing the result reproduces it, so a
    name that is not one token of it raises ``ValueError`` naming its field."""
    out: list[str] = [f"manifold {_fmt_names('name', [data.name])}", ""]
    for n in range(TOP_DEGREE + 1):
        group = data.group(n)
        if group.is_trivial:
            continue
        torsion = " ".join(str(d) for d in group.invariant_factors if d)
        free = group.invariant_factors.count(0)
        out.append(f"integral {n} free {free}" + (f" torsion {torsion}" if torsion else ""))
        out.append(f"names z {n} " + _fmt_names(f"integral.names[{n}]", data.integral.names[n]))
    for n in range(TOP_DEGREE + 1):
        if data.m2dim(n):
            out.append(f"mod2 {n} dim {data.m2dim(n)}")
            out.append(f"names m2 {n} " + _fmt_names(f"mod2.names[{n}]", data.mod2.names[n]))
    out.append("")
    for op in _OP_SPECS:
        for deg, matrix in sorted(getattr(data, op).items()):
            out.append(f"map {op} {deg} rows {matrix.rows} cols {matrix.cols}")
            out.extend(_fmt_vec(matrix.row(i)) for i in range(matrix.rows))
    out.append("")
    for keyword, tables in (("cup", data.cup_z), ("cup2", data.cup_m2)):
        for (a, b), table in sorted(tables.items()):
            for (i, j), coords in sorted(table.items()):
                out.append(f"{keyword} {a} {b} {i} {j} -> {_fmt_vec(coords)}")
    out += ["", f"pairing {_fmt_vec(data.pairing)}", f"p1 {_fmt_vec(data.p1.coords)}"]
    out.append(f"spinc {_fmt_vec(data.spinc_class.coords)}")
    if data.w2 is not None:
        out.append(f"w2 {_fmt_vec(data.w2.coords)}")
    if data.odd_generators is not None:
        if not data.odd_generators:
            out.append("oddgen trivial")
        for quad in data.odd_generators:
            out.append("oddgen")
            for cls, label in zip(quad, ("g1", "g3", "g5", "g7")):
                out.append(f"{label} {_fmt_vec(cls.coords)}")
    out.append("")
    return "\n".join(out)
