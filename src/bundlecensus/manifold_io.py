"""Line-oriented plain-text description of a ManifoldData.

The format is integer-only, '#' starts a comment, and every dimension is
explicit, so fixture files diff cleanly and round-trip bit-exactly.

Grammar (one production per line; lines may appear in any order except
that matrix rows follow their header and g-lines follow their oddgen):

    file      = { line } ;
    line      = header | integral | mod2 | names | matrix | cupline
              | pairing | p1 | spinc | w2 | oddgen | comment | blank ;
    header    = "manifold" NAME ;
    integral  = "integral" DEG [ "free" NAT ] [ "torsion" NAT+ ] ;
    mod2      = "mod2" DEG "dim" NAT ;
    names     = "names" ( "z" | "m2" ) DEG NAME* ;
    matrix    = "map" OP DEG "rows" NAT "cols" NAT NEWLINE ROW{rows} ;
    OP        = "rho2" | "beta" | "sq2" ;
    ROW       = VEC ;                        (* exactly cols integers *)
    cupline   = ( "cup" | "cup2" ) DEG DEG NAT NAT "->" VEC ;
    pairing   = "pairing" VEC ;
    p1        = "p1" VEC ;
    spinc     = "spinc" VEC ;
    w2        = "w2" VEC ;
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
"oddgen trivial" declares it known to be trivial.  A section appears
once per keyword and identifying tokens ("integral DEG", "names z|m2
DEG", "map OP DEG", "cup A B I J", ...); only oddgen blocks repeat.
"free" appears at most once on an integral line.  A free rank, a number
of torsion factors or a mod-2 dimension above MAX_GENERATORS is
rejected.  The shape rules (matrix sizes, complete cup tables, vector
lengths) are ``cohomology.shape_problems``, which the ``ManifoldData``
constructor checks; the parser reports its ``ManifoldShapeError`` on the
first line of the section it names.  Every ManifoldParseError except a
missing section names its line.
"""

from __future__ import annotations

import re
from pathlib import Path

from .abelian import FGAbelianGroup, IntMatrix
from .cohomology import (
    CohomologyClass,
    CupTable,
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


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((number, body.split()))
    return out


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
    if tokens == ["-"]:
        return ()
    if not tokens:
        raise ManifoldParseError("expected a coordinate vector or '-'", line)
    return tuple(parse_int(t, line) for t in tokens)


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


def parse_manifold_text(text: str) -> ManifoldData:
    """Parse a manifold description; every error but a missing section names its line."""
    lines = _tokenize(text)
    # (keyword, identifying tokens...) -> (line number, value); oddgen maps to
    # None, and ("oddgen", block, K) to the coordinates on that block's gK line
    sections: dict[tuple, tuple[int, object]] = {}
    blocks = 0  # oddgen blocks read

    def once(number: int, *section) -> tuple:
        """Each section may appear once; checked before the rest of its line is read."""
        if section in sections:
            raise ManifoldParseError(
                f"duplicate {' '.join(map(str, section))} (first on line {sections[section][0]})",
                number,
            )
        return section

    idx = 0
    while idx < len(lines):
        number, (key, *rest) = lines[idx]
        idx += 1
        if key == "manifold":
            if len(rest) != 1:
                raise ManifoldParseError("manifold header takes exactly one name", number)
            sections[once(number, key)] = (number, rest[0])
        elif key == "integral":
            if not rest:
                raise ManifoldParseError("integral line needs a degree", number)
            section = once(number, key, _degree(rest[0], number))
            free, torsion = None, ()
            pos = 1
            while pos < len(rest):
                if rest[pos] == "free":
                    if free is not None:
                        raise ManifoldParseError("free rank given twice", number)
                    free = parse_int(rest[pos + 1], number) if pos + 1 < len(rest) else -1
                    if free < 0:
                        raise ManifoldParseError("free rank must be a nonnegative integer", number)
                    _check_size("free rank", free, number)
                    pos += 2
                elif rest[pos] == "torsion":
                    _check_size("number of torsion factors", len(rest) - pos - 1, number)
                    torsion = tuple(parse_int(t, number) for t in rest[pos + 1 :])
                    if not torsion:
                        raise ManifoldParseError("torsion needs at least one factor", number)
                    if any(d < 2 for d in torsion):
                        raise ManifoldParseError("torsion factors must be >= 2", number)
                    pos = len(rest)
                else:
                    raise ManifoldParseError(f"unexpected token {rest[pos]!r}", number)
            sections[section] = (number, (free or 0, torsion))
        elif key == "mod2":
            if len(rest) != 3 or rest[1] != "dim":
                raise ManifoldParseError("expected: mod2 DEG dim D", number)
            section = once(number, key, _degree(rest[0], number))
            size = _nat("mod-2 dimension", rest[2], number)
            _check_size("mod-2 dimension", size, number)
            sections[section] = (number, size)
        elif key == "names":
            if len(rest) < 2 or rest[0] not in ("z", "m2"):
                raise ManifoldParseError("expected: names z|m2 DEG NAME...", number)
            sections[once(number, key, rest[0], _degree(rest[1], number))] = (number, tuple(rest[2:]))
        elif key == "map":
            if len(rest) != 6 or rest[2] != "rows" or rest[4] != "cols":
                raise ManifoldParseError("expected: map OP DEG rows R cols C", number)
            op = rest[0]
            if op not in _OP_SPECS:
                raise ManifoldParseError(f"unknown operation {op!r}", number)
            deg = _degree(rest[1], number)
            section = once(number, key, op, deg)
            rows = _nat("rows", rest[3], number)
            cols = _nat("cols", rest[5], number)
            entries: list[int] = []
            for _ in range(rows):
                if idx >= len(lines):
                    raise ManifoldParseError(f"{op} at degree {deg}: expected {rows} matrix rows", number)
                row_number, row_tokens = lines[idx]
                idx += 1
                row = _vec(row_tokens, row_number)
                if len(row) != cols:
                    raise ManifoldParseError(
                        f"{op} at degree {deg}: matrix row has {len(row)} entries, expected {cols}",
                        row_number,
                    )
                entries.extend(row)
            sections[section] = (number, IntMatrix(rows, cols, tuple(entries)))
        elif key in ("cup", "cup2"):
            if len(rest) < 5 or rest[4] != "->":
                raise ManifoldParseError(f"expected: {key} A B I J -> VEC", number)
            a = _degree(rest[0], number)
            b = _degree(rest[1], number)
            i = parse_int(rest[2], number)
            j = parse_int(rest[3], number)
            section = once(number, key, a, b, i, j)
            sections[section] = (number, _vec(rest[5:], number))
        elif key in ("pairing", "p1", "spinc", "w2"):
            section = once(number, key)
            sections[section] = (number, _vec(rest, number))
        elif key == "oddgen":
            if not blocks or rest == ["trivial"]:  # only oddgen blocks repeat
                sections[once(number, key)] = (number, None)
            if rest == ["trivial"]:
                continue
            if rest:
                raise ManifoldParseError("expected: oddgen  (or: oddgen trivial)", number)
            for deg in (1, 3, 5, 7):
                if idx >= len(lines) or lines[idx][1][0] != f"g{deg}":
                    raise ManifoldParseError(f"oddgen block needs a g{deg} line", number)
                g_number, g_tokens = lines[idx]
                idx += 1
                sections[("oddgen", blocks, deg)] = (g_number, _vec(g_tokens[1:], g_number))
            blocks += 1
        else:
            raise ManifoldParseError(f"unknown keyword {key!r}", number)

    for mandatory in ("manifold", "pairing", "p1", "spinc"):
        if (mandatory,) not in sections:
            raise ManifoldParseError(f"missing section: {mandatory}")

    def names(ring: str, n: int, count: int, counted: str) -> tuple[str, ...]:
        number, given = sections.get(("names", ring, n), (None, None))
        if given is not None and len(given) != count:
            raise ManifoldParseError(f"names {ring} {n}: {len(given)} names for {counted}", number)
        return given or tuple(f"{ring[0]}{n}_{i}" for i in range(count))

    groups, znames = [], []
    for n in range(TOP_DEGREE + 1):
        number, (free, torsion) = sections.get(("integral", n), (None, (0, ())))
        try:
            group = FGAbelianGroup(torsion + (0,) * free)
        except ValueError as exc:
            raise ManifoldParseError(f"integral degree {n}: {exc}", number) from None
        groups.append(group)
        znames.append(names("z", n, group.num_generators, f"{group.num_generators} generators"))
    dims = [sections.get(("mod2", n), (None, 0))[1] for n in range(TOP_DEGREE + 1)]
    mnames = [names("m2", n, d, f"dimension {d}") for n, d in enumerate(dims)]

    matrices: dict[str, dict[int, IntMatrix]] = {op: {} for op in _OP_SPECS}
    for section in sorted(s for s in sections if s[0] == "map"):
        _, op, deg = section
        matrices[op][deg] = sections[section][1]

    def tables(kind: str) -> dict[tuple[int, int], CupTable]:
        by_pair: dict[tuple[int, int], CupTable] = {}  # entries in file order
        for section, (_, coords) in sections.items():
            if section[0] == kind:
                _, a, b, i, j = section
                by_pair.setdefault((a, b), {})[(i, j)] = coords
        return dict(sorted(by_pair.items()))

    def zclass(degree: int, coords: tuple[int, ...]) -> CohomologyClass:
        """Classes are stored reduced; one of the wrong length is left for the constructor."""
        group = groups[degree]
        if len(coords) == group.num_generators:
            coords = group.reduce(coords)
        return CohomologyClass(degree, "Z", coords)

    w2 = sections.get(("w2",))
    try:
        return ManifoldData(
            name=sections[("manifold",)][1],
            integral=GradedGroupZ(tuple(groups), tuple(znames)),
            mod2=GradedGroupMod2(tuple(dims), tuple(mnames)),
            cup_z=tables("cup"),
            cup_m2=tables("cup2"),
            **matrices,
            pairing=sections[("pairing",)][1],
            p1=zclass(4, sections[("p1",)][1]),
            spinc_class=zclass(2, sections[("spinc",)][1]),
            w2=None if w2 is None else CohomologyClass(2, "Z2", tuple(x % 2 for x in w2[1])),
            odd_generators=None if ("oddgen",) not in sections else tuple(
                tuple(zclass(deg, sections[("oddgen", q, deg)][1]) for deg in (1, 3, 5, 7))
                for q in range(blocks)
            ),
        )
    except ManifoldShapeError as exc:
        numbers = [n for s, (n, _) in sections.items() if s[: len(exc.section)] == exc.section]
        raise ManifoldParseError(str(exc), min(numbers)) from None  # a whole table's first line


def parse_manifold(path, strict: bool = False) -> ManifoldData:
    """Parse a manifold file and validate its laws (``parse_manifold_text`` does not)."""
    data = parse_manifold_text(Path(path).read_text())
    report = validate_manifold(data, strict=strict)
    if not report.ok:
        raise ManifoldValidationError(report)
    return data


def _fmt_vec(coords) -> str:
    return " ".join(str(int(c)) for c in coords) if len(coords) else "-"


def serialize_manifold(data: ManifoldData) -> str:
    """Render data in the file format; parsing the result reproduces it."""
    out: list[str] = [f"manifold {data.name}", ""]
    for n in range(TOP_DEGREE + 1):
        group = data.group(n)
        if group.is_trivial:
            continue
        torsion = [d for d in group.invariant_factors if d]
        free = group.num_generators - len(torsion)
        line = f"integral {n} free {free}"
        if torsion:
            line += " torsion " + " ".join(str(d) for d in torsion)
        out.append(line)
        out.append(f"names z {n} " + " ".join(data.integral.names[n]))
    for n in range(TOP_DEGREE + 1):
        if data.m2dim(n):
            out.append(f"mod2 {n} dim {data.m2dim(n)}")
            out.append(f"names m2 {n} " + " ".join(data.mod2.names[n]))
    out.append("")
    for op in _OP_SPECS:
        for deg, matrix in sorted(getattr(data, op).items()):
            out.append(f"map {op} {deg} rows {matrix.rows} cols {matrix.cols}")
            for i in range(matrix.rows):
                out.append(_fmt_vec(matrix.row(i)))
    out.append("")
    for keyword, tables in (("cup", data.cup_z), ("cup2", data.cup_m2)):
        for (a, b), table in sorted(tables.items()):
            for (i, j), coords in sorted(table.items()):
                out.append(f"{keyword} {a} {b} {i} {j} -> {_fmt_vec(coords)}")
    out.append("")
    out.append(f"pairing {_fmt_vec(data.pairing)}")
    out.append(f"p1 {_fmt_vec(data.p1.coords)}")
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
