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
A free rank, a number of torsion factors or a mod-2 dimension above
MAX_GENERATORS is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .abelian import FGAbelianGroup, IntMatrix
from .cohomology import (
    CohomologyClass,
    CupTable,
    GradedGroupMod2,
    GradedGroupZ,
    ManifoldData,
    ManifoldValidationError,
    TOP_DEGREE,
    validate_manifold,
)

_OPS = ("rho2", "beta", "sq2")
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


@dataclass
class _Line:
    number: int
    tokens: list[str]


def _tokenize(text: str) -> list[_Line]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append(_Line(number, body.split()))
    return out


def parse_int(token: str, line: int | None = None) -> int:
    """An INT token: an optional '-' and ASCII digits, nothing else."""
    if not _INT.fullmatch(token):
        raise ManifoldParseError(f"expected an integer, got {token!r}", line)
    return int(token)


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
    """Parse a manifold description; structural errors carry line numbers."""
    lines = _tokenize(text)

    name: str | None = None
    integral_decl: dict[int, tuple[int, tuple[int, ...]]] = {}
    mod2_decl: dict[int, int] = {}
    names: dict[tuple[str, int], tuple[tuple[str, ...], int]] = {}
    maps: dict[tuple[str, int], tuple[IntMatrix, int]] = {}
    cup_decl: dict[str, dict[tuple[int, int], dict[tuple[int, int], tuple[tuple[int, ...], int]]]]
    cup_decl = {"cup": {}, "cup2": {}}
    pairing: tuple[int, ...] | None = None
    vectors: dict[str, tuple[tuple[int, ...], int]] = {}
    odd_blocks: list[tuple[tuple[int, ...], ...]] | None = None
    seen: dict[tuple, int] = {}

    def once(number: int, *section) -> None:
        """Each section, named by its keyword and identifying tokens, may appear once."""
        if section in seen:
            raise ManifoldParseError(
                f"duplicate {' '.join(map(str, section))} (first on line {seen[section]})", number
            )
        seen[section] = number

    idx = 0
    while idx < len(lines):
        line = lines[idx]
        idx += 1
        key, rest = line.tokens[0], line.tokens[1:]
        if key == "manifold":
            if len(rest) != 1:
                raise ManifoldParseError("manifold header takes exactly one name", line.number)
            once(line.number, key)
            name = rest[0]
        elif key == "integral":
            if not rest:
                raise ManifoldParseError("integral line needs a degree", line.number)
            deg = _degree(rest[0], line.number)
            once(line.number, key, deg)
            free, torsion = 0, []
            pos = 1
            while pos < len(rest):
                if rest[pos] == "free":
                    free = parse_int(rest[pos + 1], line.number) if pos + 1 < len(rest) else None
                    if free is None or free < 0:
                        raise ManifoldParseError("free rank must be a nonnegative integer", line.number)
                    _check_size("free rank", free, line.number)
                    pos += 2
                elif rest[pos] == "torsion":
                    _check_size("number of torsion factors", len(rest) - pos - 1, line.number)
                    torsion = [parse_int(t, line.number) for t in rest[pos + 1 :]]
                    if not torsion:
                        raise ManifoldParseError("torsion needs at least one factor", line.number)
                    if any(d < 2 for d in torsion):
                        raise ManifoldParseError("torsion factors must be >= 2", line.number)
                    pos = len(rest)
                else:
                    raise ManifoldParseError(f"unexpected token {rest[pos]!r}", line.number)
            integral_decl[deg] = (free, tuple(torsion))
        elif key == "mod2":
            if len(rest) != 3 or rest[1] != "dim":
                raise ManifoldParseError("expected: mod2 DEG dim D", line.number)
            deg = _degree(rest[0], line.number)
            once(line.number, key, deg)
            mod2_decl[deg] = _nat("mod-2 dimension", rest[2], line.number)
            _check_size("mod-2 dimension", mod2_decl[deg], line.number)
        elif key == "names":
            if len(rest) < 2 or rest[0] not in ("z", "m2"):
                raise ManifoldParseError("expected: names z|m2 DEG NAME...", line.number)
            deg = _degree(rest[1], line.number)
            once(line.number, key, rest[0], deg)
            names[(rest[0], deg)] = (tuple(rest[2:]), line.number)
        elif key == "map":
            if len(rest) != 6 or rest[2] != "rows" or rest[4] != "cols":
                raise ManifoldParseError("expected: map OP DEG rows R cols C", line.number)
            op = rest[0]
            if op not in _OPS:
                raise ManifoldParseError(f"unknown operation {op!r}", line.number)
            deg = _degree(rest[1], line.number)
            once(line.number, key, op, deg)
            rows = _nat("rows", rest[3], line.number)
            cols = _nat("cols", rest[5], line.number)
            entries: list[int] = []
            for _ in range(rows):
                if idx >= len(lines):
                    raise ManifoldParseError(
                        f"{op} at degree {deg}: expected {rows} matrix rows", line.number
                    )
                row_line = lines[idx]
                idx += 1
                row = _vec(row_line.tokens, row_line.number)
                if len(row) != cols:
                    raise ManifoldParseError(
                        f"{op} at degree {deg}: matrix row has {len(row)} entries, expected {cols}",
                        row_line.number,
                    )
                entries.extend(row)
            maps[(op, deg)] = (IntMatrix(rows, cols, tuple(entries)), line.number)
        elif key in ("cup", "cup2"):
            if len(rest) < 5 or rest[4] != "->":
                raise ManifoldParseError(f"expected: {key} A B I J -> VEC", line.number)
            a = _degree(rest[0], line.number)
            b = _degree(rest[1], line.number)
            i = parse_int(rest[2], line.number)
            j = parse_int(rest[3], line.number)
            once(line.number, key, a, b, i, j)
            coords = _vec(rest[5:], line.number)
            cup_decl[key].setdefault((a, b), {})[(i, j)] = (coords, line.number)
        elif key == "pairing":
            once(line.number, key)
            pairing = _vec(rest, line.number)
        elif key in ("p1", "spinc", "w2"):
            once(line.number, key)
            vectors[key] = (_vec(rest, line.number), line.number)
        elif key == "oddgen":
            if not odd_blocks or rest == ["trivial"]:  # only oddgen blocks repeat
                once(line.number, key)
            if odd_blocks is None:
                odd_blocks = []
            if rest == ["trivial"]:
                continue
            if rest:
                raise ManifoldParseError("expected: oddgen  (or: oddgen trivial)", line.number)
            quadruple = []
            for expected in ("g1", "g3", "g5", "g7"):
                if idx >= len(lines) or lines[idx].tokens[0] != expected:
                    raise ManifoldParseError(
                        f"oddgen block needs a {expected} line", line.number
                    )
                g_line = lines[idx]
                idx += 1
                quadruple.append(_vec(g_line.tokens[1:], g_line.number))
            odd_blocks.append(tuple(quadruple))
        else:
            raise ManifoldParseError(f"unknown keyword {key!r}", line.number)

    if name is None:
        raise ManifoldParseError("missing section: manifold")
    if pairing is None:
        raise ManifoldParseError("missing section: pairing")
    for mandatory in ("p1", "spinc"):
        if mandatory not in vectors:
            raise ManifoldParseError(f"missing section: {mandatory}")

    groups, znames = [], []
    for n in range(TOP_DEGREE + 1):
        free, torsion = integral_decl.get(n, (0, ()))
        try:
            group = FGAbelianGroup(torsion + (0,) * free)
        except ValueError as exc:
            raise ManifoldParseError(f"integral degree {n}: {exc}") from None
        groups.append(group)
        given, names_line = names.get(("z", n), (None, None))
        if given is not None and len(given) != group.num_generators:
            raise ManifoldParseError(
                f"names z {n}: {len(given)} names for {group.num_generators} generators",
                names_line,
            )
        znames.append(given or tuple(f"z{n}_{i}" for i in range(group.num_generators)))
    dims, mnames = [], []
    for n in range(TOP_DEGREE + 1):
        d = mod2_decl.get(n, 0)
        dims.append(d)
        given, names_line = names.get(("m2", n), (None, None))
        if given is not None and len(given) != d:
            raise ManifoldParseError(
                f"names m2 {n}: {len(given)} names for dimension {d}", names_line
            )
        mnames.append(given or tuple(f"m{n}_{i}" for i in range(d)))

    integral = GradedGroupZ(tuple(groups), tuple(znames))
    mod2 = GradedGroupMod2(tuple(dims), tuple(mnames))

    def zdim(n: int) -> int:
        return groups[n].num_generators

    def mdim(n: int) -> int:
        return dims[n]

    op_dims = {
        "rho2": lambda n: (mdim(n), zdim(n)),
        "beta": lambda n: (zdim(n + 1) if n < TOP_DEGREE else 0, mdim(n)),
        "sq2": lambda n: (mdim(n + 2) if n + 2 <= TOP_DEGREE else 0, mdim(n)),
    }
    matrices: dict[str, dict[int, IntMatrix]] = {op: {} for op in _OPS}
    for (op, deg), (matrix, line_no) in sorted(maps.items()):
        tgt, src = op_dims[op](deg)
        if (matrix.rows, matrix.cols) != (tgt, src):
            raise ManifoldParseError(
                f"{op} at degree {deg}: expected a {tgt}x{src} matrix, got "
                f"{matrix.rows}x{matrix.cols}",
                line_no,
            )
        matrices[op][deg] = matrix

    def assemble_tables(kind: str, dim) -> dict[tuple[int, int], CupTable]:
        tables: dict[tuple[int, int], CupTable] = {}
        for (a, b), entries in sorted(cup_decl[kind].items()):
            if a + b > TOP_DEGREE:
                first_line = min(line for _, line in entries.values())
                raise ManifoldParseError(
                    f"{kind} table ({a}, {b}): target degree exceeds 8", first_line
                )
            table: CupTable = {}
            for (i, j), (coords, line_no) in entries.items():
                if not (0 <= i < dim(a) and 0 <= j < dim(b)):
                    raise ManifoldParseError(
                        f"{kind} table ({a}, {b}): generator pair ({i}, {j}) out of range",
                        line_no,
                    )
                if len(coords) != dim(a + b):
                    raise ManifoldParseError(
                        f"{kind} table ({a}, {b}) pair ({i}, {j}): expected "
                        f"{dim(a + b)} coordinates, got {len(coords)}",
                        line_no,
                    )
                table[(i, j)] = coords
            for i in range(dim(a)):
                for j in range(dim(b)):
                    if (i, j) not in table:
                        raise ManifoldParseError(
                            f"{kind} table ({a}, {b}): missing entry for generator pair ({i}, {j})"
                        )
            tables[(a, b)] = table
        return tables

    cup_z = assemble_tables("cup", zdim)
    cup_m2 = assemble_tables("cup2", mdim)

    if len(pairing) != zdim(TOP_DEGREE):
        raise ManifoldParseError(
            f"pairing vector has {len(pairing)} entries, H^8 has {zdim(TOP_DEGREE)} generators"
        )

    def zclass(degree: int, coords: tuple[int, ...], label: str, line_no: int | None) -> CohomologyClass:
        if len(coords) != zdim(degree):
            raise ManifoldParseError(
                f"{label}: expected {zdim(degree)} coordinates in degree {degree}, got {len(coords)}",
                line_no,
            )
        return CohomologyClass(degree, "Z", groups[degree].element(coords).coords)

    p1_coords, p1_line = vectors["p1"]
    spinc_coords, spinc_line = vectors["spinc"]
    p1 = zclass(4, p1_coords, "p1", p1_line)
    spinc = zclass(2, spinc_coords, "spinc", spinc_line)
    w2 = None
    if "w2" in vectors:
        w2_coords, w2_line = vectors["w2"]
        if len(w2_coords) != mdim(2):
            raise ManifoldParseError(
                f"w2: expected {mdim(2)} mod-2 coordinates, got {len(w2_coords)}", w2_line
            )
        w2 = CohomologyClass(2, "Z2", tuple(x % 2 for x in w2_coords))

    odd_generators = None
    if odd_blocks is not None:
        quads = []
        for block in odd_blocks:
            quads.append(
                tuple(
                    zclass(deg, coords, f"oddgen g{deg}", None)
                    for coords, deg in zip(block, (1, 3, 5, 7))
                )
            )
        odd_generators = tuple(quads)

    return ManifoldData(
        name=name,
        integral=integral,
        mod2=mod2,
        cup_z=cup_z,
        cup_m2=cup_m2,
        rho2=matrices["rho2"],
        beta=matrices["beta"],
        sq2=matrices["sq2"],
        pairing=pairing,
        p1=p1,
        spinc_class=spinc,
        w2=w2,
        odd_generators=odd_generators,
    )


def parse_manifold(path, validate: bool = True, strict: bool = False) -> ManifoldData:
    """Parse a manifold file and (by default) validate its laws."""
    data = parse_manifold_text(Path(path).read_text())
    if validate:
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
    for op in _OPS:
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
