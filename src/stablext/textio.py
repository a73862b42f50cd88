"""Line-oriented UTF-8 workspace files.

Grammar (one record per line, ``#`` starts a comment, blank lines ignored)::

    field Q                  | field F <p>

    quiver                   # bound quiver algebra
    vertex <name> [...]
    arrow <name> <src> <dst>
    relation <term> [+ <term> ...]   # term: <coeff>*<path> or <path>;
                                     # paths are dot-joined arrow names in
                                     # traversal order (a.b = first a, then b)
    end

    algebra-table            # explicit multiplication table
    dim <d>                  # first
    labels <name> [...]      # optional, defaults to b0..b{d-1}
    unit <d coords>
    e <k> <d coords>         # k-th idempotent, 1-based, ascending
    mult <i> <j> -> <d coords>   # basis_i * basis_j, 0-based; missing = 0
    radical <d coords>       # one radical generator per line
    end

    module <name>
    dim <d>
    act <basis-label> <row> ; <row> ; ...   # d rows of d entries
    end

    map <name> <src-module> <dst-module>
    rows <row> ; <row> ; ...                # dst.dim rows of src.dim entries
    end

Scalars are integers or fractions ``p/q``.  Module and map names are
unique, labels are one per basis element and distinct, and no section
repeats its ``dim``, ``labels``, ``act <label>`` or ``rows`` line.  Every
loaded object passes the full structural validation of its constructor
before registration, and parse errors carry line numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import GF, QQ, Field, Matrix
from .algmod import (
    Algebra, AlgebraError, Module, ModuleError, ModuleMap, QuiverPresentation,
    algebra_from_quiver, algebra_from_table,
)

__all__ = ["ParseError", "Workspace", "load_workspace", "loads_workspace",
           "dump_workspace"]


class ParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Workspace:
    """A parsed algebra with named modules and maps."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.modules: dict[str, Module] = {}
        self.maps: dict[str, ModuleMap] = {}

    def add_module(self, name: str, M: Module):
        if name in self.modules or name in self.maps:
            raise ModuleError(f"duplicate object name {name!r}")
        self.modules[name] = M

    def add_map(self, name: str, f: ModuleMap):
        if name in self.modules or name in self.maps:
            raise ModuleError(f"duplicate object name {name!r}")
        self.maps[name] = f

    def module(self, name: str) -> Module:
        if name not in self.modules:
            raise KeyError(f"unknown module {name!r}")
        return self.modules[name]

    def map(self, name: str) -> ModuleMap:
        if name not in self.maps:
            raise KeyError(f"unknown map {name!r}")
        return self.maps[name]

    def context(self, bound=None, detection_bound: int = 8):
        """A new Gorenstein context over the algebra, on each call."""
        from .frobenius import FrobeniusContext
        return FrobeniusContext(self.algebra, bound=bound,
                                detection_bound=detection_bound)

    def check(self):
        """Re-run every structural invariant; constructors already enforce
        them, so this re-validates from the raw data."""
        self.algebra._validate()
        for name, M in self.modules.items():
            M._validate()
        for name, f in self.maps.items():
            f._validate()
        return True


def _scalar(field: Field, tok: str, lineno: int):
    try:
        return field.of(Fraction(tok))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(lineno, f"bad scalar {tok!r}: {e}") from None


def _int(toks, k, lineno, what):
    """``toks[k]`` as an integer, or a line-numbered error."""
    tok = toks[k] if k < len(toks) else ""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what}: expected an integer, got {tok!r}") from None


def _dim(toks, lineno):
    d = _int(toks, 1, lineno, "dim")
    if d < 0:
        raise ParseError(lineno, f"dim: expected a nonnegative integer, got {d}")
    return d


def _coords(field, toks, d, lineno, what):
    if len(toks) != d:
        raise ParseError(lineno, f"{what}: expected {d} coordinates, got {len(toks)}")
    return [_scalar(field, t, lineno) for t in toks]


def loads_workspace(text: str, length_bound: int = 12) -> Workspace:
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if s:
            lines.append((i, s))
    field = None
    ws = None
    pos = 0

    def need_field(lineno):
        if field is None:
            raise ParseError(lineno, "a 'field' line must come first")

    def need_ws(lineno):
        if ws is None:
            raise ParseError(lineno, "no algebra defined yet")

    def need_new_name(lineno, name):
        if name in ws.modules or name in ws.maps:
            raise ParseError(lineno, f"duplicate object name {name!r}")

    while pos < len(lines):
        lineno, line = lines[pos]
        toks = line.split()
        head = toks[0]
        if head == "field":
            if toks[1:] == ["Q"]:
                field = QQ
            elif len(toks) == 3 and toks[1] == "F":
                try:
                    field = GF(int(toks[2]))
                except ValueError as e:
                    raise ParseError(lineno, str(e)) from None
            else:
                raise ParseError(lineno, "expected 'field Q' or 'field F <p>'")
            pos += 1
        elif head == "quiver":
            need_field(lineno)
            pos, algebra = _parse_quiver(field, lines, pos + 1, length_bound)
            ws = Workspace(algebra)
        elif head == "algebra-table":
            need_field(lineno)
            pos, algebra = _parse_table(field, lines, pos + 1)
            ws = Workspace(algebra)
        elif head == "module":
            need_ws(lineno)
            if len(toks) != 2:
                raise ParseError(lineno, "expected 'module <name>'")
            need_new_name(lineno, toks[1])
            pos, M = _parse_module(ws.algebra, toks[1], lines, pos + 1)
            ws.add_module(toks[1], M)
        elif head == "map":
            need_ws(lineno)
            if len(toks) != 4:
                raise ParseError(lineno, "expected 'map <name> <src> <dst>'")
            need_new_name(lineno, toks[1])
            for m in toks[2:]:
                if m not in ws.modules:
                    raise ParseError(lineno, f"map {toks[1]}: unknown module {m!r}")
            pos, f = _parse_map(ws, toks[1], toks[2], toks[3], lines, pos + 1)
            ws.add_map(toks[1], f)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if ws is None:
        lineno = lines[-1][0] if lines else 1
        raise ParseError(lineno, "no algebra section found")
    return ws


def _section(lines, pos, what):
    """The section that starts at ``pos`` and runs to its 'end'.

    Returns its lines as (line number, tokens) pairs, the line number of
    the 'end' (where errors about the section as a whole are reported) and
    the position after it.
    """
    body = []
    for k in range(pos, len(lines)):
        lineno, line = lines[k]
        toks = line.split()
        if toks[0] == "end":
            return body, lineno, k + 1
        body.append((lineno, toks))
    raise ParseError(lines[-1][0], f"{what} section not closed by 'end'")


def _parse_quiver(field, lines, pos, length_bound):
    vertices, arrows, relations = [], [], []
    arrow_names = set()
    body, end, pos = _section(lines, pos, "quiver")
    for lineno, toks in body:
        if toks[0] == "vertex":
            vertices.extend(toks[1:])
        elif toks[0] == "arrow":
            if len(toks) != 4:
                raise ParseError(lineno, "expected 'arrow <name> <src> <dst>'")
            for v in toks[2:]:
                if v not in vertices:
                    raise ParseError(lineno, f"arrow {toks[1]}: unknown vertex {v!r} "
                                             f"(vertices must be declared first)")
            arrows.append((toks[1], toks[2], toks[3]))
            arrow_names.add(toks[1])
        elif toks[0] == "relation":
            terms = []
            for chunk in " ".join(toks[1:]).split("+"):
                chunk = chunk.strip()
                if not chunk:
                    raise ParseError(lineno, "empty relation term")
                if "*" in chunk:
                    coeff, path = chunk.split("*", 1)
                else:
                    coeff, path = "1", chunk
                path = tuple(path.strip().split("."))
                for a in path:
                    if a not in arrow_names:
                        raise ParseError(lineno, f"relation uses unknown arrow {a!r}")
                terms.append((_scalar(field, coeff.strip(), lineno), path))
            relations.append(terms)
        else:
            raise ParseError(lineno, f"unknown quiver directive {toks[0]!r}")
    try:
        q = QuiverPresentation(field, vertices, arrows, relations)
        return pos, algebra_from_quiver(q, length_bound=length_bound)
    except AlgebraError as e:
        raise ParseError(end, str(e)) from None


def _parse_table(field, lines, pos):
    dim = None
    labels = None
    unit = None
    idem = []
    products = {}
    radical = []
    body, end, pos = _section(lines, pos, "algebra-table")
    for lineno, toks in body:
        if toks[0] == "dim":
            if dim is not None:
                raise ParseError(lineno, "'dim' given twice")
            dim = _dim(toks, lineno)
        elif dim is None:
            raise ParseError(lineno, f"'dim' must precede {toks[0]!r}")
        elif toks[0] == "labels":
            if labels is not None:
                raise ParseError(lineno, "'labels' given twice")
            labels = toks[1:]
            if len(labels) != dim:
                raise ParseError(lineno, f"labels: expected {dim} labels, "
                                         f"got {len(labels)}")
            twice = [label for label in labels if labels.count(label) > 1]
            if twice:
                raise ParseError(lineno, f"labels: {twice[0]!r} given twice")
        elif toks[0] == "unit":
            unit = _coords(field, toks[1:], dim, lineno, "unit")
        elif toks[0] == "e":
            k = _int(toks, 1, lineno, "e")
            if k != len(idem) + 1:
                raise ParseError(lineno, f"idempotents must appear in order; "
                                         f"expected e {len(idem) + 1}")
            idem.append(_coords(field, toks[2:], dim, lineno, f"e {k}"))
        elif toks[0] == "mult":
            if len(toks) < 5 or toks[3] != "->":
                raise ParseError(lineno, "expected 'mult <i> <j> -> <coords>'")
            i, j = _int(toks, 1, lineno, "mult"), _int(toks, 2, lineno, "mult")
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(lineno, f"product ({i},{j}) out of range")
            products[(i, j)] = _coords(field, toks[4:], dim, lineno,
                                       f"mult {i} {j}")
        elif toks[0] == "radical":
            radical.append(_coords(field, toks[1:], dim, lineno, "radical"))
        else:
            raise ParseError(lineno, f"unknown table directive {toks[0]!r}")
    if dim is None or unit is None:
        raise ParseError(end, "algebra-table needs 'dim' and 'unit'")
    if labels is None:
        labels = [f"b{i}" for i in range(dim)]
    try:
        A = algebra_from_table(field, labels, products, unit, idem,
                               radical, name="table-algebra")
    except AlgebraError as e:
        raise ParseError(end, str(e)) from None
    return pos, A


def _parse_rows(field, text, nrows, ncols, lineno, what):
    rows = [r.strip() for r in text.split(";")]
    if len(rows) != nrows:
        raise ParseError(lineno, f"{what}: expected {nrows} rows, got {len(rows)}")
    out = []
    for r in rows:
        toks = r.split()
        out.append(_coords(field, toks, ncols, lineno, what))
    return out


def _parse_module(algebra, name, lines, pos):
    dim = None
    action = {}
    body, end, pos = _section(lines, pos, "module")
    for lineno, toks in body:
        if toks[0] == "dim":
            if dim is not None:
                raise ParseError(lineno, "'dim' given twice")
            dim = _dim(toks, lineno)
        elif toks[0] == "act":
            if dim is None:
                raise ParseError(lineno, "'dim' must precede 'act'")
            if len(toks) < 2:
                raise ParseError(lineno, "expected 'act <basis-label> <rows>'")
            label = toks[1]
            try:
                b = algebra.label_index(label)
            except AlgebraError as e:
                raise ParseError(lineno, str(e)) from None
            if b in action:
                raise ParseError(lineno, f"'act {label}' given twice")
            if dim == 0:
                action[b] = Matrix.zeros(algebra.field, 0, 0)
            else:
                rows = _parse_rows(algebra.field, " ".join(toks[2:]), dim, dim,
                                   lineno, f"act {label}")
                action[b] = Matrix.from_rows(algebra.field, rows)
        else:
            raise ParseError(lineno, f"unknown module directive {toks[0]!r}")
    if dim is None:
        raise ParseError(end, "module needs 'dim'")
    mats = []
    for b in range(algebra.dim):
        if b not in action:
            raise ParseError(end, f"module {name!r}: missing action for "
                                  f"basis element {algebra.labels[b]!r}")
        mats.append(action[b])
    try:
        return pos, Module(algebra, dim, mats, name=name)
    except ModuleError as e:
        raise ParseError(end, str(e)) from None


def _parse_map(ws, name, src, dst, lines, pos):
    M = ws.module(src)
    N = ws.module(dst)
    matrix = None
    body, end, pos = _section(lines, pos, "map")
    for lineno, toks in body:
        if toks[0] == "rows":
            if matrix is not None:
                raise ParseError(lineno, "'rows' given twice")
            if N.dim == 0 or M.dim == 0:
                matrix = Matrix.zeros(ws.algebra.field, N.dim, M.dim)
            else:
                rows = _parse_rows(ws.algebra.field, " ".join(toks[1:]),
                                   N.dim, M.dim, lineno, f"map {name}")
                matrix = Matrix.from_rows(ws.algebra.field, rows)
        else:
            raise ParseError(lineno, f"unknown map directive {toks[0]!r}")
    if matrix is None:
        if N.dim == 0 or M.dim == 0:
            matrix = Matrix.zeros(ws.algebra.field, N.dim, M.dim)
        else:
            raise ParseError(end, f"map {name!r} needs a 'rows' line")
    try:
        return pos, ModuleMap(M, N, matrix, name=name)
    except ModuleError as e:
        raise ParseError(end, str(e)) from None


def load_workspace(path, length_bound: int = 12) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        return loads_workspace(fh.read(), length_bound=length_bound)


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------

def dump_workspace(ws: Workspace) -> str:
    A = ws.algebra
    F = A.field
    out = []
    out.append("field Q" if not F.is_prime_field else f"field F {F.p}")
    out.append("")
    out.append("algebra-table")
    out.append(f"dim {A.dim}")
    out.append("labels " + " ".join(A.labels))
    out.append("unit " + " ".join(str(A.unit[i, 0]) for i in range(A.dim)))
    for k, e in enumerate(A.idempotents, start=1):
        out.append(f"e {k} " + " ".join(str(e[i, 0]) for i in range(A.dim)))
    zero = F.of(0)
    for i in range(A.dim):
        for j in range(A.dim):
            coords = A.table[i][j]
            if all(c == zero for c in coords):
                continue
            out.append(f"mult {i} {j} -> " + " ".join(str(c) for c in coords))
    for k in range(A.radical_span.cols):
        out.append("radical " + " ".join(str(A.radical_span[i, k])
                                        for i in range(A.dim)))
    out.append("end")
    for name in sorted(ws.modules):
        M = ws.modules[name]
        out.append("")
        out.append(f"module {name}")
        out.append(f"dim {M.dim}")
        for b, label in enumerate(A.labels):
            rows = " ; ".join(" ".join(str(M.action[b][r, c])
                                      for c in range(M.dim))
                              for r in range(M.dim))
            out.append(f"act {label} {rows}".rstrip())
        out.append("end")
    for name in sorted(ws.maps):
        f = ws.maps[name]
        src = next(k for k, v in ws.modules.items() if v is f.source)
        dst = next(k for k, v in ws.modules.items() if v is f.target)
        out.append("")
        out.append(f"map {name} {src} {dst}")
        rows = " ; ".join(" ".join(str(f.matrix[r, c])
                                  for c in range(f.source.dim))
                          for r in range(f.target.dim))
        out.append(f"rows {rows}".rstrip())
        out.append("end")
    return "\n".join(out) + "\n"
