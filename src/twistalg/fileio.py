"""Line-oriented text formats for every object the CLI reads or emits.

All writers are deterministic: fixed field order, ascending indices,
sorted keys, LF newlines, one trailing newline.  Parsers accept blank
lines and '#' comments, and re-parse every emitted file to an object
equal to the one written.  Coefficient literals use the ring's own
grammar and never contain whitespace.

Groupoid blocks omit compositions with a unit factor; those are inferred
from the arrow records on parse.  Parsing performs shape checks only, so
a structurally broken file still loads and can be fed to the validators.
Ideal files are the exception: read_ideal checks them in full.
"""

from __future__ import annotations

from typing import Optional

from .algebra import Context, Element
from .cocycle import Cocycle, Grading, GroupTable, IntGroup, cyclic_group
from .groupoid import Groupoid
from .structure import Ideal, rref
from .twist import Twist


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _Cursor:
    """Token lines with one-line lookahead; blank and comment lines skipped."""

    def __init__(self, text: str):
        self.rows = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.rows.append((ln, line.split()))
        self.pos = 0

    def peek(self) -> Optional[list]:
        if self.pos < len(self.rows):
            return self.rows[self.pos][1]
        return None

    def next(self) -> list:
        if self.pos >= len(self.rows):
            raise ValueError("unexpected end of file")
        _, toks = self.rows[self.pos]
        self.pos += 1
        return toks

    def expect(self, word: str) -> list:
        toks = self.next()
        if toks[0] != word:
            raise ValueError("line %d: expected %r, got %r" % (self.line(), word, toks[0]))
        return toks

    def line(self) -> int:
        """Line number of the record next() returned last."""
        i = max(min(self.pos, len(self.rows)) - 1, 0)
        return self.rows[i][0] if self.rows else 0

    def done(self) -> bool:
        return self.pos >= len(self.rows)


def _ints(toks) -> list:
    return [int(t) for t in toks]


# --- groupoid ----------------------------------------------------------------

def serialize_groupoid(g: Groupoid) -> list:
    lines = ["groupoid", "arrows %d" % g.m]
    lines.append("units " + " ".join(str(u) for u in g.units))
    for a in range(g.m):
        lines.append("arrow %d src %d rng %d" % (a, g.src[a], g.rng[a]))
    for a in range(g.m):
        lines.append("inv %d %d" % (a, g.inv[a]))
    for (a, b) in sorted(g.comp):
        if a in g.unit_set or b in g.unit_set:
            continue
        lines.append("comp %d %d %d" % (a, b, g.comp[(a, b)]))
    return lines


def parse_groupoid_block(cur: _Cursor) -> Groupoid:
    cur.expect("groupoid")
    m = int(cur.expect("arrows")[1])
    units = _ints(cur.expect("units")[1:])
    src = [None] * m
    rng = [None] * m
    inv = [None] * m
    comp = {}
    while not cur.done():
        toks = cur.peek()
        kind = toks[0]
        if kind == "arrow":
            cur.next()
            if len(toks) != 6 or toks[2] != "src" or toks[4] != "rng":
                raise ValueError("line %d: bad arrow record" % cur.line())
            a, s, r = int(toks[1]), int(toks[3]), int(toks[5])
            src[a], rng[a] = s, r
        elif kind == "inv":
            cur.next()
            a, b = _ints(toks[1:])
            inv[a] = b
        elif kind == "comp":
            cur.next()
            a, b, c = _ints(toks[1:])
            comp[(a, b)] = c
        else:
            break
    if any(x is None for x in src) or any(x is None for x in inv):
        raise ValueError("missing arrow or inv record")
    unit_set = set(units)
    for a in range(m):
        key = (a, src[a])
        if src[a] in unit_set and key not in comp:
            comp[key] = a
        key = (rng[a], a)
        if rng[a] in unit_set and key not in comp:
            comp[key] = a
    return Groupoid(units, src, rng, inv, comp)


def write_groupoid(path: str, g: Groupoid) -> None:
    write_text(path, "\n".join(serialize_groupoid(g)) + "\n")


def read_groupoid(path: str) -> Groupoid:
    cur = _Cursor(read_text(path))
    g = parse_groupoid_block(cur)
    if not cur.done():
        raise ValueError("trailing content after groupoid block")
    return g


# --- cocycle -----------------------------------------------------------------

def serialize_cocycle(coc: Cocycle) -> list:
    lines = ["cocycle", "order %d" % coc.n, "begin groupoid"]
    lines.extend(serialize_groupoid(coc.gpd))
    lines.append("end")
    for (a, b) in sorted(coc.table):
        k = coc.table[(a, b)]
        if k:
            lines.append("val %d %d %d" % (a, b, k))
    return lines


def parse_cocycle_block(cur: _Cursor) -> Cocycle:
    cur.expect("cocycle")
    n = int(cur.expect("order")[1])
    head = cur.expect("begin")
    if head[1] != "groupoid":
        raise ValueError("expected a groupoid block inside the cocycle file")
    g = parse_groupoid_block(cur)
    cur.expect("end")
    table = {pair: 0 for pair in g.comp}
    while not cur.done() and cur.peek()[0] == "val":
        toks = cur.next()
        a, b, k = _ints(toks[1:])
        if (a, b) not in table:
            raise ValueError("val on non-composable pair (%d, %d)" % (a, b))
        if not 0 <= k < n:
            raise ValueError("exponent %d out of range for order %d" % (k, n))
        table[(a, b)] = k
    return Cocycle(g, n, table)


def write_cocycle(path: str, coc: Cocycle) -> None:
    write_text(path, "\n".join(serialize_cocycle(coc)) + "\n")


def read_cocycle(path: str) -> Cocycle:
    cur = _Cursor(read_text(path))
    coc = parse_cocycle_block(cur)
    if not cur.done():
        raise ValueError("trailing content after cocycle block")
    return coc


# --- grading -----------------------------------------------------------------

def serialize_grading(grading: Grading) -> list:
    lines = ["grading"]
    grp = grading.group
    if isinstance(grp, IntGroup):
        lines.append("group Z")
        ident = 0
    elif isinstance(grp, GroupTable):
        lines.append("group table %d" % grp.order)
        for row in grp.table:
            lines.append("row " + " ".join(str(x) for x in row))
        ident = grp.identity
    else:
        raise ValueError("unknown grading group type %r" % type(grp).__name__)
    lines.append("begin groupoid")
    lines.extend(serialize_groupoid(grading.gpd))
    lines.append("end")
    for a, x in enumerate(grading.deg):
        if x != ident:
            lines.append("deg %d %d" % (a, x))
    return lines


def parse_grading_block(cur: _Cursor) -> Grading:
    cur.expect("grading")
    toks = cur.expect("group")
    if toks[1] == "Z":
        grp = IntGroup()
        ident = 0
    elif toks[1] == "cyclic":
        grp = cyclic_group(int(toks[2]))
        ident = 0
    elif toks[1] == "table":
        k = int(toks[2])
        rows = [_ints(cur.expect("row")[1:]) for _ in range(k)]
        grp = GroupTable(rows)
        ident = grp.identity
    else:
        raise ValueError("unknown group kind %r" % toks[1])
    head = cur.expect("begin")
    if head[1] != "groupoid":
        raise ValueError("expected a groupoid block inside the grading file")
    g = parse_groupoid_block(cur)
    cur.expect("end")
    deg = [ident] * g.m
    while not cur.done() and cur.peek()[0] == "deg":
        toks = cur.next()
        a, x = int(toks[1]), int(toks[2])
        deg[a] = x
    return Grading(g, grp, deg)


def write_grading(path: str, grading: Grading) -> None:
    write_text(path, "\n".join(serialize_grading(grading)) + "\n")


def read_grading(path: str) -> Grading:
    cur = _Cursor(read_text(path))
    grading = parse_grading_block(cur)
    if not cur.done():
        raise ValueError("trailing content after grading block")
    return grading


# --- elements ----------------------------------------------------------------

def serialize_element(f: Element) -> list:
    lines = ["element"]
    ring = f.ctx.ring
    for a in sorted(f.coeffs):
        lines.append("coeff %d %s" % (a, ring.fmt(f.coeffs[a])))
    return lines


def parse_element_block(cur: _Cursor, ctx: Context) -> Element:
    cur.expect("element")
    coeffs = {}
    while not cur.done() and cur.peek()[0] == "coeff":
        toks = cur.next()
        if len(toks) != 3:
            raise ValueError("line %d: coeff wants an arrow and one literal" % cur.line())
        a = int(toks[1])
        if not 0 <= a < ctx.gpd.m:
            raise ValueError("arrow %d out of range" % a)
        coeffs[a] = ctx.ring.parse(toks[2])
    return Element(ctx, coeffs)


def write_element(path: str, f: Element) -> None:
    write_text(path, "\n".join(serialize_element(f)) + "\n")


def read_element(path: str, ctx: Context) -> Element:
    cur = _Cursor(read_text(path))
    f = parse_element_block(cur, ctx)
    if not cur.done():
        raise ValueError("trailing content after element block")
    return f


# --- twists ------------------------------------------------------------------

def serialize_twist(tw: Twist) -> list:
    lines = ["twist", "order %d" % tw.n, "begin base"]
    lines.extend(serialize_groupoid(tw.base))
    lines.append("end")
    lines.append("begin total")
    lines.extend(serialize_groupoid(tw.total))
    lines.append("end")
    for (u, k) in sorted(tw.embed):
        lines.append("i %d %d %d" % (u, k, tw.embed[(u, k)]))
    for e, a in enumerate(tw.proj):
        lines.append("q %d %d" % (e, a))
    return lines


def parse_twist_block(cur: _Cursor) -> Twist:
    cur.expect("twist")
    n = int(cur.expect("order")[1])
    head = cur.expect("begin")
    if head[1] != "base":
        raise ValueError("expected the base groupoid block first")
    base = parse_groupoid_block(cur)
    cur.expect("end")
    head = cur.expect("begin")
    if head[1] != "total":
        raise ValueError("expected the total groupoid block second")
    total = parse_groupoid_block(cur)
    cur.expect("end")
    embed = {}
    proj = [0] * total.m
    seen = set()
    while not cur.done() and cur.peek()[0] in ("i", "q"):
        toks = cur.next()
        if toks[0] == "i":
            u, k, e = _ints(toks[1:])
            embed[(u, k)] = e
        else:
            e, a = _ints(toks[1:])
            proj[e] = a
            seen.add(e)
    if len(seen) != total.m:
        raise ValueError("q-table does not cover the total groupoid")
    return Twist(base, total, n, embed, proj)


def write_twist(path: str, tw: Twist) -> None:
    write_text(path, "\n".join(serialize_twist(tw)) + "\n")


def read_twist(path: str) -> Twist:
    cur = _Cursor(read_text(path))
    tw = parse_twist_block(cur)
    if not cur.done():
        raise ValueError("trailing content after twist block")
    return tw


# --- small result artifacts ---------------------------------------------------

def serialize_section(sec) -> list:
    lines = ["section"]
    for a, e in enumerate(sec):
        lines.append("map %d %d" % (a, e))
    return lines


def read_section(path: str) -> tuple:
    cur = _Cursor(read_text(path))
    cur.expect("section")
    out = {}
    while not cur.done():
        toks = cur.expect("map")
        out[int(toks[1])] = int(toks[2])
    return tuple(out[a] for a in range(len(out)))


def serialize_morphism(mapping) -> list:
    """mapping is an arrow tuple/list or None (no isomorphism)."""
    lines = ["morphism"]
    if mapping is None:
        lines.append("none")
        return lines
    for e, fe in enumerate(mapping):
        lines.append("map %d %d" % (e, fe))
    return lines


def read_morphism(path: str) -> Optional[tuple]:
    cur = _Cursor(read_text(path))
    cur.expect("morphism")
    if not cur.done() and cur.peek()[0] == "none":
        return None
    out = {}
    while not cur.done():
        toks = cur.expect("map")
        out[int(toks[1])] = int(toks[2])
    return tuple(out[e] for e in range(len(out)))


def serialize_coboundary(n: int, m: int, b) -> list:
    """b is an exponent list or None (not cohomologous)."""
    lines = ["coboundary", "order %d" % n, "arrows %d" % m]
    if b is None:
        lines.append("none")
        return lines
    for a, k in enumerate(b):
        if k:
            lines.append("b %d %d" % (a, k))
    return lines


def read_coboundary(path: str):
    """Returns (n, m, b-list or None)."""
    cur = _Cursor(read_text(path))
    cur.expect("coboundary")
    n = int(cur.expect("order")[1])
    m = int(cur.expect("arrows")[1])
    if not cur.done() and cur.peek()[0] == "none":
        return n, m, None
    b = [0] * m
    while not cur.done():
        toks = cur.expect("b")
        b[int(toks[1])] = int(toks[2])
    return n, m, b


def serialize_ideal(ideal: Ideal) -> list:
    lines = ["ideal", "dim %d" % ideal.dim]
    ring = ideal.ctx.ring
    for i, row in enumerate(ideal.basis):
        for a, c in enumerate(row):
            if not ring.is_zero(c):
                lines.append("vec %d %d %s" % (i, a, ring.fmt(c)))
    return lines


def read_ideal(path: str, ctx: Context) -> Ideal:
    """Read an ideal file against ctx.  The rows must be in range, given
    once each, their own reduced row echelon form and closed under delta
    multiplication on both sides; anything else is a ValueError."""
    cur = _Cursor(read_text(path))
    cur.expect("ideal")
    dim = int(cur.expect("dim")[1])
    m = ctx.gpd.m
    if not 0 <= dim <= m:
        raise ValueError("ideal dimension %d out of range for %d arrows" % (dim, m))
    rows = [[ctx.ring.zero()] * m for _ in range(dim)]
    seen = set()
    while not cur.done():
        toks = cur.expect("vec")
        if len(toks) != 4:
            raise ValueError("line %d: vec wants a row, an arrow and one literal" % cur.line())
        i, a = int(toks[1]), int(toks[2])
        if not (0 <= i < dim and 0 <= a < m):
            raise ValueError("line %d: vec %d %d out of range for dim %d, %d arrows"
                             % (cur.line(), i, a, dim, m))
        if (i, a) in seen:
            raise ValueError("line %d: repeated vec %d %d" % (cur.line(), i, a))
        seen.add((i, a))
        rows[i][a] = ctx.ring.parse(toks[3])
    rows = [tuple(r) for r in rows]
    if rref(ctx.ring, rows) != rows:
        raise ValueError("ideal rows are not in reduced row echelon form")
    return Ideal(ctx, rows)


def write_ideal(path: str, ideal: Ideal) -> None:
    write_text(path, "\n".join(serialize_ideal(ideal)) + "\n")


def serialize_decomposition(ring, parts) -> list:
    """parts: (scalar, bisection arrow set) pairs, in bucket order."""
    lines = ["decomposition", "parts %d" % len(parts)]
    for i, (val, arrows) in enumerate(parts):
        lines.append(
            "part %d %s %s" % (i, ring.fmt(val), " ".join(str(a) for a in sorted(arrows)))
        )
    return lines


def read_decomposition(path: str, ring) -> list:
    cur = _Cursor(read_text(path))
    cur.expect("decomposition")
    k = int(cur.expect("parts")[1])
    parts = [None] * k
    while not cur.done():
        toks = cur.expect("part")
        parts[int(toks[1])] = (ring.parse(toks[2]), frozenset(_ints(toks[3:])))
    if any(p is None for p in parts):
        raise ValueError("missing part record")
    return parts
