"""Line-oriented text formats for every object the CLI reads or emits.

All writers are deterministic: fixed field order, ascending indices,
sorted keys, LF newlines, one trailing newline.  Parsers accept blank
lines and '#' comments, and re-parse every emitted file to an object
equal to the one written.  Coefficient literals use the ring's own
grammar and never contain whitespace.

Groupoid blocks omit compositions with a unit factor; those are inferred
from the arrow records on parse.  Cocycle, grading and twist files nest
their groupoids in `begin <name>` ... `end` blocks, written by _block and
read by _nested.

Every reader checks what it reads before it returns.  Records keyed by
one index (_indexed) need an index in range and given once, and a dense
table (arrow, inv, q, map, part) a record for every index; a comp, val or
i record (_pairs) may not repeat its pair.  A record with too few or too
many integer fields, or one that is not a decimal integer, is `line N:
bad <word> record`, and so is a field on a marker record, one that is a
word alone (groupoid, end, element, ..., and `group Z`).  A groupoid, a
cocycle or grading (whose gate, check_cocycle or check_grading, checks its
groupoid first) and a twist must satisfy their axioms, else AxiomError
carries every violation.  An ideal must be its own reduced row echelon
form and closed.  Other defects are ValueErrors.

The writers gate what they write: serialize_groupoid, serialize_cocycle,
serialize_grading and serialize_twist, and so the write_* functions that
call them, first pass their object through its gate (check_groupoid,
check_cocycle, check_grading, check_twist).  An object that breaks its
axioms raises AxiomError before any file is opened, so no file is written
that its reader would refuse.
"""

from __future__ import annotations

import re
from typing import Optional

from .algebra import Context, Element
from .cocycle import (
    Cocycle, Grading, GroupTable, IntGroup, check_cocycle, check_grading, cyclic_group,
)
from .groupoid import Groupoid, check_groupoid
from .structure import Ideal
from .twist import Twist, check_twist


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


_INT = re.compile(r"-?[0-9]+")  # int() would also take "+1", "1_0" and non-ASCII digits


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

    def marker(self, word: str) -> None:
        """The next record, which must be word alone; else bad()."""
        if len(self.expect(word)) > 1:
            raise self.bad()

    def line(self) -> int:
        """Line number of the record next() returned last."""
        i = max(min(self.pos, len(self.rows)) - 1, 0)
        return self.rows[i][0] if self.rows else 0

    def bad(self) -> ValueError:
        """`line N: bad <word> record` for the record next() returned last."""
        return ValueError("line %d: bad %s record" % (self.line(), self.rows[self.pos - 1][1][0]))

    def ints(self, fields, count: int = 0) -> list:
        """fields, taken from the record next() returned last, as decimal
        integers; count, when nonzero, is how many there must be.  Else bad()."""
        if count and len(fields) != count or not all(map(_INT.fullmatch, fields)):
            raise self.bad()
        return [int(t) for t in fields]

    def record(self, word: str, count: int = 0) -> list:
        """The integer fields of the next record, which must start with word."""
        return self.ints(self.expect(word)[1:], count)

    def done(self) -> bool:
        return self.pos >= len(self.rows)

    def run(self, word: str) -> int:
        """How many records from here on start with word."""
        k = self.pos
        while k < len(self.rows) and self.rows[k][1][0] == word:
            k += 1
        return k - self.pos


def _read(path: str, parse, *args):
    """parse(cursor, *args) over the whole file; leftover records are an error."""
    cur = _Cursor(read_text(path))
    obj = parse(cur, *args)
    if not cur.done():
        raise ValueError("line %d: trailing content after the %s block"
                         % (cur.rows[cur.pos][0], cur.rows[0][1][0]))
    return obj


def _count(cur: _Cursor, word: str) -> int:
    (n,) = cur.record(word, 1)
    if n < 0:
        raise ValueError("line %d: negative %s %d" % (cur.line(), word, n))
    return n


def _indexed(cur: _Cursor, word: str, size: int, fields: int, dense: bool = False):
    """Yield (index, the fields after it) for the consecutive `<word> <index>
    ...` records.  fields counts those fields (0: one or more).  An index
    outside 0..size-1 or given twice is an error, and so, when dense, is an
    index without a record, on the line of the run's last record."""
    seen = set()
    while not cur.done() and cur.peek()[0] == word:
        toks = cur.next()
        if len(toks) < 3 or fields and len(toks) != fields + 2:
            raise cur.bad()
        (i,) = cur.ints(toks[1:2])
        if not 0 <= i < size:
            raise ValueError("line %d: %s %d out of range for %d entries"
                             % (cur.line(), word, i, size))
        if i in seen:
            raise ValueError("line %d: repeated %s %d" % (cur.line(), word, i))
        seen.add(i)
        yield i, toks[2:]
    if dense and len(seen) < size:
        i = next(i for i in range(size) if i not in seen)
        raise ValueError("line %d: missing %s %d: %s records must cover 0..%d"
                         % (cur.line(), word, i, word, size - 1))


def _pairs(cur: _Cursor, word: str):
    """Yield (a, b, x) for the consecutive `<word> a b x` records.  A pair
    (a, b) given twice is an error, reported once the caller has checked
    the record itself."""
    seen = set()
    while not cur.done() and cur.peek()[0] == word:
        a, b, x = cur.record(word, 3)
        yield a, b, x
        if (a, b) in seen:
            raise ValueError("line %d: repeated %s %d %d" % (cur.line(), word, a, b))
        seen.add((a, b))


# --- groupoid ----------------------------------------------------------------

def serialize_groupoid(g: Groupoid) -> list:
    check_groupoid(g)
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
    cur.marker("groupoid")
    m = _count(cur, "arrows")
    units = cur.record("units")
    ends = {}
    for a, (s_kw, s, r_kw, r) in _indexed(cur, "arrow", m, 4, dense=True):
        if (s_kw, r_kw) != ("src", "rng"):
            raise cur.bad()
        ends[a] = cur.ints((s, r))
    inv = {a: cur.ints(b)[0] for a, b in _indexed(cur, "inv", m, 1, dense=True)}
    src = [ends[a][0] for a in range(m)]
    rng = [ends[a][1] for a in range(m)]
    comp = {(a, b): c for a, b, c in _pairs(cur, "comp")}
    unit_set = set(units)
    for a in range(m):
        if src[a] in unit_set:
            comp.setdefault((a, src[a]), a)
        if rng[a] in unit_set:
            comp.setdefault((rng[a], a), a)
    return Groupoid(units, src, rng, [inv[a] for a in range(m)], comp)


def _block(name: str, g: Groupoid) -> list:
    """The `begin <name> ... end` lines around a nested groupoid block."""
    return ["begin " + name] + serialize_groupoid(g) + ["end"]


def _nested(cur: _Cursor, name: str, message: str) -> Groupoid:
    """The groupoid block between `begin <name>` and `end`; message is the
    error when the begin record names something else."""
    if cur.expect("begin")[1:] != [name]:
        raise ValueError("line %d: %s" % (cur.line(), message))
    g = parse_groupoid_block(cur)
    cur.marker("end")
    return g


def write_groupoid(path: str, g: Groupoid) -> None:
    write_text(path, "\n".join(serialize_groupoid(g)) + "\n")


def read_groupoid(path: str) -> Groupoid:
    return check_groupoid(_read(path, parse_groupoid_block))


# --- cocycle -----------------------------------------------------------------

def serialize_cocycle(coc: Cocycle) -> list:
    check_cocycle(coc)
    lines = ["cocycle", "order %d" % coc.n] + _block("groupoid", coc.gpd)
    for (a, b) in sorted(coc.table):
        k = coc.table[(a, b)]
        if k:
            lines.append("val %d %d %d" % (a, b, k))
    return lines


def parse_cocycle_block(cur: _Cursor) -> Cocycle:
    cur.marker("cocycle")
    (n,) = cur.record("order", 1)
    g = _nested(cur, "groupoid", "expected a groupoid block inside the cocycle file")
    table = {pair: 0 for pair in g.comp}
    for a, b, k in _pairs(cur, "val"):
        if (a, b) not in table:
            raise ValueError("line %d: val on non-composable pair (%d, %d)" % (cur.line(), a, b))
        if not 0 <= k < n:
            raise ValueError("line %d: exponent %d out of range for order %d" % (cur.line(), k, n))
        table[(a, b)] = k
    return Cocycle(g, n, table)


def write_cocycle(path: str, coc: Cocycle) -> None:
    write_text(path, "\n".join(serialize_cocycle(coc)) + "\n")


def read_cocycle(path: str) -> Cocycle:
    return check_cocycle(_read(path, parse_cocycle_block))


# --- grading -----------------------------------------------------------------

def serialize_grading(grading: Grading) -> list:
    check_grading(grading)
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
    lines.extend(_block("groupoid", grading.gpd))
    for a, x in enumerate(grading.deg):
        if x != ident:
            lines.append("deg %d %d" % (a, x))
    return lines


def parse_grading_block(cur: _Cursor) -> Grading:
    cur.marker("grading")
    toks = cur.expect("group")
    kind = toks[1] if len(toks) > 1 else ""
    if kind == "Z":
        if len(toks) > 2:
            raise cur.bad()
        grp = IntGroup()
        ident = 0
    elif kind == "cyclic":
        k = cur.ints(toks[2:], 1)[0]
        if k > 1024:  # its table and groupoid grow as k^2
            raise ValueError("line %d: cyclic group order %d exceeds 1024" % (cur.line(), k))
        grp = cyclic_group(k)
        ident = 0
    elif kind == "table":
        k = cur.ints(toks[2:], 1)[0]
        rows = [cur.record("row") for _ in range(k)]
        grp = GroupTable(rows)
        ident = grp.identity
    else:
        raise ValueError("unknown group kind %r" % kind)
    g = _nested(cur, "groupoid", "expected a groupoid block inside the grading file")
    deg = [ident] * g.m
    for a, x in _indexed(cur, "deg", g.m, 1):
        deg[a] = cur.ints(x)[0]
    return Grading(g, grp, deg)


def write_grading(path: str, grading: Grading) -> None:
    write_text(path, "\n".join(serialize_grading(grading)) + "\n")


def read_grading(path: str) -> Grading:
    return check_grading(_read(path, parse_grading_block))


# --- elements ----------------------------------------------------------------

def serialize_element(f: Element) -> list:
    lines = ["element"]
    ring = f.ctx.ring
    for a in sorted(f.coeffs):
        lines.append("coeff %d %s" % (a, ring.fmt(f.coeffs[a])))
    return lines


def parse_element_block(cur: _Cursor, ctx: Context) -> Element:
    cur.marker("element")
    coeffs = _indexed(cur, "coeff", ctx.gpd.m, 1)
    return Element(ctx, {a: ctx.ring.parse(lit) for a, (lit,) in coeffs})


def write_element(path: str, f: Element) -> None:
    write_text(path, "\n".join(serialize_element(f)) + "\n")


def read_element(path: str, ctx: Context) -> Element:
    return _read(path, parse_element_block, ctx)


# --- twists ------------------------------------------------------------------

def serialize_twist(tw: Twist) -> list:
    check_twist(tw)
    lines = ["twist", "order %d" % tw.n] + _block("base", tw.base) + _block("total", tw.total)
    lines += ["i %d %d %d" % (u, k, e) for (u, k), e in sorted(tw.embed.items())]
    return lines + ["q %d %d" % pair for pair in enumerate(tw.proj)]


def parse_twist_block(cur: _Cursor) -> Twist:
    cur.marker("twist")
    (n,) = cur.record("order", 1)
    base = _nested(cur, "base", "expected the base groupoid block first")
    total = _nested(cur, "total", "expected the total groupoid block second")
    embed = {(u, k): e for u, k, e in _pairs(cur, "i")}
    proj = [0] * total.m
    for e, a in _indexed(cur, "q", total.m, 1, dense=True):
        proj[e] = cur.ints(a)[0]
    return Twist(base, total, n, embed, proj)


def write_twist(path: str, tw: Twist) -> None:
    write_text(path, "\n".join(serialize_twist(tw)) + "\n")


def read_twist(path: str) -> Twist:
    return check_twist(_read(path, parse_twist_block))


# --- small result artifacts ---------------------------------------------------

def serialize_section(sec) -> list:
    return ["section"] + ["map %d %d" % pair for pair in enumerate(sec)]


def _parse_maps(cur: _Cursor, header: str) -> Optional[tuple]:
    """header, then `map i x` for each i in 0..k-1 once; a morphism may say none."""
    cur.marker(header)
    if header == "morphism" and cur.peek() == ["none"]:
        cur.next()
        return None
    out = {i: cur.ints(x)[0] for i, x in _indexed(cur, "map", cur.run("map"), 1, dense=True)}
    return tuple(out[i] for i in range(len(out)))


def read_section(path: str) -> tuple:
    return _read(path, _parse_maps, "section")


def serialize_morphism(mapping) -> list:
    """mapping is an arrow tuple/list or None (no isomorphism)."""
    if mapping is None:
        return ["morphism", "none"]
    return ["morphism"] + ["map %d %d" % pair for pair in enumerate(mapping)]


def read_morphism(path: str) -> Optional[tuple]:
    return _read(path, _parse_maps, "morphism")


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


def _parse_coboundary(cur: _Cursor):
    cur.marker("coboundary")
    (n,) = cur.record("order", 1)
    m = _count(cur, "arrows")
    if cur.peek() == ["none"]:
        cur.next()
        return n, m, None
    b = [0] * m
    for a, k in _indexed(cur, "b", m, 1):
        b[a] = cur.ints(k)[0]
    return n, m, b


def read_coboundary(path: str):
    """Returns (n, m, b-list or None)."""
    return _read(path, _parse_coboundary)


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
    cur.marker("ideal")
    (dim,) = cur.record("dim", 1)
    m = ctx.gpd.m
    if not 0 <= dim <= m:
        raise ValueError("line %d: ideal dimension %d out of range for %d arrows"
                         % (cur.line(), dim, m))
    rows = [[ctx.ring.zero()] * m for _ in range(dim)]
    seen = set()
    while not cur.done():
        toks = cur.expect("vec")
        if len(toks) != 4:
            raise ValueError("line %d: vec wants a row, an arrow and one literal" % cur.line())
        i, a = cur.ints(toks[1:3])
        if not (0 <= i < dim and 0 <= a < m):
            raise ValueError("line %d: vec %d %d out of range for dim %d, %d arrows"
                             % (cur.line(), i, a, dim, m))
        if (i, a) in seen:
            raise ValueError("line %d: repeated vec %d %d" % (cur.line(), i, a))
        seen.add((i, a))
        rows[i][a] = ctx.ring.parse(toks[3])
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


def _parse_decomposition(cur: _Cursor, ring) -> list:
    cur.marker("decomposition")
    k = _count(cur, "parts")
    parts = {i: (ring.parse(val), frozenset(cur.ints(arrows)))
             for i, (val, *arrows) in _indexed(cur, "part", k, 0, dense=True)}
    return [parts[i] for i in range(k)]


def read_decomposition(path: str, ring) -> list:
    return _read(path, _parse_decomposition, ring)
