"""Twisted convolution algebras of finite discrete groupoids.

An Element is a sparse arrow -> coefficient map inside a Context that fixes
the groupoid, the coefficient ring, the cyclic unit subgroup whose
exponents the cocycle stores, the cocycle itself, and optionally an
involution on the ring that inverts the subgroup.  Every function on a
finite discrete groupoid is locally constant with compact support, so the
algebra is the free module on the arrows; nothing else needs tracking.

Multiplication is the cocycle-twisted convolution, read off the context's
one regular-representation table (Context.regular).  The star operation
combines the inverse map, the cocycle value at (arrow, inverse), and the
ring involution.  The equivariant picture lives in EquivContext /
EquivariantElement: functions on a twist's total groupoid that scale along
fibers, encoded by their values on a chosen section.  An EquivContext
carries ctx, the Context of the algebra psi lands in (the inverted induced
cocycle), and takes its coefficient data from there; the equivariant
convolution and star are still computed from the twist's own tables (not
through any cocycle), which keeps the comparison with the cocycle picture
an honest two-route check.  Among those tables is the section's exponent
table, which the context holds and every value reads.

Both products walk supports.  convolve visits, for each a in the support
of f, the entries of left[a] whose c is in the support of g.
equiv_convolve visits each c whose g-value at inv(sec c) is nonzero, then
the arrows a with src(a) = rng(c), and reads f at sec(a) sec(c) straight
from the twist's projection and exponent table.  Each sum starts at its
first term, not at zero.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import rings
from .cocycle import (
    Cocycle, Grading, apply_coboundary, check_cocycle, check_grading, invert_cocycle,
)
from .groupoid import BindOnce, Groupoid, derived, is_bisection
from .rings import Involution, Ring, UnitSubgroup
from .twist import Twist, _exponent_table, induced_cocycle


class Context(BindOnce):
    """Everything an algebra element needs to multiply and star.  Its
    fields bind once (BindOnce); regular(), and what is read off it,
    structure._images (the ideal closure test's per-arrow reads) and
    structure._scan_tables (the simplicity scan's recipes), are kept on the
    context (derived)."""

    __slots__ = ("gpd", "ring", "tgrp", "coc", "conj", "_derived")

    def __init__(
        self,
        gpd: Groupoid,
        ring: Ring,
        tgrp: UnitSubgroup,
        coc: Cocycle,
        conj: Optional[Involution] = None,
    ):
        if coc.gpd != gpd:
            raise ValueError("cocycle lives over a different groupoid")
        if coc.n != tgrp.order:
            raise ValueError("cocycle order does not match the unit subgroup")
        if tgrp.ring != ring:
            raise ValueError("unit subgroup lives in a different ring")
        if conj is not None:
            if conj.ring != ring:
                raise ValueError("involution acts on a different ring")
            if not rings.check_t_inverse_involution(ring, conj, tgrp):
                raise ValueError("involution does not invert the unit subgroup")
        check_cocycle(coc)
        self.gpd = gpd
        self.ring = ring
        self.tgrp = tgrp
        self.coc = coc
        self.conj = conj
        self._derived = {}

    @derived
    def regular(self):
        """(left, right): how delta_a * v and v * delta_a read off a sparse
        row v.  left[a] and right[a] list entries (c, target, k), ascending
        in the arrow c composable with a on that side, with target a c
        (resp. c a) and k the cocycle exponent there, in 0..n-1.  Targets
        are distinct."""
        gpd, comp, table = self.gpd, self.gpd.comp, self.coc.table
        by_rng = gpd.arrows_by_rng()
        left = [[] for _ in range(gpd.m)]
        right = [[] for _ in range(gpd.m)]
        for a, s in enumerate(gpd.src):
            row = left[a]
            for c in by_rng[s]:
                t, k = comp[(a, c)], table[(a, c)]
                row.append((c, t, k))
                right[c].append((a, t, k))
        return left, right

    def coc_val(self, a: int, b: int):
        """The ring value of the cocycle on a composable pair."""
        return self.tgrp.embed(self.coc.table[(a, b)])

    def __eq__(self, other):
        # coc carries the groupoid and tgrp the ring
        return self is other or (
            isinstance(other, Context)
            and self.coc == other.coc
            and self.tgrp == other.tgrp
            and self.conj == other.conj
        )

    def __hash__(self):
        return hash((self.coc, self.tgrp, self.conj))


def _on_arrows(coeffs: dict, m: int) -> dict:
    """coeffs itself when every key is an arrow 0..m-1, else ValueError
    naming the first key that is not."""
    if coeffs and not (0 <= min(coeffs) and max(coeffs) < m):
        raise ValueError("coefficient on non-arrow %d"
                         % next(a for a in coeffs if not 0 <= a < m))
    return coeffs


class Element:
    """Sparse coefficient map on the arrows of ctx's groupoid; a key that
    is not an arrow raises ValueError, and zero coefficients are never
    stored."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Context, coeffs: dict):
        self.ctx = ctx
        r = ctx.ring
        self.coeffs = {a: c for a, c in _on_arrows(coeffs, ctx.gpd.m).items()
                       if not r.is_zero(c)}

    def support(self) -> tuple:
        return tuple(sorted(self.coeffs))

    def value(self, a: int):
        return self.coeffs.get(a, self.ctx.ring.zero())

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(self.ctx.ring.neg(self.ctx.ring.one()), other))

    def __mul__(self, other):
        return convolve(self, other)

    def __repr__(self):
        r = self.ctx.ring
        parts = ["%d: %s" % (a, r.fmt(c)) for a, c in sorted(self.coeffs.items())]
        return "Element{%s}" % ", ".join(parts)


def zero(ctx: Context) -> Element:
    return Element(ctx, {})

def delta(ctx: Context, arrow: int, coeff=None) -> Element:
    if coeff is None:
        coeff = ctx.ring.one()
    return Element(ctx, {arrow: coeff})


def char_fn(ctx: Context, subset: Iterable[int]) -> Element:
    """Indicator of a bisection; arbitrary subsets are rejected."""
    f = Element(ctx, dict.fromkeys(subset, ctx.ring.one()))
    if not is_bisection(ctx.gpd, f.coeffs):
        raise ValueError("subset is not a bisection")
    return f


def one(ctx: Context) -> Element:
    """Indicator of the whole unit space, the multiplicative identity."""
    return char_fn(ctx, ctx.gpd.units)


def from_coeffs(ctx: Context, coeffs: dict) -> Element:
    return Element(ctx, coeffs)


def add(f: Element, g: Element) -> Element:
    _same(f, g)
    r = f.ctx.ring
    out = dict(f.coeffs)
    for a, c in g.coeffs.items():
        out[a] = r.add(out.get(a, r.zero()), c)
    return Element(f.ctx, out)


def scale(c, f: Element) -> Element:
    r = f.ctx.ring
    return Element(f.ctx, {a: r.mul(c, v) for a, v in f.coeffs.items()})


def _same(f: Element, g: Element):
    if f.ctx != g.ctx:
        raise ValueError("elements live in different algebra contexts")


def convolve(f: Element, g: Element) -> Element:
    """(f g)(t) = sum over t = a c of coc(a,c) f(a) g(c): for each a in
    the support of f, the entries of left[a] whose c is in that of g."""
    _same(f, g)
    ctx = f.ctx
    add, mul, scale = ctx.ring.add, ctx.ring.mul, ctx.tgrp.scale
    left, gc = ctx.regular()[0], g.coeffs
    out: dict = {}
    for a, fa in f.coeffs.items():
        for c, t, k in left[a]:
            if c in gc:
                x = scale(k, mul(fa, gc[c]))
                prev = out.get(t)
                out[t] = x if prev is None else add(prev, x)
    return Element(ctx, out)


def involute(f: Element) -> Element:
    """f*(c) = coc(c, inv c)^-1 conj(f(inv c)); needs an involution."""
    ctx = f.ctx
    if ctx.conj is None:
        raise ValueError("context carries no involution")
    gpd, t = ctx.gpd, ctx.tgrp
    out = {}
    for a, c in f.coeffs.items():
        ia = gpd.inv[a]
        out[ia] = t.scale(-ctx.coc.table[(ia, a)], ctx.conj(c))
    return Element(ctx, out)


def disjoint_decomposition(f: Element) -> list:
    """Write f as a sum of scalars times disjoint bisection indicators.

    Canonical greedy split: walk the support in ascending arrow order and
    put each arrow into the first open (value, bisection) bucket that keeps
    the bucket a bisection; order of buckets is order of creation.
    """
    if not f.coeffs:
        raise ValueError("zero element has no decomposition")
    gpd = f.ctx.gpd
    buckets: list = []  # (value, arrow list, src set, rng set)
    for a in sorted(f.coeffs):
        c = f.coeffs[a]
        placed = False
        for val, arrows_, srcs, rngs in buckets:
            if val == c and gpd.src[a] not in srcs and gpd.rng[a] not in rngs:
                arrows_.append(a)
                srcs.add(gpd.src[a])
                rngs.add(gpd.rng[a])
                placed = True
                break
        if not placed:
            buckets.append((c, [a], {gpd.src[a]}, {gpd.rng[a]}))
    return [(val, frozenset(arrows_)) for val, arrows_, _, _ in buckets]


def local_unit(ctx: Context, fs: Iterable[Element]) -> Element:
    """Unit-set indicator fixing every listed element on both sides; an
    element of another context raises ValueError."""
    gpd = ctx.gpd
    units = set()
    for f in fs:
        if f.ctx != ctx:
            raise ValueError("element lives in a different context")
        for a in f.coeffs:
            units.add(gpd.src[a])
            units.add(gpd.rng[a])
    return char_fn(ctx, units)


def coboundary_iso(ctx_src: Context, ctx_dst: Context, b, f: Element) -> Element:
    """Pointwise multiplication by the coboundary, an isomorphism between
    the two twisted algebras when src cocycle == dst cocycle perturbed by b.
    """
    if ctx_src.gpd != ctx_dst.gpd or ctx_src.ring != ctx_dst.ring:
        raise ValueError("contexts disagree on groupoid or ring")
    if ctx_src.tgrp != ctx_dst.tgrp:
        raise ValueError("contexts disagree on the unit subgroup")
    if apply_coboundary(ctx_dst.coc, b) != ctx_src.coc:
        raise ValueError("coboundary does not connect the two cocycles")
    if f.ctx != ctx_src:
        raise ValueError("element lives in a different context")
    t = ctx_src.tgrp
    return Element(ctx_dst, {a: t.scale(b[a], c) for a, c in f.coeffs.items()})


def graded_component(f: Element, grading: Grading, label) -> Element:
    return graded_components(f, grading).get(label, zero(f.ctx))


def graded_components(f: Element, grading: Grading) -> dict:
    """label -> nonzero component, sorted by label."""
    check_grading(grading)
    if grading.gpd != f.ctx.gpd:
        raise ValueError("grading lives over a different groupoid")
    parts = {}
    for a, c in f.coeffs.items():
        parts.setdefault(grading.deg[a], {})[a] = c
    return {lab: Element(f.ctx, parts[lab]) for lab in sorted(parts)}


# --- the equivariant picture -------------------------------------------------


class EquivContext:
    """A twist, a chosen section, and ctx: the Context of the algebra psi
    lands in, carrying the coefficient data and the inverted induced
    cocycle.  The equivariant products read ring, tgrp and conj from ctx
    but compute from the twist's own tables, never from ctx.coc.  The
    context holds the section's exponent table in _exponents, the one the
    induced cocycle was read from.  The twist passes check_twist, through
    induced_cocycle, before anything is built."""

    def __init__(
        self,
        twist: Twist,
        section,
        ring: Ring,
        tgrp: UnitSubgroup,
        conj: Optional[Involution] = None,
    ):
        if tgrp.order != twist.n:
            raise ValueError("unit subgroup order does not match the twist")
        # induced_cocycle checks the twist, then the section
        coc = invert_cocycle(induced_cocycle(twist, section))
        self.twist = twist
        self.section = tuple(section)
        self._exponents = _exponent_table(twist, self.section)
        self.ctx = Context(twist.base, ring, tgrp, coc, conj)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, EquivContext)
            and self.twist == other.twist
            and self.section == other.section
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash((self.twist, self.section, self.ctx))


class EquivariantElement:
    """Fiber-scaling function on the total groupoid, stored by its values
    on the section: the full function is value(e) = g^k * h(a) where e sits
    over a and k is the unique scalar from sec(a) to e, read off the
    context's exponent table.  A key of h that is not a base arrow raises
    ValueError."""

    __slots__ = ("ectx", "h")

    def __init__(self, ectx: EquivContext, h: dict):
        self.ectx = ectx
        r = ectx.ctx.ring
        self.h = {a: c for a, c in _on_arrows(h, ectx.twist.base.m).items() if not r.is_zero(c)}

    def value(self, e: int):
        """Evaluate at any total arrow."""
        ectx = self.ectx
        c = self.h.get(ectx.twist.proj[e])
        if c is None:
            return ectx.ctx.ring.zero()
        return ectx.ctx.tgrp.scale(ectx._exponents[e], c)

    def __eq__(self, other):
        return (
            isinstance(other, EquivariantElement)
            and self.ectx == other.ectx
            and self.h == other.h
        )

    def __repr__(self):
        return "EquivariantElement(%d arrows)" % len(self.h)


def equiv_convolve(f: EquivariantElement, g: EquivariantElement) -> EquivariantElement:
    """Convolution in the equivariant picture, computed entirely from the
    twist's own composition tables: the value over a sums f(sec(a) sec(c))
    g(inv(sec(c))) over arrows c into src(a).

    It walks supports.  inv(sec c) lies over inv(c), so g is nonzero there
    exactly when inv(c) is in the support of g, and only those c are
    visited; for each, the arrows a with src(a) = rng(c) follow, and f is
    read at e = sec(a) sec(c) straight from the twist's projection and
    exponent table, as g^k(e) h(proj e).  The two scalars of a term are
    merged into one: g^k x * g^j y = g^(k + j) x y.  No cocycle is read, so
    comparing with convolve after psi stays a two-route check."""
    if f.ectx != g.ectx:
        raise ValueError("elements live in different equivariant contexts")
    ectx = f.ectx
    tw = ectx.twist
    base, total, proj, k = tw.base, tw.total, tw.proj, ectx._exponents
    comp, inv = total.comp, total.inv
    by_src, bsrc, binv = base.arrows_by_src(), base.src, base.inv
    sec, fh = ectx.section, f.h
    add, mul, scale = ectx.ctx.ring.add, ectx.ctx.ring.mul, ectx.ctx.tgrp.scale
    out = {}
    for b, y in g.h.items():  # b = inv(c)
        sc = sec[binv[b]]
        j = k[inv[sc]]
        for a in by_src[bsrc[b]]:
            e = comp[(sec[a], sc)]
            x = fh.get(proj[e])
            if x is not None:
                term = scale(k[e] + j, mul(x, y))
                prev = out.get(a)
                out[a] = term if prev is None else add(prev, term)
    return EquivariantElement(ectx, out)


def equiv_star(f: EquivariantElement) -> EquivariantElement:
    """Star in the equivariant picture: conjugate of the value at the
    total-groupoid inverse."""
    ectx = f.ectx
    r, conj = ectx.ctx.ring, ectx.ctx.conj
    if conj is None:
        raise ValueError("context carries no involution")
    tw = ectx.twist
    out = {}
    for a in range(tw.base.m):
        val = f.value(tw.total.inv[ectx.section[a]])
        if not r.is_zero(val):
            out[a] = conj(val)
    return EquivariantElement(ectx, out)


def _check_target(ectx: EquivContext, ctx: Context):
    if ctx.coc != ectx.ctx.coc:
        raise ValueError("target cocycle is not the inverted induced cocycle")
    if ctx != ectx.ctx:
        raise ValueError("target context disagrees on coefficient data")


def psi(f: EquivariantElement, ctx: Context) -> Element:
    """Restriction along the section: an isomorphism onto the algebra of
    the inverted induced cocycle.  The target context must carry exactly
    that cocycle (and the same ring data)."""
    _check_target(f.ectx, ctx)
    return Element(ctx, dict(f.h))


def psi_inverse(ectx: EquivContext, f: Element) -> EquivariantElement:
    _check_target(ectx, f.ctx)
    return EquivariantElement(ectx, dict(f.coeffs))
