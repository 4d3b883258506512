"""Two-sided ideals over a field and the uniqueness/simplicity machinery.

Ideals are stored as reduced row echelon bases in the delta-arrow
coordinate system.  Since the unit space is finite the algebra is unital,
so the two-sided ideal generated by f is already the linear span of
delta_a * f * delta_b over all arrow pairs (a, b).  Every row reduction
over a field goes through Echelon, sparse rows keyed by least-index pivot:
ideal generation, membership and the closure check every Ideal runs, rref,
reduce_against and the generic simplicity scan.  Only the GF(2) scan keeps
its own bitmask elimination, which is faster there than dict rows.

ck_witness and graded_ck_witness realize the kernel-side constructions of
the uniqueness theorems: slide a support arrow to a unit with a delta
factor, cut down by a singleton unit set (principality of an effective
groupoid makes the singleton work), and certify the resulting unit
indicator by row-space membership.

is_simple has two deliberately independent modes.  Exhaustive mode scans
every nonzero element of the finite algebra (finite field, capped size) in
lexicographic order and checks that each generates the full algebra,
returning the first failure as certificate; structural mode answers from
minimality of an effective groupoid, with a proper invariant-orbit ideal
as the negative certificate, and reports None (unknown) when the groupoid
is not effective.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable, Optional

from .algebra import Context, Element, char_fn, convolve, delta, graded_components
from .cocycle import Grading, validate_grading, kernel_arrows
from .groupoid import is_effective, is_minimal, orbits, subgroupoid


def to_vec(f: Element) -> list:
    z = f.ctx.ring.zero()
    vec = [z] * f.ctx.gpd.m
    for a, c in f.coeffs.items():
        vec[a] = c
    return vec


def from_vec(ctx: Context, vec) -> Element:
    return Element(ctx, {a: c for a, c in enumerate(vec)})


class Echelon:
    """Row space over a field.  pivots maps each pivot index j to the tail
    of its row (entries past j; the entry at j is one); a tail may still
    hold entries in later pivot columns until rows() reduces them."""

    def __init__(self, ring, rows=()):
        self.ring = ring
        self.pivots = {}
        for row in rows:
            self.insert(row)

    def _lead(self, w: dict):
        """Eliminate w in place, least index first and keeping its entries
        nonzero, until that index has no pivot row; return it, or None."""
        ring, pivots = self.ring, self.pivots
        while w:
            j = min(w)
            tail = pivots.get(j)
            if tail is None:
                return j
            lead = w.pop(j)
            for k, val in tail.items():
                term = ring.mul(lead, val)
                nval = ring.sub(w.pop(k), term) if k in w else ring.neg(term)
                if not ring.is_zero(nval):
                    w[k] = nval
        return None

    def insert(self, w) -> bool:
        """Add the row w, {index: nonzero coeff}, which is used up in the
        process; True when it enlarged the span."""
        j = self._lead(w)
        if j is None:
            return False
        ring = self.ring
        cinv = ring.inv(w.pop(j))
        self.pivots[j] = {k: ring.mul(cinv, v) for k, v in w.items()}
        return True

    def remainder(self, w) -> dict:
        """The row w, {index: nonzero coeff}, reduced by the span; empty
        exactly when w lies in the span."""
        w, out = dict(w), {}
        while (j := self._lead(w)) is not None:
            out[j] = w.pop(j)
        return out

    def rows(self, m: int) -> list:
        """The canonical reduced row echelon basis as dense m-tuples, sorted
        by pivot.  Back-substitutes into the tails in place, last pivot first."""
        ring, zero, pivots = self.ring, self.ring.zero(), self.pivots
        for j in sorted(pivots, reverse=True):
            tail = pivots[j]
            for k in [k for k in tail if k in pivots]:
                c = tail.pop(k)
                for i, val in pivots[k].items():
                    tail[i] = ring.sub(tail.get(i, zero), ring.mul(c, val))
        return [tuple(ring.one() if i == j else pivots[j].get(i, zero) for i in range(m))
                for j in sorted(pivots)]


def _sparse(ring, row) -> dict:
    return {j: c for j, c in enumerate(row) if not ring.is_zero(c)}


def rref(ring, rows: list) -> list:
    """Reduced row echelon form, least-index pivots, leading ones, sorted."""
    rows = [list(r) for r in rows]
    return Echelon(ring, (_sparse(ring, r) for r in rows)).rows(max(map(len, rows), default=0))


def reduce_against(ring, basis: list, vec) -> list:
    """Remainder of vec after elimination by an RREF basis."""
    vec = list(vec)
    rem = Echelon(ring, (_sparse(ring, r) for r in basis)).remainder(_sparse(ring, vec))
    return [rem.get(j, ring.zero()) for j in range(len(vec))]


class Ideal:
    """Two-sided ideal with an RREF basis; closure verified at build time."""

    def __init__(self, ctx: Context, basis, verify: bool = True):
        if not ctx.ring.is_field:
            raise ValueError("ideals require field coefficients")
        self.ctx = ctx
        self.basis = tuple(tuple(r) for r in basis)
        self.span = Echelon(ctx.ring, (_sparse(ctx.ring, r) for r in self.basis))
        bad = []
        for row in self.basis if verify else ():
            f = from_vec(ctx, row)
            for a in range(ctx.gpd.m):
                d = delta(ctx, a)
                if self.span.remainder(convolve(d, f).coeffs):
                    bad.append("not closed under left delta_%d" % a)
                if self.span.remainder(convolve(f, d).coeffs):
                    bad.append("not closed under right delta_%d" % a)
        if bad:
            raise ValueError("; ".join(bad[:3]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, f: Element) -> bool:
        if f.ctx != self.ctx:
            raise ValueError("element lives in a different context")
        return not self.span.remainder(f.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ctx == other.ctx
            and self.basis == other.basis
        )


def ideal_generated(ctx: Context, elems: Iterable[Element], verify: bool = True) -> Ideal:
    """Smallest two-sided ideal containing the given elements."""
    if not ctx.ring.is_field:
        raise ValueError("ideals require field coefficients")
    span = Echelon(ctx.ring)
    m = ctx.gpd.m
    for f in elems:
        if f.ctx != ctx:
            raise ValueError("generator lives in a different context")
        for a in range(m):
            left = convolve(delta(ctx, a), f)
            if not left.coeffs:
                continue
            for b in range(m):
                span.insert(convolve(left, delta(ctx, b)).coeffs)
    return Ideal(ctx, span.rows(m), verify=verify)


def ck_witness(ctx: Context, ideal: Ideal) -> frozenset:
    """Nonempty unit set V with the indicator of V inside the ideal.

    Construction: take the first basis element f and its least support
    arrow, slide that arrow to a unit by convolving with the inverse
    delta, and cut down by the singleton at the source.  Effectiveness
    (principality here) collapses the cut to a scalar multiple of the
    indicator.  Membership is certified against the row space.
    """
    if ctx != ideal.ctx:
        raise ValueError("ideal lives in a different context")
    if not is_effective(ctx.gpd):
        raise ValueError("groupoid is not effective")
    if not ideal.basis:
        raise ValueError("zero ideal has no witness")
    f = from_vec(ctx, ideal.basis[0])
    arrow = min(f.coeffs)
    slid = convolve(delta(ctx, ctx.gpd.inv[arrow]), f)
    unit = ctx.gpd.src[arrow]
    assert not ctx.ring.is_zero(slid.value(unit))
    witness = frozenset([unit])
    if not ideal.member(char_fn(ctx, witness)):
        raise RuntimeError("witness indicator escaped the row space")
    return witness


def is_graded_ideal(ideal: Ideal, grading: Grading) -> bool:
    """Every homogeneous component of every basis element stays inside."""
    bad = validate_grading(grading)
    if bad:
        raise ValueError("invalid grading: " + "; ".join(bad[:4]))
    for row in ideal.basis:
        f = from_vec(ideal.ctx, row)
        for part in graded_components(f, grading).values():
            if not ideal.member(part):
                return False
    return True


def graded_ck_witness(ctx: Context, grading: Grading, ideal: Ideal) -> frozenset:
    """Witness for graded ideals: pick a homogeneous component, slide it
    into the identity-degree subgroupoid, and cut down there.  Needs that
    subgroupoid (not necessarily the whole groupoid) to be effective."""
    if ctx != ideal.ctx:
        raise ValueError("ideal lives in a different context")
    bad = validate_grading(grading)
    if bad:
        raise ValueError("invalid grading: " + "; ".join(bad[:4]))
    if not ideal.basis:
        raise ValueError("zero ideal has no witness")
    kernel, _ = subgroupoid(ctx.gpd, kernel_arrows(grading))
    if not is_effective(kernel):
        raise ValueError("identity-degree subgroupoid is not effective")
    if not is_graded_ideal(ideal, grading):
        raise ValueError("ideal is not graded")
    f = from_vec(ctx, ideal.basis[0])
    arrow = min(f.coeffs)
    part = graded_components(f, grading)[grading.deg[arrow]]
    slid = convolve(delta(ctx, ctx.gpd.inv[arrow]), part)
    # slid lives in the identity-degree subalgebra and in the ideal
    e = grading.group.identity
    assert all(grading.deg[a] == e for a in slid.coeffs)
    unit = ctx.gpd.src[arrow]
    assert not ctx.ring.is_zero(slid.value(unit))
    witness = frozenset([unit])
    if not ideal.member(char_fn(ctx, witness)):
        raise RuntimeError("witness indicator escaped the row space")
    return witness


# --- simplicity --------------------------------------------------------------

SimpleResult = namedtuple("SimpleResult", "simple certificate reason")


def _product_recipes(ctx: Context):
    """Per arrow pair (a, b), how delta_a * v * delta_b reads off v:
    entries (c, target, scalar) with target = a c b, distinct since a c b
    determines c.  Recipes are emitted round-robin across the range
    classes of the left factor so that a rank scan touches many pivot
    positions early."""
    gpd = ctx.gpd
    by_rng = gpd.arrows_by_rng()
    buckets = {}
    for a in range(gpd.m):
        for b in range(gpd.m):
            entries = []
            for c in by_rng.get(gpd.src[a], ()):
                if gpd.src[c] != gpd.rng[b]:
                    continue
                ac = gpd.comp[(a, c)]
                target = gpd.comp[(ac, b)]
                scalar = ctx.ring.mul(ctx.coc_val(a, c), ctx.coc_val(ac, b))
                entries.append((c, target, scalar))
            if entries:
                buckets.setdefault(gpd.rng[a], []).append(entries)
    order = sorted(buckets)
    out = []
    idx = 0
    while True:
        emitted = False
        for key in order:
            lst = buckets[key]
            if idx < len(lst):
                out.append(lst[idx])
                emitted = True
        if not emitted:
            return out
        idx += 1


def _generates_everything(ring, m, vec, recipes) -> bool:
    """Rank of span{delta_a vec delta_b} reaches m, by incremental
    insertion with early exit."""
    span, v = Echelon(ring), _sparse(ring, vec)
    for recipe in recipes:
        w = {}
        for c, t, s in recipe:
            if c in v:
                w[t] = ring.mul(s, v[c])
        if w and span.insert(w) and len(span.pivots) == m:
            return True
    return False


def _generates_everything_gf2(ring, m, vec, recipes_gf2) -> bool:
    """GF(2) fast path: vectors are bit masks, reduction is xor."""
    bits = 0
    for i, c in enumerate(vec):
        if c:
            bits |= 1 << i
    pivots = [0] * m
    rank = 0
    for recipe in recipes_gf2:
        w = 0
        for c, target in recipe:
            if (bits >> c) & 1:
                w ^= 1 << target
        while w:
            j = w.bit_length() - 1
            row = pivots[j]
            if row:
                w ^= row
            else:
                pivots[j] = w
                rank += 1
                if rank == m:
                    return True
                break
    return rank == m


def _candidates(ring, m):
    """All nonzero vectors with leading coefficient fixed to the least
    nonzero field element, in ascending lexicographic order.  The first
    failing candidate here is the lexicographically first failing element
    of the whole algebra, since scaling preserves the generated ideal."""
    elems = list(ring.elements())
    lead = next(e for e in elems if not ring.is_zero(e))
    z = ring.zero()
    for pos in range(m - 1, -1, -1):
        head = [z] * pos + [lead]
        for tail in itertools.product(elems, repeat=m - 1 - pos):
            yield head + list(tail)


def is_simple(ctx: Context, mode: str = "structural", cap: int = 2 ** 20) -> SimpleResult:
    """Simplicity of the twisted convolution algebra.

    exhaustive: every nonzero element must generate the full algebra;
    needs a finite field with size**arrows <= cap.  The certificate of a
    negative answer is the first failing element.  structural: answers
    from minimality when the groupoid is effective, with a proper ideal
    built from a nontrivial invariant unit set as negative certificate;
    on a non-effective groupoid the verdict is None (unknown).
    """
    if not ctx.ring.is_field:
        raise ValueError("simplicity is defined here over field coefficients")
    gpd = ctx.gpd
    if mode == "exhaustive":
        if ctx.ring.size is None:
            raise ValueError("exhaustive mode needs a finite field")
        if ctx.ring.size ** gpd.m > cap:
            raise ValueError(
                "search space %d**%d exceeds cap %d" % (ctx.ring.size, gpd.m, cap)
            )
        recipes = _product_recipes(ctx)
        generates = _generates_everything
        if ctx.ring.kind == ("GF", 2):
            recipes = [[(c, t) for c, t, _ in rec] for rec in recipes]
            generates = _generates_everything_gf2
        for vec in _candidates(ctx.ring, gpd.m):
            if not generates(ctx.ring, gpd.m, vec, recipes):
                return SimpleResult(False, from_vec(ctx, vec), "element generates a proper ideal")
        return SimpleResult(True, None, "every nonzero element generates the algebra")
    if mode == "structural":
        if not is_effective(gpd):
            return SimpleResult(None, None, "groupoid is not effective")
        if is_minimal(gpd):
            return SimpleResult(True, None, "effective and minimal")
        orb = orbits(gpd)[0]
        inside = set(orb)
        rows = ({a: ctx.ring.one()} for a in range(gpd.m) if gpd.src[a] in inside)
        cert = Ideal(ctx, Echelon(ctx.ring, rows).rows(gpd.m))
        return SimpleResult(False, cert, "proper ideal over invariant units %s" % (sorted(orb),))
    raise ValueError("unknown mode %r" % mode)
