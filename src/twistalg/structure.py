"""Two-sided ideals over a field and the uniqueness/simplicity machinery.

Ideals are stored as reduced row echelon bases in the delta-arrow
coordinate system.  Since the unit space is finite the algebra is unital,
so the two-sided ideal generated by f is the linear span of delta_a * f *
delta_b over all arrow pairs (a, b).  Every row reduction over a field goes
through Echelon, sparse rows keyed by least-index pivot: generation,
membership, the closure check, rref, reduce_against and the simplicity
scan, every field alike, GF(2) included.

Closure is tested only under the units and the generators
(groupoid.generating_set: a cycle through each orbit's units, then
greedy), and the test is still exact.  Every non-unit
arrow is a composable word s1...sk in the generators, and delta_s delta_t
= g^sigma(s,t) delta_st with g^sigma(s,t) a unit, so delta_a is a unit
multiple of delta_s1 ... delta_sk; a span closed under delta_s on both
sides for each generator s is closed under every delta_a.  The units stay
in the set because a unit need not be such a word: pair1 + pair1 has no
generator at all, and there the span of delta_0 + delta_1 passes the
generators but is not an ideal.  _images reads those one-sided products
off the context's regular-representation table (Context.regular, which
convolve and the simplicity scan share), inverted once per context to
list, per arrow c, each (arm, target, exponent) whose entry reads c; an
arm is one closer on one side.  So the images of a row cost a walk over
its own support, not over every entry of every arm: on pair_groupoid(n)
an arm has n entries, and every row the worklist queues has one.

The test runs once per ideal.  An Ideal given a basis (by a caller, a file
or the structural certificate) checks that the basis is RREF and closed.
ideal_generated instead closes a worklist under the same arrows: every
row that enlarges its span queues its images, so the finished span is
closed by construction, and that is its closure check.  Both use the one
_images kept on the context (derived).  The worklist is seeded with the
unit blocks 1_u f 1_w of each generator f, f restricted to the arrows
from w to u: cocycles are normalised, so delta_u delta_a = delta_a when
rng a = u, and the blocks are products with f that sum to f, so they
generate the same ideal.  A block of a pair groupoid is one arrow.  The
worklist stops once the span's dimension is that of B, the span of the
delta_a with src a in an orbit the generators touch (the ideal of an
invariant unit set, as in is_simple's certificate): B is an ideal holding
every generator, so a span that large is B, and its canonical basis is
B's unit rows, which need no back-substitution.

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

The exhaustive scan rests on two lemmas.  One-entry: when the recipe of
(a, b) has the single entry (c, t, k), delta_a v delta_b = g^k v_c
delta_t with g^k a unit, so if delta_t generates the algebra so does every
v with v_c != 0.  A recipe (a, b) has one entry per arrow from rng b to src
a, so one-entry recipes exist only where the isotropy is trivial, and the
arrows c with one onto the last arrow m - 1 are none or all the arrows
within the orbit of m - 1.  The scan opens with lead * delta_(m-1), which
generates only the span of those arrows.  If it passes, G is transitive:
either every arrow has a one-entry recipe onto m - 1, G is a twisted pair
groupoid (a matrix algebra) and the scan answers after that one rank scan,
or the isotropy is nontrivial and no recipe has one entry.  Unit orbit: on
a group every delta_a is a unit of the algebra (delta_a delta_a^-1 = g^k
delta_e), so u = lambda delta_a v delta_b, lambda a nonzero scalar,
generates the ideal v does.  Once v passes its rank scan, each recipe's
image of v, scaled so that its first nonzero coefficient is the scan's
lead, joins a set, and a later candidate found there passes without a
scan.  The set holds each vector as one integer, its digits (positions in
ring.elements()) read in base q, which keeps it a fraction of the size of
a set of tuples.  The orbit is worked out in discrete-log coordinates: the
nonzero elements of GF(q) are the powers of a primitive root (Lidl and
Niederreiter, Finite Fields, ch. 9), so with the ring's log and antilog
tables every product and rescaling is an integer sum mod q - 1 and every
digit one lookup, without ring arithmetic.  Both lemmas pass over only
candidates that generate, so the verdict and certificate are the full
scan's.

The candidates themselves are enumerated as codes, not as vectors.
elements() lists zero first, so the least nonzero element has digit 1,
the lead group of position pos is the range of codes from q^(m-1-pos) up
to twice that, and ascending codes are lexicographic order.  A sparse
row {i: elements()[digit i]} is decoded only for a code that is scanned.
The recipes are kept on the context (derived, _scan_tables).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable

from .algebra import Context, Element, char_fn, convolve, delta, graded_components
from .cocycle import Grading, check_grading, kernel_arrows
from .groupoid import (
    _orbit_arrows,
    derived,
    generating_set,
    is_effective,
    is_minimal,
    orbits,
    subgroupoid,
)


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
        ring, lead = self.ring, w.pop(j)
        if lead != ring.one():
            cinv = ring.inv(lead)
            w = {k: ring.mul(cinv, v) for k, v in w.items()}
        self.pivots[j] = w
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
        out = []
        for j in sorted(pivots):
            row = [zero] * m
            row[j] = ring.one()
            for i, val in pivots[j].items():
                row[i] = val
            out.append(tuple(row))
        return out


def _sparse(ring, row) -> dict:
    return {j: c for j, c in enumerate(row) if not ring.is_zero(c)}


def _length(rows: list) -> int:
    """The length every row has, 0 for no rows; rows of different lengths
    raise ValueError naming them."""
    lengths = sorted({len(r) for r in rows})
    if len(lengths) > 1:
        raise ValueError("rows have different lengths: %s" % ", ".join(map(str, lengths)))
    return lengths[0] if lengths else 0


def rref(ring, rows: list) -> list:
    """Reduced row echelon form, least-index pivots, leading ones, sorted.
    Rows of different lengths raise ValueError."""
    rows = [list(r) for r in rows]
    return Echelon(ring, (_sparse(ring, r) for r in rows)).rows(_length(rows))


def reduce_against(ring, basis: list, vec) -> list:
    """Remainder of vec after elimination by an RREF basis.  Basis rows of
    different lengths, or a vec of another length, raise ValueError."""
    basis, vec = [list(r) for r in basis], list(vec)
    if basis and len(vec) != _length(basis):
        raise ValueError("vector has length %d but basis rows have length %d" % (len(vec), len(basis[0])))
    rem = Echelon(ring, (_sparse(ring, r) for r in basis)).remainder(_sparse(ring, vec))
    return [rem.get(j, ring.zero()) for j in range(len(vec))]


@derived
def _images(ctx: Context):
    """The closure test's arrows: a function of a sparse row v that lists
    (a, side, delta_a v or v delta_a) for a in the units and the
    generators, ascending, left before right, empty images included.  An
    arm is one such a on one side.  Built once per context and kept there
    (derived), off ctx.regular(): reads[c] holds, flat (three ints an
    entry, not a tuple each, as the table stays for the context's life),
    (i, t, k) for each entry of arm i that reads the arrow c, which arm i
    sends to g^k delta_t, so the images walk only v's support.  Like
    tgrp.scale they skip exponent 0; table exponents are already reduced
    mod n."""
    left, right = ctx.regular()
    arms, reads = [], [[] for _ in range(ctx.gpd.m)]
    for a in sorted(set(ctx.gpd.units) | set(generating_set(ctx.gpd))):
        for side, entries in (("left", left[a]), ("right", right[a])):
            for c, t, k in entries:
                reads[c] += (len(arms), t, k)
            arms.append((a, side))
    reads = [tuple(r) for r in reads]
    mul, powers = ctx.ring.mul, ctx.tgrp.powers

    def images(v: dict):
        out = [{} for _ in arms]
        for c, x in v.items():
            r = iter(reads[c])
            for i, t, k in zip(r, r, r):
                out[i][t] = mul(powers[k], x) if k else x
        return [(a, side, w) for (a, side), w in zip(arms, out)]
    return images


class Ideal:
    """Two-sided ideal with an RREF basis; both verified at build time.

    Closure is checked under delta_a on both sides for a in the units and
    the generators only (module docstring): words in the generators give
    every other arrow up to a unit scalar, and a unit need not be such a
    word.  A failure names its row and the first of those arrows that shows
    it, rows in order, left before right, and the check stops at three.
    ideal_generated passes the same test while it builds its span, or
    stops at its orbit bound, which is an ideal, and hands that span to
    _closed instead."""

    def __init__(self, ctx: Context, basis):
        ring, m = ctx.ring, ctx.gpd.m
        if not ring.is_field:
            raise ValueError("ideals require field coefficients")
        self.ctx = ctx
        self.basis = tuple(tuple(r) for r in basis)
        rows = [_sparse(ring, r) for r in self.basis]
        # RREF exactly when the rows are their span's canonical basis
        self.span = Echelon(ring, (dict(v) for v in rows))
        if any(len(r) != m for r in self.basis) or self.span.rows(m) != list(self.basis):
            raise ValueError("ideal rows are not in reduced row echelon form")
        images = _images(ctx)
        failures = (
            "not closed under %s delta_%d (row %d)" % (side, a, i)
            for i, v in enumerate(rows)
            for a, side, w in images(v)
            if self.span.remainder(w)
        )
        bad = list(itertools.islice(failures, 3))
        if bad:
            raise ValueError("; ".join(bad))

    @classmethod
    def _closed(cls, ctx: Context, span: Echelon) -> Ideal:
        """The ideal spanned by span, which the caller knows to be closed
        under the units and the generators; its basis comes from span.rows."""
        self = cls.__new__(cls)
        self.ctx, self.span = ctx, span
        self.basis = tuple(span.rows(ctx.gpd.m))
        return self

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


def ideal_generated(ctx: Context, elems: Iterable[Element]) -> Ideal:
    """Smallest two-sided ideal containing the given elements.

    A worklist closes the span under the units and the generators: the unit
    blocks of each generator are inserted, and every row that enlarges the
    span queues its images under those arrows, on both sides, for insertion
    in turn.  Each spanning row then has its images in the final span, which
    is Ideal's closure test passed at generation, so the span is an ideal;
    it holds only sums of products delta_a f delta_b, so it is the least
    one.  The unit block 1_u f 1_w of f is f restricted to the arrows from w
    to u (delta_u delta_a = delta_a when rng a = u, as cocycles are
    normalised), so the blocks sum to f and each is a product with f: they
    generate the same ideal.  The worklist stops once the span is as large
    as B, the span of the delta_a with src a in an orbit the generators
    touch: B is an ideal (its units are invariant) holding every generator,
    so a span of its dimension is B, whose canonical basis is its unit
    rows."""
    if not ctx.ring.is_field:
        raise ValueError("ideals require field coefficients")
    src, rng = ctx.gpd.src, ctx.gpd.rng
    orbit_of, orbit_arrows = _orbit_arrows(ctx.gpd)
    pending, touched = [], set()
    for f in elems:
        if f.ctx != ctx:
            raise ValueError("generator lives in a different context")
        blocks = {}
        for a, c in f.coeffs.items():
            blocks.setdefault((rng[a], src[a]), {})[a] = c
            touched.add(orbit_of[a])
        pending += blocks.values()
    bound = sum(len(orbit_arrows[i]) for i in touched)
    images, span = _images(ctx), Echelon(ctx.ring)
    for v in pending:  # grows while it is read
        if span.insert(dict(v)):
            if len(span.pivots) == bound:
                span.pivots = {a: {} for i in touched for a in orbit_arrows[i]}
                break
            pending.extend(w for _, _, w in images(v) if w)
    return Ideal._closed(ctx, span)


def ck_witness(ctx: Context, ideal: Ideal) -> frozenset:
    """Nonempty unit set V with the indicator of V inside the ideal.

    Construction: take the first basis element f and its least support
    arrow, slide that arrow to a unit by convolving with the inverse
    delta, and cut down by the singleton at the source.  Effectiveness
    (principality here) collapses the cut to a scalar multiple of the
    indicator.  Membership is checked against the row space.
    """
    if ctx != ideal.ctx:
        raise ValueError("ideal lives in a different context")
    if not is_effective(ctx.gpd):
        raise ValueError("groupoid is not effective")
    if not ideal.basis:
        raise ValueError("zero ideal has no witness")
    f = from_vec(ctx, ideal.basis[0])
    return _slide_witness(ideal, f, min(f.coeffs))[0]


def _slide_witness(ideal: Ideal, f: Element, arrow: int):
    """Slide arrow, in the support of f, to its source unit by the inverse
    delta; certify that singleton by membership.  (witness, slid element)"""
    ctx = ideal.ctx
    slid = convolve(delta(ctx, ctx.gpd.inv[arrow]), f)
    unit = ctx.gpd.src[arrow]
    if ctx.ring.is_zero(slid.value(unit)):
        raise RuntimeError("arrow %d did not slide onto its source unit %d" % (arrow, unit))
    witness = frozenset([unit])
    if not ideal.member(char_fn(ctx, witness)):
        raise RuntimeError("witness indicator escaped the row space")
    return witness, slid


def is_graded_ideal(ideal: Ideal, grading: Grading) -> bool:
    """Every homogeneous component of every basis element stays inside."""
    check_grading(grading)
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
    check_grading(grading)
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
    witness, slid = _slide_witness(ideal, part, arrow)
    # slid lives in the identity-degree subalgebra and in the ideal
    if any(grading.deg[a] != grading.group.identity for a in slid.coeffs):
        raise RuntimeError("slid component left the identity-degree subalgebra")
    return witness


# --- simplicity --------------------------------------------------------------

SimpleResult = namedtuple("SimpleResult", "simple certificate reason")


def _product_recipes(ctx: Context):
    """Per arrow pair (a, b), in ascending order, how delta_a * v * delta_b
    reads off v: left[a] followed through right[b], entries (c, a c b,
    exponent sum mod n).  Pairs whose product is always zero are left out."""
    n = ctx.tgrp.order
    left, right = ctx.regular()
    right = [{c: (t, k) for c, t, k in rb} for rb in right]
    return [rec for la in left for rb in right
            if (rec := [(c, rb[ac][0], (k + rb[ac][1]) % n) for c, ac, k in la if ac in rb])]


@derived
def _scan_tables(ctx: Context):
    """(recipes, covers) for the exhaustive scan: _product_recipes, and
    whether every arrow has a one-entry recipe onto the last arrow m - 1.
    Kept on ctx (derived), so repeated verdicts share them."""
    recipes, last = _product_recipes(ctx), ctx.gpd.m - 1
    onto = {rec[0][0] for rec in recipes if len(rec) == 1 and rec[0][1] == last}
    return recipes, len(onto) == ctx.gpd.m


def _generates_everything(tgrp, m, v, recipes) -> bool:
    """Rank of span{delta_a v delta_b} reaches m, for the sparse row v, by
    incremental insertion with early exit; the recipes are applied inline,
    as a call per recipe costs ~20%.  Like tgrp.scale it skips exponent 0;
    recipe exponents are already reduced mod n."""
    ring, powers = tgrp.ring, tgrp.powers
    span = Echelon(ring)
    for recipe in recipes:
        w = {}
        for c, t, k in recipe:
            if c in v:
                w[t] = ring.mul(powers[k], v[c]) if k else v[c]
        if w and span.insert(w) and len(span.pivots) == m:
            return True
    return False


def _orbit(tgrp, place, digit, v, recipes) -> set:
    """The codes of every nonzero delta_a v delta_b, for the sparse row v,
    each scaled so that its first nonzero coefficient is v's.  A vector's
    code is the sum of digit[x_i] * place[i]; on a group each of these
    vectors generates the ideal v does (module docstring).  Entries travel
    as discrete logs (ring._logs): g^k v_c is log g^k + log v_c, and the
    scaling adds log lead - log of the first entry, mod q - 1."""
    log, antilog = tgrp.ring._logs()
    q1, exps = len(antilog), [log[p] for p in tgrp.powers]
    logv = {c: log[x] for c, x in v.items()}
    lead = logv[min(logv)]
    out = set()
    for recipe in recipes:
        w = [(t, logv[c] + exps[k]) for c, t, k in recipe if c in logv]
        if w:
            s = lead - min(w)[1]
            out.add(sum([digit[antilog[(x + s) % q1]] * place[t] for t, x in w]))
    return out


def is_simple(ctx: Context, mode: str = "structural", cap: int = 2 ** 20) -> SimpleResult:
    """Simplicity of the twisted convolution algebra.

    exhaustive: every nonzero element must generate the full algebra;
    needs a finite field with size**arrows <= cap.  The certificate of a
    negative answer is the lexicographically first failing element.  When
    every arrow has a one-entry recipe onto the last arrow, the first rank
    scan decides; on a group every candidate in the unit orbit of one that
    passed is passed over, the orbit's codes worked out in discrete-log
    coordinates.  Candidates are enumerated as base-q codes, and a sparse
    row is built only for a code that is scanned (module docstring).  Every
    field takes the same Echelon rank scan, and the recipes are built once
    per context.
    structural: answers from minimality when the groupoid is effective,
    with the ideal generated by the indicator of a proper invariant unit
    set U as negative certificate (it is spanned by the delta_a with src a
    in U); on a non-effective groupoid the verdict is None (unknown).  In
    both modes the zero algebra (no arrows) is not simple.
    """
    if not ctx.ring.is_field:
        raise ValueError("simplicity is defined here over field coefficients")
    gpd = ctx.gpd
    if mode == "exhaustive":
        if ctx.ring.size is None:
            raise ValueError("exhaustive mode needs a finite field")
        if ctx.ring.size ** gpd.m > cap:
            raise ValueError("search space %d**%d exceeds cap %d" % (ctx.ring.size, gpd.m, cap))
    elif mode != "structural":
        raise ValueError("unknown mode %r" % mode)
    if not gpd.m:
        return SimpleResult(False, None, "the zero algebra is not simple")
    if mode == "exhaustive":
        recipes, covers = _scan_tables(ctx)
        elems, m = list(ctx.ring.elements()), gpd.m
        q = len(elems)
        digit = {e: i for i, e in enumerate(elems)}
        place = [q ** (m - 1 - i) for i in range(m)]
        # a one-arrow group has one candidate and nothing to skip
        on_group = len(gpd.units) == 1 and m > 1
        simple = SimpleResult(True, None, "every nonzero element generates the algebra")
        passed = set()
        for pos in range(m - 1, -1, -1):
            for code in range(place[pos], 2 * place[pos]):
                if code in passed:
                    continue
                v = {i: elems[d] for i in range(pos, m) if (d := code // place[i] % q)}
                if not _generates_everything(ctx.tgrp, m, v, recipes):
                    return SimpleResult(False, Element(ctx, v), "element generates a proper ideal")
                if covers:  # one-entry lemma: every candidate generates
                    return simple
                if on_group:
                    passed |= _orbit(ctx.tgrp, place, digit, v, recipes)
        return simple
    if not is_effective(gpd):
        return SimpleResult(None, None, "groupoid is not effective")
    if is_minimal(gpd):
        return SimpleResult(True, None, "effective and minimal")
    orb = orbits(gpd)[0]
    cert = ideal_generated(ctx, [char_fn(ctx, orb)])
    return SimpleResult(False, cert, "proper ideal over invariant units %s" % (sorted(orb),))
