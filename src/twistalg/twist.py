"""Central extensions of a finite groupoid by a cyclic unit group.

A Twist bundles the extension groupoid (total), the base groupoid, the
order n of the extending cyclic group, the central embedding of
(unit, exponent) pairs, and the projection back onto the base.  Exactness,
centrality, fiber sizes, and the homomorphism laws are all finite checks
in validate_twist.  Two of them are decided on generators: the projection's
composition law on the pairs whose right factor is a unit or lies in
generating_set(total), and centrality at exponent 1; the full loops run
only to name what fails.  The embedding is read-only like the groupoid
tables; check_twist validates a twist once and then marks its base and
total, whose groupoid pass validate_twist skips once they are marked.

build_twist realizes the standard model on the carrier base x Z/n: the
pair (a, k) gets arrow index a*n + k, multiplication twists the exponent
sum by the cocycle, and the canonical section a -> (a, 0) is then the
least-index element of every fiber, which is exactly what find_section
picks.  Sections induce cocycles through the unique-scalar lemma, and
cohomologous cocycles give isomorphic twists.  Both isomorphisms are one
section map, k.s1(a) -> (k + b(a)).s2(a): section_iso runs it from the
model twist of the induced cocycle, with its canonical section and b = 0,
and twists_isomorphic between two twists, with b the coboundary linking
the cocycles their found sections induce.

A section's exponent table holds, for every total arrow e, the k with
e = act(k, sec(proj e)); it is built with n acts per base arrow, and
building it refuses a twist whose fibers are not free, transitive Z/n
orbits.  induced_cocycle, the section map and the equivariant picture in
algebra read it; unique_scalar answers the same question for one pair by
search.  The fibers, the exponent table and the induced cocycle are kept
on the twist (derived), so a round trip that induces from the found
section, then compares twists and builds the equivariant context,
computes each once.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from types import MappingProxyType
from typing import Optional

from .cocycle import Cocycle, check_cocycle, check_cohomologous
from .groupoid import (
    BindOnce, Groupoid, checked, composable_pairs, derived, generating_set, validate_groupoid,
)


class Twist(BindOnce):
    __slots__ = ("base", "total", "n", "embed", "proj", "checked", "_derived")

    def __init__(self, base: Groupoid, total: Groupoid, n: int, embed: dict, proj):
        if n < 1:
            raise ValueError("twist order must be positive")
        self.base = base
        self.total = total
        self.n = n
        self.embed = MappingProxyType(dict(embed))
        self.proj = tuple(proj)
        self.checked = False
        self._derived = {}

    def fiber(self, a: int) -> tuple:
        """Total arrows over base arrow a, ascending."""
        return self._fibers().get(a, ())

    @derived
    def _fibers(self) -> dict:
        fibers = {}
        for e, a in enumerate(self.proj):
            fibers.setdefault(a, []).append(e)
        return {a: tuple(v) for a, v in fibers.items()}

    def act(self, k: int, e: int) -> int:
        """The unit-group action: compose with the central element at rng(e)."""
        x = self.proj[self.total.rng[e]]
        return self.total.comp[(self.embed[(x, k % self.n)], e)]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Twist)
            and self.base == other.base
            and self.total == other.total
            and self.n == other.n
            and self.embed == other.embed
            and self.proj == other.proj
        )

    def __hash__(self):
        return hash((self.base, self.total, self.n, self.proj))

    def __repr__(self):
        return "Twist(order=%d, base_arrows=%d)" % (self.n, self.base.m)


def build_twist(base: Groupoid, coc: Cocycle) -> Twist:
    """The model twist on carrier base x Z/n with cocycle-twisted products.

    It indexes (a, k) as a*n + k itself instead of going through
    groupoid.tabulate, which took twice as long (median 1.5 ms against
    0.8 ms on pair5 with n = 4; 2-vCPU VM, Python 3.11): building twists
    is one of the larger layers of a twist round trip.  A total groupoid
    with more than 2^20 composable pairs, |base.comp| * n^2, is refused
    before anything is allocated."""
    if coc.gpd != base:
        raise ValueError("cocycle lives over a different groupoid")
    pairs = len(base.comp) * coc.n ** 2
    if pairs > 2 ** 20:
        raise ValueError("twist would have %d composable pairs, |base.comp| * n^2 = %d * %d^2,"
                         " more than 2^20" % (pairs, len(base.comp), coc.n))
    check_cocycle(coc)
    n = coc.n
    units = [u * n for u in base.units]
    src = [0] * (base.m * n)
    rng = [0] * (base.m * n)
    inv = [0] * (base.m * n)
    for a in range(base.m):
        ia = base.inv[a]
        neg = -coc.table[(a, ia)]
        for k in range(n):
            e = a * n + k
            src[e] = base.src[a] * n
            rng[e] = base.rng[a] * n
            inv[e] = ia * n + (neg - k) % n
    comp = {}
    for (a, b), ab in base.comp.items():
        shift = coc.table[(a, b)]
        for k in range(n):
            for l in range(n):
                comp[(a * n + k, b * n + l)] = ab * n + (shift + k + l) % n
    total = Groupoid(units, src, rng, inv, comp)
    embed = {(u, k): u * n + k for u in base.units for k in range(n)}
    proj = [e // n for e in range(base.m * n)]
    return Twist(base, total, n, embed, proj)


def validate_twist(tw: Twist) -> list:
    """All extension axioms, but none of a marked base's or total's; empty when valid.

    Once base and total are groupoids, two laws are decided on generators.
    The pairs (e, s) on which the projection respects composition are
    closed under composing s on the right, by associativity in both
    groupoids, and every total arrow is a unit followed by elements of
    generating_set(total); so the pairs whose s is a unit or a generator
    decide the law.  Centrality at exponent 1 decides it at every exponent,
    since embed(u, k) = embed(u, 1)^k is checked first.  Where either
    decision fails, the full loop names every failing pair or exponent, so
    the list is the one the full checks give."""
    v = ["%s: %s" % (name, s) for name, g in (("base", tw.base), ("total", tw.total))
         if not g.checked for s in validate_groupoid(g)]
    if v:
        return v
    base, total, n = tw.base, tw.total, tw.n
    if len(tw.proj) != total.m:
        return ["projection table has wrong length"]
    if any(not (0 <= a < base.m) for a in tw.proj):
        return ["projection hits a non-arrow"]
    if total.m != base.m * n:
        v.append("total groupoid size is not |base| * n")
    for a in range(base.m):
        if len(tw.fiber(a)) != n:
            v.append("fiber over arrow %d has size %d, want %d" % (a, len(tw.fiber(a)), n))
    # projection is a homomorphism matching units to units bijectively
    proj_units = {tw.proj[e] for e in total.units}
    if proj_units != base.unit_set or len(total.units) != len(base.units):
        v.append("projection does not restrict to a unit bijection")
    for e in range(total.m):
        if tw.proj[total.src[e]] != base.src[tw.proj[e]]:
            v.append("projection breaks src at %d" % e)
        if tw.proj[total.rng[e]] != base.rng[tw.proj[e]]:
            v.append("projection breaks rng at %d" % e)
        if tw.proj[total.inv[e]] != base.inv[tw.proj[e]]:
            v.append("projection breaks inv at %d" % e)
    proj, comp, bcomp, by_src = tw.proj, total.comp, base.comp, total.arrows_by_src()
    if any(bcomp.get((proj[e], proj[s])) != proj[comp[(e, s)]]
           for s in chain(total.units, generating_set(total)) for e in by_src[total.rng[s]]):
        bad = [(e, d) for (e, d), ed in comp.items() if bcomp.get((proj[e], proj[d])) != proj[ed]]
        v += ["projection breaks composition at (%d, %d)" % pair for pair in sorted(bad)]
    if v:
        return v
    # embedding: injective homomorphism of the unit bundle, exact fibers
    keys = set(tw.embed.keys())
    want = {(u, k) for u in base.units for k in range(n)}
    if keys != want:
        return ["embedding domain is not units x exponents"]
    vals = list(tw.embed.values())
    if any(not (0 <= e < total.m) for e in vals):
        return ["embedding hits a non-arrow"]
    if len(set(vals)) != len(vals):
        v.append("embedding is not injective")
    for u in base.units:
        e0 = tw.embed[(u, 0)]
        if e0 not in total.unit_set or tw.proj[e0] != u:
            v.append("embedding of (unit %d, 0) is not the unit over it" % u)
        for k in range(n):
            e = tw.embed[(u, k)]
            if tw.proj[e] != u:
                v.append("exactness fails: embed(%d, %d) leaves the fiber" % (u, k))
            if total.src[e] != tw.embed[(u, 0)] or total.rng[e] != tw.embed[(u, 0)]:
                v.append("embedded element (%d, %d) is not an isotropy arrow" % (u, k))
            l = (k + 1) % n
            got = total.comp.get((tw.embed[(u, k)], tw.embed[(u, 1 % n)]))
            if got != tw.embed[(u, l)]:
                v.append("embedding is not a homomorphism at (%d, %d)" % (u, k))
        if set(tw.fiber(u)) != {tw.embed[(u, k)] for k in range(n)}:
            v.append("exactness fails over unit %d" % u)
    if v:
        return v
    embed, src, rng, one = tw.embed, total.src, total.rng, 1 % n
    if any(comp[(embed[(proj[rng[e]], one)], e)] != comp[(e, embed[(proj[src[e]], one)])]
           for e in range(total.m)):
        for e in range(total.m):
            ru, su = proj[rng[e]], proj[src[e]]
            for k in range(n):
                if comp[(embed[(ru, k)], e)] != comp[(e, embed[(su, k)])]:
                    v.append("centrality fails at arrow %d, exponent %d" % (e, k))
    return v


def check_twist(tw: Twist) -> Twist:
    checked(tw, "twist", validate_twist)
    tw.base.checked = tw.total.checked = True
    return tw


def unique_scalar(tw: Twist, ref: int, other: int) -> int:
    """The exponent k with other == act(k, ref); both in one fiber.  It is
    the search over k = 0, 1, ..., n - 1, and answers for one pair what a
    section's exponent table answers for every arrow at once."""
    if tw.proj[ref] != tw.proj[other]:
        raise ValueError(
            "arrows %d and %d sit over different base arrows" % (ref, other)
        )
    for k in range(tw.n):
        if tw.act(k, ref) == other:
            return k
    raise ValueError("no scalar links %d to %d; twist is invalid" % (ref, other))


def find_section(tw: Twist) -> tuple:
    """Deterministic global section: unit fibers pick their unit, other
    fibers the least total index.  Composing with the projection gives the
    identity by construction.  A unit missing from the embedding, or an
    empty fiber, raises ValueError."""
    units = tw.base.unit_set
    sec = tuple(tw.embed.get((a, 0)) if a in units else min(tw.fiber(a), default=None)
                for a in range(tw.base.m))
    if None in sec:
        a = sec.index(None)
        raise ValueError(("unit %d has no embedded (%d, 0)" % (a, a) if a in units else
                          "the fiber over arrow %d is empty" % a) + "; twist is invalid")
    return sec


def validate_section(tw: Twist, sec) -> list:
    v = []
    if len(sec) != tw.base.m:
        return ["section has wrong length"]
    for a, e in enumerate(sec):
        if not 0 <= e < tw.total.m:
            v.append("section sends arrow %d to a non-arrow" % a)
        elif tw.proj[e] != a:
            v.append("section misses the fiber at arrow %d" % a)
    for u in tw.base.units:
        if sec[u] not in tw.total.unit_set:
            v.append("section sends unit %d to a non-unit" % u)
    return v


@derived
def _exponent_table(tw: Twist, sec: tuple) -> tuple:
    """k[e] for every total arrow e, with e = act(k[e], sec[proj e]), from
    n acts per base arrow; sec must pass validate_section.  Raises
    ValueError unless every fiber is a free, transitive Z/n-orbit.  Kept on
    the twist (derived) for the last section."""
    total, n, proj = tw.total, tw.n, tw.proj
    comp, rng = total.comp, total.rng
    embedded = {u: [tw.embed.get((u, k)) for k in range(n)] for u in tw.base.units}
    table = [None] * total.m
    for a, s in enumerate(sec):
        for k, z in enumerate(embedded.get(proj[rng[s]], ())):
            e = comp.get((z, s))
            if e is None or proj[e] != a or table[e] is not None:
                _refuse_orbit(tw, sec, a)
            table[e] = k
    if None in table:
        _refuse_orbit(tw, sec, proj[table.index(None)])
    return tuple(table)


def _refuse_orbit(tw: Twist, sec: tuple, a: int):
    """Raise for the fiber over a, which is not the free, transitive orbit
    of sec[a]: name an arrow of it that no scalar reaches, if there is one."""
    s = sec[a]
    orbit = {tw.total.comp.get((tw.embed.get((tw.proj[tw.total.rng[s]], k)), s))
             for k in range(tw.n)}
    missing = [e for e in tw.fiber(a) if e not in orbit]
    if missing:
        raise ValueError("no scalar links %d to %d; twist is invalid" % (s, missing[0]))
    raise ValueError("the scalars do not act freely on the fiber over arrow %d;"
                     " twist is invalid" % a)


def induced_cocycle(tw: Twist, sec) -> Cocycle:
    """The cocycle measuring failure of the section to be multiplicative:
    sec(a) sec(b) equals the induced scalar acting on sec(ab), read off the
    section's exponent table.  Kept on the twist (derived) for the last
    section."""
    return _induced_cocycle(tw, tuple(sec))


@derived
def _induced_cocycle(tw: Twist, sec: tuple) -> Cocycle:
    bad = validate_section(tw, sec)
    if bad:
        raise ValueError("; ".join(bad))
    k = _exponent_table(tw, sec)
    comp, bcomp, proj = tw.total.comp, tw.base.comp, tw.proj
    table = {}
    for a, b in composable_pairs(tw.base):
        prod = comp[(sec[a], sec[b])]
        ab = bcomp[(a, b)]
        if proj[prod] != ab:
            raise ValueError("arrows %d and %d sit over different base arrows" % (sec[ab], prod))
        table[(a, b)] = k[prod]
    return Cocycle(tw.base, tw.n, table)


# An arrow bijection between two twists over one base, commuting with the
# embeddings and projections: mapping[e] is the image of total arrow e.
TwistMorphism = namedtuple("TwistMorphism", "src dst mapping")


def validate_twist_morphism(mor: TwistMorphism) -> list:
    """The independent axioms of a twist isomorphism: a bijection of total
    arrows that is a homomorphism and commutes with the embeddings and the
    projections.  Empty when they hold.

    The inverse law and action equivariance follow, so they are not
    checked.  f(rng e) = f(rng e) f(rng e) is idempotent, hence a unit, so
    f(e) f(inv e) = f(rng e) is rng f(e) and f(inv e) = inv f(e).  With
    x = proj(rng e), which is also proj(rng f(e)) by the projection
    diagram, f(act(k, e)) = f(embed(x, k)) f(e) = embed(x, k) f(e) =
    act(k, f(e)) by the embedding diagram."""
    t1, t2, f = mor.src, mor.dst, mor.mapping
    v = []
    if t1.base != t2.base or t1.n != t2.n:
        return ["twists do not share a base groupoid and order"]
    if len(f) != t1.total.m or set(f) != set(range(t2.total.m)):
        return ["mapping is not a bijection of total arrows"]
    for (e, d), ed in t1.total.comp.items():
        if t2.total.comp.get((f[e], f[d])) != f[ed]:
            v.append("homomorphism law fails at (%d, %d)" % (e, d))
    for key, e in t1.embed.items():
        if f[e] != t2.embed[key]:
            v.append("embedding diagram fails at (%d, %d)" % key)
    for e in range(t1.total.m):
        if t2.proj[f[e]] != t1.proj[e]:
            v.append("projection diagram fails at %d" % e)
    return v


def _section_map(t1: Twist, s1, t2: Twist, s2, b) -> TwistMorphism:
    """The isomorphism k.s1(a) -> (k + b(a)).s2(a) from t1 onto t2, for
    sections s1, s2 whose induced cocycles differ by the coboundary of b,
    read off the two sections' exponent tables."""
    n = t1.n
    k1, k2 = _exponent_table(t1, tuple(s1)), _exponent_table(t2, tuple(s2))
    at = [0] * t2.total.m  # at[a*n + k] = act(k, s2[a])
    for e, k in enumerate(k2):
        at[t2.proj[e] * n + k] = e
    mor = TwistMorphism(t1, t2, tuple(at[a * n + (k + b[a]) % n] for a, k in zip(t1.proj, k1)))
    bad = validate_twist_morphism(mor)
    if bad:
        raise RuntimeError("section map is not a twist isomorphism: %s" % "; ".join(bad[:3]))
    return mor


def section_iso(tw: Twist, sec) -> TwistMorphism:
    """Isomorphism from the model twist of the induced cocycle onto tw,
    sending (a, k) to k acting on sec(a).  The induced cocycle is
    normalised, so k acting on the model's canonical section a -> (a, 0)
    is (a, k), and b = 0."""
    model = build_twist(tw.base, induced_cocycle(tw, sec))
    return _section_map(model, find_section(model), tw, sec, [0] * tw.base.m)


def twists_isomorphic(t1: Twist, t2: Twist) -> Optional[TwistMorphism]:
    """The explicit isomorphism when the induced cocycles are cohomologous,
    else None.  Route: t1 -> model(c1) -> model(c2) -> t2, the middle arrow
    shifting exponents by the coboundary."""
    if t1.base != t2.base or t1.n != t2.n:
        raise ValueError("twists do not share a base groupoid and order")
    s1 = find_section(t1)
    s2 = find_section(t2)
    b = check_cohomologous(induced_cocycle(t1, s1), induced_cocycle(t2, s2))
    if b is None:
        return None
    return _section_map(t1, s1, t2, s2, b)
