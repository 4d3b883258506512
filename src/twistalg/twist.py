"""Central extensions of a finite groupoid by a cyclic unit group.

A Twist bundles the extension groupoid (total), the base groupoid, the
order n of the extending cyclic group, the central embedding of
(unit, exponent) pairs, and the projection back onto the base.  Exactness,
centrality, fiber sizes, and the homomorphism laws are all finite checks
in validate_twist.  The projection's composition law, like a morphism's
homomorphism law in validate_twist_morphism, is decided on units and
generators by groupoid.homomorphism_failures, which states why that is
exact and names the failing pairs in ascending order; centrality is
decided at exponent 1, and its full loop runs only to name what fails.
_section_map runs validate_twist_morphism as the self-check of every
isomorphism it builds.  The embedding is read-only like the groupoid
tables.

check_twist is the one gate.  It validates a twist once, then marks it,
its base and its total (validate_twist skips a marked groupoid's pass).
act, unique_scalar, find_section, validate_section, induced_cocycle,
twists_isomorphic and validate_twist_morphism call it first, and
section_iso and algebra.EquivContext reach it through induced_cocycle; an
invalid twist raises AxiomError of kind twist there, with validate_twist's
violations, and keeps nothing.  build_twist's model twist is born checked:
the model of a checked normalised cocycle is a twist by construction, so
it and its total carry check_twist's marks and the gate is one flag read.
It is made by the private Twist._born and Groupoid._born, which take over
the comp and embed dicts build_twist has just built without a copy; Twist
and Groupoid copy what a caller passes in, since the caller may change it.
A twist read from a file or put together by hand is validated in full.
The cocycle induced_cocycle returns is born checked the same way
(Cocycle._born, its exponents already in 0..n-1), so
twists_isomorphic and EquivContext hand it on to check_cohomologous and
invert_cocycle without validating it again.

build_twist realizes the standard model on the carrier base x Z/n: the
pair (a, k) gets arrow index a*n + k, multiplication twists the exponent
sum by the cocycle (its pattern over every (k, l) is worked out once per
cocycle value), and the canonical section a -> (a, 0) is then the
least-index element of every fiber, which is exactly what find_section
picks.  Sections induce cocycles through the unique-scalar lemma, and
cohomologous cocycles give isomorphic twists.  Both isomorphisms are one
section map, k.s1(a) -> (k + b(a)).s2(a): section_iso runs it from the
model twist of the induced cocycle, with its canonical section and b = 0,
and twists_isomorphic between two twists, with b the coboundary linking
the cocycles their found sections induce.

A section's exponent table holds, for every total arrow e, the k with
e = act(k, sec(proj e)); it is built with n acts per base arrow, since
every fiber of a checked twist is a free, transitive Z/n orbit.
induced_cocycle, the section map and the equivariant picture in algebra
read it; unique_scalar answers the same question for one pair by
search.  The fibers, the exponent table and the induced cocycle are kept
on the twist (derived), so a round trip that induces from the found
section, then compares twists and builds the equivariant context,
computes each once.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType
from typing import Optional

from .cocycle import Cocycle, check_cocycle, check_cohomologous
from .groupoid import (
    BindOnce, Groupoid, checked, derived, homomorphism_failures,
    validate_groupoid,
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

    @classmethod
    def _born(cls, base: Groupoid, total: Groupoid, n: int, embed: dict, proj) -> "Twist":
        """A twist marked checked that owns embed, a dict the caller has just
        built: it is wrapped read-only, not copied.  Only for tables valid by
        construction, over a checked base and total."""
        return cls._bind(base=base, total=total, n=n, embed=MappingProxyType(embed),
                         proj=tuple(proj), checked=True, _derived={})

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
        """The unit-group action: compose with the central element at rng(e).
        The twist passes check_twist first; an arrow out of range raises
        ValueError."""
        check_twist(self)
        if not 0 <= e < self.total.m:
            raise ValueError("arrow %d is out of range" % e)
        return self.total.comp[(self.embed[(self.proj[self.total.rng[e]], k % self.n)], e)]

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
    is one of the larger layers of a twist round trip.  The exponent
    pattern (s + k + l) mod n over every (k, l) is worked out once per
    cocycle value s, so the n^2 loop per base pair only adds offsets
    (0.66 ms against 0.36 ms for that loop on pair5, n = 4, same VM).  A
    total groupoid with more than 2^20 composable pairs, |base.comp| * n^2,
    is refused before anything is allocated.  The model of the checked cocycle is a
    twist by construction, so it comes back marked as check_twist marks
    it: the twist and its total (the base is checked with the cocycle)."""
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
    # pattern[s] lists (k, l, (s + k + l) mod n) for every exponent pair;
    # the cocycle's values lie in 0..n-1, so each pair reads its row
    ks, table, comp = range(n), coc.table, {}
    pattern = [[(k, l, (s + k + l) % n) for k in ks for l in ks] for s in ks]
    for (a, b), ab in base.comp.items():
        an, bn, abn = a * n, b * n, ab * n
        for k, l, x in pattern[table[(a, b)]]:
            comp[(an + k, bn + l)] = abn + x
    total = Groupoid._born(units, src, rng, inv, comp)
    embed = {(u, k): u * n + k for u in base.units for k in ks}
    return Twist._born(base, total, n, embed, [e // n for e in range(base.m * n)])


def validate_twist(tw: Twist) -> list:
    """All extension axioms, but none of a marked base's or total's; empty when valid.

    Once base and total are groupoids, the projection's composition law is
    decided by groupoid.homomorphism_failures.  Centrality at exponent 1
    decides it at every exponent, since embed(u, k) = embed(u, 1)^k is
    checked first; where that fails, the full loop names every failing
    arrow and exponent, so the list is the one the full checks give."""
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
    fibers = tw._fibers()
    for a in range(base.m):
        size = len(fibers.get(a, ()))
        if size != n:
            v.append("fiber over arrow %d has size %d, want %d" % (a, size, n))
    # projection is a homomorphism matching units to units bijectively
    proj = tw.proj
    proj_units = {proj[e] for e in total.units}
    if proj_units != base.unit_set or len(total.units) != len(base.units):
        v.append("projection does not restrict to a unit bijection")
    bsrc, brng, binv = base.src, base.rng, base.inv
    for e, (a, s, r, i) in enumerate(zip(proj, total.src, total.rng, total.inv)):
        if proj[s] != bsrc[a]:
            v.append("projection breaks src at %d" % e)
        if proj[r] != brng[a]:
            v.append("projection breaks rng at %d" % e)
        if proj[i] != binv[a]:
            v.append("projection breaks inv at %d" % e)
    v += ["projection breaks composition at (%d, %d)" % pair
          for pair in homomorphism_failures(total, proj, base.comp.get)]
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
        if set(fibers.get(u, ())) != {tw.embed[(u, k)] for k in range(n)}:
            v.append("exactness fails over unit %d" % u)
    if v:
        return v
    proj, comp, embed, src, rng, one = tw.proj, total.comp, tw.embed, total.src, total.rng, 1 % n
    if any(comp[(embed[(proj[rng[e]], one)], e)] != comp[(e, embed[(proj[src[e]], one)])]
           for e in range(total.m)):
        for e in range(total.m):
            ru, su = proj[rng[e]], proj[src[e]]
            for k in range(n):
                if comp[(embed[(ru, k)], e)] != comp[(e, embed[(su, k)])]:
                    v.append("centrality fails at arrow %d, exponent %d" % (e, k))
    return v


def check_twist(tw: Twist) -> Twist:
    """tw itself once valid, its base and total then marked too, else
    AxiomError of kind twist with every violation of validate_twist."""
    if not tw.checked:
        checked(tw, "twist", validate_twist)
        tw.base.checked = tw.total.checked = True
    return tw


def unique_scalar(tw: Twist, ref: int, other: int) -> int:
    """The exponent k with other == act(k, ref); both in one fiber of a
    twist that passes check_twist.  It is the search over k = 0, 1, ...,
    n - 1, and answers for one pair what a section's exponent table answers
    for every arrow at once."""
    check_twist(tw)
    for e in (ref, other):
        if not 0 <= e < tw.total.m:
            raise ValueError("arrow %d is out of range" % e)
    if tw.proj[ref] != tw.proj[other]:
        raise ValueError(
            "arrows %d and %d sit over different base arrows" % (ref, other)
        )
    return next(k for k in range(tw.n) if tw.act(k, ref) == other)


def find_section(tw: Twist) -> tuple:
    """Deterministic global section of a twist that passes check_twist:
    unit fibers pick their unit, other fibers the least total index.
    Composing with the projection gives the identity by construction."""
    check_twist(tw)
    units, embed, fibers = tw.base.unit_set, tw.embed, tw._fibers()
    return tuple(embed[(a, 0)] if a in units else fibers[a][0] for a in range(tw.base.m))


def validate_section(tw: Twist, sec) -> list:
    """What keeps sec from being a section of tw, which passes check_twist
    first; empty when it is one."""
    check_twist(tw)
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
    n acts per base arrow; tw must pass check_twist, and sec
    validate_section.  Kept on the twist (derived) for the last section."""
    check_twist(tw)
    n, embed, comp, rng = tw.n, tw.embed, tw.total.comp, tw.total.rng
    table = [0] * tw.total.m
    for s in sec:
        u = tw.proj[rng[s]]
        for k in range(n):
            table[comp[(embed[(u, k)], s)]] = k
    return tuple(table)


def induced_cocycle(tw: Twist, sec) -> Cocycle:
    """The cocycle measuring failure of the section to be multiplicative:
    sec(a) sec(b) equals the induced scalar acting on sec(ab), read off the
    section's exponent table.  tw passes check_twist first, and the
    cocycle is kept on the twist (derived) for the last section.  It comes
    out marked checked, as check_cocycle marks a cocycle: the section sends
    units to units, so it is normalised, and the total's associativity with
    a central embedding gives the 2-cocycle identity."""
    check_twist(tw)
    return _induced_cocycle(tw, tuple(sec))


@derived
def _induced_cocycle(tw: Twist, sec: tuple) -> Cocycle:
    bad = validate_section(tw, sec)
    if bad:
        raise ValueError("; ".join(bad))
    base, k, comp = tw.base, _exponent_table(tw, sec), tw.total.comp
    by_rng = base.arrows_by_rng()
    return Cocycle._born(base, tw.n, {(a, b): k[comp[(sec[a], sec[b])]]
                                      for a, s in enumerate(base.src) for b in by_rng[s]})


# An arrow bijection between two twists over one base, commuting with the
# embeddings and projections: mapping[e] is the image of total arrow e.
TwistMorphism = namedtuple("TwistMorphism", "src dst mapping")


def validate_twist_morphism(mor: TwistMorphism) -> list:
    """The independent axioms of a twist isomorphism: a bijection of total
    arrows that is a homomorphism and commutes with the embeddings and the
    projections.  Empty when they hold; both twists pass check_twist first.

    The homomorphism law is decided by groupoid.homomorphism_failures, as
    validate_twist decides the projection's, and its failing pairs come in
    ascending order.

    The inverse law and action equivariance follow, so they are not
    checked.  f(rng e) = f(rng e) f(rng e) is idempotent, hence a unit, so
    f(e) f(inv e) = f(rng e) is rng f(e) and f(inv e) = inv f(e).  With
    x = proj(rng e), which is also proj(rng f(e)) by the projection
    diagram, f(act(k, e)) = f(embed(x, k)) f(e) = embed(x, k) f(e) =
    act(k, f(e)) by the embedding diagram."""
    t1, t2, f = check_twist(mor.src), check_twist(mor.dst), mor.mapping
    v = []
    if t1.base != t2.base or t1.n != t2.n:
        return ["twists do not share a base groupoid and order"]
    if len(f) != t1.total.m or set(f) != set(range(t2.total.m)):
        return ["mapping is not a bijection of total arrows"]
    v += ["homomorphism law fails at (%d, %d)" % pair
          for pair in homomorphism_failures(t1.total, f, t2.total.comp.get)]
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
    else None; both twists pass check_twist first.  Route: t1 -> model(c1)
    -> model(c2) -> t2, the middle arrow shifting exponents by the
    coboundary."""
    check_twist(t1)
    check_twist(t2)
    if t1.base != t2.base or t1.n != t2.n:
        raise ValueError("twists do not share a base groupoid and order")
    s1 = find_section(t1)
    s2 = find_section(t2)
    b = check_cohomologous(induced_cocycle(t1, s1), induced_cocycle(t2, s2))
    if b is None:
        return None
    return _section_map(t1, s1, t2, s2, b)
