"""Finite discrete groupoids as explicit arrow tables.

Arrows are dense integer indices 0..m-1.  A Groupoid stores the unit
subset, the source/range/inverse maps as tuples, and the composition as a
dict keyed by composable pairs (src of the left factor == rng of the right
factor).  Everything is finite and discrete, so all the usual topological
hypotheses (ample, Hausdorff, etale) hold vacuously: every subset is a
compact open set and effectiveness collapses to principality because the
interior of the isotropy is the isotropy itself.

Composition is stored, not derived, in a read-only table, and no public
attribute can be rebound once set (BindOnce).  check_groupoid is the gate.
Every public function here that reads a groupoid calls it first, and so do
catalog.build, GroupTable, fileio's readers and writers, and check_cocycle,
check_grading and check_twist for the groupoids their object stands on.
Only the reporter validate_groupoid and the table queries composable_pairs,
composable_triples, generating_set, orbits, associativity_failures and
homomorphism_failures read a groupoid ungated: the validators run them on
tables not yet checked, or checked but not yet marked, as validate_twist
runs homomorphism_failures on the total it has just validated, where a
gate would validate it again or raise instead of report.
homomorphism_failures is the one check of a map that must respect
composition: a twist's projection and a twist morphism (validate_twist,
validate_twist_morphism), a grading (validate_grading) and a group action
(catalog.action_groupoid) all pass through it, and it names the failing
pairs in ascending order.
Each object is checked once, at its gate or at its birth, and the
checked flag is set true only by the gates: checked, which check_groupoid,
check_cocycle and check_grading run, and check_twist, which marks a
twist's base and total with it.  The public constructors Groupoid,
Cocycle, Twist and Grading copy what they are given, since the caller
keeps it and may change it, and hand it out unmarked; the library calls
them only where a table comes from outside and meets its gate next.  A
table the library builds valid by construction is born checked instead,
through the private _born constructors: they take over the dict just
built without a copy and bind the fields without BindOnce's per-field
guard (BindOnce._bind), and rebinding a field later raises all the same.
_tabulate is the one way from a rule on labelled arrows to such a
groupoid, and every caller of _born or _tabulate says in its docstring
why its table is valid.  So no gated function computes on an unchecked
object.
validate_groupoid reports the violations as data, each kind of them in
ascending order, so equal tables report equal lists, and it ignores the
checked flag; check_groupoid raises them as one AxiomError through the
gate checked, which validates an object only until it first passes.
validate_groupoid reads comp in one pass: the domain is exactly the
composable pairs when there are as many keys as composable pairs and each
key is an in-range composable pair, and the same pass checks typing and
splits comp into per-arrow rows {c: ac}.  Associativity
is checked on a generating set (Light's test): once typing and the unit
laws hold, the middles b with (ab)c = a(bc) for all composable a, c are
closed under composition, so the triples whose middle lies in
generating_set(g) decide it.  Each a is checked against a generator b on
whole rows, (ab)c against a(bc) for every c at once.  generating_set walks
a cycle through each orbit's units first and then greedily takes the
least arrow not yet reached: a transitive groupoid is generated by such a
cycle and its isotropy, so pair_groupoid(n) has n generators where the
greedy walk alone took 2(n - 1).  The walk is kept on the groupoid
(derived), and validate_groupoid, validate_cocycle, homomorphism_failures
and the ideal closure test all read it; each call of generating_set hands
out a new list.
"""

from __future__ import annotations

from functools import wraps
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Optional


class AxiomError(ValueError):
    """An object breaks its axioms.  Carries every violation found; the
    message names the object kind and the first four."""

    def __init__(self, kind: str, violations):
        self.kind = kind
        self.violations = list(violations)
        super().__init__("invalid %s: %s" % (kind, "; ".join(self.violations[:4])))


def checked(obj, kind: str, validate):
    """obj, once validate(obj) is empty: validate runs only while obj.checked
    is false, its first success sets it, and violations raise AxiomError."""
    if not obj.checked:
        v = validate(obj)
        if v:
            raise AxiomError(kind, v)
        obj.checked = True
    return obj


class BindOnce:
    """Public slots bind once: rebinding or deleting one raises
    AttributeError, so an object that passed the gate checked stays the
    object it checked.  checked itself and the private slots (a leading
    underscore, such as the tables kept by derived) stay writable."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if name != "checked" and not name.startswith("_") and hasattr(self, name):
            raise AttributeError("%s.%s is already set" % (type(self).__name__, name))
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError("%s.%s cannot be deleted" % (type(self).__name__, name))

    @classmethod
    def _bind(cls, **fields):
        """A new object with these fields bound as given: no __init__, no
        copy and no per-field guard.  Only the born-checked constructors
        call it, on tables the library has just built; rebinding a public
        field afterwards raises as usual."""
        obj = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(obj, name, value)
        return obj


def derived(build):
    """build(obj, *args), kept in obj._derived[build] for the last args it
    was called with and returned again while the args are equal; a build
    that raises keeps nothing.  This is sound only because BindOnce fields
    never rebind, so args must be immutable as well."""
    @wraps(build)
    def get(obj, *args):
        kept = obj._derived.get(build)
        if kept is None or kept[0] != args:
            kept = obj._derived[build] = args, build(obj, *args)
        return kept[1]
    return get


class Groupoid(BindOnce):
    __slots__ = ("m", "units", "unit_set", "src", "rng", "inv", "comp", "checked", "_derived")

    def __init__(self, units, src, rng, inv, comp):
        self.src = tuple(src)
        self.rng = tuple(rng)
        self.inv = tuple(inv)
        self.m = len(self.src)
        self.units = tuple(sorted(units))
        self.unit_set = frozenset(self.units)
        self.comp = MappingProxyType(dict(comp))
        self.checked = False
        self._derived = {}

    @classmethod
    def _born(cls, units, src, rng, inv, comp: dict) -> "Groupoid":
        """A groupoid marked checked that owns comp, a dict the caller has
        just built and hands over: it is wrapped read-only, not copied.
        units must be ascending.  Only for tables valid by construction."""
        return cls._bind(src=tuple(src), rng=tuple(rng), inv=tuple(inv), m=len(src),
                         units=tuple(units), unit_set=frozenset(units),
                         comp=MappingProxyType(comp), checked=True, _derived={})

    def _arrows_by(self, ends) -> dict:
        """unit -> sorted tuple of the arrows a with ends[a] == unit."""
        by = {u: [] for u in self.units}
        for a, x in enumerate(ends):
            by.setdefault(x, []).append(a)
        return {u: tuple(v) for u, v in by.items()}

    @derived
    def arrows_by_rng(self):
        """unit -> sorted tuple of arrows with that range, kept on the
        groupoid (derived)."""
        return self._arrows_by(self.rng)

    @derived
    def arrows_by_src(self):
        """unit -> sorted tuple of arrows with that source, kept on the
        groupoid (derived)."""
        return self._arrows_by(self.src)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Groupoid)
            and self.units == other.units
            and self.src == other.src
            and self.rng == other.rng
            and self.inv == other.inv
            and self.comp == other.comp
        )

    def __hash__(self):
        return hash((self.units, self.src, self.rng, self.inv))

    def __repr__(self):
        return "Groupoid(arrows=%d, units=%d)" % (self.m, len(self.units))


def composable_pairs(g: Groupoid):
    """All composable pairs (a, b) in ascending lexicographic order."""
    by = g.arrows_by_rng()
    for a in range(g.m):
        for b in by.get(g.src[a], ()):
            yield (a, b)


def composable_triples(g: Groupoid):
    by = g.arrows_by_rng()
    for a in range(g.m):
        for b in by.get(g.src[a], ()):
            for c in by.get(g.src[b], ()):
                yield (a, b, c)


def generating_set(g: Groupoid) -> list:
    """Generators, ascending, as a new list: a cycle through each orbit's
    units, then greedy.  The units start out reached.  Each orbit with k > 1
    units u1 < ... < uk first takes the k arrows of the cycle u1 -> u2 ->
    ... -> uk -> u1, the least arrow from each unit to the next; then each
    new generator is the least arrow not yet reached.  The reached set is
    kept closed under right composition with the generators, so an arrow
    already reached is never taken.  A transitive groupoid is generated by
    such a cycle and its isotropy, so pair_groupoid(n) gets n generators
    where greedy alone took 2(n - 1).  Needs comp defined on every
    composable pair.  The walk is kept on the groupoid (derived)."""
    return list(_generator_walk(g))


@derived
def _generator_walk(g: Groupoid) -> tuple:
    src, rng, comp, by_src = g.src, g.rng, g.comp, g.arrows_by_src()
    # validate_groupoid walks before it has found a bad inverse, and then an
    # orbit may lack an arrow u -> w: the unit u stands in, already reached
    cycle = [next((a for a in by_src[u] if rng[a] == w), u)
             for orb in orbits(g) if len(orb) > 1
             for u, w in zip(orb, orb[1:] + orb[:1])]
    gens, reached = [], set(g.units)
    for x in chain(cycle, range(g.m)):
        if x not in reached:
            gens.append(x)
            todo = [comp[(r, x)] for r in reached if src[r] == rng[x]]
            while todo:
                y = todo.pop()
                if y not in reached:
                    reached.add(y)
                    todo.extend(comp[(y, s)] for s in gens if src[y] == rng[s])
    return tuple(sorted(gens))


def homomorphism_failures(g: Groupoid, f, prod) -> list:
    """Sorted composable pairs (e, d) of a valid g where prod((f[e], f[d]))
    != f[ed]; prod returns None where the target product is undefined.

    The pairs whose d is a unit or lies in generating_set(g) decide it, and
    the full loop runs only to name the failures.  The arrows d at which
    the law holds for every e composable with d are closed under
    composition: for such d1, d2, f(e d1 d2) = f(e d1) f(d2) = f(e) f(d1)
    f(d2) = f(e) f(d1 d2), by associativity in g and in the target.  Every
    arrow is a unit followed by generators, so the law holds everywhere
    once it holds there."""
    comp, by_src, rng = g.comp, g.arrows_by_src(), g.rng
    for d in chain(g.units, _generator_walk(g)):
        fd = f[d]
        for e in by_src[rng[d]]:
            if prod((f[e], fd)) != f[comp[(e, d)]]:
                return sorted((e, d) for (e, d), ed in comp.items()
                              if prod((f[e], f[d])) != f[ed])
    return []


def generator_middles(g: Groupoid):
    """(b, left, right) for each generator b: the arrows a with ab defined
    and the arrows c with bc defined."""
    by_rng, by_src = g.arrows_by_rng(), g.arrows_by_src()
    for b in generating_set(g):
        yield b, by_src.get(g.rng[b], ()), by_rng.get(g.src[b], ())


def _rows(g: Groupoid) -> list:
    """Row a of comp as {c: ac}."""
    rows = [{} for _ in range(g.m)]
    for (a, c), ac in g.comp.items():
        rows[a][c] = ac
    return rows


def associativity_failures(g: Groupoid) -> list:
    """Sorted triples (a, b, c), b a generator, where (ab)c != a(bc).  Once
    typing and the unit laws hold, it is empty exactly when g is
    associative."""
    return _associativity_failures(g, _rows(g))


def _associativity_failures(g: Groupoid, rows: list) -> list:
    """associativity_failures on the rows of g: for each a, (ab)c is
    compared with a(bc) for every c at once, and the triples are named only
    where the two rows differ."""
    bad = []
    for b, left, right in generator_middles(g):
        bc = list(map(rows[b].__getitem__, right))
        at_right, at_bc = itemgetter(*right), itemgetter(*bc)
        for a in left:
            row = rows[a]
            abc = rows[row[b]]
            if at_right(abc) != at_bc(row):
                bad += [(a, b, c) for c, x in zip(right, bc) if abc[c] != row[x]]
    return sorted(bad)


def validate_groupoid(g: Groupoid) -> list:
    """Full axiom check; returns a list of violation strings (empty = valid)."""
    v = []
    m = g.m
    if not (len(g.rng) == len(g.inv) == m):
        return ["src/rng/inv tables have mismatched lengths"]
    for a in range(m):
        for name, val in (("src", g.src[a]), ("rng", g.rng[a]), ("inv", g.inv[a])):
            if not (0 <= val < m):
                v.append("%s(%d) = %d is out of range" % (name, a, val))
    if v:
        return v
    for u in g.units:
        if not (0 <= u < m):
            v.append("unit %d is out of range" % u)
        elif g.src[u] != u or g.rng[u] != u:
            v.append("unit %d is not its own source and range" % u)
    twice = {u for u, w in zip(g.units, g.units[1:]) if u == w}
    v += ["unit %d is listed more than once" % u for u in sorted(twice)]
    if v:
        return v
    for a in range(m):
        if g.src[a] not in g.unit_set:
            v.append("src(%d) = %d is not a unit" % (a, g.src[a]))
        if g.rng[a] not in g.unit_set:
            v.append("rng(%d) = %d is not a unit" % (a, g.rng[a]))
    # one pass over comp splits it into rows {c: ac} and checks its domain
    # and typing.  The domain is exactly the composable pairs when there are
    # as many keys as composable pairs and each key is an in-range
    # composable pair with an in-range value; the loops below only run to
    # name what that pass finds wrong
    src, rng, comp = g.src, g.rng, g.comp
    by, rows = g.arrows_by_rng(), [{} for _ in range(m)]
    domain = len(comp) == sum(len(by.get(s, ())) for s in src)
    typed = True
    for (a, c), ac in comp.items():
        if not (0 <= a < m and 0 <= c < m and 0 <= ac < m and src[a] == rng[c]):
            domain = False
            break
        rows[a][c] = ac
        if rng[ac] != rng[a] or src[ac] != src[c]:
            typed = False
    if not domain:
        expected = set(composable_pairs(g))
        v += ["comp undefined on composable pair (%d, %d)" % p
              for p in sorted(expected - comp.keys())]
        for pair, ab in sorted(comp.items()):
            if pair not in expected:
                v.append("comp defined on non-composable pair (%d, %d)" % pair)
            elif not (0 <= ab < m):
                v.append("comp(%d, %d) is out of range" % pair)
    if v:
        return v
    if not typed:
        for (a, b), ab in sorted(comp.items()):
            if rng[ab] != rng[a]:
                v.append("rng(comp(%d, %d)) != rng(%d)" % (a, b, a))
            if src[ab] != src[b]:
                v.append("src(comp(%d, %d)) != src(%d)" % (a, b, b))
        # a mistyped composite makes the associativity walk meaningless
        return v
    for a, row in enumerate(rows):
        if row.get(src[a]) != a:
            v.append("right unit law fails at arrow %d" % a)
        if rows[rng[a]].get(a) != a:
            v.append("left unit law fails at arrow %d" % a)
    for a, row in enumerate(rows):
        ia = g.inv[a]
        if g.inv[ia] != a:
            v.append("inv(inv(%d)) != %d" % (a, a))
        if src[ia] != rng[a] or rng[ia] != src[a]:
            v.append("inv(%d) does not swap source and range" % a)
        if row.get(ia) != rng[a]:
            v.append("rng(g) = comp(g, inv(g)) fails at arrow %d" % a)
        if rows[ia].get(a) != src[a]:
            v.append("src(g) = comp(inv(g), g) fails at arrow %d" % a)
    v += ["associativity fails at triple (%d, %d, %d)" % t
          for t in _associativity_failures(g, rows)]
    return v


def check_groupoid(g: Groupoid) -> Groupoid:
    """g itself when valid, else AxiomError with every violation."""
    return checked(g, "groupoid", validate_groupoid)


def isotropy(g: Groupoid) -> frozenset:
    """Arrows whose range equals their source; always contains the units."""
    check_groupoid(g)
    return frozenset(a for a in range(g.m) if g.rng[a] == g.src[a])


def is_effective(g: Groupoid) -> bool:
    """At finite discrete scale the isotropy interior is the isotropy, so
    effective means the isotropy is exactly the unit set (principal)."""
    return isotropy(g) == g.unit_set


def orbits(g: Groupoid) -> list:
    """Partition of the units; the orbit of x is src(rng^-1(x)).

    That relation is already an equivalence (units give reflexivity, inv
    symmetry, comp transitivity), so no closure pass is needed.  Orbits are
    returned as sorted tuples, ordered by least member.
    """
    seen = set()
    out = []
    for x in g.units:
        if x in seen:
            continue
        orb = sorted({g.src[a] for a in range(g.m) if g.rng[a] == x})
        seen.update(orb)
        out.append(tuple(orb))
    return out


@derived
def _orbit_arrows(g: Groupoid):
    """(orbit_of, arrows): orbit_of[a] is the index in orbits(g) of the
    orbit that holds src a (and rng a), and arrows[i] lists, ascending, the
    arrows a with orbit_of[a] == i.  Kept on g (derived), since orbits
    scans every arrow per unit on each call."""
    orbs = orbits(g)
    where = {x: i for i, orb in enumerate(orbs) for x in orb}
    orbit_of = tuple(where[x] for x in g.src)
    arrows = [[] for _ in orbs]
    for a, i in enumerate(orbit_of):
        arrows[i].append(a)
    return orbit_of, tuple(map(tuple, arrows))


def is_minimal(g: Groupoid) -> bool:
    """One orbit; with the discrete topology closures change nothing."""
    check_groupoid(g)
    return len(orbits(g)) == 1


def _arrows(m: int, arrows: Iterable[int]) -> list:
    """arrows as a list, once each lies in 0..m-1; the first that does not
    raises ValueError.  The functions that take arrows from a caller run it
    after their gate."""
    arrows = list(arrows)
    for a in arrows:
        if not 0 <= a < m:
            raise ValueError("arrow %d is out of range" % a)
    return arrows


def _tabulate(arrows, src, rng, inv, mul) -> Groupoid:
    """The groupoid on the labels in arrows, indexed in sorted order, born
    checked (Groupoid._born) and owning the comp it has just filled.

    src, rng and inv send a label to a label, and mul(a, b) is the label of
    the product; the units are the labels that are their own source, and
    comp is filled in ascending order on every pair with src(a) == rng(b).
    Nothing is checked: it is only for rules valid by construction, and
    each caller says in its docstring why its rule is one.
    """
    labels = sorted(arrows)
    index = {a: i for i, a in enumerate(labels)}
    s = [index[src(a)] for a in labels]
    r = [index[rng(a)] for a in labels]
    by_rng = {}
    for b, x in enumerate(r):
        by_rng.setdefault(x, []).append(b)
    comp = {(i, b): index[mul(a, labels[b])]
            for i, a in enumerate(labels) for b in by_rng.get(s[i], ())}
    units = [i for i, x in enumerate(s) if x == i]
    return Groupoid._born(units, s, r, [index[inv(a)] for a in labels], comp)


def subgroupoid(g: Groupoid, arrow_subset: Iterable[int]):
    """Reindex a composition/inverse-closed arrow subset as its own groupoid.

    Returns (h, old_of_new) where old_of_new[new_index] = old index.
    The units of h are the kept units of g.  A subset that is not closed
    under src, rng, inv and comp raises ValueError naming the first arrow,
    then the first composable pair, that leaves it; an arrow outside
    0..g.m-1 raises ValueError first.  g passes check_groupoid first, and h
    is born checked: a closed subset of a groupoid inherits its axioms.
    """
    check_groupoid(g)
    keep = _arrows(g.m, sorted(set(arrow_subset)))
    inside = frozenset(keep)
    for a in keep:
        for name, ends in (("src", g.src), ("rng", g.rng), ("inv", g.inv)):
            if ends[a] not in inside:
                raise ValueError("subset is not closed: %s(%d) = %d is not in it"
                                 % (name, a, ends[a]))
    by_rng = g.arrows_by_rng()
    for a in keep:
        for b in by_rng.get(g.src[a], ()):
            if b in inside and g.comp[(a, b)] not in inside:
                raise ValueError("subset is not closed: comp(%d, %d) = %d is not in it"
                                 % (a, b, g.comp[(a, b)]))
    return _tabulate(keep, g.src.__getitem__, g.rng.__getitem__, g.inv.__getitem__,
                     lambda a, b: g.comp[(a, b)]), keep


def restrict(g: Groupoid, unit_subset: Iterable[int]) -> Groupoid:
    """The subgroupoid over an invariant unit set U: arrows with source in U.

    Rejects non-invariant U, naming an arrow that crosses the boundary.
    g passes check_groupoid first.
    """
    check_groupoid(g)
    u = frozenset(unit_subset)
    for x in u:
        if x not in g.unit_set:
            raise ValueError("%d is not a unit" % x)
    for a in range(g.m):
        if (g.src[a] in u) != (g.rng[a] in u):
            raise ValueError("not invariant, arrow %d crosses the boundary" % a)
    h, _ = subgroupoid(g, [a for a in range(g.m) if g.src[a] in u])
    return h


# --- bisections --------------------------------------------------------------


def is_bisection(g: Groupoid, subset: Iterable[int]) -> bool:
    check_groupoid(g)
    b = _arrows(g.m, subset)
    return len({g.src[a] for a in b}) == len(b) and len({g.rng[a] for a in b}) == len(b)


def bisection_product(g: Groupoid, left, right) -> frozenset:
    """{comp(a, b) : a in left, b in right, composable}; again a bisection
    when left and right are, else ValueError."""
    check_groupoid(g)
    left, right = _arrows(g.m, left), _arrows(g.m, right)
    out = {g.comp[(a, b)] for a in left for b in right if g.src[a] == g.rng[b]}
    if not is_bisection(g, out):
        raise ValueError("an argument of the product is not a bisection")
    return frozenset(out)


def bisection_inverse(g: Groupoid, subset) -> frozenset:
    check_groupoid(g)
    return frozenset(g.inv[a] for a in _arrows(g.m, subset))


def enumerate_bisections(g: Groupoid, cap: Optional[int] = None):
    """All bisections (including the empty one) in a fixed deterministic
    order, by backtracking over ascending arrow indices.  Raises when a cap
    on the count is exceeded."""
    check_groupoid(g)
    out = [frozenset()]
    stack = [(0, (), frozenset(), frozenset())]
    while stack:
        start, chosen, srcs, rngs = stack.pop()
        for a in range(start, g.m):
            if g.src[a] in srcs or g.rng[a] in rngs:
                continue
            cur = chosen + (a,)
            out.append(frozenset(cur))
            if cap is not None and len(out) > cap:
                raise ValueError("more than %d bisections" % cap)
            stack.append((a + 1, cur, srcs | {g.src[a]}, rngs | {g.rng[a]}))
    return out
