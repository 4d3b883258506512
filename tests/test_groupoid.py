"""Groupoid axioms, predicates, restriction, bisections."""

import itertools
import random
import re

import pytest

import twistalg as T
from twistalg import groupoid as G
from conftest import (
    assert_flag_ignored, assert_never_marked, assert_read_only, broken_z2, count_calls, kept,
    unmarked,
)


def mutate(g, **kw):
    parts = dict(
        units=list(g.units), src=list(g.src), rng=list(g.rng),
        inv=list(g.inv), comp=dict(g.comp),
    )
    parts.update(kw)
    return T.Groupoid(**parts)


def test_catalog_passes_validator():
    for name in T.CATALOG:
        assert T.validate_groupoid(T.build(name)) == []


def test_validator_catches_broken_inverse():
    g = T.build("pair2")
    inv = list(g.inv)
    inv[1] = 1  # (1,2) is not its own inverse
    bad = T.validate_groupoid(mutate(g, inv=inv))
    assert bad and any("inv" in v or "inverse" in v for v in bad)


def test_validator_catches_wrong_composition_target():
    g = T.build("pair2")
    comp = dict(g.comp)
    comp[(1, 2)] = 3  # (1,2)(2,1) = (1,1), not (2,2)
    assert T.validate_groupoid(mutate(g, comp=comp))


def test_validator_catches_missing_composition():
    g = T.build("pair2")
    comp = dict(g.comp)
    del comp[(1, 2)]
    bad = T.validate_groupoid(mutate(g, comp=comp))
    assert bad


def test_validator_catches_extra_composition():
    g = T.build("pair2")
    comp = dict(g.comp)
    comp[(1, 1)] = 0  # src(1) = 3 != 0 = rng(1); pair is not composable
    assert T.validate_groupoid(mutate(g, comp=comp))


def test_validator_names_each_bad_composition():
    # missing, then non-composable and out-of-range entries, each in
    # ascending pair order whatever order the table lists them in
    g = T.build("pair2")
    comp = dict(g.comp)
    del comp[(1, 2)]
    comp[(2, 1)] = 7
    comp[(1, 1)] = 0
    assert T.validate_groupoid(mutate(g, comp=comp)) == [
        "comp undefined on composable pair (1, 2)",
        "comp defined on non-composable pair (1, 1)",
        "comp(2, 1) is out of range",
    ]


def test_validator_catches_nonunit_source():
    g = T.build("pair2")
    src = list(g.src)
    src[1] = 2
    assert T.validate_groupoid(mutate(g, src=src))


def test_validator_names_table_and_unit_faults():
    g = T.build("pair2")  # units 0 and 3; arrow 1 runs 3 -> 0, arrow 2 runs 0 -> 3
    assert T.validate_groupoid(mutate(g, rng=list(g.rng)[:-1])) == [
        "src/rng/inv tables have mismatched lengths"]
    assert T.validate_groupoid(mutate(g, units=[0, 1])) == [
        "unit 1 is not its own source and range"]
    rng = list(g.rng)
    rng[1] = 2
    assert "rng(1) = 2 is not a unit" in T.validate_groupoid(mutate(g, rng=rng))


def test_validator_catches_broken_associativity():
    # a 3-cycle composition table on the s3 carrier cannot stay associative
    # once one product is redirected; easier: corrupt z4's table
    g = T.build("z4")
    comp = dict(g.comp)
    comp[(1, 1)] = 3
    bad = T.validate_groupoid(mutate(g, comp=comp))
    assert bad


def test_check_groupoid_raises():
    g = T.build("pair2")
    inv = list(g.inv)
    inv[1] = 1
    with pytest.raises(ValueError):
        T.check_groupoid(mutate(g, inv=inv))


def test_isotropy_and_effective():
    assert T.isotropy(T.build("pair3")) == frozenset([0, 4, 8])
    assert T.is_effective(T.build("pair3"))
    z4 = T.build("z4")
    assert T.isotropy(z4) == frozenset(range(4))
    assert not T.is_effective(z4)
    fix3 = T.build("fix3")
    # the swap fixes point 2, so the non-unit arrow (swap, 2) is isotropy
    assert not T.is_effective(fix3)
    assert len(T.isotropy(fix3)) == 4


def test_orbits_and_minimal():
    assert T.orbits(T.build("pair3")) == [(0, 4, 8)]
    assert T.is_minimal(T.build("pair3"))
    uu = T.build("pair2_pair2")
    assert T.orbits(uu) == [(0, 3), (4, 7)]
    assert not T.is_minimal(uu)
    assert T.orbits(T.build("fix3")) == [(0, 1), (2,)]


def test_restrict_to_invariant_units():
    uu = T.build("pair2_pair2")
    block = T.restrict(uu, [0, 3])
    assert T.validate_groupoid(block) == []
    assert block.m == 4
    assert block == T.build("pair2")


def test_restrict_rejects_noninvariant_set():
    p2 = T.build("pair2")
    with pytest.raises(ValueError):
        T.restrict(p2, [0])


def test_restrict_rejects_a_non_unit():
    with pytest.raises(ValueError, match="^1 is not a unit$"):
        T.restrict(T.build("pair2"), [0, 1])


def test_subgroupoid_reindexes():
    p3 = T.build("pair3")
    # arrows among points {1,2}: indices (i-1)*3+(j-1) for i,j in {1,2}
    sub, old_of_new = T.subgroupoid(p3, [0, 1, 3, 4])
    assert T.validate_groupoid(sub) == []
    assert sub.m == 4
    assert [old_of_new[a] for a in range(4)] == [0, 1, 3, 4]
    assert sub == T.build("pair2")


@pytest.mark.parametrize("subset,message", [
    # (1, 2) runs from unit (2, 2), index 4, which is left out
    ([0, 1], "src(1) = 4"),
    ([0, 4, 7], "rng(7) = 8"),
    ([0, 1, 4, 8], "inv(1) = 3"),
    # closed under src, rng and inv, but (1, 2)(2, 3) = (1, 3) is left out
    ([0, 1, 3, 4, 5, 7, 8], "comp(1, 5) = 2"),
], ids=["src", "rng", "inv", "comp"])
def test_subgroupoid_refuses_a_subset_that_is_not_closed(subset, message):
    with pytest.raises(ValueError, match=r"^subset is not closed: %s is not in it$"
                       % re.escape(message)):
        T.subgroupoid(T.pair_groupoid(3), subset)


def test_subgroupoid_refuses_an_arrow_out_of_range():
    with pytest.raises(ValueError, match="^arrow 9 is out of range$"):
        T.subgroupoid(T.pair_groupoid(3), [0, 9])


def order_two_gradings(name, g):
    """Degrees of gradings of catalog groupoid g into the order-two group:
    phi(rng a) - phi(src a) for phi the parity of each unit's position, and,
    where g is a group or an action of the order-two group, a homomorphism
    read off the group element."""
    phi = {u: i % 2 for i, u in enumerate(g.units)}
    perms = sorted(itertools.permutations(range(3)))
    sign = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    group = {"z2": lambda a: a % 2, "z4": lambda a: a % 2, "z8": lambda a: a % 2,
             "klein": lambda a: a & 1, "s3": sign.__getitem__,
             "swap2": lambda a: a // 2, "fix3": lambda a: a // 3}
    degs = [[(phi[g.rng[a]] - phi[g.src[a]]) % 2 for a in range(g.m)]]
    if name in group:
        degs.append([group[name](a) for a in range(g.m)])
    return degs


def test_every_subgroupoid_validates(monkeypatch):
    """Oracle for the born-checked subgroupoid: on every catalog groupoid,
    the isotropy, the arrows over each orbit (an invariant unit set, which
    restrict takes) and the kernel of each grading of order_two_gradings
    give a subgroupoid that passes the gate unvalidated and whose unmarked
    copy is a groupoid."""
    cases = []
    for name in T.CATALOG:
        g = T.build(name)
        kernels = [T.kernel_arrows(T.check_grading(T.Grading(g, T.cyclic_group(2), deg)))
                   for deg in order_two_gradings(name, g)]
        orbits = [[a for a in range(g.m) if g.src[a] in orb] for orb in T.orbits(g)]
        cases += [(g, subset) for subset in [T.isotropy(g)] + orbits + kernels]
        for orb, arrows in zip(T.orbits(g), orbits):
            h = T.restrict(g, orb)
            assert h.checked and h == T.subgroupoid(g, arrows)[0]
    calls = count_calls(monkeypatch, G, "validate_groupoid")
    for g, subset in cases:
        h, keep = T.subgroupoid(g, subset)
        assert keep == sorted(subset) and h.m == len(keep)
        assert h.checked and T.check_groupoid(h) is h and calls == []
        assert G.validate_groupoid(unmarked(h)) == []
        calls.clear()
    assert len(cases) == 48


def test_tabulate_indexes_sorted_labels():
    # the pair groupoid on points "x" < "y", its labels listed out of order
    labels = [("y", "x"), ("x", "x"), ("y", "y"), ("x", "y")]
    pair = G._tabulate(labels, lambda a: (a[1], a[1]), lambda a: (a[0], a[0]),
                       lambda a: (a[1], a[0]), lambda a, b: (a[0], b[1]))
    assert pair == T.pair_groupoid(2) and pair.units == (0, 3)
    assert list(pair.comp) == sorted(pair.comp)
    # the units are exactly the labels that are their own source.  Nothing
    # is checked, and _tabulate trusts its caller: this rule, every product
    # of which is the unit "e", is no groupoid and comes out marked all the
    # same, which is why only rules valid by construction may use it
    g = G._tabulate(["s", "e", "t"], lambda a: "e", lambda a: "e", lambda a: a,
                    lambda a, b: "e")
    assert g.checked
    assert g.units == (0,) and g.src == g.rng == (0, 0, 0) and g.inv == (0, 1, 2)
    assert "left unit law fails at arrow 1" in T.validate_groupoid(g)


@pytest.mark.parametrize("call, arrow", [
    (lambda g: T.is_bisection(g, [-1]), -1),
    (lambda g: T.is_bisection(g, [7]), 7),
    (lambda g: T.bisection_product(g, [-1], [0]), -1),
    (lambda g: T.bisection_product(g, [0], [4]), 4),
    (lambda g: T.bisection_inverse(g, [-1]), -1),
    (lambda g: T.bisection_inverse(g, [1, 4]), 4),
    (lambda g: T.subgroupoid(g, [0, 4]), 4),
], ids=["is_bisection-neg", "is_bisection-past", "product-left", "product-right",
        "inverse-neg", "inverse-past", "subgroupoid"])
def test_an_arrow_out_of_range_is_refused_after_the_gate(call, arrow):
    """On pair2, bisection_inverse(g, [-1]) was {3}, is_bisection(g, [-1])
    True and bisection_product(g, [-1], [0]) empty, read through Python's
    negative indices, and is_bisection(g, [7]) raised a bare IndexError.
    A broken groupoid still meets its gate first."""
    with pytest.raises(ValueError, match="^arrow %d is out of range$" % arrow) as raised:
        call(T.build("pair2"))
    assert type(raised.value) is ValueError
    with pytest.raises(T.AxiomError, match="^invalid groupoid: "):
        call(broken_z2("composite"))


def test_bisection_product_rejects_a_non_bisection():
    # the whole of pair2 is no bisection; its product with the unit at
    # point 1 has two arrows with that source
    g = T.build("pair2")
    with pytest.raises(ValueError, match="^an argument of the product is not a bisection$"):
        T.bisection_product(g, range(4), [0])


def test_bisection_counts():
    assert len(T.enumerate_bisections(T.build("pair3"))) == 34
    assert len(T.enumerate_bisections(T.build("z4"))) == 5
    assert len(T.enumerate_bisections(T.build("pair1"))) == 2


def test_bisection_cap():
    with pytest.raises(ValueError):
        T.enumerate_bisections(T.build("pair4"), cap=10)


def test_bisection_inverse_semigroup_closure():
    g = T.build("pair2")
    bis = T.enumerate_bisections(g)
    bset = set(bis)
    for b in bis:
        assert T.bisection_inverse(g, b) in bset
        for d in bis:
            prod = T.bisection_product(g, b, d)
            assert prod in bset
    # product of a bisection with its inverse is the range unit set
    for b in bis:
        rb = frozenset(g.rng[a] for a in b)
        assert T.bisection_product(g, b, T.bisection_inverse(g, b)) == rb


def test_is_bisection():
    g = T.build("pair2")
    assert T.is_bisection(g, [1, 2])
    assert T.is_bisection(g, [])
    assert not T.is_bisection(g, [0, 1])  # both have source/range clashes


# --- associativity on a generating set, against the full triple walk ---------


def walk_failures(g):
    """Every composable triple (a, b, c) with (ab)c != a(bc), walked in full."""
    into = {u: [b for b in range(g.m) if g.rng[b] == u] for u in g.units}
    comp = g.comp
    return [
        (a, b, c)
        for a in range(g.m)
        for b in into[g.src[a]]
        for c in into[g.src[b]]
        if comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])]
    ]


def listed_triples(violations):
    """The triples named by associativity violations, in order."""
    pattern = re.compile(r"associativity fails at triple \((\d+), (\d+), (\d+)\)")
    return [tuple(map(int, m.groups())) for m in map(pattern.fullmatch, violations) if m]


def oracle_groupoids():
    """The catalog, pair5, and the twist totals of up to two enumerated
    cocycles per catalog groupoid and order n <= 4."""
    out = [(name, T.build(name)) for name in T.CATALOG] + [("pair5", T.pair_groupoid(5))]
    for name in T.CATALOG:
        g = T.build(name)
        for n in (2, 3, 4):
            try:
                cocs = T.enumerate_cocycles(g, n, cap=2 ** 12)
            except ValueError:
                continue
            rnd = random.Random("totals:%s:%d" % (name, n))
            for coc in rnd.sample(cocs, min(2, len(cocs))):
                out.append(("%s/%d total" % (name, n), T.build_twist(g, coc).total))
    return out


ORACLE_GROUPOIDS = oracle_groupoids()


def typed_mutants(g, rnd, count):
    """Up to count single-composite mutants that keep typing and the unit
    laws: a product of two non-units moved to another arrow with the same
    source and range."""
    pairs = sorted(p for p in g.comp if not (set(p) & g.unit_set))
    out = []
    for a, b in rnd.sample(pairs, min(count, len(pairs))):
        ab = g.comp[(a, b)]
        hom = (g.src[ab], g.rng[ab])
        others = [x for x in range(g.m) if x != ab and (g.src[x], g.rng[x]) == hom]
        if others:
            comp = dict(g.comp)
            comp[(a, b)] = rnd.choice(others)
            out.append(mutate(g, comp=comp))
    return out


def test_oracle_groupoids_are_associative():
    assert len(ORACLE_GROUPOIDS) > 60
    for name, g in ORACLE_GROUPOIDS:
        assert T.validate_groupoid(g) == [], name
        assert walk_failures(g) == [], name


def test_generator_associativity_matches_triple_walk():
    checked = 0
    for name, g in ORACLE_GROUPOIDS:
        rnd = random.Random("mutants:" + name)
        for mut in typed_mutants(g, rnd, 12):
            v = T.validate_groupoid(mut)
            # typing and the unit laws hold; inverse laws may break
            assert all(s.startswith("associativity") or "inv(" in s for s in v), name
            listed, walk = listed_triples(v), walk_failures(mut)
            gens = set(T.generating_set(mut))
            assert listed == [t for t in walk if t[1] in gens], name
            assert bool(listed) == bool(walk), name
            checked += 1
    assert checked > 500


def test_failure_between_non_generators_is_caught():
    # z4 is generated by 1; only 2 * 3 changes (1 -> 3), typing and the unit
    # laws still hold, and the triples failing at middles 2 and 3 are not
    # listed, but the failure shows at the generator middle
    g = T.build("z4")
    assert T.generating_set(g) == [1]
    comp = dict(g.comp)
    comp[(2, 3)] = 3
    bad = mutate(g, comp=comp)
    walk = walk_failures(bad)
    assert {b for _, b, _ in walk} == {1, 2, 3}
    listed = listed_triples(T.validate_groupoid(bad))
    assert listed == [t for t in walk if t[1] == 1] and listed


def test_associativity_failures_match_every_composable_triple():
    """The row-based Light's test against every triple composable_triples
    lists: over the catalog, twist totals of enumerated cocycles and seeded
    corruptions that keep typing, it is empty exactly when all of them
    associate."""
    seen = set()
    for name, g in ORACLE_GROUPOIDS:
        rnd = random.Random("rows:" + name)
        for h in [g] + typed_mutants(g, rnd, 4):
            comp = h.comp
            every = all(comp[(comp[(a, b)], c)] == comp[(a, comp[(b, c)])]
                        for a, b, c in G.composable_triples(h))
            assert (G.associativity_failures(h) == []) == every, name
            seen.add(every)
    assert seen == {True, False}


def test_valid_groupoids_never_list_their_composable_pairs(monkeypatch):
    # the domain check counts; composable_pairs runs only to name a failure
    calls = count_calls(monkeypatch, G, "composable_pairs")
    for name, g in ORACLE_GROUPOIDS:
        assert T.validate_groupoid(g) == [], name
    assert T.validate_groupoid(T.cyclic_group(12).gpd) == []
    assert calls == []
    g = T.build("pair2")
    comp = dict(g.comp)
    del comp[(1, 2)]
    assert T.validate_groupoid(mutate(g, comp=comp)) == ["comp undefined on composable pair (1, 2)"]
    assert len(calls) == 1


def reached_from_units(g, gens):
    """The arrows that are units or composable words in gens."""
    reached = set(g.units)
    while True:
        more = {g.comp[(r, s)] for r in reached for s in gens if g.src[r] == g.rng[s]}
        if more <= reached:
            return reached
        reached |= more


def greedy_generators(g):
    """The greedy-only walk, the reference generating_set must not exceed:
    each new generator is the least arrow not yet reached."""
    gens = []
    for x in range(g.m):
        if x not in reached_from_units(g, gens):
            gens.append(x)
    return gens


def walk_groupoids():
    """ORACLE_GROUPOIDS, pair_groupoid(n) for n <= 12, two disjoint unions
    and Z/4 acting on six points in orbits of four and two, the second with
    isotropy Z/2."""
    z4 = T.cyclic_group(4)
    perms = [[(x + k) % 4 for x in range(4)] + [4 + k % 2, 5 - k % 2] for k in range(4)]
    return ORACLE_GROUPOIDS + [("pair%d" % n, T.pair_groupoid(n)) for n in range(1, 13)] + [
        ("pair4+pair3", T.disjoint_union(T.pair_groupoid(4), T.pair_groupoid(3))),
        ("s3+fix3", T.disjoint_union(T.build("s3"), T.build("fix3"))),
        ("z4 on 4+2 points", T.check_groupoid(T.action_groupoid(z4, perms))),
    ]


def test_generating_set_generates():
    for name, g in walk_groupoids():
        gens = T.generating_set(g)
        assert gens == sorted(gens) and not set(gens) & g.unit_set, name
        assert reached_from_units(g, gens) == set(range(g.m)), name
        assert len(gens) <= len(greedy_generators(g)), name


def test_validator_walks_an_orbit_without_a_return_arrow():
    # arrow 2 runs from unit 1 to unit 0 and is its own inverse: typing and
    # the unit laws hold, so the associativity walk runs, and its cycle
    # finds no arrow from 0 to 1
    g = T.Groupoid([0, 1], [0, 1, 1], [0, 1, 0], [0, 1, 2],
                   {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2})
    assert T.orbits(g) == [(0, 1)]
    assert T.validate_groupoid(g) == [
        "inv(2) does not swap source and range",
        "rng(g) = comp(g, inv(g)) fails at arrow 2",
        "src(g) = comp(inv(g), g) fails at arrow 2",
    ]
    assert T.generating_set(g) == [2]


def test_pair_groupoid_is_generated_by_a_cycle():
    # (2, 1), (3, 2), ..., (1, n), the arrows from each point to the next,
    # where greedy alone took 2(n - 1) arrows; (i, j) has index (i-1)*n + (j-1)
    for n in range(2, 13):
        g = T.pair_groupoid(n)
        cycle = [(i % n) * n + (i - 1) for i in range(1, n + 1)]
        assert T.generating_set(g) == sorted(cycle), n
        assert len(greedy_generators(g)) == 2 * (n - 1)


def full_loop_failures(g, f, prod):
    """Every (e, d) with src e == rng d, ascending, where prod((f[e], f[d]))
    is not f[ed]."""
    return [(e, d) for e in range(g.m) for d in range(g.m)
            if g.src[e] == g.rng[d] and prod((f[e], f[d])) != f[g.comp[(e, d)]]]


def degree_vectors(g, values, rnd, mod=None):
    """Every vector over values when there are at most 2*10^4, else 400 at
    random and the coboundaries deg(a) = p(rng a) - p(src a), reduced mod
    mod unless it is None, of 100 unit potentials p, each also with one
    entry changed."""
    if len(values) ** g.m <= 2 * 10 ** 4:
        return list(itertools.product(values, repeat=g.m))
    out = [tuple(rnd.choice(values) for _ in range(g.m)) for _ in range(400)]
    for _ in range(100):
        p = {u: rnd.choice(values) for u in g.units}
        deg = [p[g.rng[a]] - p[g.src[a]] for a in range(g.m)]
        if mod is not None:
            deg = [x % mod for x in deg]
        out.append(tuple(deg))
        deg[rnd.randrange(g.m)] = rnd.choice(values)
        out.append(tuple(deg))
    return out


def test_homomorphism_failures_match_the_full_loop():
    """The law decided on units and generators against every composable
    pair: Z/2, Z/3 and Z degree vectors of every catalog groupoid, the
    projections of built twists and mutated copies of them, and the
    permutation tuples of z2, z3, z4 and klein on up to 3 points.  Both
    verdicts occur for each groupoid, and for each kind of map."""
    rnd = random.Random("homomorphisms")
    by_groupoid, by_kind = {}, {}

    def compare(name, kind, g, f, prod):
        got = G.homomorphism_failures(g, f, prod)
        assert got == full_loop_failures(g, f, prod), (name, kind)
        by_groupoid.setdefault(name, set()).add(bool(got))
        by_kind.setdefault(kind, set()).add(bool(got))
        return not got

    for name in T.CATALOG:
        g = T.build(name)
        for k in (2, 3):
            for deg in degree_vectors(g, range(k), rnd, mod=k):
                compare(name, "Z/%d" % k, g, deg, lambda xy, k=k: (xy[0] + xy[1]) % k)
        for deg in degree_vectors(g, range(-2, 3), rnd):
            compare(name, "Z", g, deg, lambda xy: xy[0] + xy[1])
        cocycles = T.enumerate_cocycles(g, 2)
        for coc in rnd.sample(cocycles, min(3, len(cocycles))):
            tw = T.build_twist(g, coc)
            compare(name, "twist", tw.total, tw.proj, g.comp.get)
            for _ in range(20):
                proj = list(tw.proj)
                proj[rnd.randrange(len(proj))] = rnd.randrange(g.m)
                compare(name, "twist", tw.total, proj, g.comp.get)

    def after(pq):
        return tuple(pq[0][x] for x in pq[1])

    actions = 0
    for name in ("z2", "z3", "z4", "klein"):
        table = T.klein_table() if name == "klein" else T.cyclic_group(int(name[1:]))
        for s in (1, 2, 3):
            for perms in itertools.product(itertools.permutations(range(s)), repeat=table.order):
                actions += compare(name, "perms", table.gpd, perms, after)
    assert list(by_groupoid) == list(T.CATALOG)
    assert all(v == {True, False} for v in by_groupoid.values())
    assert len(by_kind) == 5 and all(v == {True, False} for v in by_kind.values())
    # the homomorphisms counted in test_every_action_groupoid_validates
    assert actions == 7 + 5 + 7 + 15


def test_homomorphism_failures_decide_on_units_and_generators():
    # pair4 has 4 units and 4 generators, each composable with 4 arrows on
    # the left: a homomorphism is decided on 32 of its 64 pairs
    g, calls = T.pair_groupoid(4), []

    def prod(xy):
        calls.append(xy)
        return (xy[0] + xy[1]) % 3

    deg = [(g.rng[a] - g.src[a]) % 3 for a in range(g.m)]
    assert G.homomorphism_failures(g, deg, prod) == [] and len(calls) == 32 < len(g.comp)


# --- read-only tables behind one validation gate -----------------------------


def test_comp_is_read_only(tmp_path):
    path = str(tmp_path / "s3.gpd")
    T.write_groupoid(path, T.build("s3"))
    for g in (mutate(T.build("pair2")), T.build("s3"), T.read_groupoid(path)):
        assert_read_only(g.comp)


def test_check_groupoid_validates_once(monkeypatch):
    g = mutate(T.build("pair3"))
    calls = count_calls(monkeypatch, G, "validate_groupoid")
    assert not g.checked
    for _ in range(3):
        assert T.check_groupoid(g) is g
    assert g.checked and calls == [g]
    # the validator itself never reads the flag
    assert G.validate_groupoid(g) == [] and len(calls) == 2


def test_arrows_by_src_is_built_once_per_groupoid(monkeypatch):
    builds, original = [], G.Groupoid.arrows_by_src

    def counted(g):
        builds.append(kept(g, original) is None)
        return original(g)
    monkeypatch.setattr(G.Groupoid, "arrows_by_src", counted)
    g = mutate(T.pair_groupoid(3))
    T.check_cocycle(unmarked(T.trivial_cocycle(T.check_groupoid(g), 2)))
    # the associativity check, the generator walk it starts (the cycle reads
    # each orbit's arrows from here) and the cocycle identity
    assert builds == [True, False, False]
    assert g.arrows_by_src() == {u: tuple(a for a in range(g.m) if g.src[a] == u) for u in g.units}


def test_invalid_groupoid_is_never_marked():
    g = T.build("pair2")
    inv = list(g.inv)
    inv[1] = 1
    assert_never_marked(mutate(g, inv=inv), T.check_groupoid, T.validate_groupoid)


def test_groupoid_equality_ignores_the_flag():
    assert_flag_ignored(lambda: mutate(T.build("z4")), T.check_groupoid)


# --- public attributes bind once ---------------------------------------------


def bound_objects():
    coc = T.z2_neg_cocycle()
    return [coc.gpd, coc, T.Grading(coc.gpd, T.cyclic_group(2), [0, 1]),
            T.build_twist(coc.gpd, coc)]


@pytest.mark.parametrize("index", range(4), ids=["groupoid", "cocycle", "grading", "twist"])
def test_public_attributes_bind_once(index):
    obj = bound_objects()[index]
    public = [name for name in type(obj).__slots__ if name != "checked" and name[0] != "_"]
    for name in public:
        with pytest.raises(AttributeError, match="already set"):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError, match="cannot be deleted"):
            delattr(obj, name)
    obj.checked = True
    obj.checked = False
    assert not obj.checked


# --- born-checked constructors own their tables ------------------------------


def born_objects():
    """(constructor, object) for every constructor that hands a table it has
    just built to a private constructor: build_twist's total and twist, and
    the cocycles of trivial_cocycle, invert_cocycle, multiply_cocycles,
    apply_coboundary (its b has negative entries and entries of n or more),
    induced_cocycle and enumerate_cocycles."""
    g, n = T.build("s3"), 4
    listed = T.enumerate_cocycles(g, n)
    coc = listed[-1]
    b = [0 if a in g.unit_set else k for a, k in zip(range(g.m), (-7, 5, -1, 9, 4, -4))]
    tw = T.build_twist(g, coc)
    sec = list(T.find_section(tw))
    sec[1] = tw.act(3, sec[1])  # not the canonical section: its cocycle differs
    return [
        ("build_twist total", tw.total), ("build_twist", tw),
        ("trivial_cocycle", T.trivial_cocycle(g, n)), ("invert_cocycle", T.invert_cocycle(coc)),
        ("multiply_cocycles", T.multiply_cocycles(coc, listed[-2])),
        ("apply_coboundary", T.apply_coboundary(coc, b)),
        ("induced_cocycle", T.induced_cocycle(tw, sec)),
    ] + [("enumerate_cocycles", c) for c in listed[::97]]


def test_born_objects_equal_their_public_copies():
    """Each born object is == to the one the public constructor builds from
    the same tables, with the same hash and fields of the same types, and
    it comes out marked."""
    for name, obj in born_objects():
        copy = unmarked(obj)
        assert obj.checked and not copy.checked, name
        assert copy == obj and obj == copy and hash(copy) == hash(obj), name
        for field in type(obj).__slots__:
            if field[0] != "_" and field != "checked":
                assert type(getattr(obj, field)) is type(getattr(copy, field)), (name, field)


def test_born_cocycle_values_are_reduced():
    cocycles = [(name, obj) for name, obj in born_objects() if isinstance(obj, T.Cocycle)]
    assert len(cocycles) == 16
    for name, coc in cocycles:
        assert all(0 <= k < coc.n for k in coc.table.values()), name
        assert T.validate_cocycle(unmarked(coc)) == [], name


def test_born_objects_bind_once_and_keep_read_only_tables():
    for name, obj in born_objects():
        public = [f for f in type(obj).__slots__ if f != "checked" and f[0] != "_"]
        for field in public:
            with pytest.raises(AttributeError, match="already set"):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError, match="cannot be deleted"):
                delattr(obj, field)
        for field in ("comp", "table", "embed"):
            if field in public:
                assert_read_only(getattr(obj, field))


def test_public_constructors_copy_and_reduce():
    """A caller's table is never trusted: mutating the dict handed to
    Groupoid, Cocycle or Twist afterwards leaves the object unchanged, and
    Cocycle reduces every value mod n."""
    g = T.build("z2")
    comp = dict(g.comp)
    h = T.Groupoid(g.units, g.src, g.rng, g.inv, comp)
    comp[(1, 1)], comp[(2, 2)] = 1, 0
    assert h == g and dict(h.comp) == dict(g.comp)
    table = {pair: k for pair, k in zip(sorted(g.comp), (4, -2, 6, -3))}
    coc = T.Cocycle(g, 2, table)
    table[(1, 1)] = 0
    assert dict(coc.table) == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    assert coc == T.z2_neg_cocycle()
    tw = T.build_twist(g, coc)
    embed = dict(tw.embed)
    copy = T.Twist(g, tw.total, 2, embed, tw.proj)
    embed[(0, 1)] = 0
    assert copy == tw and dict(copy.embed) == dict(tw.embed)
