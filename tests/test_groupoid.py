"""Groupoid axioms, predicates, restriction, bisections."""

import random
import re

import pytest

import twistalg as T
from twistalg import groupoid as G
from conftest import (
    assert_flag_ignored, assert_never_marked, assert_read_only, count_calls, kept,
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
    # missing, non-composable and out-of-range entries, listed in the order
    # of the composable pairs and then of the table
    g = T.build("pair2")
    comp = dict(g.comp)
    del comp[(1, 2)]
    comp[(1, 1)] = 0
    comp[(2, 1)] = 7
    assert T.validate_groupoid(mutate(g, comp=comp)) == [
        "comp undefined on composable pair (1, 2)",
        "comp(2, 1) is out of range",
        "comp defined on non-composable pair (1, 1)",
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


def test_tabulate_indexes_sorted_labels():
    # the pair groupoid on points "x" < "y", its labels listed out of order
    labels = [("y", "x"), ("x", "x"), ("y", "y"), ("x", "y")]
    pair = G.tabulate(labels, lambda a: (a[1], a[1]), lambda a: (a[0], a[0]),
                      lambda a: (a[1], a[0]), lambda a, b: (a[0], b[1]))
    assert pair == T.pair_groupoid(2) and pair.units == (0, 3)
    assert list(pair.comp) == sorted(pair.comp)
    # the units are exactly the labels that are their own source, and
    # nothing is checked: every product here is the unit "e"
    g = G.tabulate(["s", "e", "t"], lambda a: "e", lambda a: "e", lambda a: a,
                   lambda a, b: "e")
    assert g.units == (0,) and g.src == g.rng == (0, 0, 0) and g.inv == (0, 1, 2)
    assert "left unit law fails at arrow 1" in T.validate_groupoid(g)


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


def test_generating_set_generates():
    for name, g in ORACLE_GROUPOIDS:
        gens = T.generating_set(g)
        assert gens == sorted(gens) and not set(gens) & g.unit_set
        reached = set(g.units)
        while True:
            more = {g.comp[(r, s)] for r in reached for s in gens if g.src[r] == g.rng[s]}
            if more <= reached:
                break
            reached |= more
        assert reached == set(range(g.m)), name


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
    g = T.pair_groupoid(3)
    T.check_cocycle(T.trivial_cocycle(T.check_groupoid(g), 2))
    # the associativity check and the cocycle identity on the generators
    assert builds == [True, False]
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
