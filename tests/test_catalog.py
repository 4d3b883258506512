"""Catalog groupoids, constructors, and the cocycle search."""

import hashlib
import itertools
import os
import random

import pytest

import twistalg as T
from twistalg import catalog as CAT
from twistalg import groupoid as G
from conftest import count_calls, relabel_groupoid, unmarked


def test_every_entry_builds_and_facts_hold():
    for name, entry in T.CATALOG.items():
        g = T.build(name)
        assert g.m == entry.facts[0]
        assert len(g.units) == entry.facts[1]
        assert T.is_effective(g) is entry.facts[2]
        assert T.is_minimal(g) is entry.facts[3]
        assert len(T.orbits(g)) == entry.facts[4]


def test_build_checks_the_facts(monkeypatch):
    # an explicit raise, so that python -O keeps the check
    entry = CAT.CATALOG["z2"]
    monkeypatch.setitem(CAT.CATALOG, "z2", entry._replace(facts=(3, 1, False, True, 1)))
    with pytest.raises(RuntimeError, match=r"^z2 has facts \(2, 1, False, True, 1\), "
                                           r"expected \(3, 1, False, True, 1\)$"):
        T.build("z2")


@pytest.mark.parametrize("name", ["z8", "klein", "s3"])
def test_catalog_group_is_validated_once(name, monkeypatch):
    # the group table is checked as its one-unit groupoid, which build takes
    # as already checked
    calls = count_calls(monkeypatch, G, "validate_groupoid")
    g = T.build(name)
    assert len(calls) == 1 and calls[0] is g


def test_tables_are_pinned():
    """The rule-built groupoids are indexed by _tabulate, the others by
    shifting or by their group table: a sha256 over the serialized tables
    of 28 groupoids pins every index, as the hand-indexed builders had
    them."""
    gs = [T.pair_groupoid(n) for n in range(1, 9)] + [T.build(name) for name in T.CATALOG]
    fix3 = T.build("fix3")
    gs += [
        T.action_groupoid(T.s3_table(), sorted(itertools.permutations(range(3)))),
        T.action_groupoid(T.cyclic_group(4), [[(x + r) % 4 for x in range(4)] for r in range(4)]),
        T.cyclic_group(16).gpd,
        T.subgroupoid(fix3, sorted(T.isotropy(fix3)))[0],
        T.subgroupoid(T.build("z4"), [0, 2])[0],
        T.restrict(T.build("pair2_pair2"), [4, 7]),
        T.disjoint_union(T.pair_groupoid(3), T.build("s3")),
    ]
    text = "".join("\n".join(T.serialize_groupoid(g)) + "\n" for g in gs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert len(gs) == 28
    assert digest == "0d4ef499c44826134e53ea92159155f86c9cb10df3b1ad2ac7462daaf9800af7"


def test_unknown_name():
    with pytest.raises(ValueError):
        T.build("z5")


def test_pair_groupoid_shape():
    g = T.pair_groupoid(3)
    # arrow i*3+j runs j -> i
    assert g.m == 9
    assert g.units == (0, 4, 8)
    # arrow 1 is (1,2): it runs from the unit at point 2 to the unit at point 1
    assert g.src[1] == 4 and g.rng[1] == 0
    assert g.comp[(1, 5)] == 2  # (1,2)(2,3) = (1,3)


def test_pair_groupoid_needs_a_point():
    with pytest.raises(ValueError, match="^need at least one point$"):
        T.pair_groupoid(0)


def test_every_pair_groupoid_validates(monkeypatch):
    """Oracle for the born-checked pair groupoid: for n <= 12 it passes the
    gate unvalidated, and an unmarked copy is a groupoid."""
    calls = count_calls(monkeypatch, G, "validate_groupoid")
    for n in range(1, 13):
        g = T.pair_groupoid(n)
        assert g.checked and T.check_groupoid(g) is g and calls == []
        assert G.validate_groupoid(unmarked(g)) == [], n
        calls.clear()


def test_every_disjoint_union_validates(monkeypatch):
    """Oracle for the born-checked disjoint union: on every ordered pair of
    catalog groupoids it passes the gate unvalidated, and an unmarked copy
    is a groupoid."""
    parts = [T.build(name) for name in T.CATALOG]
    calls = count_calls(monkeypatch, G, "validate_groupoid")
    unions = 0
    for g1 in parts:
        for g2 in parts:
            u = T.disjoint_union(g1, g2)
            assert u.checked and T.check_groupoid(u) is u and calls == []
            assert G.validate_groupoid(unmarked(u)) == []
            calls.clear()
            unions += 1
    assert unions == len(T.CATALOG) ** 2


def test_every_action_groupoid_validates(monkeypatch):
    """Oracle for the born-checked action groupoid: swap2, fix3 and every
    action of z2, z3, z4 and klein on up to 3 points pass the gate
    unvalidated, and an unmarked copy is a groupoid.  The tuples of
    permutations that are no action are refused."""
    tables = [T.cyclic_group(k) for k in (2, 3, 4)] + [T.klein_table()]
    calls = count_calls(monkeypatch, G, "validate_groupoid")
    actions = [T.build("swap2"), T.build("fix3")]
    for table in tables:
        for s in (1, 2, 3):
            for perms in itertools.product(itertools.permutations(range(s)), repeat=table.order):
                try:
                    actions.append(T.action_groupoid(table, perms))
                except ValueError:
                    continue
    calls.clear()
    for g in actions:
        assert g.checked and T.check_groupoid(g) is g and calls == []
        assert G.validate_groupoid(unmarked(g)) == []
        calls.clear()
    # homomorphisms to S_1, S_2, S_3: z2 1 + 2 + 4, z3 1 + 1 + 3,
    # z4 1 + 2 + 4, klein 1 + 4 + 10
    assert len(actions) == 2 + 7 + 5 + 7 + 15


def test_building_the_catalog_validates_eight_groupoids(monkeypatch):
    """The groups' tables are checked as their groupoids (z2, z3, z4, z8,
    klein, s3, and z2 once more for each of swap2 and fix3); the pair
    groupoids, the action groupoids and the union are born checked."""
    calls = count_calls(monkeypatch, G, "validate_groupoid")
    for name in T.CATALOG:
        T.build(name)
    assert len(calls) == 8


def test_group_groupoid_is_the_group():
    tbl = T.s3_table()
    g = tbl.gpd
    assert g.units == (tbl.identity,)
    for a in range(6):
        for b in range(6):
            assert g.comp[(a, b)] == tbl.op(a, b)


def test_action_groupoid_orbit_structure():
    g = T.build("fix3")
    assert sorted(map(sorted, T.orbits(g))) == [[0, 1], [2]]
    assert not T.is_effective(g)  # the swap fixes point 2 but is not the identity


def test_action_groupoid_rejects_bad_input():
    z2 = T.cyclic_group(2)
    with pytest.raises(ValueError):
        T.action_groupoid(z2, [(0, 1)])  # one permutation missing
    with pytest.raises(ValueError):
        T.action_groupoid(z2, [(1, 0), (0, 1)])  # identity must act trivially
    with pytest.raises(ValueError):
        T.action_groupoid(z2, [(0, 1), (0, 0)])  # not a permutation
    s3 = T.s3_table()
    # transpositions assigned arbitrarily: not a homomorphism
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (0, 1, 2), (0, 1, 2)]
    # the least (g, h) at which some point x has g.(h.x) != (gh).x
    least = next((g, h) for g in range(6) for h in range(6) for x in range(3)
                 if perms[g][perms[h][x]] != perms[s3.op(g, h)][x])
    assert least == (1, 2)
    with pytest.raises(ValueError, match=r"^action is not a homomorphism at \(1, 2\)$"):
        T.action_groupoid(s3, perms)


def test_action_groupoid_names_the_least_failing_pair():
    """Every tuple of permutations of up to 3 points that z2, z3, z4 or
    klein acts by trivially at the identity is refused exactly when the
    k^2 * s loop finds a failing (g, h), and the least one is named."""
    refused = 0
    for table in [T.cyclic_group(k) for k in (2, 3, 4)] + [T.klein_table()]:
        k, e = table.order, table.identity
        for s in (1, 2, 3):
            for perms in itertools.product(itertools.permutations(range(s)), repeat=k):
                if perms[e] != tuple(range(s)):
                    continue
                least = next(((g, h) for g in range(k) for h in range(k) for x in range(s)
                              if perms[g][perms[h][x]] != perms[table.op(g, h)][x]), None)
                if least is None:
                    assert T.action_groupoid(table, perms).checked
                    continue
                with pytest.raises(ValueError) as info:
                    T.action_groupoid(table, perms)
                assert str(info.value) == "action is not a homomorphism at (%d, %d)" % least
                refused += 1
    # 500 tuples fix the identity; the 34 actions counted in
    # test_every_action_groupoid_validates beside swap2 and fix3 are accepted
    assert refused == 500 - 34


def test_disjoint_union_blocks():
    g = T.disjoint_union(T.build("z2"), T.build("pair2"))
    assert g.m == 6
    first, second = T.orbits(g)
    assert T.restrict(g, first) == T.build("z2")


def test_group_tables_are_groups():
    for tbl in (T.klein_table(), T.s3_table(), T.cyclic_group(5)):
        n = tbl.order
        for a in range(n):
            assert tbl.op(a, tbl.inv(a)) == tbl.identity
            for b in range(n):
                for c in range(n):
                    assert tbl.op(tbl.op(a, b), c) == tbl.op(a, tbl.op(b, c))


def test_klein_vs_z4():
    klein = T.klein_table()
    assert all(klein.op(a, a) == klein.identity for a in range(4))
    z4 = T.cyclic_group(4)
    assert any(z4.op(a, a) != z4.identity for a in range(4))


# --- cocycle search ----------------------------------------------------------


def test_free_pairs_skip_units():
    g = T.build("pair2")
    free = T.free_pairs(g)
    assert all(a not in g.unit_set and b not in g.unit_set for a, b in free)
    assert len(free) == 2  # (1,2) and (2,1)


@pytest.mark.parametrize(
    "name,n,count",
    [
        ("pair1", 2, 1), ("z2", 2, 2), ("pair2", 2, 2), ("z3", 2, 4), ("z3", 3, 9),
        # n ** |free pairs| is 2 ** 25 and 2 ** 49, far past the cap; the
        # cap bounds the cocycles returned, not the grid they lie in
        ("s3", 2, 32), ("z8", 2, 128),
    ],
)
def test_enumeration_counts(name, n, count):
    g = T.build(name)
    cocs = T.enumerate_cocycles(g, n)
    assert len(cocs) == count
    for c in cocs:
        assert T.validate_cocycle(c) == []
    assert cocs[0] == T.trivial_cocycle(g, n)


def test_enumeration_closed_under_group_ops():
    g = T.build("z4")
    cocs = T.enumerate_cocycles(g, 2)
    assert len(cocs) == 8
    pool = {tuple(sorted(c.table.items())) for c in cocs}
    for x in cocs:
        assert tuple(sorted(T.invert_cocycle(x).table.items())) in pool
        for y in cocs:
            assert tuple(sorted(T.multiply_cocycles(x, y).table.items())) in pool


def test_enumeration_cap():
    # |Z^2(z4; Z/4)| = 64, known before any cocycle is formed
    g = T.build("z4")
    with pytest.raises(ValueError, match="more than 63 cocycles"):
        T.enumerate_cocycles(g, 4, cap=63)
    assert len(T.enumerate_cocycles(g, 4, cap=64)) == 64


@pytest.mark.parametrize(
    "g,n,classes,coboundaries",
    [
        # |B^2| = n ** (non-unit arrows) / |Hom(G, Z/n)|
        (T.pair_groupoid(4), 3, 1, 3 ** 12 // 3 ** 3),
        (T.s3_table().gpd, 4, 2, 4 ** 5 // 2),
        (T.cyclic_group(12).gpd, 2, 2, 2 ** 11 // 2),
    ],
    ids=["pair4-3", "s3-4", "z12-2"],
)
def test_enumeration_closed_form_counts(g, n, classes, coboundaries):
    cocs = T.enumerate_cocycles(g, n)
    assert len(cocs) == classes * coboundaries
    assert len(set(cocs)) == len(cocs)
    assert all(T.validate_cocycle(c) == [] for c in cocs)


def test_enumeration_refuses_pair6_under_the_default_cap():
    # |Z^2(pair6; Z/2)| = |B^2| = 2 ** 30 / 2 ** 5
    with pytest.raises(ValueError, match="cap"):
        T.enumerate_cocycles(T.pair_groupoid(6), 2)


@pytest.mark.parametrize("name", list(T.CATALOG))
def test_enumeration_commutes_with_relabelling(name):
    """A randomly relabelled copy has the relabelled cocycles: its free
    pairs sort differently and its generating set differs, so the kernel
    is read off another integer system."""
    rnd = random.Random(name)
    g = T.build(name)
    for n in (2, 3):
        perm = list(range(g.m))
        rnd.shuffle(perm)
        h = T.check_groupoid(relabel_groupoid(g, perm))
        want = {
            T.Cocycle(h, n, {(perm[a], perm[b]): k for (a, b), k in c.table.items()})
            for c in T.enumerate_cocycles(g, n)
        }
        got = T.enumerate_cocycles(h, n)
        assert len(got) == len(want) and set(got) == want


def brute_cocycles(g, n):
    """Every point of the grid over the free pairs, kept when it validates."""
    free = sorted(T.free_pairs(g))
    forced = {p: 0 for p in T.composable_pairs(g) if p not in free}
    out = []
    for values in itertools.product(range(n), repeat=len(free)):
        coc = T.Cocycle(g, n, {**forced, **dict(zip(free, values))})
        if not T.validate_cocycle(coc):
            out.append(coc)
    return out


ORACLE_CASES = [
    (name, n)
    for name in T.CATALOG
    for n in (2, 3, 4)
    if n ** len(T.free_pairs(T.build(name))) <= 2 ** 12
]


@pytest.mark.parametrize("name,n", ORACLE_CASES)
def test_enumeration_matches_brute_filter(name, n):
    g = T.build(name)
    assert T.enumerate_cocycles(g, n) == brute_cocycles(g, n)


@pytest.mark.parametrize("name,n,classes,coboundaries", [("z4", 4, 4, 16), ("klein", 4, 8, 16)])
def test_enumeration_is_h2_times_b2(name, n, classes, coboundaries):
    # out of the brute filter's reach in test time: 4**9 candidates each
    g = T.build(name)
    cocs = T.enumerate_cocycles(g, n)
    assert len(cocs) == classes * coboundaries
    assert all(T.validate_cocycle(c) == [] for c in cocs)
    triv = T.trivial_cocycle(g, n)
    b2 = {
        T.apply_coboundary(triv, (0,) + b)
        for b in itertools.product(range(n), repeat=g.m - 1)
    }
    assert len(b2) == coboundaries
    reps = []
    for c in cocs:
        if not any(T.check_cohomologous(c, r) is not None for r in reps):
            reps.append(c)
    assert len(reps) == classes


def test_shipped_cocycles_validate():
    neg = T.z2_neg_cocycle()
    assert T.validate_cocycle(neg) == []
    assert neg.table[(1, 1)] == 1
    cob = T.pair2_coboundary_cocycle()
    assert T.validate_cocycle(cob) == []
    triv = T.trivial_cocycle(T.build("pair2"), 2)
    assert cob != triv
    assert T.check_cohomologous(cob, triv) is not None


def test_fixture_cocycles_names():
    assert list(T.fixture_cocycles("z2")) == ["z2_triv.coc", "z2_neg.coc"]
    assert list(T.fixture_cocycles("pair2")) == ["pair2_triv.coc", "pair2_cob.coc"]
    assert T.fixture_cocycles("s3") == {}


def test_emit_fixtures(tmp_path):
    written = T.emit_fixtures(str(tmp_path), "z2")
    assert written == ["z2.gpd", "z2_triv.coc", "z2_neg.coc"]
    for fname in written:
        assert os.path.exists(tmp_path / fname)
    g = T.read_groupoid(str(tmp_path / "z2.gpd"))
    assert g == T.build("z2")
    coc = T.read_cocycle(str(tmp_path / "z2_neg.coc"))
    assert coc == T.z2_neg_cocycle()


def test_emit_fixtures_all(tmp_path):
    written = T.emit_fixtures(str(tmp_path))
    assert len(written) == len(T.CATALOG) + 4
    assert set(written) > {n + ".gpd" for n in T.CATALOG}
