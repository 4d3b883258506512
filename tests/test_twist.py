"""Central extensions: construction, sections, induced cocycles, morphisms."""

import itertools
import random

import pytest

import twistalg as T
from twistalg import twist as TW
from conftest import (
    all_sections, assert_flag_ignored, assert_never_marked, assert_read_only, carry_cocycle,
    count_calls, kept, relabel_groupoid, unmarked, write_ungated,
)
from twistalg.cli import main
from twistalg.fileio import _read, parse_twist_block, write_twist


def some_cocycles():
    out = []
    for name, n in (("z2", 2), ("pair2", 2), ("swap2", 2)):
        g = T.build(name)
        out.extend((name, c) for c in T.enumerate_cocycles(g, n))
    out.append(("z4", carry_cocycle(4)))
    return out


COCYCLES = some_cocycles()


@pytest.mark.parametrize("name,coc", COCYCLES, ids=lambda v: str(v)[:24])
def test_built_twist_validates(name, coc):
    tw = T.build_twist(coc.gpd, coc)
    assert T.validate_twist(tw) == []
    assert tw.total.m == coc.gpd.m * coc.n
    for a in range(coc.gpd.m):
        assert len(tw.fiber(a)) == coc.n


def test_build_twist_refuses_a_cocycle_over_another_groupoid():
    coc = T.trivial_cocycle(T.build("pair2"), 2)
    with pytest.raises(ValueError, match="^cocycle lives over a different groupoid$"):
        T.build_twist(T.build("z2"), coc)


def test_equality_of_equal_copies_and_different_objects():
    """__eq__ answers at once for an object and itself; a copy is still
    compared table by table."""
    g, h = T.build("z2"), T.build("pair2")
    neg, triv = T.z2_neg_cocycle(), T.trivial_cocycle(g, 2)
    tw = T.build_twist(g, neg)
    grading = T.Grading(g, T.cyclic_group(2), [0, 1])
    copies = [
        (g, T.Groupoid(g.units, g.src, g.rng, g.inv, g.comp), h),
        (neg, T.Cocycle(g, 2, dict(neg.table)), triv),
        (grading, T.Grading(g, T.cyclic_group(2), [0, 1]), T.Grading(g, T.cyclic_group(1), [0, 0])),
        (tw, T.Twist(g, tw.total, 2, tw.embed, tw.proj), T.build_twist(g, triv)),
    ]
    for obj, copy, other in copies:
        assert obj == obj and obj == copy and copy == obj
        assert hash(obj) == hash(copy)
        assert obj != other and other != obj


def test_twist_action_is_free_and_transitive():
    g = T.build("pair2")
    coc = T.enumerate_cocycles(g, 2)[1]
    tw = T.build_twist(g, coc)
    for a in range(g.m):
        fib = tw.fiber(a)
        for e in fib:
            hits = {tw.act(k, e) for k in range(tw.n)}
            assert hits == set(fib)
            assert T.unique_scalar(tw, e, e) == 0
    with pytest.raises(ValueError):
        T.unique_scalar(tw, tw.fiber(0)[0], tw.fiber(1)[0])


@pytest.mark.parametrize("a", [-1, 4, 99])
def test_fiber_refuses_a_base_arrow_out_of_range(a):
    # it returned () for -1 and 99 on pair2's twists
    g = T.build("pair2")
    tw = T.build_twist(g, T.trivial_cocycle(g, 2))
    with pytest.raises(ValueError, match="^arrow %d is out of range$" % a):
        tw.fiber(a)


def test_unique_scalar_matches_the_search():
    """unique_scalar gives the exponent that the search over k = 0, 1, ...
    with act finds, on every same-fiber pair."""
    pairs = 0
    for name, n in (("z4", 2), ("klein", 2), ("s3", 2), ("pair3", 2), ("fix3", 2),
                    ("z4", 3), ("fix3", 3)):
        g = T.build(name)
        for coc in T.enumerate_cocycles(g, n):
            tw = T.build_twist(g, coc)
            for a in range(g.m):
                for ref, other in itertools.product(tw.fiber(a), repeat=2):
                    want = next(k for k in range(n) if tw.act(k, ref) == other)
                    assert T.unique_scalar(tw, ref, other) == want
                    pairs += 1
    assert pairs == 3282


def assert_refused(bad, run):
    """run() raises AxiomError of kind twist with every violation of bad,
    on each of two calls, and bad keeps no exponent table, no induced
    cocycle and no mark."""
    want = T.validate_twist(bad)
    assert want
    for _ in range(2):
        with pytest.raises(T.AxiomError) as exc:
            run()
        assert exc.value.kind == "twist" and exc.value.violations == want
        assert kept(bad, TW._exponent_table) is None and kept(bad, TW._induced_cocycle) is None
        assert not bad.checked


def test_unique_scalar_rejects_an_invalid_twist():
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    # every exponent embedded as the unit: no scalar moves arrow 2 to 3
    bad = T.Twist(tw.base, tw.total, 2, {(0, 0): 0, (0, 1): 0}, tw.proj)
    assert_refused(bad, lambda: T.unique_scalar(bad, 2, 3))
    # the unit 0 no longer fixes arrow 2, and no scalar moves it to itself
    g = tw.total
    total = T.Groupoid(g.units, g.src, g.rng, g.inv, {**g.comp, (0, 2): 3})
    bad2 = T.Twist(tw.base, total, 2, tw.embed, tw.proj)
    assert_refused(bad2, lambda: T.unique_scalar(bad2, 2, 2))
    assert not total.checked


def test_act_names_what_breaks_an_unchecked_twist():
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    bad = T.Twist(tw.base, tw.total, 2, {(0, 1): 1}, tw.proj)
    assert T.validate_twist(bad) == ["embedding domain is not units x exponents"]
    for run in (lambda: bad.act(0, 2), lambda: T.unique_scalar(bad, 2, 3)):
        assert_refused(bad, run)
    # the unit no longer composes with arrow 2 in the total
    g = tw.total
    comp = {pair: e for pair, e in g.comp.items() if pair != (0, 2)}
    total = T.Groupoid(g.units, g.src, g.rng, g.inv, comp)
    bad = T.Twist(tw.base, total, 2, tw.embed, tw.proj)
    assert T.validate_twist(bad) == ["total: comp undefined on composable pair (0, 2)"]
    for run in (lambda: bad.act(0, 2), lambda: T.unique_scalar(bad, 2, 3)):
        assert_refused(bad, run)
    assert not total.checked
    # a valid twist, asked about arrows it does not have
    for e in (-1, 4):
        with pytest.raises(ValueError, match="^arrow %d is out of range$" % e):
            tw.act(0, e)
        for pair in ((e, 3), (2, e)):
            with pytest.raises(ValueError, match="^arrow %d is out of range$" % e):
                T.unique_scalar(tw, *pair)


def _invalid_z2_twists():
    """The two invalid twists of test_unique_scalar_rejects_an_invalid_twist."""
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    g = tw.total
    total = T.Groupoid(g.units, g.src, g.rng, g.inv, {**g.comp, (0, 2): 3})
    return [T.Twist(tw.base, tw.total, 2, {(0, 0): 0, (0, 1): 0}, tw.proj),
            T.Twist(tw.base, total, 2, tw.embed, tw.proj)]


def test_exponent_table_matches_unique_scalar():
    """k[e] is unique_scalar(sec[proj e], e) for every total arrow, under
    the canonical section and the section picking the greatest arrow of
    every fiber off the units, over the twists of
    test_unique_scalar_matches_the_search."""
    arrows = 0
    for name, n in (("z4", 2), ("klein", 2), ("s3", 2), ("pair3", 2), ("fix3", 2),
                    ("z4", 3), ("fix3", 3)):
        g = T.build(name)
        for coc in T.enumerate_cocycles(g, n):
            tw = T.build_twist(g, coc)
            canonical = T.find_section(tw)
            greatest = tuple(s if a in g.unit_set else max(tw.fiber(a))
                             for a, s in enumerate(canonical))
            assert canonical != greatest
            for sec in (canonical, greatest):
                want = tuple(T.unique_scalar(tw, sec[tw.proj[e]], e) for e in range(tw.total.m))
                assert TW._exponent_table(tw, sec) == want
                arrows += tw.total.m
    assert arrows == 2 * 1398


def test_exponent_table_refuses_an_invalid_twist():
    """Every road to the table raises and keeps neither cache."""
    ring = T.parse_ring("Q")
    tgrp = T.unit_subgroup(ring, 2)
    sec = (0, 2)  # the canonical section of the valid twist
    for bad in _invalid_z2_twists():
        for run in (lambda: TW._exponent_table(bad, sec), lambda: T.induced_cocycle(bad, sec),
                    lambda: T.EquivContext(bad, sec, ring, tgrp)):
            assert_refused(bad, run)
    # a fiber with fewer than n arrows, every one of them reached
    bad = _z2_twist(proj=(0, 1, 1, 1))
    for run in (lambda: T.validate_section(bad, (0, 1)), lambda: T.induced_cocycle(bad, (0, 1))):
        assert_refused(bad, run)


def test_find_section_names_what_breaks_an_invalid_twist():
    """An empty fiber, or a unit whose (u, 0) is not embedded, is named in
    the twist's AxiomError, and twists_isomorphic raises it either way
    round."""
    tw = _z2_twist()
    for bad, what in ((_z2_twist(proj=(0, 0, 0, 0)), "fiber over arrow 1 has size 0, want 2"),
                      (_z2_twist(embed={(0, 1): 1}), "embedding domain is not units x exponents")):
        assert what in T.validate_twist(bad)
        for run in (lambda: T.find_section(bad), lambda: T.twists_isomorphic(bad, tw),
                    lambda: T.twists_isomorphic(tw, bad)):
            assert_refused(bad, run)


def test_every_reader_of_a_twist_gates_through_check_twist():
    """A projection one entry short, a projection off the base, and a
    missing (0, 0) are refused by every public function that reads the
    twist, with validate_twist's violations, before it computes."""
    tw = _z2_twist()
    ring = T.parse_ring("Q")
    tgrp = T.unit_subgroup(ring, 2)
    for bad in (_z2_twist(proj=(0, 1, 1)), _z2_twist(proj=(0, 0, 5, 1)),
                _z2_twist(embed={(0, 1): 1})):
        runs = [lambda: bad.act(0, 2), lambda: T.unique_scalar(bad, 2, 3),
                lambda: T.find_section(bad), lambda: T.validate_section(bad, (0, 2)),
                lambda: T.induced_cocycle(bad, (0, 2)), lambda: T.section_iso(bad, (0, 2)),
                lambda: T.EquivContext(bad, (0, 2), ring, tgrp),
                lambda: T.twists_isomorphic(bad, tw), lambda: T.twists_isomorphic(tw, bad),
                lambda: T.validate_twist_morphism(T.TwistMorphism(tw, bad, (0, 1, 2, 3))),
                lambda: T.validate_twist_morphism(T.TwistMorphism(bad, tw, (0, 1, 2, 3)))]
        for run in runs:
            assert_refused(bad, run)


def test_a_built_twist_passes_the_gate_unvalidated(monkeypatch):
    """build_twist's model twist carries check_twist's marks, so no reader
    of it validates it again."""
    calls = count_calls(monkeypatch, TW, "validate_twist")
    groupoids = count_calls(monkeypatch, TW, "validate_groupoid")
    for coc in (T.z2_neg_cocycle(), carry_cocycle(4)):
        tw = T.build_twist(coc.gpd, coc)
        assert tw.checked and tw.base.checked and tw.total.checked
        sec = T.find_section(tw)
        assert T.validate_section(tw, sec) == [] and T.induced_cocycle(tw, sec) == coc
        assert T.unique_scalar(tw, sec[1], tw.act(1, sec[1])) == 1
        assert T.validate_twist_morphism(T.section_iso(tw, sec)) == []
        assert T.twists_isomorphic(tw, T.build_twist(coc.gpd, coc)) is not None
        assert T.check_twist(tw) is tw
    assert calls == [] and groupoids == []


@pytest.mark.parametrize("name,coc", COCYCLES, ids=lambda v: str(v)[:24])
def test_canonical_section_reproduces_cocycle(name, coc):
    tw = T.build_twist(coc.gpd, coc)
    sec = T.find_section(tw)
    assert T.validate_section(tw, sec) == []
    assert T.induced_cocycle(tw, sec) == coc


def test_every_section_induces_cohomologous_cocycle():
    # induced_cocycle does not check its own output; this is its oracle,
    # on every section of every twist of an order-2 cocycle (at most 1,024
    # sections per groupoid)
    for name in ("pair2", "klein", "s3"):
        g = T.build(name)
        cocs = T.enumerate_cocycles(g, 2)
        assert len(cocs) * 2 ** (g.m - len(g.units)) <= 1024
        for coc in cocs:
            tw = T.build_twist(g, coc)
            for sec in all_sections(tw):
                assert T.validate_section(tw, sec) == []
                ind = T.induced_cocycle(tw, sec)
                assert T.validate_cocycle(ind) == []
                assert T.check_cohomologous(ind, coc) is not None


def test_section_iso_full_diagram():
    g = T.build("z2")
    for coc in T.enumerate_cocycles(g, 2):
        tw = T.build_twist(g, coc)
        for sec in all_sections(tw):
            mor = T.section_iso(tw, sec)
            assert T.validate_twist_morphism(mor) == []
            assert mor.dst == tw


def test_twists_isomorphic_iff_cohomologous():
    g = T.build("z2")
    c0, c1 = T.enumerate_cocycles(g, 2)
    t0, t1 = T.build_twist(g, c0), T.build_twist(g, c1)
    assert T.twists_isomorphic(t0, t1) is None
    assert T.twists_isomorphic(t1, t0) is None
    m00 = T.twists_isomorphic(t0, t0)
    assert m00 is not None and T.validate_twist_morphism(m00) == []

    p = T.build("pair2")
    d0, d1 = T.enumerate_cocycles(p, 2)
    s0, s1 = T.build_twist(p, d0), T.build_twist(p, d1)
    m = T.twists_isomorphic(s0, s1)
    assert m is not None and T.validate_twist_morphism(m) == []


def test_section_map_guard_survives_optimization(monkeypatch):
    # the morphism laws are checked by a raise, so that python -O keeps it
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    monkeypatch.setattr(TW, "validate_twist_morphism", lambda mor: ["projection diagram fails at 1"])
    for run in (lambda: T.twists_isomorphic(tw, tw), lambda: T.section_iso(tw, T.find_section(tw))):
        with pytest.raises(RuntimeError, match="^section map is not a twist isomorphism: "
                                               "projection diagram fails at 1$"):
            run()


@pytest.mark.parametrize("name,n", [("pair2", 3), ("z4", 4), ("s3", 3)])
def test_twists_isomorphic_shifts_by_the_coboundary(name, n):
    # orders above 2, where shifting by b and by -b differ
    g = T.build(name)
    b = [0 if a in g.unit_set else a % (n - 1) + 1 for a in range(g.m)]
    for coc in T.enumerate_cocycles(g, n)[:4]:
        t1, t2 = T.build_twist(g, coc), T.build_twist(g, T.apply_coboundary(coc, b))
        mor = T.twists_isomorphic(t1, t2)
        assert mor is not None and T.validate_twist_morphism(mor) == []


def test_twist_carriers_z4_vs_klein():
    # trivial class carries the Klein group, the other class Z/4:
    # detected by the maximal order of a loop in the total groupoid
    g = T.build("z2")
    c0, c1 = T.enumerate_cocycles(g, 2)

    def max_order(h):
        best = 1
        for e in range(h.m):
            if h.src[e] != h.rng[e]:
                continue
            k, cur = 1, e
            while cur not in h.unit_set:
                cur = h.comp[(cur, e)]
                k += 1
            best = max(best, k)
        return best

    assert max_order(T.build_twist(g, c0).total) == 2
    assert max_order(T.build_twist(g, c1).total) == 4


def test_validate_twist_catches_broken_projection():
    g = T.build("z2")
    coc = T.enumerate_cocycles(g, 2)[1]
    tw = T.build_twist(g, coc)
    bad = T.Twist(tw.base, tw.total, tw.n, tw.embed, [0, 1, 0, 1])
    assert T.validate_twist(bad)


def test_validate_twist_catches_broken_embedding():
    g = T.build("z2")
    coc = T.enumerate_cocycles(g, 2)[1]
    tw = T.build_twist(g, coc)
    embed = dict(tw.embed)
    embed[(0, 0)], embed[(0, 1)] = embed[(0, 1)], embed[(0, 0)]
    bad = T.Twist(tw.base, tw.total, tw.n, embed, tw.proj)
    assert T.validate_twist(bad)


@pytest.mark.parametrize("e", [99, -1])
def test_validate_twist_catches_embedding_off_the_arrows(e):
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    embed = dict(tw.embed)
    embed[(0, 1)] = e
    bad = T.Twist(tw.base, tw.total, tw.n, embed, tw.proj)
    assert T.validate_twist(bad) == ["embedding hits a non-arrow"]


def test_twist_morphism_validator_rejects_non_equivariant_map():
    g = T.build("z2")
    coc = T.trivial_cocycle(g, 2)
    tw = T.build_twist(g, coc)
    mapping = [0, 1, 3, 2]  # swaps the fiber over the loop only at one level
    mor = T.TwistMorphism(tw, tw, mapping)
    # this particular swap is the honest automorphism; build a broken one
    bad = T.TwistMorphism(tw, tw, [1, 0, 2, 3])
    assert T.validate_twist_morphism(bad)
    assert T.validate_twist_morphism(mor) == []


def test_twist_morphism_validator_refusals():
    z2 = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    z2_3 = T.build_twist(T.build("z2"), T.trivial_cocycle(T.build("z2"), 3))
    pair2 = T.build_twist(T.build("pair2"), T.pair2_coboundary_cocycle())
    for other in (pair2, z2_3):
        mor = T.TwistMorphism(z2, other, range(z2.total.m))
        assert T.validate_twist_morphism(mor) == ["twists do not share a base groupoid and order"]
    for mapping in ((0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4)):
        mor = T.TwistMorphism(z2, z2, mapping)
        assert T.validate_twist_morphism(mor) == ["mapping is not a bijection of total arrows"]
    # the Klein automorphism swapping arrows 1 and 2, lifted to the untwisted
    # order-two twist: a homomorphism fixing the embedding, off the projection
    klein = T.build("klein")
    assert [klein.comp[(a, b)] for a, b in ((1, 1), (1, 2), (1, 3), (2, 3))] == [0, 3, 2, 1]
    tw = T.build_twist(klein, T.trivial_cocycle(klein, 2))
    lifted = T.TwistMorphism(tw, tw, (0, 1, 4, 5, 2, 3, 6, 7))
    assert T.validate_twist_morphism(lifted) == ["projection diagram fails at %d" % e
                                                 for e in range(2, 6)]


def test_validate_section_refusals():
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    assert T.validate_section(tw, (0,)) == ["section has wrong length"]
    assert T.validate_section(tw, (1, 2)) == ["section sends unit 0 to a non-unit"]
    with pytest.raises(ValueError, match="^section sends unit 0 to a non-unit$"):
        T.induced_cocycle(tw, (1, 2))


def test_section_entries_off_the_total_arrows():
    """An entry below 0 or at least total.m is a violation, not an index:
    -1 used to pass as the last total arrow, and total.m raised
    IndexError."""
    tw = T.build_twist(T.build("z4"), T.enumerate_cocycles(T.build("z4"), 2)[1])
    ring = T.parse_ring("Q")
    tgrp = T.unit_subgroup(ring, 2)
    canonical = T.find_section(tw)
    for e in (-1, tw.total.m):
        sec = canonical[:-1] + (e,)
        assert T.validate_section(tw, sec) == ["section sends arrow 3 to a non-arrow"]
        for run in (lambda: T.induced_cocycle(tw, sec), lambda: T.EquivContext(tw, sec, ring, tgrp)):
            with pytest.raises(ValueError, match="^section sends arrow 3 to a non-arrow$"):
                run()
    unit = (-1,) + canonical[1:]
    assert T.validate_section(tw, unit) == ["section sends arrow 0 to a non-arrow",
                                            "section sends unit 0 to a non-unit"]


def _z2_twist(**edits):
    """The sign twist over the order-two group, with some fields replaced."""
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    args = dict(base=tw.base, total=tw.total, n=tw.n, embed=dict(tw.embed), proj=tw.proj)
    args.update(edits)
    return T.Twist(**args)


def _edit_embed(key, value):
    embed = dict(_z2_twist().embed)
    if value is None:
        del embed[key]
    else:
        embed[key] = value
    return _z2_twist(embed=embed)


def _s3_over_z2():
    """S3 onto Z/2 by the sign, with kernel A3 = Z/3: exact, but A3 is
    not central, so only the last check fails."""
    s3 = T.build("s3")
    perms = sorted(itertools.permutations(range(3)))
    sign = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    r = perms.index((1, 2, 0))
    embed = {(0, 0): 0, (0, 1): r, (0, 2): s3.comp[(r, r)]}
    return T.Twist(T.build("z2"), s3, 3, embed, sign)


BROKEN_TWISTS = [
    ("proj-length", lambda: _z2_twist(proj=(0, 0, 1)), "projection table has wrong length"),
    ("proj-off", lambda: _z2_twist(proj=(0, 0, 1, 2)), "projection hits a non-arrow"),
    ("total-size", lambda: _z2_twist(n=1), "total groupoid size is not |base| * n"),
    ("fiber-size", lambda: _z2_twist(proj=(0, 0, 0, 1)), "fiber over arrow 1 has size 1, want 2"),
    ("unit-bijection", lambda: _z2_twist(proj=(1, 1, 0, 0)),
     "projection does not restrict to a unit bijection"),
    ("src", lambda: _z2_twist(proj=(1, 1, 0, 0)), "projection breaks src at 2"),
    ("rng", lambda: _z2_twist(proj=(1, 1, 0, 0)), "projection breaks rng at 3"),
    ("embed-domain", lambda: _edit_embed((0, 1), None), "embedding domain is not units x exponents"),
    ("embed-injective", lambda: _edit_embed((0, 1), 0), "embedding is not injective"),
    ("exact-fiber", lambda: _edit_embed((0, 1), 2), "exactness fails: embed(0, 1) leaves the fiber"),
    ("exact-unit", lambda: _edit_embed((0, 1), 0), "exactness fails over unit 0"),
    ("central", _s3_over_z2, "centrality fails at arrow 1, exponent 2"),
]


@pytest.mark.parametrize("make,want", [c[1:] for c in BROKEN_TWISTS],
                         ids=[c[0] for c in BROKEN_TWISTS])
def test_validate_twist_reports_each_violation(make, want):
    tw = make()
    assert want in T.validate_twist(tw)
    with pytest.raises(T.AxiomError):
        T.check_twist(tw)


def test_validate_twist_centrality_through_the_cli(tmp_path, capsys):
    tw = _s3_over_z2()
    path = tmp_path / "s3.twi"
    write_ungated(write_twist, str(path), tw)
    code = main(["validate", "twist", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines() == ["violation: " + v for v in T.validate_twist(tw)]
    assert "violation: centrality fails at arrow 5, exponent 1" in out.splitlines()


def full_twist_failures(tw):
    """Oracle for validate_twist: the projection's composition law on every
    composable pair and centrality at every exponent, in the same order."""
    v = ["%s: %s" % (name, s) for name, g in (("base", tw.base), ("total", tw.total))
         if not g.checked for s in T.validate_groupoid(g)]
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
    bad = [(e, d) for (e, d), ed in total.comp.items()
           if base.comp.get((tw.proj[e], tw.proj[d])) != tw.proj[ed]]
    v += ["projection breaks composition at (%d, %d)" % pair for pair in sorted(bad)]
    if v:
        return v
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
            got = total.comp.get((tw.embed[(u, k)], tw.embed[(u, 1 % n)]))
            if got != tw.embed[(u, (k + 1) % n)]:
                v.append("embedding is not a homomorphism at (%d, %d)" % (u, k))
        if set(tw.fiber(u)) != {tw.embed[(u, k)] for k in range(n)}:
            v.append("exactness fails over unit %d" % u)
    if v:
        return v
    for e in range(total.m):
        ru = tw.proj[total.rng[e]]
        su = tw.proj[total.src[e]]
        for k in range(n):
            if total.comp[(tw.embed[(ru, k)], e)] != total.comp[(e, tw.embed[(su, k)])]:
                v.append("centrality fails at arrow %d, exponent %d" % (e, k))
    return v


def _union_twist(t1, t2):
    """The twist of one order over the disjoint union of the bases whose
    total is the disjoint union of the totals."""
    base, total = T.disjoint_union(t1.base, t2.base), T.disjoint_union(t1.total, t2.total)
    embed = dict(t1.embed)
    embed.update({(u + t1.base.m, k): e + t1.total.m for (u, k), e in t2.embed.items()})
    return T.Twist(base, total, t1.n, embed, list(t1.proj) + [a + t1.base.m for a in t2.proj])


def _klein_fibers_crossed():
    """The untwisted order-two twist over the Klein group, its non-zero
    exponents over arrows 1 and 2 exchanged.  Every arrow of (Z/2)^3 is its
    own inverse and there is one unit, so src, rng and inv survive, and only
    the composition law breaks."""
    klein = T.build("klein")
    tw = T.build_twist(klein, T.trivial_cocycle(klein, 2))
    return T.Twist(klein, tw.total, 2, tw.embed, (0, 0, 1, 2, 2, 1, 3, 3))


def _isolated_unit_on_a_loop():
    """An order-one twist of two isolated units and the order-two group
    over two copies of that group, one isolated unit sent to a loop.  No
    generator of the total reaches that unit, so only the pair of it with
    itself shows that composition breaks."""
    z2, pair1 = T.build("z2"), T.build("pair1")
    total = T.disjoint_union(T.disjoint_union(pair1, pair1), z2)
    return T.Twist(T.disjoint_union(z2, z2), total, 1, {(0, 0): 2, (2, 0): 0}, (2, 3, 0, 1))


def _mutants(tw, rnd):
    """Seeded edits of a valid twist: two projection entries swapped, the
    projection shuffled, two embedded arrows swapped, one embedded arrow
    moved, the total relabelled on its non-units (a groupoid again), and
    one composite of the total changed."""
    m, proj, embed = tw.total.m, list(tw.proj), dict(tw.embed)
    i, j = rnd.sample(range(m), 2)
    swapped = list(proj)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield T.Twist(tw.base, tw.total, tw.n, tw.embed, swapped)
    yield T.Twist(tw.base, tw.total, tw.n, tw.embed, rnd.sample(proj, m))
    keys = rnd.sample(sorted(embed), min(2, len(embed)))
    moved = dict(embed)
    moved[keys[0]], moved[keys[-1]] = embed[keys[-1]], embed[keys[0]]
    yield T.Twist(tw.base, tw.total, tw.n, moved, proj)
    moved = dict(embed)
    moved[keys[0]] = rnd.randrange(m)
    yield T.Twist(tw.base, tw.total, tw.n, moved, proj)
    g = tw.total
    others = [a for a in range(m) if a not in g.unit_set]
    perm = list(range(m))
    for a, b in zip(others, rnd.sample(others, len(others))):
        perm[a] = b
    yield T.Twist(tw.base, relabel_groupoid(g, perm), tw.n, embed, proj)
    pair = rnd.choice(sorted(g.comp))
    comp = dict(g.comp)
    comp[pair] = rnd.randrange(m)
    yield T.Twist(tw.base, T.Groupoid(g.units, g.src, g.rng, g.inv, comp), tw.n, embed, proj)


def test_validate_twist_matches_the_full_checks():
    """Deciding projection composition on units and generators and
    centrality at exponent 1 gives the violation list of the full checks:
    on the twists of up to 16 enumerated cocycles of order 2 and 3 over
    every catalog groupoid (a seeded sample where there are more), on
    seeded mutations of them, and on exact twists that break one law."""
    rnd = random.Random("twist laws")
    seen = set()

    def compare(tw):
        want = full_twist_failures(tw)
        assert T.validate_twist(tw) == want
        seen.update(x.split(" at ")[0] for x in want)

    for name in T.CATALOG:
        g = T.build(name)
        for n in (2, 3):
            cocs = T.enumerate_cocycles(g, n)
            for coc in rnd.sample(cocs, 16) if len(cocs) > 16 else cocs:
                tw = T.build_twist(g, coc)
                compare(tw)
                for bad in _mutants(tw, rnd):
                    compare(bad)
    s3 = _s3_over_z2()
    z6 = T.build_twist(T.build("z2"), T.trivial_cocycle(T.build("z2"), 3))
    klein = T.build_twist(T.build("klein"), T.trivial_cocycle(T.build("klein"), 2))
    assert T.validate_twist(s3) == ["centrality fails at arrow %d, exponent %d" % (e, k)
                                    for e in (1, 2, 5) for k in (1, 2)]
    assert all(x.startswith("projection breaks composition at ")
               for x in T.validate_twist(_klein_fibers_crossed()))
    assert "projection breaks composition at (1, 1)" in T.validate_twist(_isolated_unit_on_a_loop())
    for tw in (s3, _union_twist(s3, z6), _union_twist(z6, s3), _klein_fibers_crossed(),
               _union_twist(klein, _klein_fibers_crossed()), _pair2_fibers_swapped(),
               _isolated_unit_on_a_loop()):
        assert T.validate_twist(tw)
        compare(tw)
    assert {"centrality fails", "projection breaks composition", "projection breaks src",
            "embedding is not a homomorphism", "total: associativity fails"} <= seen


EMPTY_TWIST = ("twist\norder %d\nbegin base\ngroupoid\narrows 0\nunits\nend\n"
               "begin total\ngroupoid\narrows 0\nunits\nend\n")


@pytest.mark.parametrize("n", [0, -3])
def test_twist_order_must_be_positive(n, tmp_path, capsys):
    g = T.build("z2")
    tw = T.build_twist(g, T.trivial_cocycle(g, 2))
    with pytest.raises(ValueError, match="^twist order must be positive$"):
        T.Twist(tw.base, tw.total, n, tw.embed, tw.proj)
    # over the empty groupoid no other check fails, so only the order refuses it
    path = tmp_path / "empty.twi"
    path.write_text(EMPTY_TWIST % n)
    for verb in (["validate", "twist"], ["twist", "section"], ["twist", "induced"]):
        assert main(verb + [str(path)]) == 1
        assert capsys.readouterr() == ("", "error: twist order must be positive\n")
    path.write_text(EMPTY_TWIST % 1)
    assert main(["validate", "twist", str(path)]) == 0


def _pair2_fibers_swapped():
    """The untwisted order-two twist over pair2 with the fibers over base
    arrows 1 and 2 swapped.  Units still go to units and inverses to
    inverses, but src and rng break, and so does every composition that
    leaves the unit fibers; most of those land on pairs that do not
    compose in the base."""
    g = T.build("pair2")
    tw = T.build_twist(g, T.trivial_cocycle(g, 2))
    return T.Twist(tw.base, tw.total, tw.n, tw.embed, (0, 0, 2, 2, 1, 1, 3, 3))


def test_validate_twist_projection_onto_non_composable_pairs():
    v = T.validate_twist(_pair2_fibers_swapped())
    assert len(v) == 32
    assert sum(x.startswith("projection breaks src at ") for x in v) == 4
    assert sum(x.startswith("projection breaks rng at ") for x in v) == 4
    assert sum(x.startswith("projection breaks composition at ") for x in v) == 24
    assert "projection breaks composition at (0, 2)" in v


def test_validate_twist_projection_through_the_cli(tmp_path, capsys):
    tw = _pair2_fibers_swapped()
    path = tmp_path / "swapped.twi"
    write_ungated(write_twist, str(path), tw)
    code = main(["validate", "twist", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    # the file lists compositions in another order than build_twist made them
    assert sorted(out.splitlines()) == sorted("violation: " + v for v in T.validate_twist(tw))


def test_validate_twist_sorts_composition_violations(tmp_path, capsys):
    """Read from a file or built in memory, the swapped twist prints the
    same lines, its composition violations in ascending pair order, though
    the two total groupoids list their compositions in different orders."""
    tw = _pair2_fibers_swapped()
    path = str(tmp_path / "swapped.twi")
    write_ungated(write_twist, path, tw)
    read_back = _read(path, parse_twist_block)
    assert read_back == tw and list(read_back.total.comp) != list(tw.total.comp)
    assert main(["validate", "twist", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["violation: " + v for v in T.validate_twist(tw)]
    assert T.validate_twist(read_back) == T.validate_twist(tw)
    prefix = "violation: projection breaks composition at "
    pairs = [tuple(map(int, x[len(prefix) + 1:-1].split(", "))) for x in out if x.startswith(prefix)]
    assert len(pairs) == 24 and pairs == sorted(pairs)


# Sections per (catalog groupoid, order): pair4 at order 2 alone has 2^21.
SECTION_BUDGET = 1024


@pytest.mark.parametrize("name", list(T.CATALOG))
def test_section_iso_is_the_closed_form(name):
    """On every section of the twist of every enumerated cocycle, order
    1, 2, ... while the sections of one order fit the budget (at most 4),
    section_iso sends the model arrow a*n + k to k acting on sec(a)."""
    g = T.build(name)
    for n in range(1, 5):
        per_twist = n ** (g.m - len(g.units))
        if per_twist > SECTION_BUDGET:
            break
        cocs = T.enumerate_cocycles(g, n)
        if len(cocs) * per_twist > SECTION_BUDGET:
            break
        for coc in cocs:
            tw = T.build_twist(g, coc)
            for sec in all_sections(tw):
                mapping = T.section_iso(tw, sec).mapping
                assert isinstance(mapping, tuple)
                assert len(mapping) == g.m * n
                for a in range(g.m):
                    for k in range(n):
                        assert mapping[a * n + k] == tw.act(k, sec[a])


# --- read-only tables behind one validation gate -----------------------------


def test_embed_is_read_only(tmp_path):
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    path = str(tmp_path / "z2_neg.twi")
    write_twist(path, tw)
    for t in (tw, _z2_twist(), T.read_twist(path)):
        assert_read_only(t.embed)
        assert_read_only(t.total.comp)


def test_validate_twist_skips_checked_groupoids(monkeypatch):
    built = T.build_twist(T.build("z4"), carry_cocycle(4))
    calls = count_calls(monkeypatch, TW, "validate_groupoid")
    assert built.base.checked and built.total.checked and built.checked
    assert T.validate_twist(built) == [] and calls == []
    tw = unmarked(built)
    assert tw.base.checked and not tw.total.checked and not tw.checked
    assert T.validate_twist(tw) == [] and calls == [tw.total]
    assert T.check_twist(tw) is tw and len(calls) == 2
    assert tw.checked and tw.base.checked and tw.total.checked
    assert T.check_twist(tw) is tw and T.validate_twist(tw) == [] and len(calls) == 2


def test_invalid_twist_is_never_marked():
    tw = unmarked(_z2_twist(proj=(0, 0, 1, 2)))
    assert_never_marked(tw, T.check_twist, T.validate_twist)
    assert not tw.total.checked


def test_a_hand_built_twist_over_a_born_checked_total_is_refused():
    """Sharing build_twist's marked total skips only the groupoid pass:
    the twist's own axioms are still checked, and it is never marked."""
    tw = _z2_twist(proj=(0, 0, 1, 2))
    assert tw.total.checked and not tw.checked
    assert T.validate_twist(tw) == ["projection hits a non-arrow"]
    assert_never_marked(tw, T.check_twist, T.validate_twist)
    tw.checked = False
    assert_refused(tw, lambda: T.find_section(tw))


def test_every_built_twist_validates():
    """Oracle for the born-checked model twist: over every catalog
    groupoid, for n = 2 and 3, the first 16 listed cocycles build twists
    whose total, copied unmarked, is a groupoid and whose twist axioms
    all hold."""
    built = 0
    for name in T.CATALOG:
        g = T.build(name)
        for n in (2, 3):
            for coc in T.enumerate_cocycles(g, n)[:16]:
                tw = unmarked(T.build_twist(g, coc))
                assert T.validate_groupoid(tw.total) == []
                assert T.validate_twist(tw) == []
                built += 1
    assert built == 240


def test_every_induced_cocycle_validates():
    """Oracle for the born-checked induced cocycle: over every catalog
    groupoid, for n = 2 and 3, the first 4 listed cocycles build twists,
    and on their canonical section and 6 seeded sections the induced
    cocycle is marked and passes the validator, which ignores the mark."""
    rnd, induced = random.Random("induced"), 0
    for name in T.CATALOG:
        g = T.build(name)
        for n in (2, 3):
            for coc in T.enumerate_cocycles(g, n)[:4]:
                tw = T.build_twist(g, coc)
                secs = [T.find_section(tw)] + [
                    [tw.embed[(a, 0)] if a in g.unit_set else rnd.choice(tw.fiber(a))
                     for a in range(g.m)] for _ in range(6)]
                for sec in secs:
                    out = T.induced_cocycle(tw, sec)
                    assert out.checked and T.validate_cocycle(out) == [], name
                    induced += 1
    assert induced == 623


def test_twist_equality_ignores_the_flag():
    assert_flag_ignored(_z2_twist, T.check_twist)


# --- one induced cocycle per twist section -----------------------------------


def test_alternating_sections_induce_as_fresh_twists_do():
    coc = carry_cocycle(4)
    tw = T.build_twist(coc.gpd, coc)
    first, other = T.find_section(tw), all_sections(tw)[-1]
    assert list(first) != other
    for sec in (first, other, first, first, other, tuple(other)):
        want = T.induced_cocycle(T.build_twist(coc.gpd, coc), sec)
        assert T.induced_cocycle(tw, sec) == want
    assert T.induced_cocycle(tw, first) == coc
    assert T.induced_cocycle(tw, other) != coc


def test_invalid_section_raises_on_every_call():
    tw = T.build_twist(T.build("z4"), carry_cocycle(4))
    sec = T.find_section(tw)
    bad = (sec[0], sec[2]) + sec[2:]
    for _ in range(3):
        with pytest.raises(ValueError, match="^section misses the fiber at arrow 1$"):
            T.induced_cocycle(tw, bad)
        assert T.induced_cocycle(tw, sec) == carry_cocycle(4)


def test_failed_unique_scalar_keeps_nothing():
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    bad = T.Twist(tw.base, tw.total, 2, {(0, 0): 0, (0, 1): 0}, tw.proj)
    assert_refused(bad, lambda: T.induced_cocycle(bad, T.find_section(tw)))


def test_twists_isomorphic_reuses_the_induced_cocycle(monkeypatch):
    """One exponent table per (twist, section) across a round trip: the
    induced cocycle builds the first twist's, twists_isomorphic the
    second's, and EquivContext and psi build none.  A build keeps a new
    (args, value) pair, so the same pair means no rebuild."""
    g = T.build("s3")
    c1, c2 = T.enumerate_cocycles(g, 2)[:2]
    tw, t2 = T.build_twist(g, c1), T.build_twist(g, c2)
    scalars = count_calls(monkeypatch, TW, "unique_scalar")
    sec = T.find_section(tw)
    T.induced_cocycle(tw, sec)
    first = kept(tw, TW._exponent_table)
    assert first[0] == (sec,) and kept(t2, TW._exponent_table) is None
    T.twists_isomorphic(tw, t2)
    second = kept(t2, TW._exponent_table)
    assert kept(tw, TW._exponent_table) is first and second is not None
    ring = T.parse_ring("Q(zeta_4)")
    ectx = T.EquivContext(tw, sec, ring, T.unit_subgroup(ring, 2), T.parse_involution(ring, "conj"))
    f = T.EquivariantElement(ectx, {a: ring.parse("1+zeta") for a in range(g.m)})
    T.psi(T.equiv_convolve(f, T.equiv_star(f)), ectx.ctx)
    assert kept(tw, TW._exponent_table) is first and kept(t2, TW._exponent_table) is second
    assert ectx._exponents is first[1] and scalars == []


def full_morphism_failures(mor):
    """Oracle for validate_twist_morphism: every law it once checked,
    the inverse law and action equivariance included, in the same order."""
    t1, t2, f = mor.src, mor.dst, mor.mapping
    if t1.base != t2.base or t1.n != t2.n:
        return ["twists do not share a base groupoid and order"]
    if len(f) != t1.total.m or set(f) != set(range(t2.total.m)):
        return ["mapping is not a bijection of total arrows"]
    v = ["homomorphism law fails at (%d, %d)" % (e, d)
         for (e, d), ed in sorted(t1.total.comp.items())
         if t2.total.comp.get((f[e], f[d])) != f[ed]]
    v += ["inverse law fails at %d" % e
          for e in range(t1.total.m) if f[t1.total.inv[e]] != t2.total.inv[f[e]]]
    v += ["embedding diagram fails at (%d, %d)" % key
          for key, e in t1.embed.items() if f[e] != t2.embed[key]]
    v += ["projection diagram fails at %d" % e
          for e in range(t1.total.m) if t2.proj[f[e]] != t1.proj[e]]
    v += ["action equivariance fails at (%d, %d)" % (e, k)
          for e in range(t1.total.m) for k in range(t1.n) if f[t1.act(k, e)] != t2.act(k, f[e])]
    return v


IMPLIED = ("inverse law", "action equivariance")


def slow_validate_twist_morphism(mor):
    """Full-loop reference for validate_twist_morphism: the homomorphism
    law at every composable pair, then the two diagrams, with the implied
    laws' messages dropped."""
    return [x for x in full_morphism_failures(mor) if not x.startswith(IMPLIED)]


def sampled_mappings(t1, t2, rnd, count):
    """Bijections of total arrows near an isomorphism, if there is one:
    the isomorphism, it after a permutation inside each fiber or one swap,
    a fiber-preserving bijection, and a bijection at random."""
    iso = T.twists_isomorphic(t1, t2)
    arrows = list(range(t1.total.m))
    for _ in range(count):
        fibered = [0] * t1.total.m
        for a in range(t1.base.m):
            for e, d in zip(t1.fiber(a), rnd.sample(t2.fiber(a), t1.n)):
                fibered[e] = d
        yield fibered
        yield rnd.sample(arrows, len(arrows))
        if iso is not None:
            yield iso.mapping
            yield [iso.mapping[e] for e in fibered]
            swapped = list(iso.mapping)
            i, j = rnd.sample(arrows, 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield swapped


def test_morphism_validator_matches_the_full_predicate():
    """Dropping the inverse law and action equivariance accepts the same
    mappings and drops only their messages: every bijection of total arrows
    between twists of order 2 over z2 and z3, seeded samples over pair2 and
    klein, and twists over different bases."""
    verdicts = []

    def compare(t1, t2, mapping):
        mor = T.TwistMorphism(t1, t2, tuple(mapping))
        full = full_morphism_failures(mor)
        assert T.validate_twist_morphism(mor) == [x for x in full if not x.startswith(IMPLIED)]
        verdicts.append(not full)

    twists = {name: [T.build_twist(c.gpd, c) for c in T.enumerate_cocycles(T.build(name), 2)]
              for name in ("z2", "z3", "pair2", "klein")}
    for name in ("z2", "z3"):
        for t1, t2 in itertools.product(twists[name], repeat=2):
            for mapping in itertools.permutations(range(t1.total.m)):
                compare(t1, t2, mapping)
    # 4 * 4! + 16 * 6! bijections; over z2 the two classes are not
    # isomorphic and each twist has two automorphisms, over z3 every pair
    # of the four twists has exactly one isomorphism
    assert (len(verdicts), sum(verdicts)) == (11_616, 20)
    del verdicts[:]
    rnd = random.Random("twist morphisms")
    for name, pairs in (("pair2", 4), ("klein", 24)):
        for _ in range(pairs):
            t1, t2 = rnd.choice(twists[name]), rnd.choice(twists[name])
            for mapping in sampled_mappings(t1, t2, rnd, 4):
                compare(t1, t2, mapping)
    for t1, t2 in (twists["z2"][0], twists["pair2"][0]), (twists["pair2"][1], twists["klein"][1]):
        compare(t1, t2, range(t1.total.m))
    assert set(verdicts) == {True, False}


def morphism_mutants(mor, rnd):
    """Mappings near the isomorphism mor: two images swapped within one
    fiber, two swapped across fibers, and one fiber's images moved on by
    the action of exponent 1."""
    t1, t2, f = mor.src, mor.dst, list(mor.mapping)
    a = rnd.randrange(t1.base.m)
    e, d = rnd.sample(t1.fiber(a), 2)
    within = list(f)
    within[e], within[d] = f[d], f[e]
    yield within
    if t1.base.m > 1:
        b = rnd.choice([x for x in range(t1.base.m) if x != a])
        d = rnd.choice(t1.fiber(b))
        across = list(f)
        across[e], across[d] = f[d], f[e]
        yield across
    shifted = list(f)
    for e in t1.fiber(a):
        shifted[e] = t2.act(1, f[e])
    yield shifted


def test_generator_decided_morphism_law_matches_the_full_loop():
    """Oracle for the homomorphism law decided on generators: on the
    isomorphisms twists_isomorphic finds between the twist of each cocycle
    and of a seeded perturbation of it, over every catalog groupoid with
    n = 2, 3, 4, and on mutated copies of them, the library's violations are
    the full loop's.  Each cocycle is trivial, a shipped fixture or an
    enumerated one; every isomorphism passes, and on every groupoid some
    mutant fails."""
    failed, isos = set(), 0
    for name in T.CATALOG:
        g = T.build(name)
        for n in (2, 3, 4):
            rnd = random.Random("morphism mutants:%s/%d" % (name, n))
            cocs = [T.trivial_cocycle(g, n)]
            cocs += [c for c in T.fixture_cocycles(name).values() if c.n == n]
            try:
                found = T.enumerate_cocycles(g, n, cap=2000)
            except ValueError:
                found = []
            cocs += found[1::max(1, len(found) // 3)]
            for coc in cocs:
                b = [0 if a in g.unit_set else rnd.randrange(n) for a in range(g.m)]
                t1 = T.build_twist(g, coc)
                t2 = T.build_twist(g, T.apply_coboundary(coc, b))
                mor = T.twists_isomorphic(t1, t2)
                assert T.validate_twist_morphism(mor) == slow_validate_twist_morphism(mor) == []
                isos += 1
                for mapping in morphism_mutants(mor, rnd):
                    mutant = T.TwistMorphism(t1, t2, tuple(mapping))
                    want = slow_validate_twist_morphism(mutant)
                    assert T.validate_twist_morphism(mutant) == want
                    if want:
                        failed.add(name)
    assert failed == set(T.CATALOG)
    assert isos > 3 * len(T.CATALOG)


def test_morphism_failures_do_not_depend_on_comp_order():
    """A twist equal to a built one whose total lists comp in reverse
    insertion order gives the same violations, in ascending pair order."""
    g = T.build("z4")
    t1 = T.build_twist(g, T.enumerate_cocycles(g, 2)[1])
    total = t1.total
    reverse = T.Groupoid(total.units, total.src, total.rng, total.inv,
                         dict(reversed(list(total.comp.items()))))
    t1r = T.Twist(t1.base, reverse, t1.n, t1.embed, t1.proj)
    assert t1r == t1 and list(reverse.comp) != list(total.comp)
    mapping = tuple(random.Random("comp order").sample(range(total.m), total.m))
    v = T.validate_twist_morphism(T.TwistMorphism(t1, t1, mapping))
    assert v == T.validate_twist_morphism(T.TwistMorphism(t1r, t1, mapping))
    assert v == slow_validate_twist_morphism(T.TwistMorphism(t1, t1, mapping))
    assert any(x.startswith("homomorphism law") for x in v)
