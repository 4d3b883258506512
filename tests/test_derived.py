"""Derived tables (groupoid.derived): kept on the object they are built
from, for the last arguments, and reused while those stay equal."""

import pytest

import twistalg as T
from twistalg import twist as TW
from twistalg.groupoid import _generator_walk, derived
from conftest import kept, make_context


def assert_reused(run, *objs):
    """run() twice on the same objects: every table an object keeps after
    the second pass is the very (args, value) pair the first pass kept.
    Returns the tables of the first pass."""
    run()
    first = [dict(obj._derived) for obj in objs]
    run()
    for obj, tables in zip(objs, first):
        assert obj._derived.keys() == tables.keys()
        assert all(obj._derived[build] is pair for build, pair in tables.items())
    return first


def test_ideals_reuse_their_tables():
    g = T.build("pair3")
    ctx = make_context(g, "GF(3)")

    def run():
        ideal = T.ideal_generated(ctx, [T.delta(ctx, 1) + T.delta(ctx, 2)])
        assert T.ck_witness(ctx, ideal)
        # a basis handed over is checked through the same closure images
        assert T.Ideal(ctx, ideal.basis) == ideal
    tables, ctx_tables = assert_reused(run, g, ctx)
    assert {T.Groupoid.arrows_by_rng.__wrapped__, _generator_walk.__wrapped__} <= tables.keys()
    assert {T.Context.regular.__wrapped__, T.structure._images.__wrapped__} <= ctx_tables.keys()


def test_exhaustive_scan_reuses_its_tables():
    g = T.build("klein")
    # the form x0 y1 on (Z/2)^2, arrow i with bits (i & 1, i >> 1): nondegenerate
    coc = T.Cocycle(g, 2, {(x, y): (x & 1) * (y >> 1) for x in range(4) for y in range(4)})
    ctx = make_context(g, "GF(3^2)", coc=coc)

    def run():
        assert T.is_simple(ctx, mode="exhaustive").simple is True
    _, ctx_tables = assert_reused(run, g, ctx)
    assert T.structure._scan_tables.__wrapped__ in ctx_tables


def test_cohomology_reuses_one_solve_for_every_order():
    g = T.build("z4")
    carry = T.Cocycle(g, 4, {(a, b): int(a + b >= 4) for a, b in g.comp})
    coboundary = T.apply_coboundary(T.trivial_cocycle(g, 4), [0, 1, 2, 3])
    cocs2 = T.enumerate_cocycles(g, 2)

    def run():
        assert T.check_cohomologous(carry, T.trivial_cocycle(g, 4)) is None
        assert T.check_cohomologous(coboundary, T.trivial_cocycle(g, 4)) is not None
        assert {T.check_cohomologous(c, cocs2[0]) is None for c in cocs2} == {False, True}
    (tables,) = assert_reused(run, g)
    assert T.cocycle._coboundary_solve.__wrapped__ in tables


def test_twist_round_trip_reuses_its_tables():
    g = T.build("s3")
    c1, c2 = T.enumerate_cocycles(g, 2)[:2]
    tw, t2 = T.build_twist(g, c1), T.build_twist(g, c2)
    ring = T.parse_ring("Q(zeta_4)")
    tgrp, conj = T.unit_subgroup(ring, 2), T.parse_involution(ring, "conj")

    def run():
        assert T.build_twist(g, c1) == tw
        sec = T.find_section(T.check_twist(tw))
        assert T.induced_cocycle(tw, sec) == c1
        T.twists_isomorphic(tw, t2)
        ectx = T.EquivContext(tw, sec, ring, tgrp, conj)
        f = T.EquivariantElement(ectx, {a: ring.parse("1+zeta") for a in range(g.m)})
        T.psi(T.equiv_convolve(f, f), ectx.ctx)
    tables = assert_reused(run, g, tw, t2, tw.total, t2.total)
    for twist_tables in tables[1:3]:
        assert {TW.Twist._fibers.__wrapped__, TW._exponent_table.__wrapped__,
                TW._induced_cocycle.__wrapped__} <= twist_tables.keys()


def test_a_twist_keeps_its_last_section():
    coc = T.enumerate_cocycles(T.build("s3"), 2)[1]
    tw = T.build_twist(coc.gpd, coc)
    sec = T.find_section(tw)
    other = tuple(s if a in tw.base.unit_set else max(tw.fiber(a)) for a, s in enumerate(sec))
    table, induced = TW._exponent_table(tw, sec), T.induced_cocycle(tw, sec)
    # a list equal to the last section is a hit
    assert T.induced_cocycle(tw, list(sec)) is induced
    assert TW._exponent_table(tw, sec) is table
    # alternating two sections rebuilds
    assert T.induced_cocycle(tw, other) != induced
    assert kept(tw, TW._exponent_table)[0] == (other,)
    again = T.induced_cocycle(tw, sec)
    assert again == induced and again is not induced
    assert TW._exponent_table(tw, sec) == table and TW._exponent_table(tw, sec) is not table


class Holder:
    def __init__(self):
        self._derived = {}


def test_derived_keeps_the_last_args_and_no_failed_build():
    builds = []

    @derived
    def double(obj, x):
        builds.append(x)
        if x < 0:
            raise ValueError("negative")
        return [2 * x]
    obj = Holder()
    one = double(obj, 1)
    assert double(obj, 1) is one and builds == [1]
    assert double(obj, 2) == [4] and double(obj, 1) == one and builds == [1, 2, 1]
    fresh = Holder()
    for _ in range(2):
        with pytest.raises(ValueError, match="^negative$"):
            double(fresh, -1)
        assert fresh._derived == {}
    assert builds == [1, 2, 1, -1, -1]
    # a build that raises keeps nothing on an invalid twist either
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    bad = T.Twist(tw.base, tw.total, 2, {(0, 0): 0, (0, 1): 0}, tw.proj)
    with pytest.raises(T.AxiomError) as exc:
        TW._exponent_table(bad, T.find_section(tw))
    assert exc.value.kind == "twist" and exc.value.violations == T.validate_twist(bad)
    assert kept(bad, TW._exponent_table) is None and not bad.checked
