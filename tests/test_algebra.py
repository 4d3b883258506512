"""Convolution algebra: element arithmetic, star, decompositions, and the
equivariant picture."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistalg as T
from conftest import (
    carry_cocycle, make_context, random_element, random_nonzero, relabel_groupoid, table_contexts,
)


def ctx_q_pair2():
    return make_context(T.build("pair2"), "Q", involution="id")


def ctx_gf3_z2_neg():
    return make_context(T.build("z2"), "GF(3)", coc=T.z2_neg_cocycle(), involution="id")


def ctx_cyc_z4_carry():
    return make_context(T.build("z4"), "Q(zeta_4)", coc=carry_cocycle(4), involution="conj")


# --- element basics ---------------------------------------------------------


def test_delta_char_one_support():
    ctx = ctx_q_pair2()
    d = T.delta(ctx, 2)
    assert d.support() == (2,)
    assert d.value(2) == Fraction(1)
    assert d.value(0) == Fraction(0)
    assert T.char_fn(ctx, [0, 3]).support() == (0, 3)
    assert T.one(ctx) == T.char_fn(ctx, ctx.gpd.units)
    assert T.zero(ctx).support() == ()


def test_from_coeffs_drops_zeros():
    ctx = ctx_q_pair2()
    f = T.from_coeffs(ctx, {0: Fraction(0), 1: Fraction(2)})
    assert f.support() == (1,)


def test_char_fn_rejects_non_arrow():
    ctx = ctx_q_pair2()
    with pytest.raises(ValueError):
        T.char_fn(ctx, [99])


def test_elements_refuse_coefficients_on_non_arrows():
    """A key that is not an arrow is refused where the element is made, a
    zero coefficient too: -1 had wrapped round to arrow 3 of pair2 in a
    product, and 4 had generated an ideal of dimension 1 with no basis
    vector.  Equivariant elements take base arrows only."""
    ctx = make_context(T.build("pair2"), "GF(3)")
    one, zero = ctx.ring.one(), ctx.ring.zero()
    for a in (-1, 4):
        for run in (lambda: T.delta(ctx, a), lambda: T.from_coeffs(ctx, {0: one, a: zero}),
                    lambda: T.char_fn(ctx, [a]), lambda: T.Element(ctx, {a: one})):
            with pytest.raises(ValueError, match="^coefficient on non-arrow %d$" % a):
                run()
    assert T.convolve(T.delta(ctx, 3), T.delta(ctx, 3)) == T.delta(ctx, 3)
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    ectx = T.EquivContext(tw, T.find_section(tw), ctx.ring, T.unit_subgroup(ctx.ring, 2))
    for a in (-1, 2, 3):
        with pytest.raises(ValueError, match="^coefficient on non-arrow %d$" % a):
            T.EquivariantElement(ectx, {a: one})
    f = T.EquivariantElement(ectx, {1: one})
    assert [f.value(e) for e in range(4)] == [zero, zero, one, ctx.ring.neg(one)]


def test_char_fn_rejects_non_bisection():
    ctx = ctx_q_pair2()  # arrows 0 and 1 both range in unit 0
    with pytest.raises(ValueError, match="^subset is not a bisection$"):
        T.char_fn(ctx, [0, 1])


def test_add_sub_scale():
    ctx = ctx_q_pair2()
    rnd = random.Random(11)
    f = random_element(ctx, rnd)
    g = random_element(ctx, rnd)
    assert (f + g) - g == f
    assert T.scale(Fraction(0), f) == T.zero(ctx)
    two_f = T.scale(Fraction(2), f)
    assert two_f == f + f


def test_context_equality():
    # separately built from equal parts: equal, with equal hashes
    a, b = ctx_gf3_z2_neg(), ctx_gf3_z2_neg()
    assert a is not b and a == b and hash(a) == hash(b)
    assert T.one(a) == T.one(b)
    plain = make_context(T.build("z2"), "GF(3)", coc=T.z2_neg_cocycle())
    assert plain != a


def test_mixed_context_arithmetic_rejected():
    f = T.one(ctx_q_pair2())
    g = T.one(ctx_gf3_z2_neg())
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        T.convolve(f, g)


# --- convolution -------------------------------------------------------------


def test_one_is_identity():
    for ctx in (ctx_q_pair2(), ctx_gf3_z2_neg(), ctx_cyc_z4_carry()):
        rnd = random.Random(7)
        e = T.one(ctx)
        for _ in range(5):
            f = random_element(ctx, rnd)
            assert T.convolve(e, f) == f
            assert T.convolve(f, e) == f


def test_delta_product_twisted():
    # The product of two point masses at composable arrows is the scalar
    # picked out by the cocycle, sitting at the composite.
    ctx = ctx_gf3_z2_neg()
    g = ctx.gpd
    for (a, b), c in g.comp.items():
        p = T.convolve(T.delta(ctx, a), T.delta(ctx, b))
        assert p.support() == (c,)
        assert p.value(c) == ctx.tgrp.embed(ctx.coc.table[(a, b)])


def test_delta_product_non_composable_is_zero():
    ctx = ctx_q_pair2()
    # arrows 1 and 1: src(1) = 1, rng(1) = 0, not composable with itself
    assert T.convolve(T.delta(ctx, 1), T.delta(ctx, 1)) == T.zero(ctx)


def brute_convolve(f, g) -> dict:
    """f g as a sum over every (a, c) in the composition table, with the
    cocycle value g^k multiplied out of the subgroup's generator: the
    product rule read off the raw tables, sharing nothing with convolve."""
    ctx, r = f.ctx, f.ctx.ring
    out = {}
    for (a, c), t in ctx.gpd.comp.items():
        term = r.mul(f.value(a), g.value(c))
        for _ in range(ctx.coc.table[(a, c)]):
            term = r.mul(ctx.tgrp.generator, term)
        out[t] = r.add(out.get(t, r.zero()), term)
    return {t: x for t, x in out.items() if not r.is_zero(x)}


@pytest.mark.parametrize("ring_spec", ["GF(5)", "GF(3^2)", "Q", "Q(zeta_4)"])
def test_convolve_matches_brute_force_sum(ring_spec):
    rnd = random.Random("brute/" + ring_spec)
    twisted = 0
    for ctx in table_contexts(ring_spec, rnd):
        twisted += any(ctx.coc.table.values())
        for _ in range(3):
            f, g = random_element(ctx, rnd), random_element(ctx, rnd, density=0.4)
            assert T.convolve(f, g).coeffs == brute_convolve(f, g)
    assert twisted >= len(T.CATALOG)


@pytest.mark.parametrize("maker", [ctx_q_pair2, ctx_gf3_z2_neg, ctx_cyc_z4_carry])
def test_convolution_associative_random(maker):
    ctx = maker()
    rnd = random.Random(str(ctx.ring.kind))
    for _ in range(12):
        f = random_element(ctx, rnd)
        g = random_element(ctx, rnd)
        h = random_element(ctx, rnd)
        assert T.convolve(T.convolve(f, g), h) == T.convolve(f, T.convolve(g, h))


@pytest.mark.parametrize("maker", [ctx_q_pair2, ctx_gf3_z2_neg, ctx_cyc_z4_carry])
def test_element_product_is_convolution(maker):
    ctx = maker()
    rnd = random.Random("mul " + str(ctx.ring.kind))
    for _ in range(6):
        f, g = random_element(ctx, rnd), random_element(ctx, rnd)
        assert (f * g).coeffs == brute_convolve(f, g)


@given(
    st.dictionaries(st.integers(0, 3), st.integers(0, 2), max_size=4),
    st.dictionaries(st.integers(0, 3), st.integers(0, 2), max_size=4),
    st.dictionaries(st.integers(0, 3), st.integers(0, 2), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_convolution_bilinear_gf3(cf, cg, ch):
    ctx = make_context(T.build("pair2"), "GF(3)")
    f = T.from_coeffs(ctx, cf)
    g = T.from_coeffs(ctx, cg)
    h = T.from_coeffs(ctx, ch)
    assert T.convolve(f + g, h) == T.convolve(f, h) + T.convolve(g, h)
    assert T.convolve(f, g + h) == T.convolve(f, g) + T.convolve(f, h)


# --- star --------------------------------------------------------------------


@pytest.mark.parametrize("maker", [ctx_q_pair2, ctx_gf3_z2_neg, ctx_cyc_z4_carry])
def test_star_laws(maker):
    ctx = maker()
    rnd = random.Random(str(ctx.ring.kind) + "*")
    for _ in range(10):
        f = random_element(ctx, rnd)
        g = random_element(ctx, rnd)
        assert T.involute(T.involute(f)) == f
        assert T.involute(T.convolve(f, g)) == T.convolve(T.involute(g), T.involute(f))
        c = ctx.ring.random_element(rnd)
        assert T.involute(T.scale(c, f)) == T.scale(ctx.conj(c), T.involute(f))


def test_star_needs_involution():
    ctx = make_context(T.build("pair2"), "Q")
    with pytest.raises(ValueError):
        T.involute(T.one(ctx))


def test_star_conjugates_cyclotomic_coefficients():
    ctx = ctx_cyc_z4_carry()
    z = ctx.ring.zeta()
    f = T.from_coeffs(ctx, {0: z})  # arrow 0 is the unit
    assert T.involute(f).value(0) == ctx.conj(z)


# --- indicator identities -----------------------------------------------------


def test_bisection_indicator_partial_isometry():
    ctx = ctx_cyc_z4_carry()
    g = ctx.gpd
    for subset in ({1}, {2}, {3}, {0}):
        assert T.is_bisection(g, subset)
        f = T.char_fn(ctx, subset)
        fs = T.involute(f)
        srcs = T.char_fn(ctx, {g.src[a] for a in subset})
        rngs = T.char_fn(ctx, {g.rng[a] for a in subset})
        assert T.convolve(f, fs) == rngs
        assert T.convolve(fs, f) == srcs
        assert T.convolve(T.convolve(f, fs), f) == f
        assert T.convolve(T.convolve(fs, f), fs) == fs


def test_bisection_product_values():
    ctx = ctx_gf3_z2_neg()
    g = ctx.gpd
    B = {1}
    D = {1}
    p = T.convolve(T.char_fn(ctx, B), T.char_fn(ctx, D))
    for a in B:
        for b in D:
            if (a, b) in g.comp:
                assert p.value(g.comp[(a, b)]) == ctx.tgrp.embed(ctx.coc.table[(a, b)])


# --- decomposition and local units --------------------------------------------


@pytest.mark.parametrize("maker", [ctx_q_pair2, ctx_gf3_z2_neg, ctx_cyc_z4_carry])
def test_disjoint_decomposition_reassembles(maker):
    ctx = maker()
    rnd = random.Random(str(ctx.ring.kind) + "dec")
    for _ in range(15):
        f = random_nonzero(ctx, rnd)
        parts = T.disjoint_decomposition(f)
        total = T.zero(ctx)
        for val, arrows in parts:
            assert T.is_bisection(ctx.gpd, arrows)
            assert not ctx.ring.is_zero(val)
            total = total + T.scale(val, T.char_fn(ctx, arrows))
        assert total == f
        # pieces are pairwise disjoint as sets of arrows
        seen = set()
        for _, arrows in parts:
            assert not (seen & arrows)
            seen |= arrows
        assert seen == set(f.support())


def test_decomposition_of_zero_raises():
    with pytest.raises(ValueError):
        T.disjoint_decomposition(T.zero(ctx_q_pair2()))


def test_decomposition_deterministic():
    ctx = ctx_q_pair2()
    f = T.from_coeffs(ctx, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(2)})
    assert T.disjoint_decomposition(f) == T.disjoint_decomposition(f)


def test_local_unit_absorbs_family():
    ctx = ctx_q_pair2()
    rnd = random.Random(404)
    for size in (1, 2, 3):
        fam = [random_nonzero(ctx, rnd) for _ in range(size)]
        e = T.local_unit(ctx, fam)
        for f in fam:
            assert T.convolve(e, f) == f
            assert T.convolve(f, e) == f


def test_local_unit_refuses_an_element_of_another_context():
    # on pair2 it answered {3: 1} for delta at arrow 3 of z4, reading
    # pair2's ends at an arrow of another groupoid
    other = make_context(T.build("z4"), "Q", involution="id")
    with pytest.raises(ValueError, match="^element lives in a different context$"):
        T.local_unit(ctx_q_pair2(), [T.delta(other, 3)])


# --- coboundary isomorphism ----------------------------------------------------


def test_coboundary_iso_round_trip_and_multiplicative():
    g = T.build("pair2")
    base = T.trivial_cocycle(g, 2)
    b = [0, 1, 0, 0]
    perturbed = T.apply_coboundary(base, b)
    src = make_context(g, "GF(3)", coc=perturbed)
    dst = make_context(g, "GF(3)", coc=base)
    b_inv = [(-k) % 2 for k in b]
    rnd = random.Random(9)
    for _ in range(10):
        f = random_element(src, rnd)
        h = random_element(src, rnd)
        img_f = T.coboundary_iso(src, dst, b, f)
        img_h = T.coboundary_iso(src, dst, b, h)
        assert T.coboundary_iso(dst, src, b_inv, img_f) == f
        assert T.convolve(img_f, img_h) == T.coboundary_iso(src, dst, b, T.convolve(f, h))


def test_coboundary_iso_rejects_wrong_connection():
    g = T.build("pair2")
    src = make_context(g, "GF(3)", coc=T.trivial_cocycle(g, 2))
    dst = make_context(g, "GF(3)", coc=T.trivial_cocycle(g, 2))
    with pytest.raises(ValueError):
        T.coboundary_iso(src, dst, [0, 1, 0, 0], T.one(src))


def test_coboundary_iso_guards():
    g = T.build("pair2")
    src = make_context(g, "GF(5)", coc=T.trivial_cocycle(g, 2))
    b = [0, 0, 0, 0]
    for dst, message in (
        (make_context(T.build("z2"), "GF(5)", coc=T.trivial_cocycle(T.build("z2"), 2)),
         "contexts disagree on groupoid or ring"),
        (make_context(g, "GF(3)", coc=T.trivial_cocycle(g, 2)),
         "contexts disagree on groupoid or ring"),
        (make_context(g, "GF(5)", coc=T.trivial_cocycle(g, 4)),
         "contexts disagree on the unit subgroup"),
    ):
        with pytest.raises(ValueError, match="^%s$" % message):
            T.coboundary_iso(src, dst, b, T.one(src))
    elsewhere = make_context(g, "GF(5)", coc=T.trivial_cocycle(g, 2), involution="id")
    with pytest.raises(ValueError, match="^element lives in a different context$"):
        T.coboundary_iso(src, src, b, T.one(elsewhere))


# --- multiplying by g^k -------------------------------------------------------
# The library skips the product by g^0 = 1; these references always multiply.


def multiplying_convolve(f, g):
    ctx = f.ctx
    gpd, r, t = ctx.gpd, ctx.ring, ctx.tgrp
    out = {}
    for a, fa in f.coeffs.items():
        for b, gb in g.coeffs.items():
            if gpd.src[a] == gpd.rng[b]:
                c = gpd.comp[(a, b)]
                term = r.mul(t.embed(ctx.coc.table[(a, b)]), r.mul(fa, gb))
                out[c] = r.add(out.get(c, r.zero()), term)
    return T.from_coeffs(ctx, out)


def multiplying_star(f):
    ctx = f.ctx
    r, t, inv = ctx.ring, ctx.tgrp, ctx.gpd.inv
    return T.from_coeffs(ctx, {
        inv[a]: r.mul(t.embed(-ctx.coc.table[(inv[a], a)]), ctx.conj(c)) for a, c in f.coeffs.items()
    })


def multiplying_coboundary_iso(ctx_dst, b, f):
    r, t = ctx_dst.ring, ctx_dst.tgrp
    return T.from_coeffs(ctx_dst, {a: r.mul(t.embed(b[a]), c) for a, c in f.coeffs.items()})


# (ring, cocycle order, involution inverting the unit subgroup or None)
SCALE_RINGS = [
    ("Z", 2, "id"), ("Q", 2, "id"), ("GF(3)", 2, "id"), ("GF(5)", 4, None),
    ("GF(5^2)", 2, "frobenius"), ("GF(3^2)", 4, "frobenius"),
    ("Q(zeta_3)", 2, "conj"), ("Q(zeta_4)", 4, "conj"), ("Q(zeta_8)", 4, "conj"),
]


@pytest.mark.parametrize("ring_spec,n,involution", SCALE_RINGS)
def test_scale_agrees_with_multiplying(ring_spec, n, involution):
    rnd = random.Random("scale:" + ring_spec)
    ring = T.parse_ring(ring_spec)
    tgrp = T.unit_subgroup(ring, n)
    for k in range(-3 * n, 3 * n + 1):
        x = ring.random_element(rnd)
        assert tgrp.scale(k, x) == ring.mul(tgrp.embed(k), x)
    assert tgrp.scale(-n, x) is x
    for gname in ("z2", "z4", "pair2", "klein", "swap2"):
        g = T.build(gname)
        dst_coc = T.enumerate_cocycles(g, n)[-1]
        src_coc = T.trivial_cocycle(g, n)
        while not any(src_coc.table.values()):
            # a coboundary with entries outside 0..n-1, zero mod n on the units
            b = [0 if a in g.unit_set else rnd.randint(-2 * n, 2 * n) for a in range(g.m)]
            src_coc = T.apply_coboundary(dst_coc, b)
        src = make_context(g, ring_spec, coc=src_coc, involution=involution)
        dst = make_context(g, ring_spec, coc=dst_coc, involution=involution)
        for _ in range(4):
            f, h = random_element(src, rnd), random_element(src, rnd)
            assert T.convolve(f, h) == multiplying_convolve(f, h)
            if involution:
                assert T.involute(f) == multiplying_star(f)
            assert T.coboundary_iso(src, dst, b, f) == multiplying_coboundary_iso(dst, b, f)


# --- gradings -----------------------------------------------------------------


def test_graded_components_reassemble_and_multiply():
    ctx = ctx_cyc_z4_carry()
    grading = T.Grading(ctx.gpd, T.cyclic_group(4), [0, 1, 2, 3])
    rnd = random.Random(321)
    grp = grading.group
    for _ in range(10):
        f = random_nonzero(ctx, rnd)
        comps = T.graded_components(f, grading)
        total = T.zero(ctx)
        for label, part in comps.items():
            assert part.support()
            assert all(grading.deg[a] == label for a in part.support())
            total = total + part
        assert total == f
        # product of homogeneous pieces is homogeneous of the product label
        h = random_nonzero(ctx, rnd)
        for lf, pf in comps.items():
            for lh, ph in T.graded_components(h, grading).items():
                prod = T.convolve(pf, ph)
                lab = grp.op(lf, lh)
                assert all(grading.deg[a] == lab for a in prod.support())


def test_graded_components_come_in_label_order():
    # z3 graded by a -> 2a mod 3: arrows 0, 1, 2 have degrees 0, 2, 1, so
    # the labels first appear out of order
    ctx = make_context(T.build("z3"), "GF(5)")
    grading = T.Grading(ctx.gpd, T.cyclic_group(3), [0, 2, 1])
    f = T.Element(ctx, {a: ctx.ring.one() for a in range(3)})
    comps = T.graded_components(f, grading)
    assert list(comps) == [0, 1, 2]
    assert [part.support() for part in comps.values()] == [(0,), (2,), (1,)]


def test_graded_component_wrong_groupoid():
    ctx = ctx_q_pair2()
    grading = T.Grading(T.build("z2"), T.cyclic_group(2), [0, 1])
    with pytest.raises(ValueError):
        T.graded_component(T.one(ctx), grading, 0)
    with pytest.raises(ValueError, match="different groupoid"):
        T.graded_components(T.one(ctx), grading)


# --- equivariant picture --------------------------------------------------------


def equiv_setup(gname, ring_spec, coc, involution=None):
    """Twist from the cocycle, canonical section, and the matching pair of
    contexts on both sides of the restriction map."""
    g = T.build(gname)
    tw = T.build_twist(g, coc)
    sec = T.find_section(tw)
    ring = T.parse_ring(ring_spec)
    tgrp = T.unit_subgroup(ring, coc.n)
    conj = T.parse_involution(ring, involution) if involution else None
    ectx = T.EquivContext(tw, sec, ring, tgrp, conj)
    target = T.Context(g, ring, tgrp, T.invert_cocycle(T.induced_cocycle(tw, sec)), conj)
    assert ectx.ctx == target
    return ectx, target


def test_equivariant_value_respects_scaling():
    ectx, _ = equiv_setup("z2", "GF(3)", T.z2_neg_cocycle(), "id")
    tw = ectx.twist
    f = T.EquivariantElement(ectx, {1: 2})
    e0 = ectx.section[1]
    assert f.value(e0) == 2
    other = next(e for e in tw.fiber(1) if e != e0)
    assert f.value(other) == ectx.ctx.ring.mul(ectx.ctx.tgrp.embed(1), 2)
    assert f.value(ectx.section[0]) == 0


def test_psi_round_trip_and_multiplicative():
    for args in (("z2", "GF(3)", T.z2_neg_cocycle(), "id"),
                 ("z4", "Q(zeta_4)", carry_cocycle(4), "conj")):
        ectx, target = equiv_setup(*args)
        rnd = random.Random(args[0])
        for _ in range(8):
            f = T.EquivariantElement(ectx, {a: target.ring.random_element(rnd)
                                            for a in range(target.gpd.m)})
            g = T.EquivariantElement(ectx, {a: target.ring.random_element(rnd)
                                            for a in range(target.gpd.m)})
            assert T.psi_inverse(ectx, T.psi(f, target)) == f
            lhs = T.psi(T.equiv_convolve(f, g), target)
            rhs = T.convolve(T.psi(f, target), T.psi(g, target))
            assert lhs == rhs
            assert T.psi(T.equiv_star(f), target) == T.involute(T.psi(f, target))


def dense_equiv_convolve(f, g) -> dict:
    """n times the equivariant product at every total arrow x, from its
    definition on the total groupoid: the sum of f(y) g(z) over every
    composable pair (y, z) with yz = x, each value read by
    EquivariantElement.value.  The z over one base arrow all give the same
    term, so the sum counts each fiber n times."""
    r = f.ectx.ctx.ring
    out = {}
    for (y, z), x in f.ectx.twist.total.comp.items():
        out[x] = r.add(out.get(x, r.zero()), r.mul(f.value(y), g.value(z)))
    return out


def permuted_twist(tw, rnd):
    """tw with its total arrows renamed by a random permutation, built by
    hand and passed through check_twist."""
    m = tw.total.m
    perm = rnd.sample(range(m), m)
    new = [None] * m
    for e, p in enumerate(perm):
        new[p] = e
    return T.check_twist(T.Twist(
        tw.base, relabel_groupoid(tw.total, perm), tw.n,
        {key: perm[e] for key, e in tw.embed.items()}, [tw.proj[new[x]] for x in range(m)]))


def other_section(tw, rnd):
    """A section that is not find_section's: a random point of each
    non-unit fiber."""
    units = tw.base.unit_set
    return [s if a in units else rnd.choice(tw.fiber(a)) for a, s in enumerate(T.find_section(tw))]


def oracle_supports(base, rnd):
    """(kind, f support, g support) pairs: sparse, full, disjoint halves,
    and disjoint supports apart, f on the arrows out of one unit u and g on
    the arrows neither out of nor into u, so that f g is zero."""
    arrows = list(range(base.m))
    half = set(rnd.sample(arrows, base.m // 2))
    u = base.units[0]
    yield "sparse", rnd.sample(arrows, min(2, base.m)), rnd.sample(arrows, min(2, base.m))
    yield "full", arrows, arrows
    yield "halves", sorted(half), [a for a in arrows if a not in half]
    yield ("apart", [a for a in arrows if base.src[a] == u],
           [a for a in arrows if u not in (base.src[a], base.rng[a])])


def oracle_cocycles(g, n, rnd):
    """Two order-n cocycles on g, each perturbed by a random coboundary:
    the last listed one (which carries a nonzero class wherever H^2 is
    nonzero) and a random one; on pair4 at n = 4, whose 2^18 cocycles are
    all coboundaries, the trivial one stands in for the list."""
    try:
        listed = T.enumerate_cocycles(g, n, cap=2 ** 15)
    except ValueError:
        listed = [T.trivial_cocycle(g, n)]
    for coc in (listed[-1], rnd.choice(listed)):
        yield T.apply_coboundary(coc, [0 if a in g.unit_set else rnd.randrange(-n, 2 * n)
                                       for a in range(g.m)])


def test_equiv_convolve_matches_the_dense_sum():
    """Oracle for the support walk of equiv_convolve: n times its product
    equals the dense sum over every composable pair of the total, at every
    total arrow.  Every catalog groupoid, orders 2 and 4, over Q(zeta_4),
    Q(zeta_8), GF(3^2) and GF(7^2); the model twist with its canonical
    section and with another one, and a hand-built twist whose total arrows
    are permuted; sparse, full and disjoint supports."""
    rnd = random.Random(38)
    rings = [T.parse_ring(spec) for spec in ("Q(zeta_4)", "Q(zeta_8)", "GF(3^2)", "GF(7^2)")]
    cases, zero_products = 0, 0
    for name in T.CATALOG:
        g = T.build(name)
        for n in (2, 4):
            for coc, ring in zip(itertools.cycle(oracle_cocycles(g, n, rnd)), rings):
                tgrp = T.unit_subgroup(ring, n)
                tw = T.build_twist(g, coc)
                moved = permuted_twist(tw, rnd)
                for twist, sec in ((tw, T.find_section(tw)), (tw, other_section(tw, rnd)),
                                   (moved, T.find_section(moved))):
                    ectx = T.EquivContext(twist, sec, ring, tgrp)
                    for kind, fs, gs in oracle_supports(g, rnd):
                        f = T.EquivariantElement(ectx, {a: random_unit(ring, rnd) for a in fs})
                        h = T.EquivariantElement(ectx, {a: random_unit(ring, rnd) for a in gs})
                        fh = T.equiv_convolve(f, h)
                        dense = dense_equiv_convolve(f, h)
                        for x in range(twist.total.m):
                            assert n_times(ring, n, fh.value(x)) == dense[x], (name, n, kind, x)
                        if kind == "apart":
                            assert not fh.h
                        zero_products += not fh.h
                        cases += 1
    assert cases == len(T.CATALOG) * 2 * 4 * 3 * 4 and zero_products >= len(T.CATALOG) * 2 * 4 * 3


def random_unit(ring, rnd):
    while True:
        x = ring.random_element(rnd)
        if not ring.is_zero(x):
            return x


def n_times(ring, n, x):
    out = ring.zero()
    for _ in range(n):
        out = ring.add(out, x)
    return out


def test_psi_rejects_wrong_target_cocycle():
    ectx, target = equiv_setup("z2", "GF(3)", T.z2_neg_cocycle(), "id")
    wrong = T.Context(target.gpd, target.ring, target.tgrp,
                      T.trivial_cocycle(target.gpd, 2), target.conj)
    f = T.EquivariantElement(ectx, {0: 1})
    with pytest.raises(ValueError):
        T.psi(f, wrong)
    with pytest.raises(ValueError):
        T.psi_inverse(ectx, T.one(wrong))


def test_psi_rejects_target_with_other_coefficient_data():
    ectx, target = equiv_setup("z2", "GF(3)", T.z2_neg_cocycle(), "id")
    no_conj = T.Context(target.gpd, target.ring, target.tgrp, target.coc)
    f = T.EquivariantElement(ectx, {0: 1})
    message = "^target context disagrees on coefficient data$"
    with pytest.raises(ValueError, match=message):
        T.psi(f, no_conj)
    with pytest.raises(ValueError, match=message):
        T.psi_inverse(ectx, T.delta(no_conj, 0))


def test_equiv_convolve_rejects_other_context():
    ectx, _ = equiv_setup("z2", "GF(3)", T.z2_neg_cocycle(), "id")
    other, _ = equiv_setup("z2", "GF(3)", T.z2_neg_cocycle())
    with pytest.raises(ValueError, match="^elements live in different equivariant contexts$"):
        T.equiv_convolve(T.EquivariantElement(ectx, {0: 1}), T.EquivariantElement(other, {0: 1}))


def model_twist(base, n, table):
    """build_twist's tables on base x Z/n for a cocycle table it is not
    asked to check: (a, k) is arrow a*n + k."""
    arrows = range(base.m * n)
    inv = [base.inv[e // n] * n + (-table[(e // n, base.inv[e // n])] - e % n) % n for e in arrows]
    comp = {(a * n + k, b * n + l): ab * n + (table[(a, b)] + k + l) % n
            for (a, b), ab in base.comp.items() for k in range(n) for l in range(n)}
    total = T.Groupoid([u * n for u in base.units], [base.src[e // n] * n for e in arrows],
                       [base.rng[e // n] * n for e in arrows], inv, comp)
    embed = {(u, k): u * n + k for u in base.units for k in range(n)}
    return T.Twist(base, total, n, embed, [e // n for e in arrows])


def test_equiv_context_checks_the_cocycle_it_maps_into():
    g = T.build("z3")
    ring = T.parse_ring("Q")
    tgrp = T.unit_subgroup(ring, 2)
    good = T.apply_coboundary(T.trivial_cocycle(g, 2), [0, 1, 0])  # a nonzero table
    assert model_twist(g, 2, good.table) == T.build_twist(g, good)
    # normalised, but (1, 1, 2) breaks the identity: s(1,1) + s(2,2) = 1, s(1,2) + s(1,0) = 0
    table = {pair: int(pair == (1, 1)) for pair in g.comp}
    tw = model_twist(g, 2, table)
    with pytest.raises(T.AxiomError):
        T.EquivContext(tw, T.find_section(tw), ring, tgrp)


def test_equiv_star_needs_involution():
    ectx, _ = equiv_setup("z2", "GF(3)", T.z2_neg_cocycle())
    with pytest.raises(ValueError):
        T.equiv_star(T.EquivariantElement(ectx, {0: 1}))


def test_equiv_context_rejects_bad_section():
    g = T.build("z2")
    tw = T.build_twist(g, T.z2_neg_cocycle())
    ring = T.parse_ring("GF(3)")
    tgrp = T.unit_subgroup(ring, 2)
    sec = list(T.find_section(tw))
    sec[1] = sec[0]  # no longer one point per fiber
    with pytest.raises(ValueError):
        T.EquivContext(tw, sec, ring, tgrp)


# --- constructor guards ----------------------------------------------------------

GF9, GF25, C4 = T.parse_ring("GF(3^2)"), T.parse_ring("GF(5^2)"), T.parse_ring("Q(zeta_4)")
FROB9 = T.parse_involution(GF9, "frobenius")
FROB25 = T.parse_involution(GF25, "frobenius")  # an involution of another ring
ID_C4 = T.parse_involution(C4, "id")  # fixes zeta, so does not invert it


def _not_a_cocycle():
    g = T.build("z2")
    return T.Cocycle(g, 2, {pair: 1 for pair in g.comp})


def _context_args(**edits):
    """The sign cocycle on the order-two group over GF(3^2) with its
    Frobenius, with some arguments replaced."""
    args = dict(gpd=T.build("z2"), ring=GF9, tgrp=T.unit_subgroup(GF9, 2),
                coc=T.z2_neg_cocycle(), conj=FROB9)
    args.update(edits)
    return args


Z4_UNTWISTED = dict(gpd=T.build("z4"), coc=T.trivial_cocycle(T.build("z4"), 4), ring=C4,
                    tgrp=T.unit_subgroup(C4, 4), conj=ID_C4)

CONTEXT_GUARDS = {
    "groupoid": (_context_args(gpd=T.build("z3")), ValueError,
                 "cocycle lives over a different groupoid"),
    "order": (_context_args(tgrp=T.unit_subgroup(GF9, 4)), ValueError,
              "cocycle order does not match the unit subgroup"),
    "tgrp-ring": (_context_args(tgrp=T.unit_subgroup(GF25, 2)), ValueError,
                  "unit subgroup lives in a different ring"),
    "cocycle": (_context_args(coc=_not_a_cocycle()), T.AxiomError,
                "normalisation fails on"),
    "conj-ring": (_context_args(conj=FROB25), ValueError,
                  "involution acts on a different ring"),
    "conj-inverts": (_context_args(**Z4_UNTWISTED), ValueError,
                     "involution does not invert the unit subgroup"),
}


@pytest.mark.parametrize("case", sorted(CONTEXT_GUARDS))
def test_context_guards(case):
    args, exc, message = CONTEXT_GUARDS[case]
    with pytest.raises(exc, match=message):
        T.Context(**args)
    # each case has one fault: the unedited arguments build
    T.Context(**_context_args())


def _equiv_args(**edits):
    """EquivContext arguments for the twist of the sign cocycle over GF(3^2)."""
    args = _context_args(**edits)
    tw = T.build_twist(args["gpd"], args["coc"])
    return dict(twist=tw, section=T.find_section(tw), ring=args["ring"], tgrp=args["tgrp"],
                conj=args["conj"])


# a bad section is test_equiv_context_rejects_bad_section
EQUIV_GUARDS = {
    "order": (_equiv_args(tgrp=T.unit_subgroup(GF9, 4)),
              "unit subgroup order does not match the twist"),
    "tgrp-ring": (_equiv_args(tgrp=T.unit_subgroup(GF25, 2)),
                  "unit subgroup lives in a different ring"),
    "conj-ring": (_equiv_args(conj=FROB25), "involution acts on a different ring"),
    "conj-inverts": (_equiv_args(**Z4_UNTWISTED),
                     "involution does not invert the unit subgroup"),
}


@pytest.mark.parametrize("case", sorted(EQUIV_GUARDS))
def test_equiv_context_guards(case):
    args, message = EQUIV_GUARDS[case]
    with pytest.raises(ValueError, match=message):
        T.EquivContext(**args)
    T.EquivContext(**_equiv_args())
