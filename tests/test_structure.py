"""Row reduction, ideals, unit-set witnesses, and the simplicity scan."""

import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import twistalg as T
from twistalg import structure as S
from conftest import (
    carry_cocycle, count_calls, kept, make_context, random_nonzero, relabel_groupoid, table_contexts,
    unmarked,
)

GF2 = T.parse_ring("GF(2)")
GF3 = T.parse_ring("GF(3)")


def test_vec_round_trip():
    ctx = make_context(T.build("pair2"), "Q")
    f = T.from_coeffs(ctx, {1: Fraction(3, 2), 3: Fraction(-1)})
    assert T.from_vec(ctx, T.to_vec(f)) == f
    assert T.to_vec(f) == [Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1)]


def test_ideal_refuses_another_context():
    g = T.build("pair2")
    ctx, other = make_context(g, "GF(3)"), make_context(g, "GF(5)")
    ideal = T.ideal_generated(ctx, [T.delta(ctx, 1)])
    with pytest.raises(ValueError, match="^element lives in a different context$"):
        ideal.member(T.delta(other, 1))
    with pytest.raises(ValueError, match="^ideal lives in a different context$"):
        T.ck_witness(other, ideal)


# --- row reduction ------------------------------------------------------------


def is_rref(ring, rows):
    pivots = []
    for row in rows:
        piv = next((j for j, c in enumerate(row) if not ring.is_zero(c)), None)
        if piv is None:
            return False
        if row[piv] != ring.one():
            return False
        if any(not ring.is_zero(other[piv]) for other in rows if other is not row):
            return False
        pivots.append(piv)
    return pivots == sorted(pivots)


@pytest.mark.parametrize("ring", [GF2, GF3, T.parse_ring("Q"), T.parse_ring("GF(3^2)")])
def test_rref_canonical(ring):
    rnd = random.Random(str(ring.kind))
    for _ in range(20):
        rows = [[ring.random_element(rnd) for _ in range(5)] for _ in range(4)]
        red = T.rref(ring, rows)
        assert is_rref(ring, red)
        assert T.rref(ring, red) == red
        # shuffling the input rows does not change the result
        shuffled = rows[::-1]
        assert T.rref(ring, shuffled) == red


def test_rref_drops_dependent_rows():
    rows = [[1, 2], [2, 1], [0, 1]]
    red = T.rref(GF3, rows)
    assert red == [(1, 0), (0, 1)]


def test_reduce_against_detects_span():
    basis = T.rref(GF3, [[1, 0, 2], [0, 1, 1]])
    inside = [1, 1, 0]  # row0 + row1 = (1,1,3)=(1,1,0)
    assert all(c == 0 for c in T.reduce_against(GF3, basis, inside))
    outside = [0, 0, 1]
    assert any(c != 0 for c in T.reduce_against(GF3, basis, outside))


@pytest.mark.parametrize("call,message", [
    # padded, (1) is (1, 0), which is not in the span of (1, 1)
    (lambda: T.reduce_against(GF3, [[1, 1]], [1]), "vector has length 1 but basis rows have length 2"),
    (lambda: T.reduce_against(GF3, [[1, 1], [0, 1, 0]], [1, 0]), "rows have different lengths: 2, 3"),
    (lambda: T.rref(GF3, [[1, 2], [1]]), "rows have different lengths: 1, 2"),
], ids=["reduce-short-vector", "reduce-ragged-basis", "rref-ragged"])
def test_rows_of_different_lengths_are_refused(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()
    # the padded rows answer: (1, 0) - (1, 1) leaves (0, 2)
    assert T.reduce_against(GF3, [[1, 1]], [1, 0]) == [0, 2]
    assert T.rref(GF3, [[1, 2], [1, 0]]) == [(1, 0), (0, 1)]


# --- the kernel against an independent oracle -------------------------------------


def dense_rank_mod_p(rows, p):
    """Rank over GF(p) by plain Gaussian elimination on integer lists."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(x - row[col] * y) % p for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def product_rows(gpd, gen, p):
    """delta_a * gen * delta_b over all arrow pairs, untwisted, read off the
    composition table; gen maps arrows to ints."""
    rows = []
    for a in range(gpd.m):
        for b in range(gpd.m):
            row = [0] * gpd.m
            for c, x in gen.items():
                if gpd.src[a] == gpd.rng[c] and gpd.src[c] == gpd.rng[b]:
                    t = gpd.comp[(gpd.comp[(a, c)], b)]
                    row[t] = (row[t] + x) % p
            rows.append(row)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("gname", ["pair3", "pair2_pair2", "s3", "z3"])
def test_ideal_kernel_matches_dense_rank(gname, p):
    # s3 and z3 include p dividing the group order, where the algebra is
    # not semisimple and generated ideals are not sums of blocks
    ctx = make_context(T.build(gname), "GF(%d)" % p)
    m = ctx.gpd.m
    rnd = random.Random("%s/%d" % (gname, p))
    for _ in range(10):
        gen = {a: rnd.randrange(1, p) for a in rnd.sample(range(m), rnd.randint(1, min(m, 4)))}
        rows = product_rows(ctx.gpd, gen, p)
        rank = dense_rank_mod_p(rows, p)
        ideal = T.ideal_generated(ctx, [T.from_coeffs(ctx, gen)])
        assert ideal.dim == rank
        for _ in range(6):
            if rnd.random() < 0.5:  # a combination of products: inside
                v = [0] * m
                for row in rnd.sample(rows, 3):
                    k = rnd.randrange(p)
                    v = [(x + k * y) % p for x, y in zip(v, row)]
            else:
                v = [rnd.randrange(p) if rnd.random() < 0.4 else 0 for _ in range(m)]
            inside = dense_rank_mod_p(rows + [v], p) == rank
            assert ideal.member(T.from_coeffs(ctx, dict(enumerate(v)))) is inside


# --- the delta-product table against convolve --------------------------------------


def two_sided_pairs(gpd):
    """The arrow pairs (a, b) with delta_a * v * delta_b not always zero,
    in ascending (a, b) order."""
    return [(a, b) for a in range(gpd.m) for b in range(gpd.m)
            if any(gpd.rng[c] == gpd.src[a] and gpd.src[c] == gpd.rng[b] for c in range(gpd.m))]


def convolve_closure_failures(ctx, basis, arrows=None):
    """Where the span of an RREF basis is not closed under delta_a, worked
    out with convolve and reduce_against at each of the given arrows (all
    of them by default): per row, per arrow, left before right."""
    ring = ctx.ring
    for i, row in enumerate(basis):
        f = T.from_vec(ctx, row)
        for a in range(ctx.gpd.m) if arrows is None else arrows:
            d = T.delta(ctx, a)
            for side, prod in (("left", T.convolve(d, f)), ("right", T.convolve(f, d))):
                if any(not ring.is_zero(c) for c in T.reduce_against(ring, basis, T.to_vec(prod))):
                    yield "not closed under %s delta_%d (row %d)" % (side, a, i)


def convolve_closure_message(ctx, basis, arrows=None):
    """The message Ideal raises on a non-closed RREF basis when it checks
    the given arrows; empty when the span is closed under them."""
    return "; ".join(itertools.islice(convolve_closure_failures(ctx, basis, arrows), 3))


def closers(gpd):
    """The arrows Ideal checks closure at: the units and the generators."""
    return sorted(set(gpd.units) | set(T.generating_set(gpd)))


def read_off(ctx, entries, f):
    """The sparse row that a list of (c, target, k) entries reads off f."""
    return {t: ctx.tgrp.scale(k, f.coeffs[c]) for c, t, k in entries if c in f.coeffs}


@pytest.mark.parametrize("ring_spec", ["GF(3)", "GF(5)", "Q(zeta_4)"])
def test_product_table_matches_convolve(ring_spec):
    rnd = random.Random(ring_spec)
    seen = 0
    for ctx in table_contexts(ring_spec, rnd):
        seen += 1
        ring, m = ctx.ring, ctx.gpd.m
        left, right = ctx.regular()
        recipes = S._product_recipes(ctx)
        pairs = two_sided_pairs(ctx.gpd)
        assert len(recipes) == len(pairs)
        f = random_nonzero(ctx, rnd)
        for a in range(m):
            d = T.delta(ctx, a)
            assert read_off(ctx, left[a], f) == T.convolve(d, f).coeffs
            assert read_off(ctx, right[a], f) == T.convolve(f, d).coeffs
        for recipe, (a, b) in zip(recipes, pairs):
            want = T.convolve(T.convolve(T.delta(ctx, a), f), T.delta(ctx, b))
            assert read_off(ctx, recipe, f) == want.coeffs
        basis = T.rref(ring, [T.to_vec(random_nonzero(ctx, rnd)) for _ in range(1 + seen % 2)])
        # the verdict comes from every arrow; a failure is named at the
        # first units and generators that show it
        if convolve_closure_message(ctx, basis):
            with pytest.raises(ValueError) as exc:
                T.Ideal(ctx, basis)
            assert str(exc.value) == convolve_closure_message(ctx, basis, closers(ctx.gpd))
        else:
            assert T.Ideal(ctx, basis).basis == tuple(basis)
    assert seen >= len(T.CATALOG) * 2


# --- closure at the units and generators ------------------------------------------


def closure_contexts(ring_spec, rnd):
    """table_contexts plus pair1 + pair1 and pair1 + z2, where the unit of
    pair1 is no word in the generators; each context is followed by a
    random relabelling of its groupoid, carrying the cocycle along."""
    pair1 = T.build("pair1")
    unions = [T.disjoint_union(pair1, T.build(name)) for name in ("pair1", "z2")]
    for ctx in table_contexts(ring_spec, rnd, extra=unions):
        yield ctx
        perm = list(range(ctx.gpd.m))
        rnd.shuffle(perm)
        h = T.check_groupoid(relabel_groupoid(ctx.gpd, perm))
        table = {(perm[a], perm[b]): k for (a, b), k in ctx.coc.table.items()}
        yield T.Context(h, ctx.ring, ctx.tgrp, T.Cocycle(h, ctx.coc.n, table))


def seeded_spans(ctx, rnd):
    """RREF bases: spans of one to three random elements and of a random
    element on the units, then the left ideal, the right ideal and the
    two-sided ideal of a sparse random element (sparse, so that they are
    often proper)."""
    ring, m = ctx.ring, ctx.gpd.m
    for k in (1, 2, 3):
        yield T.rref(ring, [T.to_vec(random_nonzero(ctx, rnd, 0.3 * k)) for _ in range(k)])
    on_units = T.from_coeffs(ctx, {u: ring.random_element(rnd) for u in ctx.gpd.units})
    yield T.rref(ring, [T.to_vec(on_units)])
    f = random_nonzero(ctx, rnd, 1.5 / m)
    deltas = [T.delta(ctx, a) for a in range(m)]
    yield T.rref(ring, [T.to_vec(T.convolve(d, f)) for d in deltas])
    yield T.rref(ring, [T.to_vec(T.convolve(f, d)) for d in deltas])
    yield list(T.ideal_generated(ctx, [f]).basis)


@pytest.mark.parametrize("ring_spec", ["GF(3)", "GF(5)", "Q(zeta_4)"])
def test_closure_at_units_and_generators_matches_every_arrow(ring_spec):
    """Ideal checks closure at the units and the generators only; the span
    must be accepted exactly when it is closed under delta_a, on both
    sides, at every arrow a."""
    rnd = random.Random("closure/" + ring_spec)
    outcomes = {}
    for ctx in closure_contexts(ring_spec, rnd):
        for basis in seeded_spans(ctx, rnd):
            # the whole algebra is closed; skip its m^3 reductions
            want = len(basis) == ctx.gpd.m or next(convolve_closure_failures(ctx, basis), None) is None
            try:
                T.Ideal(ctx, basis)
                got = True
            except ValueError as exc:
                assert str(exc).startswith("not closed under")
                got = False
            assert got is want, (ctx.gpd, ctx.coc.table, basis)
            outcomes[want] = outcomes.get(want, 0) + 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def test_units_stay_among_the_closers():
    # pair1 + pair1 has no generator, so a generators-only check would
    # accept delta_0 + delta_1, which the unit deltas move out of its span
    pair1 = T.build("pair1")
    ctx = make_context(T.disjoint_union(pair1, pair1), "GF(3)")
    assert T.generating_set(ctx.gpd) == []
    msg = ("not closed under left delta_0 (row 0); not closed under right delta_0 (row 0); "
           "not closed under left delta_1 (row 0)")
    with pytest.raises(ValueError) as exc:
        T.Ideal(ctx, [[1, 1]])
    assert str(exc.value) == msg


@pytest.mark.parametrize("ring_spec", ["GF(3)", "GF(3^2)", "Q", "Q(zeta_4)"])
def test_images_match_convolve_at_every_arm(ring_spec):
    """Oracle for the closure test's support walk: _images(ctx)(v) yields,
    for each closer a ascending and left before right, exactly delta_a * v
    and v * delta_a worked out by convolve, empty images included.  The
    rows are sparse, dense, and one arrow each, which most arms do not
    read; the contexts are closure_contexts' and pair_groupoid(6)'s."""
    rnd = random.Random("images/" + ring_spec)
    ring = T.parse_ring(ring_spec)
    g6 = T.pair_groupoid(6)
    pair6 = [make_context(g6, ring_spec, coc=T.apply_coboundary(T.trivial_cocycle(g6, n), [
        0 if a in g6.unit_set else rnd.randrange(n) for a in range(g6.m)])) for n in (1, 2)]
    empty = 0
    for ctx in itertools.chain(closure_contexts(ring_spec, rnd), pair6):
        m, images = ctx.gpd.m, S._images(ctx)
        # every arrow, nonzero, listed in a shuffled order
        dense = [(a, x if not ring.is_zero(x) else ring.one())
                 for a in rnd.sample(range(m), m) for x in [ring.random_element(rnd)]]
        rows = [random_nonzero(ctx, rnd, 2 / m), random_nonzero(ctx, rnd, 0.5), dict(dense)]
        rows += [{c: dense[0][1]} for c in rnd.sample(range(m), min(m, 4))]
        for v in rows:
            f = T.from_coeffs(ctx, v) if isinstance(v, dict) else v
            want = [(a, side, (T.convolve(d, f) if side == "left" else T.convolve(f, d)).coeffs)
                    for a in closers(ctx.gpd) for d in [T.delta(ctx, a)]
                    for side in ("left", "right")]
            got = list(images(dict(f.coeffs) if v is f else v))
            assert got == want, (ctx.gpd, ctx.coc.table, f.coeffs)
            empty += sum(not w for _, _, w in got)
    assert empty > 1000


def test_closure_check_stops_at_three_violations(monkeypatch):
    calls = []
    remainder = S.Echelon.remainder
    monkeypatch.setattr(S.Echelon, "remainder", lambda self, w: calls.append(1) or remainder(self, w))
    ctx = make_context(T.build("pair4"), "GF(3)")
    # delta_1, delta_2, delta_3: the first row of matrix units off the
    # diagonal.  The closers are the units and the cycle 3, 4, 9, 14; rows 0
    # and 1 each fail first at delta_4 = (2, 1), so the third failure, left
    # delta_4 on row 1, is the 21st one-sided check (16 per row)
    basis = T.rref(GF3, [T.to_vec(T.delta(ctx, a)) for a in (1, 2, 3)])
    with pytest.raises(ValueError) as exc:
        T.Ideal(ctx, basis)
    assert closers(ctx.gpd) == [0, 3, 4, 5, 9, 10, 14, 15]
    assert len(calls) == 21 < 2 * len(closers(ctx.gpd)) * len(basis)
    assert str(exc.value) == convolve_closure_message(ctx, basis, closers(ctx.gpd))
    assert str(exc.value).endswith("right delta_4 (row 0); not closed under left delta_4 (row 1)")


def pinned_ideals():
    """(ctx, f, ideal_generated(ctx, [f])): every catalog groupoid over four
    fields, untwisted and with its shipped cocycles, two seeded generators
    each."""
    for name in T.CATALOG:
        g = T.build(name)
        cocs = [T.trivial_cocycle(g, 1)] + list(T.fixture_cocycles(name).values())
        for spec in ("GF(3)", "GF(5)", "Q", "Q(zeta_4)"):
            for i, coc in enumerate(cocs):
                ctx = make_context(g, spec, coc=coc)
                rnd = random.Random("%s/%s/%d" % (name, spec, i))
                for _ in range(2):
                    f = random_nonzero(ctx, rnd)
                    yield ctx, f, T.ideal_generated(ctx, [f])


def test_generated_ideal_bytes_are_pinned():
    """sha256 over serialize_ideal of every pinned ideal.  A change to the
    row kernel or the closure check must keep these bytes."""
    digest, count = hashlib.sha256(), 0
    for _, _, ideal in pinned_ideals():
        digest.update(("\n".join(T.serialize_ideal(ideal)) + "\n").encode())
        count += 1
    assert count == 136
    assert digest.hexdigest() == "e03ab0f3e010d4b039bf72d2b5b50266a93396b13f880258184e409500711113"


def coboundary_twist(g, n, rnd):
    """A random order-n coboundary on g: pair groupoids have no other
    twists, and it still moves every product by a scalar."""
    b = [0 if a in g.unit_set else rnd.randrange(n) for a in range(g.m)]
    return T.apply_coboundary(T.trivial_cocycle(g, n), b)


def union_cases():
    """(ctx, [f]) on pair1 + pair1 and pair1 + z2, where the unit of pair1
    is no word in the generators."""
    pair1 = T.build("pair1")
    for g, spec in itertools.product([T.disjoint_union(pair1, T.build(name)) for name in ("pair1", "z2")],
                                     ("GF(3)", "Q")):
        ctx = make_context(g, spec)
        rnd = random.Random("union/%d/%s" % (g.m, spec))
        one = ctx.ring.one()
        for f in [T.from_coeffs(ctx, {0: one, 1: one})] + [random_nonzero(ctx, rnd) for _ in range(4)]:
            yield ctx, [f]


def generator_cases():
    """(ctx, generators), each a list of elements handed to one
    ideal_generated call:
    - pair4 + pair3, untwisted and twisted, with generators on one block
      and on two blocks, and several generators in one call;
    - fix3 under each order-2 cocycle, and the actions of s3 on 3 points
      and of z4 on 2 points: their stabilisers are nontrivial, so a unit
      block holds more than one arrow;
    - pair3 under a coboundary twist;
    - s3/GF(3) and z8/GF(2) with generators of coefficient sum zero, whose
      ideals lie in the augmentation ideal and never reach the orbit bound."""
    rnd = random.Random("generator cases")
    g = T.disjoint_union(T.pair_groupoid(4), T.pair_groupoid(3))
    blocks = [range(16), range(16, 25)]
    for spec, coc in [("GF(3)", None), ("Q", None), ("GF(5)", coboundary_twist(g, 4, rnd)),
                      ("Q(zeta_4)", coboundary_twist(g, 4, rnd))]:
        ctx = make_context(g, spec, coc=coc)
        one = ctx.ring.one()
        on = lambda arrows, k: T.from_coeffs(ctx, {a: x if not ctx.ring.is_zero(x) else one
                                                    for a in rnd.sample(arrows, k)
                                                    for x in [ctx.ring.random_element(rnd)]})
        for block in blocks:
            yield ctx, [on(block, 2)]
            yield ctx, [on(block, 1), on(block, 1)]
        yield ctx, [on(blocks[0], 1) + on(blocks[1], 1)]
        yield ctx, [on(blocks[0], 2), on(blocks[1], 3)]
        yield ctx, [random_nonzero(ctx, rnd, 0.3) for _ in range(3)]
    fix3 = T.build("fix3")
    s3_on_3 = T.action_groupoid(T.s3_table(), sorted(itertools.permutations(range(3))))
    z4_on_2 = T.action_groupoid(T.cyclic_group(4), [[x ^ (r % 2) for x in range(2)] for r in range(4)])
    twisted = [(fix3, coc) for coc in T.enumerate_cocycles(fix3, 2)]
    twisted += [(s3_on_3, None), (z4_on_2, None)]
    twisted += [(T.pair_groupoid(3), coboundary_twist(T.pair_groupoid(3), 2, rnd))]
    for (g, coc), spec in itertools.product(twisted, ("GF(3)", "Q")):
        ctx = make_context(g, spec, coc=coc)
        one = ctx.ring.one()
        # the isotropy blocks with more than one arrow; at fix3's fixed point,
        # untwisted, delta_2 + delta_5 spans a proper ideal of its block
        for u in g.units:
            block = [a for a in range(g.m) if g.src[a] == g.rng[a] == u]
            if len(block) > 1:
                yield ctx, [T.from_coeffs(ctx, dict.fromkeys(block, one))]
        yield ctx, [random_nonzero(ctx, rnd, 2 / g.m)]
        yield ctx, [random_nonzero(ctx, rnd, 0.5), random_nonzero(ctx, rnd, 2 / g.m)]
    for name, spec in (("s3", "GF(3)"), ("z8", "GF(2)")):
        ctx = make_context(T.build(name), spec)
        ring, m = ctx.ring, ctx.gpd.m
        for _ in range(6):
            f = random_nonzero(ctx, rnd, 0.5)
            total = functools.reduce(ring.add, f.coeffs.values())
            f = T.from_coeffs(ctx, {**f.coeffs, m - 1: ring.sub(f.value(m - 1), total)})
            if f.coeffs:
                yield ctx, [f]


def test_generated_ideals_match_the_product_span():
    """Oracle for the closure worklist, its unit-block seeding and its stop
    at the orbit bound: each pinned ideal and each ideal of union_cases()
    and generator_cases() has as its basis the RREF of all m^2 products
    delta_a f delta_b over its generators f, worked out with convolve and
    not with Ideal, and holds its generators; the pinned and union ideals
    are also closed under delta_a on both sides at every arrow."""
    walked = [(ctx, [f], ideal) for ctx, f, ideal in pinned_ideals()]
    walked += [(ctx, gens, T.ideal_generated(ctx, gens)) for ctx, gens in union_cases()]
    cases = walked + [(ctx, gens, T.ideal_generated(ctx, gens)) for ctx, gens in generator_cases()]
    short = 0
    for i, (ctx, gens, ideal) in enumerate(cases):
        g = ctx.gpd
        deltas = [T.delta(ctx, a) for a in range(g.m)]
        products = [T.to_vec(T.convolve(T.convolve(da, f), db))
                    for f in gens for da in deltas for db in deltas]
        assert ideal.basis == tuple(T.rref(ctx.ring, products))
        assert all(ideal.member(f) for f in gens)
        # the product span is the ideal, so the basis check implies closure;
        # the convolve walk, a second and independent check that rebuilds
        # the basis per product, runs on the pinned ideals and the unions
        if i < len(walked):
            assert next(convolve_closure_failures(ctx, ideal.basis), None) is None
        # the bound: the arrows whose source lies in an orbit a generator touches
        orbit = {u: orb for orb in T.orbits(g) for u in orb}
        touched = {u for f in gens for a in f.coeffs for u in orbit[g.src[a]]}
        short += ideal.dim < sum(g.src[a] in touched for a in range(g.m))
    # every s3 and z8 case of coefficient sum zero is among those that stop
    # short of the bound
    assert (len(cases), short) == (242, 38)


def test_generation_builds_one_table_and_reduces_nothing(monkeypatch):
    built, closure, reduced = [], [], []
    regular, images, remainder = T.Context.regular, S._images, S.Echelon.remainder
    # a call that finds the context's table empty builds it
    monkeypatch.setattr(T.Context, "regular", lambda ctx: built.append(kept(ctx, regular) is None) or regular(ctx))
    monkeypatch.setattr(S, "_images", lambda ctx: closure.append(kept(ctx, images) is None) or images(ctx))
    monkeypatch.setattr(S.Echelon, "remainder", lambda self, w: reduced.append(1) or remainder(self, w))
    ctx = make_context(T.build("pair2_pair2"), "GF(3)")
    ideal = T.ideal_generated(ctx, [T.delta(ctx, 1)])
    assert 0 < ideal.dim < ctx.gpd.m
    # the closure images are read off the regular table, each built once
    assert (built, closure, len(reduced)) == ([True], [True], 0)
    # a basis handed to Ideal is checked in full, through the kept closure
    # images: a reduction per row, closer and side
    assert T.Ideal(ctx, ideal.basis) == ideal
    assert len(reduced) == ideal.dim * len(closers(ctx.gpd)) * 2
    assert (built, closure) == ([True], [True, False])
    # products and the exhaustive scan read the same regular table
    assert T.convolve(T.delta(ctx, 1), T.one(ctx)) == T.delta(ctx, 1)
    assert T.is_simple(ctx, mode="exhaustive").simple is False
    assert (built, closure) == ([True, False, False], [True, False])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_generation_stops_at_the_orbit_bound(monkeypatch, n):
    """On pair_groupoid(n) the orbit bound B is the whole algebra, and a
    2-sparse generator seeds the worklist with two one-arrow unit blocks:
    the last Echelon.insert is the one that brought the span to dim B, and
    the basis is B's unit rows."""
    sizes, insert = [], S.Echelon.insert

    def counted(self, w):
        grew = insert(self, w)
        sizes.append(len(self.pivots))
        return grew
    monkeypatch.setattr(S.Echelon, "insert", counted)
    g = T.pair_groupoid(n)
    rnd = random.Random("bound/%d" % n)
    for spec in ("GF(3)", "Q"):
        ctx = make_context(g, spec)
        for _ in range(4):
            sizes.clear()
            f = T.from_coeffs(ctx, dict.fromkeys(rnd.sample(range(g.m), 2), ctx.ring.one()))
            ideal = T.ideal_generated(ctx, [f])
            assert ideal.dim == g.m and sizes[-1] == g.m and sizes.count(g.m) == 1
            one, zero = ctx.ring.one(), ctx.ring.zero()
            assert ideal.basis == tuple(tuple(one if i == j else zero for i in range(g.m)) for j in range(g.m))


def test_generating_set_walks_once_per_groupoid(monkeypatch):
    walks, original = [], T.groupoid.generating_set

    def counted(g):
        walks.append(kept(g, T.groupoid._generator_walk) is None)
        return original(g)
    for module in (T.groupoid, S):
        monkeypatch.setattr(module, "generating_set", counted)
    g = unmarked(T.pair_groupoid(3))
    coc = T.check_cocycle(unmarked(T.trivial_cocycle(T.check_groupoid(g), 2)))
    ctx = T.Context(g, GF3, T.unit_subgroup(GF3, 2), coc)
    assert T.ideal_generated(ctx, [T.delta(ctx, 1)]).dim == g.m
    # check_groupoid, check_cocycle and the closure test
    assert walks == [True, False, False]
    # each call hands out a new list, and changing one leaves the cache be
    gens = T.generating_set(g)
    gens.append(0)
    assert T.generating_set(g) == gens[:-1] == list(kept(g, T.groupoid._generator_walk)[1])


# --- ideals ---------------------------------------------------------------------


def test_ideal_rejects_non_closed_span():
    ctx = make_context(T.build("pair2"), "GF(3)")
    with pytest.raises(ValueError):
        T.Ideal(ctx, [T.to_vec(T.delta(ctx, 1))])


@pytest.mark.parametrize(
    "basis",
    [[[2, 2]], [[1, 1], [1, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[0, 0]]],
    ids=["lead-2", "repeated-row", "pivots-descend", "pivot-column-entry", "zero-row"],
)
def test_ideal_rejects_non_rref_basis(basis):
    ctx = make_context(T.build("z2"), "GF(3)")
    with pytest.raises(ValueError, match="^ideal rows are not in reduced row echelon form$"):
        T.Ideal(ctx, basis)
    # the same span, given as its RREF, is accepted
    assert T.Ideal(ctx, T.rref(GF3, basis)).dim == len(T.rref(GF3, basis))


def test_ideal_rejects_rows_of_the_wrong_length():
    ctx = make_context(T.build("z2"), "GF(3)")
    with pytest.raises(ValueError, match="^ideal rows are not in reduced row echelon form$"):
        T.Ideal(ctx, [[1, 0, 0]])


def test_ideal_needs_field():
    ctx = make_context(T.build("pair2"), "Z")
    with pytest.raises(ValueError):
        T.Ideal(ctx, [])


def test_ideal_generated_guards():
    ctx = make_context(T.build("pair2"), "Z")
    with pytest.raises(ValueError, match="^ideals require field coefficients$"):
        T.ideal_generated(ctx, [T.delta(ctx, 1)])
    ctx, other = make_context(T.build("pair2"), "GF(3)"), make_context(T.build("pair2"), "GF(5)")
    with pytest.raises(ValueError, match="^generator lives in a different context$"):
        T.ideal_generated(ctx, [T.delta(ctx, 0), T.delta(other, 1)])


def test_ideal_generated_contains_generators():
    ctx = make_context(T.build("pair2_pair2"), "GF(3)")
    rnd = random.Random(5)
    for _ in range(10):
        f = random_nonzero(ctx, rnd)
        ideal = T.ideal_generated(ctx, [f])
        assert ideal.member(f)
        for a in range(ctx.gpd.m):
            assert ideal.member(T.convolve(T.delta(ctx, a), f))
            assert ideal.member(T.convolve(f, T.delta(ctx, a)))
        assert 0 < ideal.dim <= ctx.gpd.m


@pytest.mark.parametrize("ring_spec", ["GF(3)", "Q"])
def test_generated_ideals_at_growth_sizes_are_their_blocks(ring_spec):
    """On pair_groupoid(16) and pair_groupoid(12) + pair_groupoid(4) the
    ideal of f is the sum of the matrix blocks f touches: its dimension is
    the sum of k^2 over them, and an element is a member exactly when its
    support lies inside them.  Generators are 2-sparse in each block, one
    arrow in each of two blocks, and half dense on the whole groupoid and
    on each block.  Over Q too: seeded from its one-arrow unit blocks, the
    worklist stops at the orbit bound before any Fraction elimination."""
    rnd = random.Random("growth/" + ring_spec)
    for g in (T.pair_groupoid(16), T.disjoint_union(T.pair_groupoid(12), T.pair_groupoid(4))):
        ctx, one = make_context(g, ring_spec), T.parse_ring(ring_spec).one()
        blocks = [[a for a in range(g.m) if g.src[a] in orb] for orb in T.orbits(g)]
        rows = lambda support, k: T.from_coeffs(ctx, dict.fromkeys(rnd.sample(support, k), one))
        parts = [([i], block) for i, block in enumerate(blocks)]
        if len(blocks) > 1:
            parts.append((range(len(blocks)), range(g.m)))
        gens = [(touched, rows(support, 2)) for touched, support in parts[:len(blocks)]]
        gens += [(touched, rows(support, len(support) // 2))
                 for touched, support in parts]
        if len(blocks) > 1:
            gens.append((range(len(blocks)), rows(blocks[0], 1) + rows(blocks[1], 1)))
        for touched, f in gens:
            inside = [a for i in touched for a in blocks[i]]
            assert set(f.coeffs) <= set(inside)
            ideal = T.ideal_generated(ctx, [f])
            assert ideal.dim == sum(len(blocks[i]) for i in touched)
            for support in (inside, range(g.m)):
                for _ in range(3):
                    h = rows(support, 2)
                    assert ideal.member(h) is (set(h.coeffs) <= set(inside))


def test_ideal_generated_full_on_minimal_effective():
    ctx = make_context(T.build("pair3"), "GF(2)")
    ideal = T.ideal_generated(ctx, [T.delta(ctx, 0)])
    assert ideal.dim == ctx.gpd.m


def test_ideal_membership_is_span_membership():
    ctx = make_context(T.build("z2"), "GF(3)")
    # span of delta_0 + delta_1, an ideal since the cocycle is trivial
    ideal = T.Ideal(ctx, T.rref(GF3, [[1, 1]]))
    assert ideal.member(T.from_coeffs(ctx, {0: 2, 1: 2}))
    assert not ideal.member(T.delta(ctx, 0))


def test_zero_and_full_ideal():
    ctx = make_context(T.build("pair2"), "GF(2)")
    zero = T.Ideal(ctx, [])
    assert zero.dim == 0
    assert zero.member(T.zero(ctx))
    assert not zero.member(T.one(ctx))
    full = T.ideal_generated(ctx, [T.one(ctx)])
    assert full.dim == 4


# --- witnesses -------------------------------------------------------------------


def test_ck_witness_lands_in_ideal():
    ctx = make_context(T.build("pair2_pair2"), "GF(3)")
    rnd = random.Random(77)
    for _ in range(10):
        ideal = T.ideal_generated(ctx, [random_nonzero(ctx, rnd)])
        witness = T.ck_witness(ctx, ideal)
        assert witness
        assert witness <= set(ctx.gpd.units)
        assert ideal.member(T.char_fn(ctx, witness))


def test_ck_witness_twisted():
    ctx = make_context(T.build("z4"), "Q(zeta_4)", coc=carry_cocycle(4))
    # z4 is a group with one unit, not effective: the plain witness refuses
    with pytest.raises(ValueError):
        T.ck_witness(ctx, T.ideal_generated(ctx, [T.one(ctx)]))


def test_ck_witness_rejects_zero_ideal():
    ctx = make_context(T.build("pair2"), "GF(3)")
    with pytest.raises(ValueError):
        T.ck_witness(ctx, T.Ideal(ctx, []))


# --- graded ideals ----------------------------------------------------------------


def z2_span_grading():
    ctx = make_context(T.build("z2"), "GF(3)")
    grading = T.Grading(ctx.gpd, T.cyclic_group(2), [0, 1])
    return ctx, grading


def test_is_graded_ideal_negative():
    ctx, grading = z2_span_grading()
    ideal = T.Ideal(ctx, T.rref(GF3, [[1, 1]]))
    assert not T.is_graded_ideal(ideal, grading)


def test_is_graded_ideal_positive():
    ctx, grading = z2_span_grading()
    full = T.Ideal(ctx, T.rref(GF3, [[1, 0], [0, 1]]))
    assert T.is_graded_ideal(full, grading)
    assert T.is_graded_ideal(T.Ideal(ctx, []), grading)


def test_graded_ck_witness_on_group_grading():
    # the groupoid itself is not effective, but the identity-degree part is
    ctx = make_context(T.build("z4"), "Q(zeta_4)", coc=carry_cocycle(4))
    grading = T.Grading(ctx.gpd, T.cyclic_group(4), [0, 1, 2, 3])
    ideal = T.ideal_generated(ctx, [T.delta(ctx, 2)])
    witness = T.graded_ck_witness(ctx, grading, ideal)
    assert witness == frozenset([0])
    assert ideal.member(T.char_fn(ctx, witness))


def test_graded_ck_witness_rejects_non_graded_ideal():
    ctx, grading = z2_span_grading()
    ideal = T.Ideal(ctx, T.rref(GF3, [[1, 1]]))
    with pytest.raises(ValueError):
        T.graded_ck_witness(ctx, grading, ideal)


def test_graded_ck_witness_rejects_foreign_and_zero_ideals():
    ctx, grading = z2_span_grading()
    other = make_context(T.build("z2"), "GF(5)")
    with pytest.raises(ValueError, match="^ideal lives in a different context$"):
        T.graded_ck_witness(ctx, grading, T.Ideal(other, [[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="^zero ideal has no witness$"):
        T.graded_ck_witness(ctx, grading, T.Ideal(ctx, []))


def test_graded_ck_witness_rejects_ineffective_kernel():
    ctx = make_context(T.build("z2"), "GF(3)")
    grading = T.Grading(ctx.gpd, T.cyclic_group(1), [0, 0])
    ideal = T.Ideal(ctx, T.rref(GF3, [[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        T.graded_ck_witness(ctx, grading, ideal)


def test_witness_guards_survive_optimization(monkeypatch):
    # the guards raise, so that python -O keeps them
    ctx = make_context(T.build("pair2"), "GF(3)")
    ideal = T.ideal_generated(ctx, [T.delta(ctx, 1)])
    # delta_1 has no support on arrow 0, so nothing slides onto its unit
    with pytest.raises(RuntimeError, match="^arrow 0 did not slide onto its source unit 0$"):
        S._slide_witness(ideal, T.delta(ctx, 1), 0)

    ctx = make_context(T.build("z4"), "Q(zeta_4)", coc=carry_cocycle(4))
    grading = T.Grading(ctx.gpd, T.cyclic_group(4), [0, 1, 2, 3])
    ideal = T.ideal_generated(ctx, [T.delta(ctx, 2)])
    slide = S._slide_witness
    monkeypatch.setattr(S, "_slide_witness", lambda *args: (slide(*args)[0], T.delta(ctx, 1)))
    with pytest.raises(RuntimeError, match="^slid component left the identity-degree subalgebra$"):
        T.graded_ck_witness(ctx, grading, ideal)


# --- simplicity --------------------------------------------------------------------


def test_structural_verdicts():
    assert T.is_simple(make_context(T.build("pair2"), "Q")).simple is True
    assert T.is_simple(make_context(T.build("z2"), "GF(3)")).simple is None
    res = T.is_simple(make_context(T.build("pair2_pair2"), "GF(3)"))
    assert res.simple is False
    assert 0 < res.certificate.dim < 8


def test_structural_certificate_is_proper_invariant_ideal():
    ctx = make_context(T.build("pair2_pair2"), "GF(3)")
    res = T.is_simple(ctx)
    ideal = res.certificate
    # re-verify closure through the public constructor
    T.Ideal(ctx, ideal.basis)
    assert not ideal.member(T.one(ctx))
    assert ideal.member(T.delta(ctx, 1))


def manual_simple_scan(ctx):
    """Oracle: generate the ideal of every nonzero element directly."""
    m = ctx.gpd.m
    import itertools

    for coeffs in itertools.product(ctx.ring.elements(), repeat=m):
        f = T.from_coeffs(ctx, dict(enumerate(coeffs)))
        if not f.coeffs:
            continue
        if T.ideal_generated(ctx, [f]).dim < m:
            return False, f
    return True, None


@pytest.mark.parametrize(
    "gname,ring_spec",
    [("pair2", "GF(2)"), ("z2", "GF(2)"), ("pair2", "GF(3)"), ("z2", "GF(3)")],
)
def test_exhaustive_matches_manual_scan(gname, ring_spec):
    ctx = make_context(T.build(gname), ring_spec)
    want, cert = manual_simple_scan(ctx)
    res = T.is_simple(ctx, mode="exhaustive")
    assert res.simple is want
    if not want:
        assert T.ideal_generated(ctx, [res.certificate]).dim < ctx.gpd.m


def klein_form_cocycle(mat):
    """The bilinear form x^T mat y on (Z/2)^2 as an order-2 cocycle on the
    Klein group, whose arrow i has bits (i & 1, i >> 1); its algebra is
    simple exactly when mat01 != mat10."""
    g = T.build("klein")
    assert all(g.comp[(x, y)] == x ^ y for x in range(4) for y in range(4))
    bits = lambda x: (x & 1, x >> 1)
    return T.Cocycle(g, 2, {(x, y): sum(mat[i][j] * bits(x)[i] * bits(y)[j]
                                        for i in range(2) for j in range(2))
                            for x in range(4) for y in range(4)})


def group_contexts(ring_spec, rnd):
    """Twisted group algebras past table_contexts' size bound, where the
    unit-orbit skip does most: Klein with a nondegenerate and a degenerate
    bilinear form, each also moved by a seeded coboundary, and z4 with each
    enumerated cocycle of order 2 and 4 that the ring has units for; none
    in characteristic 2, which has no unit of order 2."""
    ring = T.parse_ring(ring_spec)
    if (ring.size - 1) % 2:
        return
    for mat in (((0, 1), (0, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 0))):
        coc = klein_form_cocycle(mat)
        b = [0] + [rnd.randrange(2) for _ in range(3)]
        for c in (coc, T.apply_coboundary(coc, b)):
            yield T.Context(c.gpd, ring, T.unit_subgroup(ring, 2), c)
    z4 = T.build("z4")
    for n in (2, 4):
        if (ring.size - 1) % n == 0:
            for coc in T.enumerate_cocycles(z4, n)[1:]:
                yield T.Context(z4, ring, T.unit_subgroup(ring, n), coc)


def plain_scan(ctx):
    """Oracle for the skipped lead groups: every candidate (leading
    coefficient the least nonzero element) in lexicographic order, each
    with a full rank check.  (verdict, first failing vector or None)"""
    ring, m = ctx.ring, ctx.gpd.m
    recipes = S._product_recipes(ctx)
    lead = next(e for e in ring.elements() if not ring.is_zero(e))
    for vec in itertools.product(ring.elements(), repeat=m):
        if next((c for c in vec if not ring.is_zero(c)), None) != lead:
            continue
        if not S._generates_everything(ctx.tgrp, m, S._sparse(ring, vec), recipes):
            return False, list(vec)
    return True, None


@pytest.mark.parametrize("ring_spec", ["GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^2)", "GF(3^2)"])
def test_exhaustive_scan_matches_plain_scan(ring_spec):
    verdicts, rnd = set(), random.Random(ring_spec)
    for ctx in itertools.chain(table_contexts(ring_spec, rnd, (2, 3, 4), 2 ** 12),
                               group_contexts(ring_spec, rnd)):
        res = T.is_simple(ctx, mode="exhaustive")
        want, cert = plain_scan(ctx)
        assert res.simple is want
        assert (res.certificate and T.to_vec(res.certificate)) == cert
        verdicts.add(want)
    assert verdicts == {True, False}


def test_orbit_is_the_normalized_two_sided_translates():
    """On a group every delta_a v delta_b, scaled to v's lead, generates the
    ideal v does: _orbit against convolve and ideal_generated."""
    rnd = random.Random("orbits")
    for ctx in group_contexts("GF(5)", rnd):
        ring, m = ctx.ring, ctx.gpd.m
        recipes = S._product_recipes(ctx)
        elems = list(ring.elements())
        digit = {e: i for i, e in enumerate(elems)}
        place = [len(elems) ** (m - 1 - i) for i in range(m)]
        decode = lambda code: [elems[code // p % len(elems)] for p in place]
        for _ in range(3):
            v = random_nonzero(ctx, rnd)
            lead = v.coeffs[min(v.coeffs)]
            want = set()
            for a in range(m):
                for b in range(m):
                    w = T.convolve(T.convolve(T.delta(ctx, a), v), T.delta(ctx, b))
                    s = ring.mul(lead, ring.inv(w.coeffs[min(w.coeffs)]))
                    want.add(tuple(T.to_vec(T.scale(s, w))))
            got = [tuple(decode(code)) for code in S._orbit(ctx.tgrp, place, digit, v.coeffs, recipes)]
            assert sorted(got) == sorted(want)
            ideal = T.ideal_generated(ctx, [v])
            assert all(T.ideal_generated(ctx, [T.from_vec(ctx, u)]) == ideal for u in want)


def ring_orbit(tgrp, place, digit, vec, recipes) -> set:
    """Oracle for _orbit's discrete-log route: the same codes by ring
    arithmetic, every translate multiplied out and rescaled to vec's lead
    with ring.mul and ring.inv."""
    ring, powers = tgrp.ring, tgrp.powers
    v = {c: x for c, x in enumerate(vec) if not ring.is_zero(x)}
    lead = v[min(v)]
    out = set()
    for recipe in recipes:
        w = {t: ring.mul(powers[k], v[c]) for c, t, k in recipe if c in v}
        if w:
            s = ring.mul(lead, ring.inv(w[min(w)]))
            out.add(sum(digit[ring.mul(s, x)] * place[t] for t, x in w.items()))
    return out


GROUPS = ("z2", "z3", "z4", "z8", "klein", "s3")


@pytest.mark.parametrize("ring_spec", ["GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^2)", "GF(3^2)"])
def test_orbit_matches_ring_arithmetic(ring_spec):
    """Every catalog group with more than one arrow, untwisted, and the
    twisted group algebras of group_contexts, on random vectors."""
    assert GROUPS == tuple(name for name in T.CATALOG
                           if len(T.build(name).units) == 1 and T.build(name).m > 1)
    rnd = random.Random("log orbits " + ring_spec)
    untwisted = (make_context(T.build(name), ring_spec) for name in GROUPS)
    for ctx in itertools.chain(untwisted, group_contexts(ring_spec, rnd)):
        m, recipes = ctx.gpd.m, S._product_recipes(ctx)
        digit = {e: i for i, e in enumerate(ctx.ring.elements())}
        place = [len(digit) ** (m - 1 - i) for i in range(m)]
        for _ in range(4):
            vec = T.to_vec(random_nonzero(ctx, rnd))
            got = S._orbit(ctx.tgrp, place, digit, S._sparse(ctx.ring, vec), recipes)
            assert got and got == ring_orbit(ctx.tgrp, place, digit, vec, recipes)


def test_exhaustive_scan_skips_certified_lead_groups(monkeypatch):
    calls = []
    full_check = S._generates_everything
    monkeypatch.setattr(S, "_generates_everything", lambda *args: calls.append(1) or full_check(*args))
    pair4 = make_context(T.build("pair4"), "GF(2)")
    assert T.is_simple(pair4, mode="exhaustive").simple is True
    assert 0 < len(calls) <= pair4.gpd.m
    # a group algebra has no one-entry recipe, but its unit orbits: of the
    # (3^2 - 1) / 2 candidates delta_0 lies in delta_1's orbit and
    # 1 + 2 delta_1 in that of 1 + delta_1
    calls.clear()
    z2_neg = make_context(T.build("z2"), "GF(3)", coc=T.z2_neg_cocycle())
    assert T.is_simple(z2_neg, mode="exhaustive").simple is True
    assert len(calls) == 2
    # a nondegenerate Klein twist over GF(3^2): 70 of the 820 candidates
    calls.clear()
    klein = make_context(T.build("klein"), "GF(3^2)", coc=klein_form_cocycle(((0, 1), (0, 0))))
    assert T.is_simple(klein, mode="exhaustive").simple is True
    assert len(calls) == 70
    # the same twist over prime fields, the sign twist over GF(7), and two
    # matrix algebras whose first rank scan certifies every lead group
    for gpd, ring_spec, coc, scans in (
            (T.build("klein"), "GF(3)", klein.coc, 7),
            (T.build("klein"), "GF(5)", klein.coc, 21),
            (T.build("klein"), "GF(7)", klein.coc, 34),
            (T.build("z2"), "GF(7)", T.z2_neg_cocycle(), 4),
            (T.build("pair3"), "GF(3)", None, 1),
            (T.build("swap2"), "GF(5)", None, 1)):
        calls.clear()
        assert T.is_simple(make_context(gpd, ring_spec, coc=coc), mode="exhaustive").simple is True
        assert len(calls) == scans, (ring_spec, scans)


def one_entry_onto_last(gpd):
    """Oracle for the one-entry set, off the composition table: the arrows c
    that are the only arrow from rng b to src a for some (a, b) with
    a c b = m - 1."""
    m, comp = gpd.m, gpd.comp
    out = set()
    for a in range(m):
        for b in range(m):
            hom = [c for c in range(m) if gpd.rng[c] == gpd.src[a] and gpd.src[c] == gpd.rng[b]]
            if len(hom) == 1 and comp[(comp[(a, hom[0])], b)] == m - 1:
                out.add(hom[0])
    return out


@pytest.mark.parametrize("ring_spec", ["GF(2)", "GF(3)", "GF(5)"])
def test_one_entry_cover_is_all_or_nothing(ring_spec):
    """The lemma the scan stops on: whenever the first candidate, lead *
    delta_(m-1), generates the algebra, the arrows with a one-entry recipe
    onto m - 1 are all of them or none, and when none, no recipe has one
    entry.  Every catalog groupoid, untwisted and with up to six
    enumerated order-2 cocycles wherever the ring has units of order 2."""
    ring = T.parse_ring(ring_spec)
    lead = next(e for e in ring.elements() if not ring.is_zero(e))
    seen = set()
    for name in T.CATALOG:
        g = T.build(name)
        cocs = [T.trivial_cocycle(g, 1)]
        if (ring.size - 1) % 2 == 0:
            cocs += T.enumerate_cocycles(g, 2, cap=20000)[1:7]
        onto = one_entry_onto_last(g)
        for coc in cocs:
            ctx = T.Context(g, ring, T.unit_subgroup(ring, coc.n), coc)
            recipes, covers = S._scan_tables(ctx)
            assert covers is (onto == set(range(g.m)))
            if not S._generates_everything(ctx.tgrp, g.m, {g.m - 1: lead}, recipes):
                seen.add("proper part" if onto else "fails")
                continue
            assert covers or not onto, (name, onto)
            assert covers or all(len(rec) > 1 for rec in recipes), name
            seen.add(covers)
    assert {True, False, "proper part"} <= seen


def test_scan_tables_are_built_once_per_context(monkeypatch):
    calls = count_calls(monkeypatch, S, "_product_recipes")
    ctx = make_context(T.build("klein"), "GF(3)", coc=klein_form_cocycle(((0, 1), (0, 0))))
    again = make_context(ctx.gpd, "GF(3)", coc=ctx.coc)
    for _ in range(3):
        assert T.is_simple(ctx, mode="exhaustive").simple is True
    assert T.is_simple(again, mode="exhaustive").simple is True
    assert calls == [ctx, again]


def test_context_fields_bind_once():
    ctx = make_context(T.build("z2"), "GF(3)", coc=T.z2_neg_cocycle())
    with pytest.raises(AttributeError):
        ctx.coc = T.trivial_cocycle(ctx.gpd, 2)
    with pytest.raises(AttributeError):
        del ctx.ring
    with pytest.raises(AttributeError):
        ctx.extra = None
    assert ctx.coc == T.z2_neg_cocycle()


def test_exhaustive_twisted_flip():
    g = T.build("z2")
    plain = make_context(g, "GF(3)")
    twisted = make_context(g, "GF(3)", coc=T.z2_neg_cocycle())
    assert T.is_simple(plain, mode="exhaustive").simple is False
    assert T.is_simple(twisted, mode="exhaustive").simple is True


def test_exhaustive_agrees_with_structural_when_effective():
    for gname in ("pair1", "pair2", "pair3", "swap2", "pair2_pair2"):
        ctx = make_context(T.build(gname), "GF(2)")
        ex = T.is_simple(ctx, mode="exhaustive")
        stru = T.is_simple(ctx)
        assert ex.simple is stru.simple


def test_exhaustive_cap_and_field_guards():
    with pytest.raises(ValueError):
        T.is_simple(make_context(T.build("pair4"), "GF(3)"), mode="exhaustive")
    with pytest.raises(ValueError):
        T.is_simple(make_context(T.build("pair2"), "Q"), mode="exhaustive")
    with pytest.raises(ValueError):
        T.is_simple(make_context(T.build("pair2"), "Z"))
    with pytest.raises(ValueError):
        T.is_simple(make_context(T.build("pair2"), "GF(2)"), mode="sideways")
