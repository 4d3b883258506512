"""Acceptance gate: twelve criteria, exact arithmetic, zero tolerance.

Each test closes with record(n); the terminal summary prints one line per
criterion.  Random data is seeded, so failures reproduce.
"""

import itertools
import random
from fractions import Fraction

import pytest

import twistalg as T
from conftest import all_sections, carry_cocycle, random_element, random_nonzero, record
from twistalg.cli import main as cli_main


# --- shared twisted contexts ----------------------------------------------------


def pair3_cob_cocycle():
    g = T.build("pair3")
    b = [0] * 9
    b[1] = 1
    b[5] = 1
    coc = T.apply_coboundary(T.trivial_cocycle(g, 2), b)
    assert any(coc.table.values())
    return coc


def first_nonzero_cocycle(gname, n):
    for coc in T.enumerate_cocycles(T.build(gname), n):
        if any(coc.table.values()):
            return coc
    raise AssertionError("no nonzero cocycle on %s" % gname)


def make(gname, ring_spec, coc, involution):
    ring = T.parse_ring(ring_spec)
    if coc is None:
        coc = T.trivial_cocycle(T.build(gname), 1)
    tgrp = T.unit_subgroup(ring, coc.n)
    conj = T.parse_involution(ring, involution)
    return T.Context(T.build(gname), ring, tgrp, coc, conj)


def acceptance_contexts():
    """Seven (name, context) pairs spanning the required coefficient rings,
    trivial and nontrivial twists, group and pair and action groupoids."""
    return [
        ("pair2/GF(2)", make("pair2", "GF(2)", None, "id")),
        ("z2/GF(3)", make("z2", "GF(3)", T.z2_neg_cocycle(), "id")),
        ("pair2/Q", make("pair2", "Q", T.pair2_coboundary_cocycle(), "id")),
        ("z4/Q(zeta_4)", make("z4", "Q(zeta_4)", carry_cocycle(4), "conj")),
        ("pair3/GF(3)", make("pair3", "GF(3)", pair3_cob_cocycle(), "id")),
        ("swap2/GF(3^2)", make("swap2", "GF(3^2)", first_nonzero_cocycle("swap2", 4), "frobenius")),
        ("z3/Z", make("z3", "Z", first_nonzero_cocycle("z3", 2), "id")),
    ]


CTXS = acceptance_contexts()


# --- 1: groupoid axioms -----------------------------------------------------------


def test_criterion_01_groupoid_axioms():
    assert len(T.CATALOG) == 13
    for name in T.CATALOG:
        g = T.build(name)
        assert T.validate_groupoid(g) == [], name
        # the associativity walk really is exhaustive over composable triples
        triples = list(T.composable_triples(g))
        assert len(triples) > 0
        for (a, b, c) in triples:
            assert g.comp[(g.comp[(a, b)], c)] == g.comp[(a, g.comp[(b, c)])]
    record(1)


# --- 2: algebra laws ---------------------------------------------------------------


def test_criterion_02_convolution_and_star_laws():
    rings_seen = set()
    triples = 0
    star_pairs = 0
    for name, ctx in CTXS:
        rings_seen.add(ctx.ring.kind)
        rnd = random.Random("laws:" + name)
        for _ in range(150):
            f = random_element(ctx, rnd)
            g = random_element(ctx, rnd)
            h = random_element(ctx, rnd)
            assert T.convolve(T.convolve(f, g), h) == T.convolve(f, T.convolve(g, h))
            triples += 1
        for _ in range(75):
            f = random_element(ctx, rnd)
            g = random_element(ctx, rnd)
            assert T.involute(T.convolve(f, g)) == T.convolve(T.involute(g), T.involute(f))
            assert T.involute(T.involute(f)) == f
            star_pairs += 1
    assert triples >= 1000
    assert star_pairs >= 500
    assert len(CTXS) >= 6
    assert {("GF", 2), ("GF", 3), ("Q",), ("CYC", 4), ("GF2", 3), ("Z",)} <= rings_seen
    record(2)


# --- 3: indicator identities over every bisection -----------------------------------


def indicator_suite(ctx):
    g = ctx.gpd
    n = ctx.coc.n
    emb = ctx.tgrp.embed
    bis = T.enumerate_bisections(g)
    assert frozenset() in bis
    for B in bis:
        fB = T.char_fn(ctx, B)
        fBs = T.involute(fB)
        # (c) star of an indicator: inverse twist value on the inverse bisection
        Binv = T.bisection_inverse(g, B)
        for arrow in range(g.m):
            if arrow in Binv:
                k = ctx.coc.table[(arrow, g.inv[arrow])]
                assert fBs.value(arrow) == emb((n - k) % n)
            else:
                assert ctx.ring.is_zero(fBs.value(arrow))
        # (d) range and source projections
        rB = T.char_fn(ctx, {g.rng[a] for a in B})
        sB = T.char_fn(ctx, {g.src[a] for a in B})
        assert T.convolve(fB, fBs) == rB
        assert T.convolve(fBs, fB) == sB
        # (e) both triple products collapse
        assert T.convolve(rB, fB) == fB
        assert T.convolve(T.convolve(fB, fBs), fB) == fB
        assert T.convolve(T.convolve(fBs, fB), fBs) == fBs
    for B in bis:
        fB = T.char_fn(ctx, B)
        for D in bis:
            fD = T.char_fn(ctx, D)
            prod = T.convolve(fB, fD)
            # (a) the product reads off the twist on unique factorizations
            expected = {}
            for alpha in B:
                for beta in D:
                    if (alpha, beta) in g.comp:
                        expected[g.comp[(alpha, beta)]] = emb(ctx.coc.table[(alpha, beta)])
            assert dict(prod.coeffs) == expected
            # (b) with a factor inside the units this is the indicator of BD
            if B <= g.unit_set or D <= g.unit_set:
                assert prod == T.char_fn(ctx, T.bisection_product(g, B, D))
    return len(bis)


def test_criterion_03_indicator_identities():
    ctx_pair3 = make("pair3", "GF(3)", pair3_cob_cocycle(), "id")
    ctx_z4 = make("z4", "Q(zeta_4)", carry_cocycle(4), "conj")
    assert any(ctx_pair3.coc.table.values())
    assert any(ctx_z4.coc.table.values())
    assert indicator_suite(ctx_pair3) == 34
    assert indicator_suite(ctx_z4) == 5
    record(3)


# --- 4: cohomologous = isomorphic twists = matching induced cocycles ------------------


def loop_order(g, a):
    p = a
    k = 1
    while p not in g.unit_set:
        p = g.comp[(p, a)]
        k += 1
    return k


def test_criterion_04_three_way_equivalence():
    class_counts = {}
    for name in ("z2", "pair2"):
        g = T.build(name)
        cocs = T.enumerate_cocycles(g, 2)
        assert len(cocs) == 2
        twists = [T.build_twist(g, c) for c in cocs]
        for tw in twists:
            assert T.validate_twist(tw) == []
        reps = []
        for i, x in enumerate(cocs):
            for j, y in enumerate(cocs):
                b = T.check_cohomologous(x, y)
                bb = T.brute_force_cohomologous(x, y)
                assert (b is None) == (bb is None)
                if b is not None:
                    assert T.apply_coboundary(y, b) == x
                    assert T.apply_coboundary(y, bb) == x
                mor = T.twists_isomorphic(twists[i], twists[j])
                assert (mor is not None) == (b is not None)
                if mor is not None:
                    assert T.validate_twist_morphism(mor) == []
                # induced leg: sections of the x-twist reach y exactly when x ~ y
                induced = [
                    T.induced_cocycle(twists[i], s) for s in all_sections(twists[i])
                ]
                reach = any(T.check_cohomologous(c2, y) is not None for c2 in induced)
                assert reach == (b is not None)
            if not any(T.check_cohomologous(x, cocs[r]) is not None for r in reps):
                reps.append(i)
        class_counts[name] = len(reps)
    assert class_counts == {"z2": 2, "pair2": 1}
    # carriers over the order-2 group: split class is the Klein four-group,
    # the other class carries the cyclic group of order 4
    g = T.build("z2")
    triv = T.trivial_cocycle(g, 2)
    orders = {}
    for coc in T.enumerate_cocycles(g, 2):
        tw = T.build_twist(g, coc)
        key = "split" if T.check_cohomologous(coc, triv) is not None else "nonsplit"
        orders[key] = max(loop_order(tw.total, e) for e in range(tw.total.m))
    assert orders == {"split": 2, "nonsplit": 4}
    record(4)


# --- 5: section machinery --------------------------------------------------------------


def test_criterion_05_sections():
    cases = []
    for name in ("z2", "pair2"):
        g = T.build(name)
        cases.extend((g, c) for c in T.enumerate_cocycles(g, 2))
    cases.append((T.build("z4"), carry_cocycle(4)))
    for coc in T.enumerate_cocycles(T.build("swap2"), 2):
        cases.append((T.build("swap2"), coc))
    checked = 0
    for g, coc in cases:
        tw = T.build_twist(g, coc)
        canonical = T.find_section(tw)
        assert T.induced_cocycle(tw, canonical) == coc
        for sec in all_sections(tw):
            ind = T.induced_cocycle(tw, sec)
            assert T.validate_cocycle(ind) == []
            assert T.check_cohomologous(ind, coc) is not None
            mor = T.section_iso(tw, sec)
            assert T.validate_twist_morphism(mor) == []
            assert mor.dst == tw
            assert mor.src == T.build_twist(g, ind)
            checked += 1
    # z2 2x2, pair2 2x4, z4 carry 4^3, swap2 2x4
    assert checked == 84
    record(5)


# --- 6: the equivariant picture is an isomorphism ----------------------------------------


def equiv_pair(gname, ring_spec, coc, involution):
    g = T.build(gname)
    tw = T.build_twist(g, coc)
    ring = T.parse_ring(ring_spec)
    tgrp = T.unit_subgroup(ring, coc.n)
    conj = T.parse_involution(ring, involution)
    sec = T.find_section(tw)
    ectx = T.EquivContext(tw, sec, ring, tgrp, conj)
    target = T.Context(g, ring, tgrp, T.invert_cocycle(T.induced_cocycle(tw, sec)), conj)
    assert ectx.ctx == target
    return tw, ectx, target


def test_criterion_06_equivariant_isomorphism():
    for gname, ring_spec, coc in (
        ("z2", "Q", T.z2_neg_cocycle()),
        ("pair2", "GF(3)", T.pair2_coboundary_cocycle()),
    ):
        tw, ectx, target = equiv_pair(gname, ring_spec, coc, "id")
        m = target.gpd.m
        rnd = random.Random("psi:" + gname)

        # bijective: mutually inverse on the delta basis and on random elements
        for a in range(m):
            d = T.delta(target, a)
            assert T.psi(T.psi_inverse(ectx, d), target) == d
        down = {a: tuple(sorted(T.psi_inverse(ectx, T.delta(target, a)).h.items())) for a in range(m)}
        assert len(set(down.values())) == m

        pairs = 0
        for _ in range(200):
            f = T.EquivariantElement(ectx, {a: target.ring.random_element(rnd) for a in range(m)})
            g2 = T.EquivariantElement(ectx, {a: target.ring.random_element(rnd) for a in range(m)})
            assert T.psi_inverse(ectx, T.psi(f, target)) == f
            lhs = T.psi(T.equiv_convolve(f, g2), target)
            assert lhs == T.convolve(T.psi(f, target), T.psi(g2, target))
            assert T.psi(T.equiv_star(f), target) == T.involute(T.psi(f, target))
            pairs += 1
        assert pairs == 200

        # section independence: the same function computed over two sections
        secs = [s for s in all_sections(tw)]
        s1, s2 = secs[0], secs[-1]
        assert tuple(s1) != tuple(s2)
        e1 = T.EquivContext(tw, s1, target.ring, target.tgrp, target.conj)
        e2 = T.EquivContext(tw, s2, target.ring, target.tgrp, target.conj)
        for _ in range(100):
            h1 = {a: target.ring.random_element(rnd) for a in range(m)}
            k1 = {a: target.ring.random_element(rnd) for a in range(m)}
            f1 = T.EquivariantElement(e1, h1)
            g1 = T.EquivariantElement(e1, k1)
            f2 = T.EquivariantElement(e2, {a: f1.value(s2[a]) for a in range(m)})
            g2 = T.EquivariantElement(e2, {a: g1.value(s2[a]) for a in range(m)})
            assert all(f1.value(e) == f2.value(e) for e in range(tw.total.m))
            p1 = T.equiv_convolve(f1, g1)
            p2 = T.equiv_convolve(f2, g2)
            assert all(p1.value(e) == p2.value(e) for e in range(tw.total.m))
    record(6)


# --- 7: witness inside every principal ideal ----------------------------------------------


def test_criterion_07_ck_witness():
    count = 0
    for gname in ("pair3", "swap2"):
        for ring_spec in ("GF(2)", "GF(3)"):
            ctx = make(gname, ring_spec, None, "id")
            rnd = random.Random("ck:%s:%s" % (gname, ring_spec))
            for _ in range(25):
                f = random_nonzero(ctx, rnd)
                ideal = T.ideal_generated(ctx, [f])
                w = T.ck_witness(ctx, ideal)
                assert w and w <= set(ctx.gpd.units)
                assert ideal.member(T.char_fn(ctx, w))
                count += 1
    assert count == 100
    # the same machinery under nontrivial twists
    for ctx in (
        make("pair3", "GF(3)", pair3_cob_cocycle(), "id"),
        make("swap2", "GF(3)", first_nonzero_cocycle("swap2", 2), "id"),
    ):
        rnd = random.Random("ck:twisted")
        for _ in range(10):
            ideal = T.ideal_generated(ctx, [random_nonzero(ctx, rnd)])
            w = T.ck_witness(ctx, ideal)
            assert ideal.member(T.char_fn(ctx, w))
    record(7)


# --- 8: exhaustive simplicity agrees with the structural verdict ---------------------------


def test_criterion_08_simplicity_vs_minimality():
    effective = ["pair1", "pair2", "pair3", "pair4", "swap2", "pair2_pair2"]
    cases = []
    for gname in effective:
        cases.append((gname, "GF(2)", None))
    for gname in effective:
        if gname == "pair4":
            continue  # 3**16 overflows the exhaustive cap
        cases.append((gname, "GF(3)", None))
    cases.append(("pair2", "GF(3)", T.pair2_coboundary_cocycle()))
    cases.append(("pair3", "GF(3)", pair3_cob_cocycle()))
    cases.append(("swap2", "GF(3)", first_nonzero_cocycle("swap2", 2)))

    for gname, ring_spec, coc in cases:
        ctx = make(gname, ring_spec, coc, "id")
        ex = T.is_simple(ctx, mode="exhaustive")
        st = T.is_simple(ctx, mode="structural")
        assert st.simple is not None
        assert ex.simple is st.simple, (gname, ring_spec, ex.reason, st.reason)
        assert ex.simple is (gname != "pair2_pair2")
        if gname == "pair2_pair2":
            # structural certificate: the span of arrows over one invariant orbit
            ideal = st.certificate
            orbit = set(T.orbits(ctx.gpd)[0])
            rows = [
                T.to_vec(T.delta(ctx, a))
                for a in range(ctx.gpd.m)
                if ctx.gpd.src[a] in orbit
            ]
            assert ideal.basis == tuple(T.rref(ctx.ring, rows))
            assert 0 < ideal.dim < ctx.gpd.m
            assert not ideal.member(T.one(ctx))
            T.Ideal(ctx, ideal.basis)  # closure re-verified
            # exhaustive certificate: an explicit non-generating element
            gen = T.ideal_generated(ctx, [ex.certificate])
            assert 0 < gen.dim < ctx.gpd.m
    record(8)


# --- 9: the twist flips simplicity on the order-2 group -------------------------------------


def test_criterion_09_group_algebra_flip():
    g = T.build("z2")
    ring = T.parse_ring("GF(3)")
    outcomes = {}
    for label, coc in (("plain", T.trivial_cocycle(g, 2)), ("twisted", T.z2_neg_cocycle())):
        ctx = T.Context(g, ring, T.unit_subgroup(ring, 2), coc)
        assert ctx.coc_val(1, 1) == (1 if label == "plain" else 2)
        scanned = 0
        failing = []
        for coeffs in itertools.product(ring.elements(), repeat=2):
            scanned += 1
            f = T.from_coeffs(ctx, dict(enumerate(coeffs)))
            if not f.coeffs:
                continue
            if T.ideal_generated(ctx, [f]).dim < 2:
                failing.append(coeffs)
        assert scanned == 9
        outcomes[label] = failing
        verdict = T.is_simple(ctx, mode="exhaustive")
        assert verdict.simple is (not failing)
    # plain group algebra splits: exactly the multiples of delta_e +/- delta_g fail
    assert outcomes["plain"] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert outcomes["twisted"] == []
    record(9)


# --- 10: gradings ------------------------------------------------------------------------


def pair3_grading(g):
    d = [0, 1, 1]
    deg = [(d[a // 3] - d[a % 3]) % 2 for a in range(9)]
    return T.Grading(g, T.cyclic_group(2), deg)


def union_grading(g):
    deg = [0, 1, 1, 0, 0, 1, 1, 0]
    return T.Grading(g, T.cyclic_group(2), deg)


def test_criterion_10_gradings():
    ctx_z4 = make("z4", "Q(zeta_4)", carry_cocycle(4), "conj")
    grd_z4 = T.Grading(ctx_z4.gpd, T.cyclic_group(4), [0, 1, 2, 3])
    ctx_p3 = make("pair3", "GF(3)", pair3_cob_cocycle(), "id")
    grd_p3 = pair3_grading(ctx_p3.gpd)
    for grd in (grd_z4, grd_p3):
        assert T.validate_grading(grd) == []

    for ctx, grd, seed in ((ctx_z4, grd_z4, "z4"), (ctx_p3, grd_p3, "p3")):
        rnd = random.Random("grade:" + seed)
        grp = grd.group
        for _ in range(25):
            f = random_nonzero(ctx, rnd)
            g2 = random_nonzero(ctx, rnd)
            comps_f = T.graded_components(f, grd)
            total = T.zero(ctx)
            for label, part in comps_f.items():
                assert all(grd.deg[a] == label for a in part.support())
                total = total + part
            assert total == f
            for lf, pf in comps_f.items():
                for lg, pg in T.graded_components(g2, grd).items():
                    prod = T.convolve(pf, pg)
                    lab = grp.op(lf, lg)
                    assert all(grd.deg[a] == lab for a in prod.support())

    # fifty random nonzero graded ideals with an effective identity-degree part
    witnessed = 0
    ctx_union = make("pair2_pair2", "GF(3)", None, "id")
    grd_union = union_grading(ctx_union.gpd)
    assert T.validate_grading(grd_union) == []
    jobs = [(ctx_z4, grd_z4, 15), (ctx_p3, grd_p3, 15), (ctx_union, grd_union, 20)]
    for ctx, grd, reps in jobs:
        kernel, _ = T.subgroupoid(ctx.gpd, T.kernel_arrows(grd))
        assert T.is_effective(kernel)
        rnd = random.Random("gradedwitness")
        labels = sorted(set(grd.deg))
        by_label = {l: [a for a in range(ctx.gpd.m) if grd.deg[a] == l] for l in labels}
        for _ in range(reps):
            label = rnd.choice(labels)
            arrows = by_label[label]
            if ctx is ctx_union and rnd.random() < 0.7:
                block = rnd.choice((range(0, 4), range(4, 8)))
                arrows = [a for a in arrows if a in block]
            coeffs = {}
            while not coeffs:
                coeffs = {
                    a: ctx.ring.random_element(rnd)
                    for a in arrows
                    if rnd.random() < 0.7
                }
                coeffs = {a: c for a, c in coeffs.items() if not ctx.ring.is_zero(c)}
            ideal = T.ideal_generated(ctx, [T.from_coeffs(ctx, coeffs)])
            assert T.is_graded_ideal(ideal, grd)
            w = T.graded_ck_witness(ctx, grd, ideal)
            assert w and w <= set(ctx.gpd.units)
            assert ideal.member(T.char_fn(ctx, w))
            witnessed += 1
    assert witnessed == 50
    record(10)


# --- 11: free module of rank |G| and local units ---------------------------------------------


def test_criterion_11_rank_and_local_units():
    for name, ctx in CTXS:
        m = ctx.gpd.m
        rnd = random.Random("rank:" + name)
        # coefficients are coordinates: the arrow deltas are a basis
        if ctx.ring.is_field:
            rows = [T.to_vec(T.delta(ctx, a)) for a in range(m)]
            assert len(T.rref(ctx.ring, rows)) == m
        for _ in range(20):
            coeffs = {}
            for a in range(m):
                c = ctx.ring.random_element(rnd)
                if not ctx.ring.is_zero(c):
                    coeffs[a] = c
            f = T.from_coeffs(ctx, coeffs)
            assert T.from_vec(ctx, T.to_vec(f)) == f
            assert (f == T.zero(ctx)) == (not coeffs)
            assert dict(f.coeffs) == coeffs
        for size in (1, 2, 3, 4):
            fam = [random_nonzero(ctx, rnd) for _ in range(size)]
            e = T.local_unit(ctx, fam)
            assert T.convolve(e, e) == e
            for f in fam:
                assert T.convolve(e, f) == f
                assert T.convolve(f, e) == f
    record(11)


# --- 12: CLI determinism ------------------------------------------------------------------


def run_cli(capsys, argv):
    code = cli_main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_criterion_12_cli_determinism(tmp_path, capsys):
    fx = tmp_path / "fixtures"
    T.emit_fixtures(str(fx))

    # extra inputs for verbs that need elements, gradings, twists, ideals
    carry = carry_cocycle(4)
    T.write_cocycle(str(fx / "z4_carry.coc"), carry)
    ring_q = T.parse_ring("Q")
    ctx_p3 = T.Context(T.build("pair3"), ring_q, T.unit_subgroup(ring_q, 1),
                       T.trivial_cocycle(T.build("pair3"), 1))
    T.write_element(str(fx / "f9.elt"), T.from_coeffs(
        ctx_p3, {a: Fraction(1 + a % 2) for a in range(9)}))
    (fx / "dg.elt").write_text("element\ncoeff 1 1\n")
    (fx / "gensum.elt").write_text("element\ncoeff 0 1\ncoeff 1 1\n")
    ctx_z4q = T.Context(T.build("z4"), ring_q, T.unit_subgroup(ring_q, 1),
                        T.trivial_cocycle(T.build("z4"), 1))
    T.write_element(str(fx / "f4q.elt"), T.from_coeffs(
        ctx_z4q, {0: Fraction(1), 2: Fraction(-2, 3)}))
    ring_c = T.parse_ring("Q(zeta_4)")
    ctx_z4c = T.Context(T.build("z4"), ring_c, T.unit_subgroup(ring_c, 4), carry,
                        T.parse_involution(ring_c, "conj"))
    T.write_element(str(fx / "f4c.elt"), T.from_coeffs(
        ctx_z4c, {1: ring_c.zeta(), 3: ring_c.one()}))
    (fx / "f2.elt").write_text("element\ncoeff 0 2\ncoeff 1 1\n")
    grd = T.Grading(T.build("z4"), T.cyclic_group(4), [0, 1, 2, 3])
    T.write_grading(str(fx / "z4.grd"), grd)
    ring3 = T.parse_ring("GF(3)")
    ctx_p2 = T.Context(T.build("pair2"), ring3, T.unit_subgroup(ring3, 1),
                       T.trivial_cocycle(T.build("pair2"), 1))
    T.write_ideal(str(fx / "pair2_full.idl"),
                  T.ideal_generated(ctx_p2, [T.delta(ctx_p2, 1)]))
    T.write_ideal(str(fx / "z4_full.idl"),
                  T.ideal_generated(ctx_z4q, [T.delta(ctx_z4q, 2)]))
    code, _, _ = run_cli(capsys, ["twist", "build", str(fx / "z2.gpd"),
                                  str(fx / "z2_neg.coc"), "--out", str(fx / "tneg")])
    assert code == 0
    code, _, _ = run_cli(capsys, ["twist", "build", str(fx / "z2.gpd"),
                                  str(fx / "z2_triv.coc"), "--out", str(fx / "ttriv")])
    assert code == 0
    tneg = str(fx / "tneg" / "twist.twi")
    ttriv = str(fx / "ttriv" / "twist.twi")

    s = str
    commands = [
        ("validate-gpd", ["validate", "groupoid", s(fx / "s3.gpd")], False),
        ("validate-coc", ["validate", "cocycle", s(fx / "z2_neg.coc")], False),
        ("validate-twi", ["validate", "twist", tneg], False),
        ("validate-grd", ["validate", "grading", s(fx / "z4.grd")], False),
        ("orbits", ["orbits", s(fx / "pair2_pair2.gpd")], False),
        ("effective", ["effective", s(fx / "fix3.gpd")], False),
        ("minimal", ["minimal", s(fx / "z4.gpd")], False),
        ("mul", ["mul", "--ring", "GF(3)", "--cocycle", s(fx / "z2_neg.coc"),
                 s(fx / "dg.elt"), s(fx / "dg.elt")], True),
        ("star", ["star", "--ring", "Q(zeta_4)", "--cocycle", s(fx / "z4_carry.coc"),
                  s(fx / "f4c.elt")], True),
        ("decompose", ["decompose", "--groupoid", s(fx / "pair3.gpd"),
                       s(fx / "f9.elt")], True),
        ("cohom-pos", ["cohomologous", s(fx / "pair2_cob.coc"),
                       s(fx / "pair2_triv.coc")], True),
        ("cohom-neg", ["cohomologous", "--method", "brute", s(fx / "z2_neg.coc"),
                       s(fx / "z2_triv.coc")], True),
        ("twist-build", ["twist", "build", s(fx / "z2.gpd"), s(fx / "z2_neg.coc")], True),
        ("twist-iso", ["twist", "iso", tneg, ttriv], True),
        ("twist-section", ["twist", "section", tneg], True),
        ("twist-induced", ["twist", "induced", tneg], True),
        ("psi", ["psi", "--ring", "GF(3)", tneg, s(fx / "f2.elt")], True),
        ("grade", ["grade", "--ring", "Q", s(fx / "z4.grd"), s(fx / "f4q.elt")], True),
        ("ideal-gen", ["ideal", "--ring", "GF(3)", "gen", s(fx / "z2.gpd"),
                       s(fx / "gensum.elt")], True),
        ("ideal-member", ["ideal", "--ring", "GF(3)", "member", s(fx / "z2.gpd"),
                          s(fx / "z2full.idl"), s(fx / "gensum.elt")], False),
        ("ck-witness", ["ck-witness", "--ring", "GF(3)", s(fx / "pair2.gpd"),
                        s(fx / "pair2_full.idl")], False),
        ("graded-witness", ["graded-witness", "--ring", "Q", s(fx / "z4.grd"),
                            s(fx / "z4_full.idl")], False),
        # a true verdict leaves no certificate artifact, so no --out here
        ("simple-ex", ["simple", "--ring", "GF(3)", "--cocycle", s(fx / "z2_neg.coc"),
                       "--mode", "exhaustive", s(fx / "z2.gpd")], False),
        ("simple-st", ["simple", "--ring", "GF(3)", s(fx / "pair2_pair2.gpd")], True),
        ("catalog-list", ["catalog", "list"], False),
        ("catalog-emit", ["catalog", "emit", "z2"], True),
    ]

    # the member command wants an ideal over z2; make it now
    ctx_z2 = T.Context(T.build("z2"), ring3, T.unit_subgroup(ring3, 1),
                       T.trivial_cocycle(T.build("z2"), 1))
    T.write_ideal(str(fx / "z2full.idl"),
                  T.ideal_generated(ctx_z2, [T.read_element(str(fx / "gensum.elt"), ctx_z2)]))

    results = {}
    for run_name in ("a", "b"):
        for cname, argv, has_out in commands:
            full = list(argv)
            outdir = None
            if has_out:
                outdir = tmp_path / run_name / cname
                full += ["--out", str(outdir)]
            code, out, err = run_cli(capsys, full)
            assert code == 0, (cname, err)
            assert err == ""
            files = {}
            if outdir is not None:
                for p in sorted(outdir.iterdir()):
                    files[p.name] = p.read_bytes()
                assert files, cname
            results.setdefault(cname, []).append((out, files))
    for cname, (first, second) in results.items():
        assert first == second, cname

    # spot re-parse: emitted artifacts agree with direct library computation
    a = tmp_path / "a"
    ctx_neg = T.Context(T.build("z2"), ring3, T.unit_subgroup(ring3, 2), T.z2_neg_cocycle())
    dg = T.delta(ctx_neg, 1)
    assert T.read_element(str(a / "mul" / "product.elt"), ctx_neg) == T.convolve(dg, dg)
    tw = T.read_twist(str(a / "twist-build" / "twist.twi"))
    assert tw == T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    assert T.read_cocycle(str(a / "twist-induced" / "induced.coc")) == T.z2_neg_cocycle()
    assert T.read_morphism(str(a / "twist-iso" / "morphism.mor")) is None
    n, m, b = T.read_coboundary(str(a / "cohom-pos" / "coboundary.cob"))
    assert (n, m) == (2, 4)
    assert T.apply_coboundary(T.trivial_cocycle(T.build("pair2"), 2), b) == T.pair2_coboundary_cocycle()
    assert T.read_coboundary(str(a / "cohom-neg" / "coboundary.cob"))[2] is None
    ideal = T.read_ideal(str(a / "ideal-gen" / "ideal.idl"), ctx_z2)
    assert ideal == T.ideal_generated(ctx_z2, [T.read_element(str(fx / "gensum.elt"), ctx_z2)])
    parts = T.read_decomposition(str(a / "decompose" / "parts.dec"), ring_q)
    f9 = T.read_element(str(fx / "f9.elt"), ctx_p3)
    assert parts == T.disjoint_decomposition(f9)
    cert = T.read_ideal(str(a / "simple-st" / "certificate.idl"),
                        T.Context(T.build("pair2_pair2"), ring3,
                                  T.unit_subgroup(ring3, 1),
                                  T.trivial_cocycle(T.build("pair2_pair2"), 1)))
    assert 0 < cert.dim < 8
    record(12)
