"""Row reduction, ideals, unit-set witnesses, and the simplicity scan."""

import random
from fractions import Fraction

import pytest

import twistalg as T
from conftest import carry_cocycle, make_context, random_nonzero

GF2 = T.parse_ring("GF(2)")
GF3 = T.parse_ring("GF(3)")


def test_vec_round_trip():
    ctx = make_context(T.build("pair2"), "Q")
    f = T.from_coeffs(ctx, {1: Fraction(3, 2), 3: Fraction(-1)})
    assert T.from_vec(ctx, T.to_vec(f)) == f
    assert T.to_vec(f) == [Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1)]


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


# --- ideals ---------------------------------------------------------------------


def test_ideal_rejects_non_closed_span():
    ctx = make_context(T.build("pair2"), "GF(3)")
    with pytest.raises(ValueError):
        T.Ideal(ctx, [T.to_vec(T.delta(ctx, 1))])


def test_ideal_needs_field():
    ctx = make_context(T.build("pair2"), "Z")
    with pytest.raises(ValueError):
        T.Ideal(ctx, [])


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


def test_graded_ck_witness_rejects_ineffective_kernel():
    ctx = make_context(T.build("z2"), "GF(3)")
    grading = T.Grading(ctx.gpd, T.cyclic_group(1), [0, 0])
    ideal = T.Ideal(ctx, T.rref(GF3, [[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
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
