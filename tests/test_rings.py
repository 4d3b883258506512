"""Coefficient rings: exact arithmetic, literals, unit subgroups, involutions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistalg as T

RINGS = {
    "Z": T.parse_ring("Z"),
    "Q": T.parse_ring("Q"),
    "GF(2)": T.parse_ring("GF(2)"),
    "GF(3)": T.parse_ring("GF(3)"),
    "GF(5)": T.parse_ring("GF(5)"),
    "GF(2^2)": T.parse_ring("GF(2^2)"),
    "GF(3^2)": T.parse_ring("GF(3^2)"),
    "Q(zeta_4)": T.parse_ring("Q(zeta_4)"),
    "Q(zeta_8)": T.parse_ring("Q(zeta_8)"),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_axioms_random(name):
    r = RINGS[name]
    rnd = random.Random(b"axioms" + name.encode())
    for _ in range(60):
        x, y, z = (r.random_element(rnd) for _ in range(3))
        assert r.add(r.add(x, y), z) == r.add(x, r.add(y, z))
        assert r.mul(r.mul(x, y), z) == r.mul(x, r.mul(y, z))
        assert r.mul(x, r.add(y, z)) == r.add(r.mul(x, y), r.mul(x, z))
        assert r.add(x, r.neg(x)) == r.zero()
        assert r.mul(x, r.one()) == x
        if r.is_field and not r.is_zero(x):
            assert r.mul(x, r.inv(x)) == r.one()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_literal_round_trip(name):
    r = RINGS[name]
    rnd = random.Random(b"fmt" + name.encode())
    for _ in range(80):
        x = r.random_element(rnd)
        text = r.fmt(x)
        assert " " not in text
        assert r.parse(text) == x


def test_rational_literals():
    q = RINGS["Q"]
    assert q.parse("-3/2") == Fraction(-3, 2)
    assert q.fmt(Fraction(7, 3)) == "7/3"
    with pytest.raises(ValueError):
        q.parse("1/0")


def test_cyclotomic_literals_and_conj():
    c = RINGS["Q(zeta_4)"]
    z = c.parse("zeta")
    assert c.mul(z, z) == c.parse("-1")
    assert c.parse("1+2*zeta") == c.add(c.one(), c.mul(c.parse("2"), z))
    conj = T.parse_involution(c, "conj")
    assert conj(z) == c.inv(z)
    # conj is an automorphism of order two
    rnd = random.Random(20)
    for _ in range(30):
        x, y = c.random_element(rnd), c.random_element(rnd)
        assert conj(conj(x)) == x
        assert conj(c.mul(x, y)) == c.mul(conj(x), conj(y))


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_cyclotomic_generator_order(n):
    c = T.CyclotomicField(n)
    z = c.zeta()
    cur = c.one()
    for _ in range(n):
        cur = c.mul(cur, z)
    assert cur == c.one()
    if n > 1:
        powers = set()
        cur = c.one()
        for _ in range(n):
            powers.add(tuple(cur))
            cur = c.mul(cur, z)
        assert len(powers) == n


def test_quadratic_field_frobenius():
    f9 = RINGS["GF(3^2)"]
    rnd = random.Random(9)
    frob = T.parse_involution(f9, "frobenius")
    for _ in range(40):
        x, y = f9.random_element(rnd), f9.random_element(rnd)
        assert frob(frob(x)) == x
        assert frob(f9.mul(x, y)) == f9.mul(frob(x), frob(y))
        # fixed field is the prime field
        assert frob((x[0], 0)) == (x[0], 0)
    # norm lands in the prime field and detects units
    for a in range(3):
        for b in range(3):
            x = (a, b)
            if x == (0, 0):
                with pytest.raises(ValueError):
                    f9.inv(x)
            else:
                assert f9.mul(x, f9.inv(x)) == f9.one()


def test_gf4_field_structure():
    f4 = RINGS["GF(2^2)"]
    xs = list(f4.elements())
    assert len(xs) == 4
    w = f4.parse("w")
    # w^2 = w + 1, so w has multiplicative order 3
    assert f4.mul(w, w) == f4.add(w, f4.one())
    assert f4.mul(f4.mul(w, w), w) == f4.one()


def test_unit_subgroup_generators():
    assert T.unit_subgroup(RINGS["Q"], 2).generator == Fraction(-1)
    assert T.unit_subgroup(RINGS["Z"], 1).generator == 1
    assert T.unit_subgroup(RINGS["GF(5)"], 4).generator == 2
    assert T.unit_subgroup(RINGS["GF(7)"] if "GF(7)" in RINGS else T.parse_ring("GF(7)"), 2).generator == 6
    # least element of exact order 8 in GF(9) is 1 + w
    assert T.unit_subgroup(RINGS["GF(3^2)"], 8).generator == (1, 1)
    z8 = RINGS["Q(zeta_8)"]
    assert T.unit_subgroup(z8, 4) .generator == z8.parse("zeta^2")
    with pytest.raises(ValueError):
        T.unit_subgroup(RINGS["GF(2)"], 2)
    with pytest.raises(ValueError):
        T.unit_subgroup(RINGS["Z"], 3)


def test_unit_subgroup_embed_exponent():
    tgrp = T.unit_subgroup(RINGS["GF(5)"], 4)
    for k in range(8):
        assert tgrp.embed(k) == tgrp.embed(k % 4)
        assert tgrp.exponent(tgrp.embed(k)) == k % 4
    assert len(set(tgrp.powers)) == 4


def test_t_inverse_involution_checks():
    f9 = RINGS["GF(3^2)"]
    frob = T.parse_involution(f9, "frobenius")
    # z^(3+1) = z^4, so frobenius inverts exactly the order-4 subgroup
    assert T.check_t_inverse_involution(f9, frob, T.unit_subgroup(f9, 4))
    assert not T.check_t_inverse_involution(f9, frob, T.unit_subgroup(f9, 8))
    q = RINGS["Q"]
    ident = T.parse_involution(q, "id")
    assert T.check_t_inverse_involution(q, ident, T.unit_subgroup(q, 2))
    c4 = RINGS["Q(zeta_4)"]
    conj = T.parse_involution(c4, "conj")
    assert T.check_t_inverse_involution(c4, conj, T.unit_subgroup(c4, 4))


def test_involution_ring_guards():
    with pytest.raises(ValueError):
        T.parse_involution(RINGS["Q"], "conj")
    with pytest.raises(ValueError):
        T.parse_involution(RINGS["GF(3)"], "frobenius")
    with pytest.raises(ValueError):
        T.parse_involution(RINGS["Q"], "hermitian")


def test_parse_ring_rejects_junk():
    for bad in ("GF(4)", "GF(0)", "R", "Q(zeta_0)", "GF(6^2)"):
        with pytest.raises(ValueError):
            T.parse_ring(bad)


def test_parse_ring_ignores_spaces():
    for spec in (" Z", "Z ", " Z "):
        assert T.parse_ring(spec) == RINGS["Z"]
    assert T.parse_ring(" Q") == RINGS["Q"]
    with pytest.raises(ValueError):
        T.parse_ring(" Z").parse("1/2")


def test_cyclotomic_polynomial_degrees():
    from twistalg.rings import cyclotomic_polynomial

    # degree phi(n)
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 8: 4, 12: 4}
    for n, deg in expected.items():
        assert len(cyclotomic_polynomial(n)) == deg + 1
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
