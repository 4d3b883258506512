"""Coefficient rings: exact arithmetic, literals, unit subgroups, involutions."""

import contextlib
import hashlib
import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistalg as T
from conftest import make_context, random_nonzero

RINGS = {
    "Z": T.parse_ring("Z"),
    "Q": T.parse_ring("Q"),
    "GF(2)": T.parse_ring("GF(2)"),
    "GF(3)": T.parse_ring("GF(3)"),
    "GF(5)": T.parse_ring("GF(5)"),
    "GF(2^2)": T.parse_ring("GF(2^2)"),
    "GF(3^2)": T.parse_ring("GF(3^2)"),
    "Q(zeta_3)": T.parse_ring("Q(zeta_3)"),
    "Q(zeta_4)": T.parse_ring("Q(zeta_4)"),
    "Q(zeta_5)": T.parse_ring("Q(zeta_5)"),
    "Q(zeta_8)": T.parse_ring("Q(zeta_8)"),
    "Q(zeta_12)": T.parse_ring("Q(zeta_12)"),
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
        assert r.is_zero(r.add(x, r.neg(x)))
        assert r.is_zero(x) == (x == r.zero())
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


def pair_fmt(x):
    """Oracle for GF(p^2) literals: a + b*w written term by term."""
    a, b = x
    if b == 0:
        return str(a)
    wpart = "w" if b == 1 else "%d*w" % b
    if a == 0:
        return wpart
    return "%d+%s" % (a, wpart)


def coords(x):
    """The Fraction coordinates of a Q(zeta_n) element (nums, den)."""
    nums, den = x
    return tuple(Fraction(c, den) for c in nums)


def from_coords(xs):
    """The Q(zeta_n) element (nums, den) with Fraction coordinates xs."""
    den = lcm(*[c.denominator for c in xs])
    return tuple(c.numerator * (den // c.denominator) for c in xs), den


def power_basis_fmt(x):
    """Oracle for Q(zeta_n) literals: the nonzero terms joined by their
    signs, a coefficient of 1 or -1 written as the bare power."""
    parts = []
    for i, c in enumerate(x):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            gen = "zeta" if i == 1 else "zeta^%d" % i
            if c == 1:
                parts.append(gen)
            elif c == -1:
                parts.append("-" + gen)
            else:
                parts.append("%s*%s" % (c, gen))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


@pytest.mark.parametrize("spec", ["GF(%d^2)" % p for p in (2, 3, 5, 7, 11, 13)]
                         + ["Q(zeta_%d)" % n for n in range(1, 13)])
def test_extension_literals_match_their_oracle(spec):
    """Both extension fields share one term formatter: every element of
    GF(p^2), and 500 random values of Q(zeta_n), print as their oracle
    does and parse back to themselves."""
    r = T.parse_ring(spec)
    if spec.startswith("GF"):
        values, oracle = list(r.elements()), pair_fmt
    else:
        rnd = random.Random(spec)
        values = [r.random_element(rnd) for _ in range(500)]
        oracle = lambda x: power_basis_fmt(coords(x))
    for x in values:
        assert r.fmt(x) == oracle(x)
        assert r.parse(r.fmt(x)) == x


def test_inverses_and_their_refusals():
    z = RINGS["Z"]
    assert (z.inv(1), z.inv(-1)) == (1, -1)
    with pytest.raises(ValueError, match="^2 is not a unit in Z$"):
        z.inv(2)
    for name in ("Q", "GF(5)", "Q(zeta_5)"):
        r = RINGS[name]
        with pytest.raises(ValueError) as exc:
            r.inv(r.zero())
        assert str(exc.value) == "0 is not a unit in %s" % name


@pytest.mark.parametrize("text,msg", [
    ("1/2", "fractional literal '1/2' in GF(p^2)"),
    ("w^2", "bad GF(p^2) literal term 'w^2'"),
    ("zeta", "generator 'zeta' not valid here"),
    ("", "empty ring literal"),
])
def test_quadratic_field_literal_refusals(text, msg):
    with pytest.raises(ValueError) as exc:
        RINGS["GF(3^2)"].parse(text)
    assert str(exc.value) == msg


def test_rational_literals():
    q = RINGS["Q"]
    assert q.parse("-3/2") == Fraction(-3, 2)
    assert q.fmt(Fraction(7, 3)) == "7/3"
    with pytest.raises(ValueError):
        q.parse("1/0")


@pytest.mark.parametrize("name", sorted(RINGS))
def test_literals_are_ascii_decimal(name):
    r = RINGS[name]
    assert r.parse("+3") == r.parse("3") == r.neg(r.parse("-3"))
    # whitespace too, in every ring: the extension rings once stripped spaces
    for text in ("1_0", "\u0663", "\uff13", "1.5", "1e3", "0x3", "3\n", "+-3",
                 " 3", "3 ", "1 + w", "1\t+w", "1 + zeta", "1\t+zeta"):
        with pytest.raises(ValueError):
            r.parse(text)


LITERAL_TOKENS = ["0", "1", "2", "3", "10", "/", "+", "-", "*", "^", "w", "zeta"]


def literal_grammar(gen):
    """docs/FORMATS.md's grammar of a GF(p^2) or Q(zeta_n) literal: terms
    joined by single signs, the first one optionally signed, each a
    coefficient, a power of gen, or coef*power."""
    coef, power = r"[0-9]+(?:/[0-9]+)?", r"%s(?:\^[0-9]+)?" % gen
    term = "(?:%s|%s|%s\\*%s)" % (coef, power, coef, power)
    return re.compile("[+-]?%s(?:[+-]%s)*" % (term, term))


def literal_terms(text, gen):
    """(term, Fraction coefficient or None for a zero denominator, power of
    gen or None) for each term of a literal the grammar matches."""
    for term in re.findall("[+-]?[^+-]+", text):
        body = term.lstrip("+-")
        if "*" in body:
            coef, power = body.split("*")
        elif body.startswith(gen):
            coef, power = "1", body
        else:
            coef, power = body, ""
        k = int(power.partition("^")[2] or 1) if power else None
        num, _, den = coef.partition("/")
        if den and int(den) == 0:
            yield term, None, k
            continue
        c = Fraction(int(num), int(den or 1))
        yield term, -c if term[0] == "-" else c, k


def oracle_literal(spec, text):
    """The value of a literal the grammar matches, summed term by term in
    Fractions, or the error it must raise."""
    gen = "w" if spec.startswith("GF") else "zeta"
    acc = [Fraction(0), Fraction(0)]
    for term, c, k in literal_terms(text, gen):
        if c is None:
            return "zero denominator in %r" % term
        if gen == "w":
            if c.denominator != 1:
                return "fractional literal %r in GF(p^2)" % term
            if k not in (None, 1):
                return "bad GF(p^2) literal term %r" % term
            acc[0 if k is None else 1] += c
        else:
            # zeta^2 = -1 in Q(zeta_4)
            k = 0 if k is None else k % 4
            acc[k % 2] += c if k < 2 else -c
    if gen == "w":
        return tuple(int(x) % 3 for x in acc)
    return from_coords(acc)


@pytest.mark.parametrize("spec", ["GF(3^2)", "Q(zeta_4)"])
def test_literals_follow_the_documented_grammar(spec):
    """Every string of up to four tokens: those the grammar matches read as
    their term-by-term sum or give its error, and every other string is
    refused (once `1+` read as 2, `-` as -1, `*w` as w and `3w` as 3*w)."""
    r = RINGS[spec]
    grammar = literal_grammar("w" if spec.startswith("GF") else "zeta")
    accepted = 0
    for size in range(1, 5):
        for toks in itertools.product(LITERAL_TOKENS, repeat=size):
            text = "".join(toks)
            want = oracle_literal(spec, text) if grammar.fullmatch(text) else None
            if isinstance(want, tuple):
                assert r.parse(text) == want, text
                accepted += 1
                continue
            with pytest.raises(ValueError) as exc:
                r.parse(text)
            assert want is None or str(exc.value) == want, text
    assert accepted > 1000


@pytest.mark.parametrize("spec,text", [("Q(zeta_4)", "1/0*zeta"), ("GF(3^2)", "1/0+w")])
def test_zero_denominator_in_term(spec, text):
    with pytest.raises(ValueError, match="zero denominator"):
        RINGS[spec].parse(text)


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


def first_of_order_by_walk(ring, n):
    """The first element of exact order n in elements() order, by a walk
    that takes every element's order in turn."""
    for x in ring.elements():
        if ring.is_zero(x):
            continue
        cur, k = x, 1
        while cur != ring.one():
            cur, k = ring.mul(cur, x), k + 1
        if k == n:
            return x


def test_unit_generator_matches_the_walk():
    specs = ["GF(%d)" % p for p in range(2, 122) if all(p % d for d in range(2, p))]
    specs += ["GF(%d^2)" % p for p in (2, 3, 5, 7, 11)]
    checked = 0
    for spec in specs:
        ring = T.parse_ring(spec)
        for n in range(1, ring.size):
            if (ring.size - 1) % n == 0:
                assert T.unit_subgroup(ring, n).generator == first_of_order_by_walk(ring, n), (spec, n)
                checked += 1
    assert checked > 200


def test_log_tables_are_a_bijection_onto_the_units():
    specs = ["GF(%d)" % p for p in range(2, 122) if all(p % d for d in range(2, p))]
    specs += ["GF(%d^2)" % p for p in (2, 3, 5, 7, 11)]
    for spec in specs:
        ring = T.parse_ring(spec)
        q1 = ring.size - 1
        log, antilog = tables = ring._logs()
        assert ring._logs() is tables
        assert sorted(antilog) == [x for x in ring.elements() if not ring.is_zero(x)]
        assert len(log) == q1 and all(log[antilog[i]] == i for i in range(q1))
        # antilog holds the powers of the least primitive root
        g = ring._primitive_root()
        assert g == T.unit_subgroup(ring, q1).generator
        assert all(ring.mul(antilog[i], g) == antilog[(i + 1) % q1] for i in range(q1)), spec


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


def t_inverse_on_every_power(ring, conj, tgrp):
    """The reference predicate: conj(z) * z == 1 checked on each power."""
    return all(ring.mul(conj(z), z) == ring.one() for z in tgrp.powers)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_t_inverse_involution_decided_by_the_generator(name):
    ring = RINGS[name]
    conjs = []
    for kind in T.Involution.KINDS:
        try:
            conjs.append(T.parse_involution(ring, kind))
        except ValueError:
            pass
    tgrps = []
    for n in range(1, 25):
        try:
            tgrps.append(T.unit_subgroup(ring, n))
        except ValueError:
            pass
    assert conjs and tgrps
    for conj in conjs:
        for tgrp in tgrps:
            assert T.check_t_inverse_involution(ring, conj, tgrp) == \
                t_inverse_on_every_power(ring, conj, tgrp), (conj, tgrp)


def test_involution_ring_guards():
    with pytest.raises(ValueError):
        T.parse_involution(RINGS["Q"], "conj")
    with pytest.raises(ValueError):
        T.parse_involution(RINGS["GF(3)"], "frobenius")
    with pytest.raises(ValueError):
        T.parse_involution(RINGS["Q"], "hermitian")


@pytest.mark.parametrize("spec,name", [
    ("Z", "id"), ("Q", "id"), ("GF(3)", "id"), ("GF(7)", "id"),
    ("GF(2^2)", "frobenius"), ("GF(3^2)", "frobenius"), ("Q(zeta_3)", "conj"), ("Q(zeta_8)", "conj"),
])
def test_auto_involution_by_ring_kind(spec, name):
    ring = T.parse_ring(spec)
    assert T.parse_involution(ring, "auto") == T.parse_involution(ring, name)


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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    from twistalg.rings import cyclotomic_polynomial

    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_frobenius_is_the_p_th_power(p):
    f = T.QuadraticGaloisField(p)
    for x in f.elements():
        xp = f.one()
        for _ in range(p):
            xp = f.mul(xp, x)
        assert f.frobenius(x) == xp


# --- the integer kernel of Q(zeta_n) against the Fraction schoolbook ---------


def fraction_mul(r, x, y):
    """Q(zeta_n) product on Fractions: schoolbook, then reduction by the
    monic cyclotomic polynomial from the top degree down."""
    d = r.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        for j in range(d + 1):
            prod[i - d + j] -= c * r.modulus[j]
    return tuple(prod[:d])


def fraction_zeta_powers(r):
    """zeta^0, ..., zeta^(n-1) on Fractions: shift by one degree, then
    reduce the top coefficient by the monic cyclotomic polynomial."""
    d = r.degree
    powers = [(Fraction(1),) + (Fraction(0),) * (d - 1)]
    for _ in range(r.n - 1):
        w = [Fraction(0)] + list(powers[-1])
        top = w.pop()
        powers.append(tuple(w[j] - top * r.modulus[j] for j in range(d)))
    return powers


def fraction_galois(r, powers, x, k):
    """sigma_k on Fractions: x_i zeta^(ik) summed over the coordinates."""
    acc = [Fraction(0)] * r.degree
    for i, c in enumerate(x):
        for j, p in enumerate(powers[i * k % r.n]):
            acc[j] += c * p
    return tuple(acc)


KERNEL_ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24, 30, 105]


def kernel_element(r, rnd):
    """Coordinates over denominators that share factors, some zero."""
    dens = (1, 2, 3, 4, 6, 9, 12, 18, 36)
    return tuple(
        Fraction(0) if rnd.random() < 0.3 else Fraction(rnd.randint(-40, 40), rnd.choice(dens))
        for _ in range(r.degree)
    )


def assert_canonical(x):
    """x is (nums, den) in canonical form: int numerators over an int
    den > 0, with no common factor."""
    nums, den = x
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    assert type(den) is int and den > 0
    assert gcd(den, *nums) == 1


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_cyclotomic_integer_kernel_matches_fractions(n):
    r = T.CyclotomicField(n)
    if n == 105:
        assert -2 in r.modulus
    rnd = random.Random("kernel:%d" % n)
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    powers = fraction_zeta_powers(r)
    assert [coords(r.zeta(k)) for k in range(n)] == powers
    for _ in range(12 if n < 100 else 2):
        fx, fy = kernel_element(r, rnd), kernel_element(r, rnd)
        x, y = from_coords(fx), from_coords(fy)
        pairs = [(r.mul(x, y), fraction_mul(r, fx, fy))]
        pairs += [(r._galois(x, k), fraction_galois(r, powers, fx, k)) for k in units + [-1]]
        for got, want in pairs:
            assert coords(got) == want
            assert_canonical(got)
            assert got == from_coords(want) and hash(got) == hash(from_coords(want))
            assert r.fmt(got) == power_basis_fmt(want)
        assert r.conj(r.mul(x, y)) == r.mul(r.conj(x), r.conj(y))
        for got, want in ((r.add(x, y), tuple(a + b for a, b in zip(fx, fy))),
                          (r.neg(x), tuple(-a for a in fx))):
            assert coords(got) == want
            assert_canonical(got)
        if not r.is_zero(x):
            assert_canonical(r.inv(x))
            assert r.mul(x, r.inv(x)) == r.one()
    z = r.zeta()
    power = r.one()
    for _ in range(n):
        power = r.mul(power, z)
    assert power == r.one()


def test_cyclotomic_arithmetic_builds_no_fraction():
    """add, neg, mul, inv and conj on Q(zeta_n) run on ints: no Fraction is
    built inside them.  Fractions are counted where they are made, at
    Fraction.__new__ and, on Pythons whose Fraction arithmetic goes round
    it, at Fraction._from_coprime_ints; fmt, which makes Fractions, shows
    that the count sees them."""
    fields = []
    for n in (1, 2, 3, 4, 8, 12, 15):
        r, rnd = T.CyclotomicField(n), random.Random("no fraction:%d" % n)
        fields.append((r, [r.random_element(rnd) for _ in range(8)] + [r.zero(), r.one(), r.zeta()]))
    built, new = [], Fraction.__new__
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw)))
        if hasattr(Fraction, "_from_coprime_ints"):
            coprime = Fraction._from_coprime_ints.__func__
            stack.enter_context(mock.patch.object(Fraction, "_from_coprime_ints", classmethod(
                lambda cls, *args: built.append(args) or coprime(cls, *args))))
        for r, xs in fields:
            for x, y in zip(xs, xs[1:]):
                r.add(x, y), r.neg(x), r.mul(x, y), r.conj(x)
                if not r.is_zero(x):
                    r.inv(x)
            assert built == [], r
            r.fmt(xs[0])
            assert built, r
            built.clear()


PINNED_ORDERS = list(range(1, 13)) + [15, 16, 24, 30]


def pinned_cyclotomic_elements():
    """Seeded convolve, involute, inv and conj results over Q(zeta_n) on
    z4, klein and pair3, untwisted and with an order-2 cocycle."""
    for name in ("z4", "klein", "pair3"):
        g = T.build(name)
        for n in PINNED_ORDERS:
            for i, coc in enumerate([T.trivial_cocycle(g, 1), T.enumerate_cocycles(g, 2)[-1]]):
                ctx = make_context(g, "Q(zeta_%d)" % n, coc=coc, involution="conj")
                ring, rnd = ctx.ring, random.Random("pin:%s/%d/%d" % (name, n, i))
                f, h = random_nonzero(ctx, rnd), random_nonzero(ctx, rnd)
                yield T.convolve(f, h)
                yield T.involute(f)
                yield T.from_coeffs(ctx, {a: ring.inv(c) for a, c in f.coeffs.items()})
                yield T.from_coeffs(ctx, {a: ring.conj(c) for a, c in h.coeffs.items()})


def test_cyclotomic_element_bytes_are_pinned():
    """sha256 over serialize_element of every pinned element.  A change to
    the Q(zeta_n) element representation or its arithmetic must keep these
    bytes."""
    digest, count = hashlib.sha256(), 0
    for f in pinned_cyclotomic_elements():
        digest.update(("\n".join(T.serialize_element(f)) + "\n").encode())
        count += 1
    assert count == 384
    assert digest.hexdigest() == "fefb4c07430843ad568b4fd37cf7d3718ef66b47e47627dbb4d613506264ac6c"


# --- the ring layer's outward text -------------------------------------------


def test_ring_reprs_are_their_specs():
    for spec in ("Z", "Q", "GF(2)", "GF(5)", "GF(2^2)", "GF(3^2)", "Q(zeta_1)", "Q(zeta_8)"):
        assert repr(T.parse_ring(spec)) == spec
    assert repr(T.parse_involution(T.parse_ring("GF(3^2)"), "auto")) == "Involution(GF(3^2), frobenius)"
    assert repr(T.unit_subgroup(T.parse_ring("GF(5)"), 4)) == "UnitSubgroup(order=4, gen=2)"


def _message(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


@pytest.mark.parametrize("spec,msg", [
    ("R", "unknown ring spec 'R'"),
    ("GF(p)", "unknown ring spec 'GF(p)'"),
    ("GF(3^3)", "unknown ring spec 'GF(3^3)'"),
    ("GF(3)\n", "unknown ring spec 'GF(3)\\n'"),
    ("Q\n", "unknown ring spec 'Q\\n'"),
    ("GF(4)", "GF(4): modulus must be prime"),
    ("GF(0)", "GF(0): modulus must be prime"),
    ("GF(6^2)", "GF(6^2): p must be prime"),
    ("GF(1^2)", "GF(1^2): p must be prime"),
    ("Q(zeta_0)", "Q(zeta_n) needs n >= 1"),
])
def test_parse_ring_refusal_messages(spec, msg):
    assert _message(T.parse_ring, spec) == msg


# ASCII digits only, like ring literals: \d and int() would read the Arabic-
# Indic three and the fullwidth one and three as 3 and 13
@pytest.mark.parametrize("spec", ["GF(\u0663)", "GF(\uff11\uff13)", "Q(zeta_\u0664)",
                                  "GF(\u0663^2)"])
def test_ring_specs_are_ascii_decimal(spec):
    assert _message(T.parse_ring, spec) == "unknown ring spec %r" % spec


@pytest.mark.parametrize("spec,n,msg", [
    ("Z", 0, "subgroup order must be positive"),
    ("Z", 3, "Z has no order-3 unit subgroup"),
    ("Q", 4, "Q has no order-4 unit subgroup"),
    ("GF(5)", 3, "GF(5)^x has no order-3 subgroup"),
    ("GF(2)", 2, "GF(2)^x has no order-2 subgroup"),
    ("GF(3^2)", 5, "GF(3^2)^x has no order-5 subgroup"),
    ("Q(zeta_4)", 3, "Q(zeta_4) has no canonical order-3 subgroup"),
    ("Q(zeta_3)", 4, "Q(zeta_3) has no canonical order-4 subgroup"),
])
def test_unit_subgroup_refusal_messages(spec, n, msg):
    assert _message(T.unit_subgroup, T.parse_ring(spec), n) == msg


def test_unit_subgroup_generator_refusals():
    gf5, gf7 = RINGS["GF(5)"], T.parse_ring("GF(7)")
    assert _message(T.UnitSubgroup, gf7, 2, 3) == "generator order does not divide 2"
    assert _message(T.UnitSubgroup, gf5, 4, 4) == "generator order is smaller than 4"
    assert _message(T.unit_subgroup(gf5, 2).exponent, 2) == "2 is not in the unit subgroup"


@pytest.mark.parametrize("spec,name,msg", [
    ("Q", "conj", "conj is only defined on cyclotomic fields"),
    ("GF(3^2)", "conj", "conj is only defined on cyclotomic fields"),
    ("GF(3)", "frobenius", "frobenius is only defined on GF(p^2)"),
    ("Q(zeta_4)", "frobenius", "frobenius is only defined on GF(p^2)"),
    ("Q", "hermitian", "unknown involution 'hermitian'"),
    ("Q(zeta_4)", "none", "unknown involution 'none'"),
])
def test_involution_refusal_messages(spec, name, msg):
    ring = T.parse_ring(spec)
    assert _message(T.parse_involution, ring, name) == msg
    assert _message(T.Involution, ring, name) == msg
