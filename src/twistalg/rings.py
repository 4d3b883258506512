"""Exact coefficient arithmetic for the convolution algebras.

Five ring kinds, all with canonical normal forms so that == on element
values is exact equality:

    Z          arbitrary-precision integers
    Q          fractions.Fraction
    GF(p)      residues 0..p-1
    GF(p^2)    pairs (a, b) meaning a + b*w, with w^2 = s*w + t fixed
               per field (t = least nonresidue for odd p, w^2 = w + 1
               for p = 2)
    Q(zeta_n)  coordinate tuples of Fractions in the power basis
               1, zeta, ..., zeta^(phi(n)-1), reduced by the n-th
               cyclotomic polynomial

Elements are plain hashable Python values; the Ring object owns the
arithmetic.  A UnitSubgroup is a finite cyclic group of units given by a
generator and its order; its members travel as exponents mod n and are
embedded into the ring only when a coefficient is needed.  Involutions
cover the identity, zeta -> 1/zeta on cyclotomic fields, and x -> x^p on
GF(p^2).  No floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Ring:
    """Exact commutative unital ring; subclasses fix the element type."""

    kind: tuple = ("?",)
    is_field = False
    size = None  # element count when finite, else None

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def is_zero(self, x):
        return x == self.zero()

    def pow(self, x, k):
        if k < 0:
            return self.pow(self.inv(x), -k)
        out = self.one()
        while k:
            if k & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            k >>= 1
        return out

    def elements(self):
        """Iterate all elements in canonical order; finite rings only."""
        raise ValueError("ring %s is not finite" % (self,))

    def parse(self, text: str):
        raise NotImplementedError

    def fmt(self, x) -> str:
        raise NotImplementedError

    def random_element(self, rnd):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return spec_string(self)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class IntegerRing(Ring):
    kind = ("Z",)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        if x in (1, -1):
            return x
        raise ValueError("%r is not a unit in Z" % (x,))

    def parse(self, text):
        return int(text)

    def fmt(self, x):
        return str(x)

    def random_element(self, rnd):
        return rnd.randint(-9, 9)


class RationalRing(Ring):
    kind = ("Q",)
    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        if x == 0:
            raise ValueError("0 is not a unit in Q")
        return 1 / x

    def parse(self, text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % text) from None

    def fmt(self, x):
        return str(x)

    def random_element(self, rnd):
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError("GF(%d): modulus must be prime" % p)
        self.p = p
        self.kind = ("GF", p)
        self.size = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ValueError("0 is not a unit in GF(%d)" % self.p)
        return pow(x, -1, self.p)

    def elements(self):
        return iter(range(self.p))

    def parse(self, text):
        return int(text) % self.p

    def fmt(self, x):
        return str(x % self.p)

    def random_element(self, rnd):
        return rnd.randrange(self.p)


def _least_nonresidue(p: int) -> int:
    for t in range(2, p):
        if pow(t, (p - 1) // 2, p) == p - 1:
            return t
    raise ValueError("no quadratic nonresidue mod %d" % p)


class QuadraticGaloisField(Ring):
    """GF(p^2) with basis 1, w where w^2 = s*w + t.

    Odd p: s = 0 and t = the least quadratic nonresidue mod p.
    p = 2: w^2 = w + 1.  Elements are pairs (a, b) of residues.
    """

    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError("GF(%d^2): p must be prime" % p)
        self.p = p
        if p == 2:
            self.s, self.t = 1, 1
        else:
            self.s, self.t = 0, _least_nonresidue(p)
        self.kind = ("GF2", p)
        self.size = p * p

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def neg(self, x):
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def mul(self, x, y):
        a, b = x
        c, d = y
        bd = b * d
        return ((a * c + bd * self.t) % self.p, (a * d + b * c + bd * self.s) % self.p)

    def frobenius(self, x):
        a, b = x
        if self.p == 2:
            return ((a + b) % 2, b)
        return (a, (-b) % self.p)

    def inv(self, x):
        if x == (0, 0):
            raise ValueError("0 is not a unit in GF(%d^2)" % self.p)
        fx = self.frobenius(x)
        norm = self.mul(x, fx)
        assert norm[1] == 0
        n0inv = pow(norm[0], -1, self.p)
        return ((fx[0] * n0inv) % self.p, (fx[1] * n0inv) % self.p)

    def elements(self):
        for a in range(self.p):
            for b in range(self.p):
                yield (a, b)

    def parse(self, text):
        acc = (0, 0)
        for term in _split_terms(text):
            coef, gen, k = _parse_term(term, "w")
            if coef.denominator != 1:
                raise ValueError("fractional literal %r in GF(p^2)" % term)
            if gen is None:
                acc = self.add(acc, (coef.numerator % self.p, 0))
            else:
                if k != 1:
                    raise ValueError("bad GF(p^2) literal term %r" % term)
                acc = self.add(acc, (0, coef.numerator % self.p))
        return acc

    def fmt(self, x):
        a, b = x
        if b == 0:
            return str(a)
        wpart = "w" if b == 1 else "%d*w" % b
        if a == 0:
            return wpart
        return "%d+%s" % (a, wpart)

    def random_element(self, rnd):
        return (rnd.randrange(self.p), rnd.randrange(self.p))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


_CYC_CACHE: dict = {}


def cyclotomic_polynomial(n: int) -> list:
    """Integer coefficient list of Phi_n, ascending degree, monic."""
    if n in _CYC_CACHE:
        return _CYC_CACHE[n]
    # x^n - 1 = prod of Phi_d over d | n; divide the smaller ones out.
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in _divisors(n):
        if d == n:
            continue
        phi_d = [Fraction(c) for c in cyclotomic_polynomial(d)]
        poly = _poly_div_exact(poly, phi_d)
    out = []
    for c in poly:
        assert c.denominator == 1
        out.append(int(c))
    _CYC_CACHE[n] = out
    return out


def _poly_div_exact(num, den):
    num = list(num)
    dd = len(den) - 1
    out = [Fraction(0)] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / den[dd]
        out[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    assert all(c == 0 for c in num)
    return out


class CyclotomicField(Ring):
    """Q(zeta_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1)."""

    is_field = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("Q(zeta_n) needs n >= 1")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        self.kind = ("CYC", n)
        # zeta^k in basis coordinates for k = 0..n-1
        self.zeta_powers = []
        cur = self._basis_vec(0)
        for _ in range(n):
            self.zeta_powers.append(cur)
            cur = self._shift(cur)

    def _basis_vec(self, i):
        v = [Fraction(0)] * self.degree
        v[i] = Fraction(1)
        return tuple(v)

    def _shift(self, v):
        # multiply by zeta and reduce by the monic modulus
        w = [Fraction(0)] + list(v)
        if len(w) > self.degree:
            top = w.pop()
            if top:
                for j in range(self.degree):
                    w[j] -= top * self.modulus[j]
        return tuple(w)

    def zero(self):
        return tuple([Fraction(0)] * self.degree)

    def one(self):
        return self._basis_vec(0) if self.degree else ()

    def zeta(self, k: int = 1):
        return self.zeta_powers[k % self.n]

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def mul(self, x, y):
        d = self.degree
        prod = [Fraction(0)] * (2 * d - 1 if d else 1)
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if b:
                    prod[i + j] += a * b
        for i in range(len(prod) - 1, d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = Fraction(0)
                for j in range(d + 1):
                    prod[i - d + j] -= c * self.modulus[j]
        return tuple(prod[:d])

    def inv(self, x):
        if all(c == 0 for c in x):
            raise ValueError("0 is not a unit in Q(zeta_%d)" % self.n)
        # extended Euclid against the (irreducible) modulus
        r0 = [Fraction(c) for c in self.modulus]
        r1 = list(x)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant gcd
        assert len(_poly_trim(r0)) == 1
        c = r0[0]
        out = [a / c for a in s0]
        out += [Fraction(0)] * (self.degree - len(out))
        return tuple(out[: self.degree])

    def conj(self, x):
        """zeta -> zeta^(n-1), the inversion automorphism."""
        acc = self.zero()
        for i, c in enumerate(x):
            if c:
                term = tuple(c * p for p in self.zeta_powers[(self.n - i) % self.n])
                acc = self.add(acc, term)
        return acc

    def parse(self, text):
        acc = self.zero()
        for term in _split_terms(text):
            coef, gen, k = _parse_term(term, "zeta")
            if gen is None:
                acc = self.add(acc, tuple(coef * p for p in self.one()))
            else:
                acc = self.add(acc, tuple(coef * p for p in self.zeta(k)))
        return acc

    def fmt(self, x):
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

    def random_element(self, rnd):
        return tuple(
            Fraction(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(self.degree)
        )


def _poly_trim(p):
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = _poly_trim(a)
    b = _poly_trim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while len(_poly_trim(r)) >= len(b):
        r = _poly_trim(r)
        c = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = c
        for j in range(len(b)):
            r[d + j] -= c * b[j]
        r = r[:-1]
    return q, _poly_trim(r) or [Fraction(0)]


# --- literal parsing helpers -------------------------------------------------

_TERM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?|[+-])?(?:\*?(zeta|w)(?:\^(\d+))?)?$")


def _split_terms(text):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty ring literal")
    terms, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-*/^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    return terms


def _parse_term(term, gen_name):
    m = _TERM_RE.match(term)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError("bad ring literal term %r" % term)
    coef_s, gen, k_s = m.groups()
    if gen is not None and gen != gen_name:
        raise ValueError("generator %r not valid here" % gen)
    if coef_s in (None, "+", "-"):
        coef = Fraction(1) if coef_s != "-" else Fraction(-1)
    else:
        coef = Fraction(coef_s)
    k = int(k_s) if k_s else 1
    return coef, gen, k


# --- ring spec strings -------------------------------------------------------

_SPEC_RE = re.compile(r"^(Z|Q|GF\((\d+)\)|GF\((\d+)\^2\)|Q\(zeta_(\d+)\))$")


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec string: Z, Q, GF(p), GF(p^2), Q(zeta_n)."""
    m = _SPEC_RE.match(spec.replace(" ", ""))
    if not m:
        raise ValueError("unknown ring spec %r" % spec)
    if m.group(2):
        return PrimeField(int(m.group(2)))
    if m.group(3):
        return QuadraticGaloisField(int(m.group(3)))
    if m.group(4):
        return CyclotomicField(int(m.group(4)))
    return IntegerRing() if m.group(1) == "Z" else RationalRing()


def spec_string(ring: Ring) -> str:
    k = ring.kind
    if k == ("Z",):
        return "Z"
    if k == ("Q",):
        return "Q"
    if k[0] == "GF":
        return "GF(%d)" % k[1]
    if k[0] == "GF2":
        return "GF(%d^2)" % k[1]
    if k[0] == "CYC":
        return "Q(zeta_%d)" % k[1]
    raise ValueError("unknown ring %r" % (ring,))


# --- unit subgroups ----------------------------------------------------------


class UnitSubgroup:
    """Finite cyclic subgroup of R^x: a generator of exact order n.

    Members are exponents 0..n-1; embed() turns an exponent into the ring
    element, exponent() inverts that (lookup, the powers are distinct).
    """

    def __init__(self, ring: Ring, order: int, generator):
        self.ring = ring
        self.order = order
        self.generator = generator
        powers = []
        cur = ring.one()
        for _ in range(order):
            powers.append(cur)
            cur = ring.mul(cur, generator)
        if cur != ring.one():
            raise ValueError("generator order does not divide %d" % order)
        if len(set(powers)) != order:
            raise ValueError("generator order is smaller than %d" % order)
        self.powers = powers
        self._exp = {v: k for k, v in enumerate(powers)}

    def embed(self, k: int):
        return self.powers[k % self.order]

    def exponent(self, value) -> int:
        try:
            return self._exp[value]
        except KeyError:
            raise ValueError("%r is not in the unit subgroup" % (value,)) from None

    def __eq__(self, other):
        return (
            isinstance(other, UnitSubgroup)
            and self.ring == other.ring
            and self.order == other.order
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((self.ring, self.order, self.generator))

    def __repr__(self):
        return "UnitSubgroup(order=%d, gen=%s)" % (self.order, self.ring.fmt(self.generator))


def embed_unit(tgrp: UnitSubgroup, k: int):
    """g^k in the ambient ring, exponent reduced mod the order."""
    return tgrp.embed(k)


def _multiplicative_order(ring, x, bound):
    cur = x
    for k in range(1, bound + 1):
        if cur == ring.one():
            return k
        cur = ring.mul(cur, x)
    return None


def unit_subgroup(ring: Ring, n: int) -> UnitSubgroup:
    """Canonical order-n cyclic unit subgroup of the ring.

    Z and Q carry {1} and {1,-1}; finite fields take the least element of
    exact order n in enumeration order; Q(zeta_m) takes zeta^(m/n) when
    n | m, and -1 for n = 2 when m is odd.
    """
    if n < 1:
        raise ValueError("subgroup order must be positive")
    k = ring.kind
    if k in (("Z",), ("Q",)):
        if n == 1:
            return UnitSubgroup(ring, 1, ring.one())
        if n == 2:
            return UnitSubgroup(ring, 2, ring.neg(ring.one()))
        raise ValueError("%s has no order-%d unit subgroup" % (ring, n))
    if k[0] in ("GF", "GF2"):
        group_order = ring.size - 1
        if group_order % n != 0:
            raise ValueError("%s^x has no order-%d subgroup" % (ring, n))
        for x in ring.elements():
            if ring.is_zero(x):
                continue
            if _multiplicative_order(ring, x, n) == n:
                return UnitSubgroup(ring, n, x)
        raise ValueError("no order-%d element found in %s" % (n, ring))
    if k[0] == "CYC":
        m = k[1]
        if n == 1:
            return UnitSubgroup(ring, 1, ring.one())
        if m % n == 0:
            return UnitSubgroup(ring, n, ring.zeta(m // n))
        if n == 2:
            return UnitSubgroup(ring, 2, ring.neg(ring.one()))
        raise ValueError("Q(zeta_%d) has no canonical order-%d subgroup" % (m, n))
    raise ValueError("unsupported ring %r" % (ring,))


# --- involutions -------------------------------------------------------------


class Involution:
    """Ring automorphism of order <= 2: id, cyclotomic conj, or Frobenius."""

    KINDS = ("id", "conj", "frobenius")

    def __init__(self, ring: Ring, name: str):
        if name not in self.KINDS:
            raise ValueError("unknown involution %r" % name)
        if name == "conj" and ring.kind[0] != "CYC":
            raise ValueError("conj is only defined on cyclotomic fields")
        if name == "frobenius" and ring.kind[0] != "GF2":
            raise ValueError("frobenius is only defined on GF(p^2)")
        self.ring = ring
        self.name = name

    def __call__(self, x):
        if self.name == "id":
            return x
        if self.name == "conj":
            return self.ring.conj(x)
        return self.ring.frobenius(x)

    def __eq__(self, other):
        return (
            isinstance(other, Involution)
            and self.ring == other.ring
            and self.name == other.name
        )

    def __hash__(self):
        return hash((self.ring, self.name))

    def __repr__(self):
        return "Involution(%s, %s)" % (self.ring, self.name)


def parse_involution(ring: Ring, name: str) -> Involution:
    return Involution(ring, name)


def check_t_inverse_involution(ring: Ring, conj: Involution, tgrp: UnitSubgroup) -> bool:
    """True iff conj(z) * z == 1 for every element z of the subgroup."""
    one = ring.one()
    return all(ring.mul(conj(z), z) == one for z in tgrp.powers)
