"""Exact coefficient arithmetic for the convolution algebras.

Five ring kinds, all with canonical normal forms so that == on element
values is exact equality:

    Z          arbitrary-precision integers
    Q          fractions.Fraction
    GF(p)      residues 0..p-1
    GF(p^2)    pairs (a, b) meaning a + b*w, with w^2 = s*w + t fixed
               per field (t = least nonresidue for odd p, w^2 = w + 1
               for p = 2)
    Q(zeta_n)  pairs (nums, den): int numerators in the power basis
               1, zeta, ..., zeta^(phi(n)-1), reduced by the n-th
               cyclotomic polynomial, over one den > 0 with
               gcd(den, *nums) == 1

Elements are plain hashable Python values; the Ring object owns the
arithmetic.  Ring's defaults are the arithmetic of Python numbers: 0, 1,
x + y, -x, x * y, x == 0 and str(x).  Z keeps all of them, Q all but its
Fraction zero and one, and GF(p) all but add, neg, mul and fmt, which
reduce mod p; the tuple-valued GF(p^2) and Q(zeta_n) override every one.
Q(zeta_n) stores a number-field element the standard way, as integer
numerators over one common denominator in lowest terms (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, 4.2): add, neg, mul, the
Galois maps and inv run on Python ints, the product is reduced by the
monic integer cyclotomic polynomial, and each result is normalised with
one gcd.  Fractions appear only in parse, fmt and random_element, so the
literals read and written are those of the Fraction coordinates.  The
fractions module, which loads decimal, is imported on first use, not with
this module: a RationalRing makes its zero and one once when built, and
the Q, GF(p^2) and Q(zeta_n) literal readers and Q(zeta_n)'s fmt and
random_element import it when called; Z and GF(p) never load it.  Both
extension fields work through their Galois automorphisms: conj on
Q(zeta_n) is sigma_-1, where sigma_k sends zeta to zeta^k, and GF(p^2)
has the Frobenius x -> x^p.  Each inverts x as
y / N(x), where y is the product of the other conjugates and the norm
N(x) = x*y lies in the prime field.  A UnitSubgroup is a finite cyclic
group of units given by a generator and its order; its members travel as
exponents mod n and are embedded into the ring only when a coefficient
is needed; scale(k, x) multiplies by g^k and skips g^0 = 1.  Involutions
cover the identity, conj and the Frobenius; the name "auto" picks conj on
Q(zeta_n), the Frobenius on GF(p^2) and the identity on the other kinds.
No floating point anywhere.

The unit group of a finite field GF(q) is cyclic.  Each finite field
finds its first primitive root g in elements() order (_primitive_root) and
keeps, from the first call of _logs on, a discrete-log table: antilog[i]
= g^i for i < q - 1 and log its inverse, so a product of nonzero elements
is a sum of logs mod q - 1.  The exhaustive simplicity scan works in those
coordinates.  Q(zeta_n) keeps the powers of zeta as integer coordinates,
which are its elements zeta^k over the denominator 1.

Each ring class carries its kind: its spec (its repr), its "auto"
involution and its canonical unit generators.  As building a ring and
searching its units grow with it, parse_ring accepts GF(p) and GF(p^2)
with at most 2^20 elements and Q(zeta_n) with n <= 1024.
"""

from __future__ import annotations

import functools
import re
from math import gcd, lcm


class Ring:
    """Exact commutative unital ring; subclasses fix the element type and
    their kind (module docstring).  The arithmetic defaults are those of
    Python numbers, which the tuple-valued kinds override.  Z and Q keep
    the default "auto" involution and unit generators."""

    kind: tuple = ("?",)  # what == and hash compare
    is_field = False
    size = None  # element count when finite, else None
    _auto_involution = "id"

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
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def is_zero(self, x):
        return x == 0

    def elements(self):
        """Iterate all elements in canonical order; finite rings only."""
        raise ValueError("ring %s is not finite" % (self,))

    def parse(self, text: str):
        raise NotImplementedError

    def fmt(self, x) -> str:
        return str(x)

    def random_element(self, rnd):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def _unit_generator(self, n: int):
        """Generator of the canonical order-n unit subgroup: 1 or -1."""
        if n > 2:
            raise ValueError("%s has no order-%d unit subgroup" % (self, n))
        return self.one() if n == 1 else self.neg(self.one())


def _is_prime(p: int) -> bool:
    return p > 1 and _prime_factors(p) == [p]


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class IntegerRing(Ring):
    kind = ("Z",)

    def inv(self, x):
        if x in (1, -1):
            return x
        raise ValueError("%r is not a unit in Z" % (x,))

    def parse(self, text):
        return int(_literal(_INT_RE, text, "integer"))

    def random_element(self, rnd):
        return rnd.randint(-9, 9)

    def __repr__(self):
        return "Z"


class RationalRing(Ring):
    kind = ("Q",)
    is_field = True

    def __init__(self):
        from fractions import Fraction

        self._zero, self._one = Fraction(0), Fraction(1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def inv(self, x):
        if x == 0:
            raise ValueError("0 is not a unit in Q")
        return 1 / x

    def parse(self, text):
        from fractions import Fraction

        try:
            return Fraction(_literal(_RATIONAL_RE, text, "rational"))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % text) from None

    def random_element(self, rnd):
        from fractions import Fraction

        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))

    def __repr__(self):
        return "Q"


class _FiniteField(Ring):
    """GF(p) and GF(p^2)."""

    is_field = True
    _log_tables = None  # filled by _logs

    def _power(self, x, e: int):
        """x^e by square-and-multiply."""
        out = self.one()
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def _primitive_root(self):
        """The first generator of the unit group in elements() order: the
        first x with x^((q-1)/r) != 1 for each prime r of q - 1."""
        q1, one = self.size - 1, self.one()
        primes = _prime_factors(q1)
        return next(x for x in self.elements() if not self.is_zero(x)
                    and all(self._power(x, q1 // r) != one for r in primes))

    def _logs(self):
        """(log, antilog) to the base _primitive_root(): antilog[i] is g^i
        for i < q - 1, and log maps each nonzero element back to its i.
        Built on the first call and kept on the ring."""
        if self._log_tables is None:
            g, antilog = self._primitive_root(), [self.one()]
            for _ in range(self.size - 2):
                antilog.append(self.mul(antilog[-1], g))
            self._log_tables = {x: i for i, x in enumerate(antilog)}, antilog
        return self._log_tables

    def _unit_generator(self, n: int):
        """The first element of exact order n in elements() order.  With g
        the first primitive root, those elements are the powers h^k,
        gcd(k, n) = 1, of h = g^((q-1)/n).  elements() ascends in the values
        themselves (residues, or pairs compared lexicographically), so min
        is first."""
        q1, one = self.size - 1, self.one()
        if q1 % n:
            raise ValueError("%s^x has no order-%d subgroup" % (self, n))
        h, powers = self._power(self._primitive_root(), q1 // n), [one]
        for _ in range(n - 1):
            powers.append(self.mul(powers[-1], h))
        return min(x for k, x in enumerate(powers) if gcd(k, n) == 1)


class PrimeField(_FiniteField):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError("GF(%d): modulus must be prime" % p)
        self.p = p
        self.kind = ("GF", p)
        self.size = p

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
        return int(_literal(_INT_RE, text, "integer")) % self.p

    def fmt(self, x):
        return str(x % self.p)

    def random_element(self, rnd):
        return rnd.randrange(self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


def _least_nonresidue(p: int) -> int:
    for t in range(2, p):
        if pow(t, (p - 1) // 2, p) == p - 1:
            return t
    raise ValueError("no quadratic nonresidue mod %d" % p)


def _fmt_terms(coords, gen: str) -> str:
    """The literal c0+c1*gen+c2*gen^2..., zero terms left out and a
    coefficient of 1 or -1 written as gen or -gen; "0" for no terms."""
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            power = gen if i == 1 else "%s^%d" % (gen, i)
            parts.append(power if c == 1 else "-" + power if c == -1 else "%s*%s" % (c, power))
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


class QuadraticGaloisField(_FiniteField):
    """GF(p^2) with basis 1, w where w^2 = s*w + t.

    Odd p: s = 0 and t = the least quadratic nonresidue mod p.
    p = 2: w^2 = w + 1.  Elements are pairs (a, b) of residues.
    """

    _auto_involution = "frobenius"

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

    def is_zero(self, x):
        return x == (0, 0)

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
        """x -> x^p: w goes to the other root s - w of its minimal polynomial."""
        a, b = x
        return ((a + b * self.s) % self.p, (-b) % self.p)

    def inv(self, x):
        if x == (0, 0):
            raise ValueError("0 is not a unit in GF(%d^2)" % self.p)
        fx = self.frobenius(x)
        norm = self.mul(x, fx)
        if norm[1]:
            raise RuntimeError("norm of %r is not in GF(%d)" % (x, self.p))
        n0inv = pow(norm[0], -1, self.p)
        return ((fx[0] * n0inv) % self.p, (fx[1] * n0inv) % self.p)

    def elements(self):
        for a in range(self.p):
            for b in range(self.p):
                yield (a, b)

    def parse(self, text):
        a = b = 0
        for term, coef, k in _terms(text, "w"):
            if coef.denominator != 1:
                raise ValueError("fractional literal %r in GF(p^2)" % term)
            if k is None:
                a += coef.numerator
            elif k == 1:
                b += coef.numerator
            else:
                raise ValueError("bad GF(p^2) literal term %r" % term)
        return a % self.p, b % self.p

    def fmt(self, x):
        return _fmt_terms(x, "w")

    def random_element(self, rnd):
        return (rnd.randrange(self.p), rnd.randrange(self.p))

    def __repr__(self):
        return "GF(%d^2)" % self.p


@functools.cache
def cyclotomic_polynomial(n: int) -> list:
    """Integer coefficient list of Phi_n, ascending degree, monic."""
    # x^n - 1 = prod of Phi_d over d | n; divide the smaller ones out.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = cyclotomic_polynomial(d)
        dd = len(den) - 1
        # synthetic division by the monic Phi_d: the quotient is left in
        # poly[dd:], the remainder in poly[:dd]
        for i in range(len(poly) - 1, dd - 1, -1):
            for j in range(dd):
                poly[i - dd + j] -= poly[i] * den[j]
        if any(poly[:dd]):
            raise RuntimeError("Phi_%d does not divide x^%d - 1" % (d, n))
        poly = poly[dd:]
    return poly


def _reduced(nums, den: int) -> tuple:
    """The element nums / den in lowest terms, for den > 0: one gcd over
    the denominator and every numerator."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(c // g for c in nums), den // g


class CyclotomicField(Ring):
    """Q(zeta_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1).

    An element is a pair (nums, den): a tuple of int numerators, one per
    basis power, over one int den > 0, with gcd(den, *nums) == 1, so that
    == and hash compare values.  The arithmetic runs on ints and ends in
    one gcd (_reduced); Fractions appear only in parse, fmt and
    random_element."""

    is_field = True
    _auto_involution = "conj"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("Q(zeta_n) needs n >= 1")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = d = len(self.modulus) - 1
        self.kind = ("CYC", n)
        # zeta^k for k = 0..n-1, in integer coordinates: multiply by zeta
        # and reduce by the monic modulus
        powers = [(1,) + (0,) * (d - 1)]
        for _ in range(n - 1):
            last = powers[-1]
            top = last[-1]
            powers.append(tuple([c - top * p for c, p in zip((0,) + last[:-1], self.modulus)]))
        self._zeta_ints = powers
        self._one, self._zero = (powers[0], 1), ((0,) * d, 1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def is_zero(self, x):
        return not any(x[0])

    def zeta(self, k: int = 1):
        return self._zeta_ints[k % self.n], 1

    def add(self, x, y):
        (xs, dx), (ys, dy) = x, y
        if dx == dy:
            return _reduced([a + b for a, b in zip(xs, ys)], dx)
        return _reduced([a * dy + b * dx for a, b in zip(xs, ys)], dx * dy)

    def neg(self, x):
        return tuple([-a for a in x[0]]), x[1]

    def _mul_ints(self, xs, ys) -> list:
        """The product of two integer coordinate vectors, reduced by the
        monic integer modulus."""
        d, mod = self.degree, self.modulus
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    if b:
                        prod[i + j] += a * b
        # zeta^i = zeta^(i-d) * (zeta^d - Phi_n(zeta)), top degree down
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                for j in range(d):
                    prod[i - d + j] -= c * mod[j]
        del prod[d:]
        return prod

    def mul(self, x, y):
        return _reduced(self._mul_ints(x[0], y[0]), x[1] * y[1])

    def inv(self, x):
        """den / N(nums) times the product of the other conjugates of nums,
        all in Z[zeta]; the norm N(nums) is a nonzero int."""
        nums, den = x
        if not any(nums):
            raise ValueError("0 is not a unit in Q(zeta_%d)" % self.n)
        y = self._zeta_ints[0]
        for k in range(2, self.n):
            if gcd(k, self.n) == 1:
                y = self._mul_ints(y, self._galois_ints(nums, k))
        norm = self._mul_ints(nums, y)
        if any(norm[1:]):
            raise RuntimeError("norm of %r is not rational" % (x,))
        sign = -1 if norm[0] < 0 else 1
        return _reduced([sign * den * c for c in y], sign * norm[0])

    def _galois_ints(self, nums, k) -> list:
        """sigma_k on integer coordinates."""
        acc = [0] * self.degree
        for i, c in enumerate(nums):
            if c:
                for j, p in enumerate(self._zeta_ints[i * k % self.n]):
                    if p:
                        acc[j] += c * p
        return acc

    def _galois(self, x, k):
        """sigma_k: zeta -> zeta^k, an automorphism for k prime to n.  It
        maps Z[zeta] onto itself by an integer matrix with an integer
        inverse (sigma_k^-1), so the numerators keep their gcd and the
        result is in lowest terms as it stands."""
        return tuple(self._galois_ints(x[0], k)), x[1]

    def conj(self, x):
        """zeta -> zeta^(n-1), the inversion automorphism sigma_-1."""
        return self._galois(x, -1)

    def _from_fractions(self, coords) -> tuple:
        """The element with these Fraction coordinates: over their least
        common denominator, which leaves no common factor."""
        den = lcm(*[c.denominator for c in coords])
        return tuple([c.numerator * (den // c.denominator) for c in coords]), den

    def parse(self, text):
        from fractions import Fraction

        acc = [Fraction(0)] * self.degree
        for _, coef, k in _terms(text, "zeta"):
            for j, p in enumerate(self._zeta_ints[(k or 0) % self.n]):
                acc[j] += coef * p
        return self._from_fractions(acc)

    def fmt(self, x):
        from fractions import Fraction

        nums, den = x
        return _fmt_terms([Fraction(c, den) for c in nums], "zeta")

    def random_element(self, rnd):
        from fractions import Fraction

        return self._from_fractions(
            [Fraction(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(self.degree)]
        )

    def _unit_generator(self, n: int):
        """zeta^(m/n) when n | m, else -1 for n = 2."""
        if self.n % n == 0:
            return self.zeta(self.n // n)
        if n == 2:
            return self.neg(self.one())
        raise ValueError("Q(zeta_%d) has no canonical order-%d subgroup" % (self.n, n))

    def __repr__(self):
        return "Q(zeta_%d)" % self.n


# --- literal parsing helpers -------------------------------------------------

# int() and Fraction() also take non-ASCII digits and underscores (Fraction
# from Python 3.11 on), and Fraction() decimals and exponents; every literal
# is matched here first, so it parses the same on every supported Python
_INT_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# One term of a GF(p^2) or Q(zeta_n) sum: a sign, optional on the first term
# only, then a coefficient, a generator power or coef*power (the `*` is
# required when group 2, the coefficient, matched), then the end or the next
# term's sign
_TERM_RE = re.compile(r"(^[+-]?|[+-])(?=[0-9]|zeta|w)([0-9]+(?:/[0-9]+)?)?"
                      r"(?:(?(2)\*)(zeta|w)(?:\^([0-9]+))?)?(?=[+-]|\Z)")
_BAD_TERM_RE = re.compile(r"[+-]?[^+-]*")  # a term named in an error: up to the next sign


def _literal(pattern, text, kind):
    if not pattern.fullmatch(text):
        raise ValueError("bad %s literal %r" % (kind, text))
    return text


def _terms(text, gen):
    """Yield (term, coef, k) for the terms of a sum in the generator gen:
    the term's text, its signed Fraction coefficient and its power of gen,
    None for a coefficient alone."""
    from fractions import Fraction

    if not text:
        raise ValueError("empty ring literal")
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError("bad ring literal term %r" % _BAD_TERM_RE.match(text, pos).group())
        sign, num, g, k = m.groups()
        if g not in (None, gen):
            raise ValueError("generator %r not valid here" % g)
        try:
            coef = Fraction(num or 1)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % m.group()) from None
        yield m.group(), -coef if sign == "-" else coef, None if g is None else int(k or 1)
        pos = m.end()


# --- ring spec strings -------------------------------------------------------

# ASCII digits only, as in ring literals: \d and int() also take other
# Unicode decimal digits, so GF(\u0663) would otherwise read as GF(3)
_SPEC_RE = re.compile(r"(Z|Q|GF\(([0-9]+)\)|GF\(([0-9]+)\^2\)|Q\(zeta_([0-9]+)\))")


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec string: Z, Q, GF(p), GF(p^2), Q(zeta_n), within the
    bounds in the module docstring."""
    m = _SPEC_RE.fullmatch(spec.replace(" ", ""))
    if not m:
        raise ValueError("unknown ring spec %r" % spec)
    if m.group(2) or m.group(3):
        p = int(m.group(2) or m.group(3))
        if (p if m.group(2) else p * p) > 2 ** 20:
            raise ValueError("%s has more than 2^20 elements" % m.group(1))
        return PrimeField(p) if m.group(2) else QuadraticGaloisField(p)
    if m.group(4):
        n = int(m.group(4))
        if n > 1024:
            raise ValueError("%s: n may be at most 1024" % m.group(1))
        return CyclotomicField(n)
    return IntegerRing() if m.group(1) == "Z" else RationalRing()


# --- unit subgroups ----------------------------------------------------------


class UnitSubgroup:
    """Finite cyclic subgroup of R^x: a generator of exact order n.

    Members are exponents 0..n-1; embed() turns an exponent into the ring
    element, exponent() inverts that (lookup, the powers are distinct), and
    scale() multiplies a ring element by one.
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

    def scale(self, k: int, x):
        """g^k * x, and x itself when k = 0 mod n."""
        k %= self.order
        return x if k == 0 else self.ring.mul(self.powers[k], x)

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


def unit_subgroup(ring: Ring, n: int) -> UnitSubgroup:
    """Canonical order-n cyclic unit subgroup of the ring.

    Z and Q carry {1} and {1,-1}; finite fields take the least element of
    exact order n in enumeration order; Q(zeta_m) takes zeta^(m/n) when
    n | m, and -1 for n = 2 when m is odd.
    """
    if n < 1:
        raise ValueError("subgroup order must be positive")
    return UnitSubgroup(ring, n, ring._unit_generator(n))


# --- involutions -------------------------------------------------------------


class Involution:
    """Ring automorphism of order <= 2: id, or the ring's own conj
    (Q(zeta_n)) or frobenius (GF(p^2)) method."""

    KINDS = ("id", "conj", "frobenius")
    _FIELDS = {"conj": "cyclotomic fields", "frobenius": "GF(p^2)"}

    def __init__(self, ring: Ring, name: str):
        if name not in self.KINDS:
            raise ValueError("unknown involution %r" % name)
        if name != "id" and not hasattr(ring, name):
            raise ValueError("%s is only defined on %s" % (name, self._FIELDS[name]))
        self.ring = ring
        self.name = name
        self._map = None if name == "id" else getattr(ring, name)

    def __call__(self, x):
        return x if self._map is None else self._map(x)

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
    """The involution called name on ring; "auto" picks the ring's own."""
    if name == "auto":
        name = ring._auto_involution
    return Involution(ring, name)


def check_t_inverse_involution(ring: Ring, conj: Involution, tgrp: UnitSubgroup) -> bool:
    """True iff conj(z) * z == 1 for every element z of the subgroup.
    Every Involution is a ring automorphism, so conj(g^k) g^k is
    (conj(g) g)^k and the generator g decides it."""
    return ring.mul(conj(tgrp.generator), tgrp.generator) == ring.one()
