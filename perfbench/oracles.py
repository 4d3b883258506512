"""Independent answers the workloads check the library against.

Nothing here calls twistalg's linear algebra, cohomology solver or
simplicity code: ranks are taken by a separate elimination mod p on the
groupoid's raw tables, and cohomology classes and simplicity verdicts come
from closed-form invariants of the groups involved.
"""

from __future__ import annotations

import math


def rank_mod_p(rows, p) -> int:
    """Rank of integer row vectors over GF(p)."""
    pivots = {}  # leading index -> row with leading coefficient 1
    for row in rows:
        v = [x % p for x in row]
        for j, prow in sorted(pivots.items()):
            if v[j]:
                c = v[j]
                v = [(x - c * y) % p for x, y in zip(v, prow)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        v = [(x * inv) % p for x in v]
        for j, prow in pivots.items():
            if prow[lead]:
                c = prow[lead]
                pivots[j] = [(x - c * y) % p for x, y in zip(prow, v)]
        pivots[lead] = v
    return len(pivots)


def ideal_rows_mod_p(gpd, f, p) -> list:
    """Rows delta_a * f * delta_b of the untwisted algebra over GF(p), read
    straight off the composition table; f maps arrows to ints."""
    rows = []
    for a in range(gpd.m):
        for b in range(gpd.m):
            row = [0] * gpd.m
            for c, fc in f.items():
                if gpd.src[a] == gpd.rng[c] and gpd.src[c] == gpd.rng[b]:
                    t = gpd.comp[(gpd.comp[(a, c)], b)]
                    row[t] = (row[t] + fc) % p
            if any(row):
                rows.append(row)
    return rows


def in_span_mod_p(rows, v, p) -> bool:
    return rank_mod_p(rows + [v], p) == rank_mod_p(rows, p)


# --- cohomology --------------------------------------------------------------
# A class invariant is a function of the exponent table that every coboundary
# leaves unchanged, so different invariants prove two cocycles are not
# cohomologous.


def cyclic_invariant(table, m, n) -> int:
    """On the cyclic group of order m (arrow k is the element k): the sum of
    c(1, k) over k is changed by a coboundary b by m * b(1), so it is a class
    invariant mod gcd(m, n); it classifies H^2(Z/m; Z/n) = Z/gcd(m, n)."""
    return sum(table[(1, k)] for k in range(m)) % math.gcd(m, n)


def klein_invariant(table, n) -> tuple:
    """On the Klein group (arrows 0..3 under xor): the commutator form
    c(x, y) - c(y, x), and c(x, x) mod gcd(2, n) on each order-2 subgroup."""
    beta = tuple((table[(x, y)] - table[(y, x)]) % n for x in (1, 2) for y in (2, 3) if x < y)
    squares = tuple(table[(x, x)] % math.gcd(2, n) for x in (1, 2, 3))
    return beta + squares


def restricted_square(table, t, n) -> int:
    """c(t, t) mod gcd(2, n) for an element t of order 2: the class of the
    restriction to the subgroup {1, t}."""
    return table[(t, t)] % math.gcd(2, n)


def cocycle_count(kind, k, n) -> int:
    """Normalised Z/n-valued 2-cocycles: |Z^2| = |H^2| * |B^2| with
    |B^2| = n^(non-unit arrows) / |Z^1|, where Z^1 is the homomorphisms to
    Z/n.  kind is 'cyclic' (order k), 'klein' or 'pair' (k points)."""
    if kind == "cyclic":
        hom, h2, nonunits = math.gcd(k, n), math.gcd(k, n), k - 1
    elif kind == "klein":
        hom, h2, nonunits = math.gcd(2, n) ** 2, math.gcd(2, n) ** 3, 3
    elif kind == "pair":
        hom, h2, nonunits = n ** (k - 1), 1, k * k - k
    else:
        raise ValueError(kind)
    return h2 * n ** nonunits // hom


# --- simplicity --------------------------------------------------------------


def klein_twisted_simple(table, p) -> bool:
    """F^c[Klein] with c of order 2, char F = p odd: semisimple by Maschke,
    and simple exactly when the commutator form of c is nondegenerate (then
    only the identity is c-regular and the centre is F).  On (Z/2)^2 an
    alternating form is nondegenerate iff it is nonzero; with it zero the
    algebra is commutative of dimension 4 over a finite field, never a field."""
    if p == 2:
        raise ValueError("needs odd characteristic")
    return (table[(1, 2)] - table[(2, 1)]) % 2 == 1


def sign_square_simple(p) -> bool:
    """GF(p)[x]/(x^2 + 1), the order-2 group twisted by the sign cocycle:
    a field exactly when -1 is not a square mod p."""
    return p % 4 == 3
