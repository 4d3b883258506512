"""Unit-valued 2-cocycles, coboundaries, cohomology, and gradings.

A cocycle on a groupoid stores exponents mod n (n = the order of the
distinguished cyclic unit subgroup), one per composable pair; the actual
ring value g^exp is produced only inside the algebra layer.  On a valid
groupoid the 2-cocycle identity holds everywhere once it holds at the
middles in the groupoid's generating set, so validate_cocycle checks only
those.  Storing exponents makes the coboundary relation and the 2-cocycle
identity linear systems over Z/n, and one solve serves both.
_diagonalize reduces the integer matrix once, recording its row
operations, and _solve_mod replays them on a right-hand side mod n to
return one solution and the kernel.  check_cohomologous takes a solution
of the first, a coboundary linking two cocycles, which then agree in
H^2 = Z^2 / B^2 (Brown, Cohomology of Groups, GTM 87).  Its matrix depends
on the groupoid alone, so the diagonalization is kept on the groupoid
(derived) and shared by every order n and every pair of cocycles over it.
enumerate_cocycles lists Z^2 as the kernel of the second, diagonalized on
each call.  brute_force_cohomologous is the independent search over all
n^(#non-unit arrows) candidate coboundaries, kept as the solver's test
oracle.

Gradings are groupoid homomorphisms into a finite group (multiplication
table) or into the integers; degrees are stored per arrow.  Tables are
read-only; check_cocycle and check_grading validate once, not the groupoid.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Optional, Sequence

from .groupoid import (
    AxiomError, BindOnce, Groupoid, associativity_failures, check_groupoid, checked,
    composable_pairs, derived, generator_middles,
)


class Cocycle(BindOnce):
    """Exponent table over Z/n on the composable pairs of a groupoid."""

    __slots__ = ("gpd", "n", "table", "checked")

    def __init__(self, gpd: Groupoid, n: int, table: dict):
        if n < 1:
            raise ValueError("cocycle order must be positive")
        self.gpd = gpd
        self.n = n
        self.table = MappingProxyType({pair: k % n for pair, k in table.items()})
        self.checked = False

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Cocycle)
            and self.gpd == other.gpd
            and self.n == other.n
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.gpd, self.n, tuple(sorted(self.table.items()))))

    def __repr__(self):
        nontriv = sum(1 for k in self.table.values() if k)
        return "Cocycle(order=%d, nontrivial_pairs=%d)" % (self.n, nontriv)


def trivial_cocycle(gpd: Groupoid, n: int) -> Cocycle:
    return Cocycle(gpd, n, {pair: 0 for pair in composable_pairs(gpd)})


def validate_cocycle(coc: Cocycle) -> list:
    """Violations of totality, normalisation, and the 2-cocycle identity.

    The groupoid must be valid; that is not checked here.  Totality holds
    when the table's keys are comp's, and the pairs are named only when
    they are not.  One pass over the table splits it into per-arrow rows
    {c: value on (a, c)}, which the rest reads.  The identity is checked at
    middles in generating_set only: on an associative groupoid the defect
    d(a, b, c) has zero coboundary, which gives d(a, bb', c) = 0 whenever d
    vanishes at middles b and b', and normalisation makes it vanish at
    units."""
    g, t = coc.gpd, coc.table
    if t.keys() != g.comp.keys():
        pairs = set(composable_pairs(g))
        v = ["no value on composable pair (%d, %d)" % p for p in pairs if p not in t]
        v += ["value on non-composable pair (%d, %d)" % p for p in t if p not in pairs]
        if v:
            return v
    n, comp, v = coc.n, g.comp, []
    rows = [{} for _ in range(g.m)]
    for (a, c), k in t.items():
        rows[a][c] = k
    for a in range(g.m):
        if rows[g.rng[a]][a] % n != 0:
            v.append("normalisation fails on (rng(%d), %d)" % (a, a))
        if rows[a][g.src[a]] % n != 0:
            v.append("normalisation fails on (%d, src(%d))" % (a, a))
    bad = []
    for b, left, right in generator_middles(g):
        # value on (a,b) then (ab,c) must match (a,bc) then (b,c)
        bc = [(c, comp[(b, c)], rows[b][c]) for c in right]
        for a in left:
            ta = rows[a]
            k, tab = ta[b], rows[comp[(a, b)]]
            bad += [(a, b, c) for c, x, y in bc if (k + tab[c] - ta[x] - y) % n]
    v += ["2-cocycle identity fails at triple (%d, %d, %d)" % abc for abc in sorted(bad)]
    return v


def check_cocycle(coc: Cocycle) -> Cocycle:
    return checked(coc, "cocycle", validate_cocycle)


def _same_context(x: Cocycle, y: Cocycle):
    if x.gpd != y.gpd or x.n != y.n:
        raise ValueError("cocycles live over different groupoids or orders")


def invert_cocycle(coc: Cocycle) -> Cocycle:
    return Cocycle(coc.gpd, coc.n, {p: -k for p, k in coc.table.items()})


def multiply_cocycles(x: Cocycle, y: Cocycle) -> Cocycle:
    _same_context(x, y)
    return Cocycle(x.gpd, x.n, {p: k + y.table[p] for p, k in x.table.items()})


# --- coboundaries ------------------------------------------------------------


def validate_coboundary(gpd: Groupoid, n: int, b: Sequence[int]) -> list:
    if len(b) != gpd.m:
        return ["coboundary vector has wrong length"]
    return ["coboundary is nontrivial on unit %d" % u for u in gpd.units if b[u] % n]


def apply_coboundary(coc: Cocycle, b: Sequence[int]) -> Cocycle:
    """Perturb by b: new value on (a, c) is old * b(a) b(c) / b(ac)."""
    bad = validate_coboundary(coc.gpd, coc.n, b)
    if bad:
        raise ValueError("; ".join(bad))
    g = coc.gpd
    table = {
        (a, c): k + b[a] + b[c] - b[g.comp[(a, c)]] for (a, c), k in coc.table.items()
    }
    return Cocycle(g, coc.n, table)


def brute_force_cohomologous(
    target: Cocycle, base: Cocycle, cap: int = 200000
) -> Optional[list]:
    """Search all coboundary vectors for apply_coboundary(base, b) == target.

    Candidates run in lexicographic order over the non-unit arrows, so the
    returned witness is the lexicographically least one.  Independent of
    the linear-algebra solver; quadratic-time per candidate.
    """
    _same_context(target, base)
    g = target.gpd
    free = [a for a in range(g.m) if a not in g.unit_set]
    n = target.n
    if n ** len(free) > cap:
        raise ValueError("search space larger than cap %d" % cap)
    for combo in itertools.product(range(n), repeat=len(free)):
        b = [0] * g.m
        for a, k in zip(free, combo):
            b[a] = k
        if apply_coboundary(base, b) == target:
            return b
    return None


def _pivot(a, t, rows, cols):
    """(i, j) of the least nonzero |a[i][j]| with i, j >= t, first in
    row-major order, or None.  No entry is less than a unit, so the scan
    stops at the first unit."""
    best = None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            x = abs(row[j])
            if x and (best is None or x < best[0]):
                if x == 1:
                    return i, j
                best = (x, i, j)
    return best[1:] if best else None


def _diagonalize(mat, cols):
    """Integer diagonalization U * A * V = D with unimodular U, V.

    Returns (d, V, ops): d the diagonal of D, V as a list of rows, and U as
    its row operations in the order they were made, (i, t, None) for a swap
    of rows i and t and (i, t, q) for row i -= q * row t.  D depends on A
    alone, so _solve_mod replays ops on any right-hand side and any modulus.
    Plain gcd-style row and column reduction; the divisibility chain of full
    Smith form is not needed to solve linear systems, a diagonal D suffices.
    """
    rows = len(mat)
    a = [list(r) for r in mat]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    ops = []
    t = 0
    while True:
        pivot = _pivot(a, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            ops.append((t, pi, None))
        if pj != t:
            for r in a + v:
                r[t], r[pj] = r[pj], r[t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                for j in range(cols):
                    a[i][j] -= q * a[t][j]
                ops.append((i, t, q))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                for i in range(rows):
                    a[i][j] -= q * a[i][t]
                for i in range(cols):
                    v[i][j] -= q * v[i][t]
                if a[t][j]:
                    dirty = True
        if not dirty:
            t += 1
    return [a[i][i] for i in range(min(rows, cols))], v, ops


def _solve_mod(diag, rhs, n):
    """Every solution of mat * x == rhs (mod n) in (Z/n)^cols, from
    diag = _diagonalize(mat, cols): (x, kernel), x one solution or None,
    kernel the (order, column) pairs whose cyclic groups sum directly to the
    solutions of mat * x == 0.  With D = U * mat * V, x = V * y and
    c = U * rhs, row i reads d_i * y_i == c_i (mod n), d_i = 0 past the
    rank.  With g = gcd(d_i, n) it is solvable exactly when g divides c_i,
    by y_i = (d_i / g)^-1 * (c_i / g) mod n / g, and y_i then moves in steps
    of n / g: column i of V times that step has order g, and orders of 1
    are left out."""
    d, v, ops = diag
    cols = len(v)
    c = [x % n for x in rhs]
    for i, t, q in ops:
        if q is None:
            c[i], c[t] = c[t], c[i]
        else:
            c[i] = (c[i] - q * c[t]) % n
    solvable = not any(c[cols:])
    y, kernel = [0] * cols, []
    for i in range(cols):
        di, ci = (d[i], c[i]) if i < len(d) else (0, 0)
        g = math.gcd(di, n)
        if ci % g:
            solvable = False
        else:
            y[i] = pow(di // g, -1, n // g) * (ci // g) % (n // g)
        if g > 1:
            kernel.append((g, [n // g * r[i] % n for r in v]))
    if not solvable:
        return None, kernel
    return [sum(r[k] * y[k] for k in range(cols)) % n for r in v], kernel


@derived
def _coboundary_solve(g: Groupoid):
    """(pairs, free, diag) for the coboundary system of g: one row per
    composable pair, sorted, reading b(a) + b(c) - b(ac) over the columns
    free, the non-unit arrows, and diag its _diagonalize.  Kept on g
    (derived); every order n and every pair of cocycles over g share it."""
    free = [a for a in range(g.m) if a not in g.unit_set]
    col = {a: i for i, a in enumerate(free)}
    pairs = sorted(g.comp)
    mat = []
    for a, c in pairs:
        row = [0] * len(free)
        for arrow, sgn in ((a, 1), (c, 1), (g.comp[(a, c)], -1)):
            if arrow in col:
                row[col[arrow]] += sgn
        mat.append(row)
    return pairs, free, _diagonalize(mat, len(free))


def check_cohomologous(target: Cocycle, base: Cocycle) -> Optional[list]:
    """A coboundary b with apply_coboundary(base, b) == target, or None.

    The difference of exponent tables must equal b(a) + b(c) - b(ac) mod n
    on every composable pair; unknowns are the non-unit arrow values,
    solved by the exact integer diagonalization that _coboundary_solve
    keeps per groupoid.  Both tables must be defined on exactly the
    composable pairs, else ValueError.  The witness is verified before it
    is returned; brute_force_cohomologous is the exhaustive search it is
    tested against.
    """
    _same_context(target, base)
    g = target.gpd
    keys = g.comp.keys()
    if target.table.keys() != keys or base.table.keys() != keys:
        raise ValueError("cocycle table is not defined on exactly the composable pairs")
    pairs, free, diag = _coboundary_solve(g)
    x, _ = _solve_mod(diag, [target.table[p] - base.table[p] for p in pairs], target.n)
    if x is None:
        return None
    b = [0] * g.m
    for a, xa in zip(free, x):
        b[a] = xa
    if apply_coboundary(base, b) != target:
        raise RuntimeError("solver coboundary does not link the cocycles")
    return b


def free_pairs(g: Groupoid) -> list:
    """Composable pairs with both factors non-unit: the coordinates left
    free once a cocycle is normalised."""
    return [
        (a, b)
        for a, b in composable_pairs(g)
        if a not in g.unit_set and b not in g.unit_set
    ]


def enumerate_cocycles(g: Groupoid, n: int, cap: int = 2 ** 20) -> list:
    """Every normalised cocycle with values in Z/n, in lexicographic order
    of the value tuple over the free pairs (sorted); pairs with a unit
    factor are forced to 0.  The free values are the kernel mod n of the
    2-cocycle identity at the triples validate_cocycle checks, read off the
    same _solve_mod that check_cohomologous uses.  cap bounds the number of
    cocycles, before any is formed."""
    free = sorted(free_pairs(g))
    where = {pair: i for i, pair in enumerate(free)}
    comp, rows = g.comp, {}
    for b, left, right in generator_middles(g):
        for a in left:
            ab = comp[(a, b)]
            for c in right:
                row = [0] * len(free)
                for pair, sgn in (((a, b), 1), ((ab, c), 1), ((a, comp[(b, c)]), -1), ((b, c), -1)):
                    if pair in where:
                        row[where[pair]] += sgn
                rows[tuple(row)] = None
    _, gens = _solve_mod(_diagonalize(list(rows), len(free)), [0] * len(rows), n)
    if math.prod(order for order, _ in gens) > cap:
        raise ValueError("more than %d cocycles (cap)" % cap)
    points = [(0,) * len(free)]
    for order, col in gens:
        steps = [[j * x for x in col] for j in range(order)]
        points = [tuple((x + y) % n for x, y in zip(p, s)) for s in steps for p in points]
    forced = {pair: 0 for pair in composable_pairs(g) if pair not in where}
    return [Cocycle(g, n, {**forced, **dict(zip(free, values))}) for values in sorted(points)]


# --- gradings ----------------------------------------------------------------


class GroupTable:
    """Finite group given by its multiplication table, checked as its
    one-unit groupoid gpd (what group_groupoid returns)."""

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        k = len(self.table)
        if any(len(row) != k for row in self.table):
            raise ValueError("multiplication table is not square")
        if any(min(row) < 0 or max(row) >= k for row in self.table):
            raise ValueError("table entry out of range")
        tbl = self.table
        ident = next(
            (e for e in range(k) if all(tbl[e][x] == x == tbl[x][e] for x in range(k))), None
        )
        if ident is None:
            raise ValueError("table has no identity")
        self.identity = ident
        # the last two-sided inverse of each x, if any
        inv = [
            max((y for y, v in enumerate(row) if v == ident == tbl[y][x]), default=None)
            for x, row in enumerate(tbl)
        ]
        if None in inv:
            raise ValueError("table has a non-invertible element")
        self.inverse = tuple(inv)
        # elements are already 0..k-1, so the table is the composition.  With
        # an identity and inverses only associativity can fail (inverses that
        # are not unique already break it), and the least failing triple
        # (x, g, y), g a generator, names the error
        self.gpd = Groupoid([ident], [ident] * k, [ident] * k, inv,
                            {(x, y): xy for x, row in enumerate(tbl) for y, xy in enumerate(row)})
        try:
            check_groupoid(self.gpd)
        except AxiomError:
            bad = associativity_failures(self.gpd)[0]
            raise ValueError("table is not associative at (%d, %d, %d)" % bad) from None
        self.order = k

    def op(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self.inverse[x]

    def __eq__(self, other):
        return isinstance(other, GroupTable) and self.table == other.table

    def __hash__(self):
        return hash(self.table)


class IntGroup:
    """The integers under addition, as a grading target."""

    identity = 0

    def op(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def __eq__(self, other):
        return isinstance(other, IntGroup)

    def __hash__(self):
        return hash("IntGroup")


def cyclic_group(n: int) -> GroupTable:
    row = list(range(n))
    return GroupTable([row[i:] + row[:i] for i in range(n)])


class Grading(BindOnce):
    """Groupoid homomorphism into a grading group; degree stored per arrow."""

    __slots__ = ("gpd", "group", "deg", "checked")

    def __init__(self, gpd: Groupoid, group, deg: Sequence[int]):
        self.gpd = gpd
        self.group = group
        self.deg = tuple(deg)
        if len(self.deg) != gpd.m:
            raise ValueError("degree vector has wrong length")
        self.checked = False

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Grading)
            and self.gpd == other.gpd
            and self.group == other.group
            and self.deg == other.deg
        )

    def __hash__(self):
        return hash((self.gpd, self.group, self.deg))


def validate_grading(grading: Grading) -> list:
    g = grading.gpd
    grp = grading.group
    deg = grading.deg
    v = []
    if isinstance(grp, GroupTable):
        for a in range(g.m):
            if not (0 <= deg[a] < grp.order):
                v.append("degree of arrow %d is out of range" % a)
        if v:
            return v
    for u in g.units:
        if deg[u] != grp.identity:
            v.append("unit %d has non-identity degree" % u)
    for (a, b), ab in g.comp.items():
        if grp.op(deg[a], deg[b]) != deg[ab]:
            v.append("homomorphism law fails at pair (%d, %d)" % (a, b))
    return v


def check_grading(grading: Grading) -> Grading:
    return checked(grading, "grading", validate_grading)


def kernel_arrows(grading: Grading) -> list:
    """Arrows of identity degree; a wide subgroupoid's arrow set."""
    e = grading.group.identity
    return [a for a in range(grading.gpd.m) if grading.deg[a] == e]
