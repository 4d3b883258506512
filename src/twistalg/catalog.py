"""Stock groupoids.

Builders for the standard families (pair groupoids, group groupoids,
transformation groupoids of finite group actions, disjoint unions) plus a
small named catalog used by the test suite, the demos, and the CLI.  Pair
groupoids, action groupoids and disjoint unions are rules on labelled
arrows, (i, j), (g, x) and (block, arrow), that groupoid.tabulate indexes;
a group's groupoid is the gpd its GroupTable was checked as.  pair_groupoid,
action_groupoid and disjoint_union hand out their groupoid marked checked,
as check_groupoid marks one, since it is valid by construction:
action_groupoid refuses an action that is no homomorphism of its checked
GroupTable, decided on units and generators of its groupoid by
groupoid.homomorphism_failures, and disjoint_union passes both parts
through check_groupoid first.  Every catalog entry carries the facts it
is expected to satisfy; build() checks the axioms and those facts before
handing the groupoid out.
The cocycle fixtures shipped with the catalog are built here as well;
cocycle enumeration lives in the cocycle module, beside the solver it uses.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, namedtuple
from typing import Sequence

# enumerate_cocycles and free_pairs live beside the solver they use and are
# bound here too, so catalog.enumerate_cocycles still names them
from .cocycle import (  # noqa: F401
    Cocycle,
    GroupTable,
    apply_coboundary,
    cyclic_group,
    enumerate_cocycles,
    free_pairs,
    trivial_cocycle,
)
from .groupoid import (
    Groupoid, check_groupoid, homomorphism_failures, is_effective, is_minimal, orbits, tabulate,
)


def pair_groupoid(n: int) -> Groupoid:
    """Arrows (i, j) with 1 <= i, j <= n, indexed (i-1)*n + (j-1);
    (i, j) runs from unit j to unit i and (i, j)(j, k) = (i, k).

    It comes out marked checked, as check_groupoid marks a groupoid: it is
    valid by construction.  The arrows are the pairs of the full relation
    on n points, composed as relations, which is associative; (j, j) is
    the unit at j, and (j, i) is the inverse of (i, j)."""
    if n < 1:
        raise ValueError("need at least one point")
    g = tabulate(
        itertools.product(range(1, n + 1), repeat=2),
        lambda a: (a[1], a[1]),
        lambda a: (a[0], a[0]),
        lambda a: (a[1], a[0]),
        lambda a, b: (a[0], b[1]),
    )
    g.checked = True
    return g


def action_groupoid(table: GroupTable, perms: Sequence[Sequence[int]]) -> Groupoid:
    """Transformation groupoid of a group action on points 0..s-1.

    perms[g] is the permutation of the points by g; the identity must act
    trivially and perms must compose like the group.  Arrow (g, x) runs
    from x to g.x and is indexed g*s + x.

    It comes out marked checked, as check_groupoid marks a groupoid: an
    action of a checked GroupTable that is a homomorphism makes a groupoid
    by construction.  groupoid.homomorphism_failures decides the law on
    the table's groupoid, and the least failing (g, h) is named."""
    k = table.order
    if len(perms) != k:
        raise ValueError("need one permutation per group element")
    s = len(perms[0])
    perms = [tuple(p) for p in perms]
    for p in perms:
        if sorted(p) != list(range(s)):
            raise ValueError("non-permutation in the action")
    e = table.identity
    if perms[e] != tuple(range(s)):
        raise ValueError("identity does not act trivially")
    # the arrows of table.gpd are the group elements, and perms[g] after
    # perms[h] sends x to perms[g][perms[h][x]]
    bad = homomorphism_failures(table.gpd, perms, lambda pq: tuple(pq[0][x] for x in pq[1]))
    if bad:
        raise ValueError("action is not a homomorphism at (%d, %d)" % bad[0])
    g = tabulate(
        itertools.product(range(k), range(s)),
        lambda a: (e, a[1]),
        lambda a: (e, perms[a[0]][a[1]]),
        lambda a: (table.inverse[a[0]], perms[a[0]][a[1]]),
        # (g, h.x) after (h, x) is (gh, x)
        lambda a, b: (table.table[a[0]][b[0]], b[1]),
    )
    g.checked = True
    return g


def disjoint_union(g1: Groupoid, g2: Groupoid) -> Groupoid:
    """Side-by-side union on arrows (block, arrow), so arrow a of g1 keeps
    index a and arrow a of g2 becomes g1.m + a.

    Both parts pass check_groupoid first, and the union comes out marked
    checked, as check_groupoid marks a groupoid: arrows of different blocks
    never compose, so each block keeps the axioms of its part."""
    gs = (check_groupoid(g1), check_groupoid(g2))
    g = tabulate(
        [(i, a) for i, g in enumerate(gs) for a in range(g.m)],
        lambda x: (x[0], gs[x[0]].src[x[1]]),
        lambda x: (x[0], gs[x[0]].rng[x[1]]),
        lambda x: (x[0], gs[x[0]].inv[x[1]]),
        lambda x, y: (x[0], gs[x[0]].comp[(x[1], y[1])]),
    )
    g.checked = True
    return g


def klein_table() -> GroupTable:
    return GroupTable([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def s3_table() -> GroupTable:
    """Permutations of three letters, sorted as tuples; 0 is the identity."""
    elems = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in elems]
        for p in elems
    ]
    return GroupTable(table)


def z2_neg_cocycle() -> Cocycle:
    """On the order-two group: the nonidentity loop squares to -1."""
    g = build("z2")
    return Cocycle(g, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1})


def pair2_coboundary_cocycle() -> Cocycle:
    """A nontrivial-looking cocycle on the two-point pair groupoid that is
    a coboundary by construction."""
    g = build("pair2")
    return apply_coboundary(trivial_cocycle(g, 2), [0, 1, 0, 0])


# facts: (arrows, units, effective, minimal, orbits), checked by build
CatalogEntry = namedtuple("CatalogEntry", "name summary builder facts")


def _entries():
    e = [
        CatalogEntry("pair%d" % n, "pair groupoid on %d point%s" % (n, "" if n == 1 else "s"),
                     lambda n=n: pair_groupoid(n), (n * n, n, True, True, 1))
        for n in (1, 2, 3, 4)
    ] + [
        CatalogEntry("z%d" % k, "cyclic group of order %d" % k,
                     lambda k=k: cyclic_group(k).gpd, (k, 1, False, True, 1))
        for k in (2, 3, 4, 8)
    ] + [
        CatalogEntry(
            "klein", "Klein four-group", lambda: klein_table().gpd,
            (4, 1, False, True, 1),
        ),
        CatalogEntry(
            "s3", "symmetric group on 3 letters", lambda: s3_table().gpd,
            (6, 1, False, True, 1),
        ),
        CatalogEntry(
            "swap2",
            "order-2 group swapping 2 points",
            lambda: action_groupoid(cyclic_group(2), [(0, 1), (1, 0)]),
            (4, 2, True, True, 1),
        ),
        CatalogEntry(
            "fix3",
            "order-2 group on 3 points with a fixed point",
            lambda: action_groupoid(cyclic_group(2), [(0, 1, 2), (1, 0, 2)]),
            (6, 3, False, False, 2),
        ),
        CatalogEntry(
            "pair2_pair2",
            "two disjoint 2-point pair groupoids",
            lambda: disjoint_union(pair_groupoid(2), pair_groupoid(2)),
            (8, 4, True, False, 2),
        ),
    ]
    return OrderedDict((entry.name, entry) for entry in e)


CATALOG = _entries()


def build(name: str) -> Groupoid:
    """Build a catalog groupoid, check the axioms and its facts."""
    if name not in CATALOG:
        raise ValueError("unknown catalog name %r (try: %s)" % (name, ", ".join(CATALOG)))
    entry = CATALOG[name]
    g = check_groupoid(entry.builder())
    facts = (g.m, len(g.units), is_effective(g), is_minimal(g), len(orbits(g)))
    if facts != entry.facts:
        raise RuntimeError("%s has facts %r, expected %r" % (name, facts, entry.facts))
    return g


def fixture_cocycles(name: str) -> "OrderedDict[str, Cocycle]":
    """Named cocycle fixtures shipped alongside a catalog groupoid."""
    out = OrderedDict()
    if name == "z2":
        out["z2_triv.coc"] = trivial_cocycle(build("z2"), 2)
        out["z2_neg.coc"] = z2_neg_cocycle()
    elif name == "pair2":
        out["pair2_triv.coc"] = trivial_cocycle(build("pair2"), 2)
        out["pair2_cob.coc"] = pair2_coboundary_cocycle()
    return out


def emit_fixtures(dirpath: str, name: str = "all") -> list:
    """Write catalog groupoids (one name, or all) plus their cocycle
    fixtures to dirpath; returns the file names written."""
    import os

    from . import fileio

    names = list(CATALOG) if name == "all" else [name]
    os.makedirs(dirpath, exist_ok=True)
    written = []
    for nm in names:
        fileio.write_groupoid(os.path.join(dirpath, nm + ".gpd"), build(nm))
        written.append(nm + ".gpd")
        for fname, coc in fixture_cocycles(nm).items():
            fileio.write_cocycle(os.path.join(dirpath, fname), coc)
            written.append(fname)
    return written
