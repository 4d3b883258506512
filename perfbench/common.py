"""Pieces shared by the workloads: job slots, input builders, seeded literals.

Inputs are generated here as plain data (groupoid names, ring specs,
coefficient literals) from the benchmark's own random stream, so the library
only ever sees finished inputs and the inputs' digest does not depend on
library code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import twistalg as T


class Slot:
    """One job of a workload's cycle.

    desc  -- size descriptors (kind, groupoid, arrows, ring, cocycle order)
    run   -- the timed call; returns what the job produced
    check -- untimed: None when the output is right, else what is wrong
    smoke -- kept in the tiny cycle that the self-test runs
    inproc -- for subprocess jobs, the same job run in this process (traced)
    """

    __slots__ = ("desc", "run", "check", "smoke", "inproc")

    def __init__(self, desc, run, check, smoke=False, inproc=None):
        self.desc = desc
        self.run = run
        self.check = check
        self.smoke = smoke
        self.inproc = inproc


def memo(fn):
    """Compute an oracle answer once per slot, on first use, outside timing."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def groupoid(name):
    """'pairN' is pair_groupoid(N); 'A+B' is a disjoint union; other names
    come from the catalog."""
    if "+" in name:
        parts = [groupoid(p) for p in name.split("+")]
        out = parts[0]
        for g in parts[1:]:
            out = T.disjoint_union(out, g)
        return out
    if name.startswith("pair"):
        return T.pair_groupoid(int(name[4:]))
    return T.build(name)


def pair_blocks(name):
    """Arrow ranges and unit lists of the pair-groupoid blocks of a name like
    'pair4+pair3', or None when a part is not a pair groupoid."""
    blocks, off = [], 0
    for part in name.split("+"):
        if not part.startswith("pair"):
            return None
        k = int(part[4:])
        units = [off + i * k + i for i in range(k)]
        blocks.append((range(off, off + k * k), units, k))
        off += k * k
    return blocks


def context(gpd, ring_spec, coc=None, involution=None):
    ring = T.parse_ring(ring_spec)
    if coc is None:
        coc = T.trivial_cocycle(gpd, 1)
    conj = T.parse_involution(ring, involution) if involution else None
    return T.Context(gpd, ring, T.unit_subgroup(ring, coc.n), coc, conj)


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def literal(ring_spec, rnd):
    """A nonzero coefficient literal of the ring, in its own grammar; in
    Q(zeta_n) every power-basis coordinate is nonzero, so that its cost
    does not depend on the seed."""
    if ring_spec.startswith("GF(") and "^" not in ring_spec:
        return str(rnd.randrange(1, int(ring_spec[3:-1])))
    if ring_spec.startswith("GF("):
        p = int(ring_spec[3:ring_spec.index("^")])
        a, b = 0, 0
        while a == b == 0:
            a, b = rnd.randrange(p), rnd.randrange(p)
        return "%d+%d*w" % (a, b)
    if ring_spec == "Q":
        return str(Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.randint(1, 7)))
    if ring_spec.startswith("Q(zeta_"):
        terms = []
        for i in range(_phi(int(ring_spec[7:-1]))):
            c = Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 6), rnd.randint(1, 4))
            gen = "" if i == 0 else ("*zeta" if i == 1 else "*zeta^%d" % i)
            terms.append(("%s%s" if c < 0 or not terms else "+%s%s") % (c, gen))
        return "".join(terms)
    raise ValueError("no literal generator for %r" % ring_spec)


def sparse(arrows, k, ring_spec, rnd):
    """{arrow: literal} on k distinct arrows drawn from `arrows`."""
    return {a: literal(ring_spec, rnd) for a in sorted(rnd.sample(list(arrows), k))}


def element(ctx, coeffs):
    ring = ctx.ring
    return T.from_coeffs(ctx, {a: ring.parse(c) for a, c in coeffs.items()})


def coboundary(gpd, n, rnd):
    """A random exponent vector on the non-unit arrows."""
    return [0 if a in gpd.unit_set else rnd.randrange(n) for a in range(gpd.m)]
