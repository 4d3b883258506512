"""Workload `ideals`: large row reductions in the structure layer.

Each job is one ideal_generated (closure verified, the default) on a seeded
sparse generator, then a batch of Ideal.member queries, then ck_witness
where the groupoid is effective.  Most of its time goes to rref,
reduce_against and the closure check.

Oracles.  On pair groupoids and their disjoint unions (all untwisted here)
every block M_k is simple, so the ideal is the sum of the blocks the
generator touches: its dimension is the sum of k^2 over them, an element is
a member exactly when its support lies in them, and the witness is a unit of
one of them.  On group groupoids with p dividing |G| (not semisimple) the
dimension and membership come from a separate rank computation mod p on the
composition table.
"""

from __future__ import annotations

import oracles
from common import Slot, context, element, groupoid, memo, pair_blocks, sparse

import twistalg as T

REFERENCE = "loop"  # jobs are scaled by the in-process reference loop (run.Reference)

# (groupoid, ring, blocks the generator touches, in the tiny self-test cycle)
SLOTS = [
    ("pair3", "GF(3)", (0,), True),
    ("pair3", "GF(3)", (0,), False),
    ("pair3", "GF(5)", (0,), False),
    ("pair3", "GF(5)", (0,), False),
    ("pair4", "GF(3)", (0,), False),
    ("pair4", "GF(3)", (0,), False),
    ("pair4", "GF(5)", (0,), False),
    ("pair4", "GF(5)", (0,), False),
    ("pair5", "GF(3)", (0,), False),
    ("pair5", "GF(5)", (0,), False),
    ("pair6", "GF(3)", (0,), False),
    ("pair6", "GF(5)", (0,), False),
    ("pair3", "Q", (0,), True),
    ("pair3", "Q", (0,), False),
    ("pair4", "Q", (0,), False),
    ("pair5", "Q", (0,), False),
    ("pair4+pair3", "GF(3)", (0,), False),
    ("pair4+pair3", "GF(3)", (1,), False),
    ("pair4+pair3", "GF(3)", (0, 1), False),
    ("pair3+pair2", "GF(5)", (1,), True),
    ("s3", "GF(3)", None, True),
    ("s3", "GF(3)", None, False),
    ("z8", "GF(2)", None, True),
    ("z8", "GF(2)", None, False),
    ("z3", "GF(3)", None, False),
]

MEMBERS = 4


def make_specs(rnd):
    specs = []
    for name, ring, touched, smoke in SLOTS:
        blocks = pair_blocks(name)
        if blocks is None:
            m = groupoid(name).m
            inside = everywhere = range(m)
        else:
            inside = [a for i in touched for a in blocks[i][0]]
            everywhere = range(blocks[-1][0].stop)
        # fixed support sizes keep each slot's cost the same across seeds
        gen = {}
        for b in touched or (None,):
            gen.update(sparse(blocks[b][0] if blocks else inside, 2, ring, rnd))
        members = [sparse(inside if q < MEMBERS // 2 else everywhere, 2, ring, rnd)
                   for q in range(MEMBERS)]
        specs.append({"groupoid": name, "ring": ring, "touched": touched,
                      "gen": gen, "members": members, "smoke": smoke})
    return specs


def build(specs, workdir):
    return [_slot(spec) for spec in specs]


def _slot(spec):
    gpd = groupoid(spec["groupoid"])
    ctx = context(gpd, spec["ring"])
    gen = element(ctx, spec["gen"])
    members = [element(ctx, c) for c in spec["members"]]
    effective = T.is_effective(gpd)

    def run():
        ideal = T.ideal_generated(ctx, [gen])
        answers = [ideal.member(f) for f in members]
        witness = T.ck_witness(ctx, ideal) if effective else None
        return ideal.dim, answers, witness

    blocks = pair_blocks(spec["groupoid"])
    if blocks is not None:
        touched = [blocks[i] for i in spec["touched"]]
        arrows = {a for arr, _, _ in touched for a in arr}
        units = {u for _, us, _ in touched for u in us}
        expected = (
            sum(k * k for _, _, k in touched),
            [set(c) <= arrows for c in spec["members"]],
        )

        def check(out):
            dim, answers, witness = out
            if (dim, answers) != expected:
                return "dim/members %r, expected %r" % ((dim, answers), expected)
            if len(witness) != 1 or not witness <= units:
                return "witness %r is not one unit of a touched block" % sorted(witness)
            return None
    else:
        p = ctx.ring.size

        @memo
        def expected():
            ints = lambda coeffs: {a: int(c) for a, c in coeffs.items()}
            rows = oracles.ideal_rows_mod_p(gpd, ints(spec["gen"]), p)
            vec = lambda coeffs: [int(coeffs.get(a, 0)) for a in range(gpd.m)]
            return (
                oracles.rank_mod_p(rows, p),
                [oracles.in_span_mod_p(rows, vec(c), p) for c in spec["members"]],
            )

        def check(out):
            dim, answers, _ = out
            if (dim, answers) != expected():
                return "dim/members %r, expected %r" % ((dim, answers), expected())
            return None

    desc = {"kind": "ideal", "groupoid": spec["groupoid"], "arrows": gpd.m,
            "ring": spec["ring"], "cocycle_order": 1, "members": len(members)}
    return Slot(desc, run, check, spec["smoke"])
