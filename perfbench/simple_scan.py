"""Workload `simple_scan`: many small incremental rank scans with early exit.

Each job is one exhaustive is_simple verdict, plus the structural verdict
where the groupoid is effective.  GF(2) contexts take the bitmask path and
the others the generic dict path.  A kernel change that speeds up `ideals`
can slow this workload, and this is where that shows.

Each slot fixes whether its algebra is simple; the seed picks the cocycle
within that kind (a random coboundary twist, or for the Klein group a random
bilinear form with a given commutator form, then a coboundary).

Oracles.  Known verdicts: twisted pair groupoid algebras are matrix algebras
(every cocycle on a principal transitive groupoid is a coboundary), so
simple; the Klein twist is simple exactly when its commutator form is
nondegenerate (oracles.klein_twisted_simple); the sign twist of the order-2
group is simple exactly when -1 is not a square; disconnected groupoids and
group algebras with p dividing |G| are not.  Each negative certificate is
re-checked by ideal_generated(ctx, [cert]).dim < arrows.
"""

from __future__ import annotations

import oracles
from common import Slot, coboundary, context, groupoid

import twistalg as T

REFERENCE = "loop"  # jobs are scaled by the in-process reference loop (run.Reference)

# (groupoid, ring, cocycle kind, expected verdict, in the self-test cycle).
# Cocycle kinds: "none" (trivial), "cobN" (a coboundary of order N),
# "klein_nondeg"/"klein_deg" (order 2), "sign" (z2, order 2).
SLOTS = [
    ("pair4", "GF(2)", "none", True, False),
    ("pair3", "GF(3)", "cob2", True, False),
    ("pair3", "GF(2)", "none", True, True),
    ("pair2", "GF(5)", "cob4", True, True),
    ("swap2", "GF(7)", "cob3", True, False),
    ("swap2", "GF(5)", "cob2", True, False),
    ("klein", "GF(3)", "klein_nondeg", True, True),
    ("klein", "GF(3)", "klein_deg", False, True),
    ("klein", "GF(5)", "klein_nondeg", True, False),
    ("klein", "GF(5)", "klein_deg", False, False),
    ("klein", "GF(7)", "klein_nondeg", True, False),
    ("klein", "GF(7)", "klein_deg", False, False),
    ("klein", "GF(3^2)", "klein_nondeg", True, False),
    ("klein", "GF(3^2)", "klein_deg", False, False),
    ("z2", "GF(3)", "sign", oracles.sign_square_simple(3), True),
    ("z2", "GF(7)", "sign", oracles.sign_square_simple(7), False),
    ("z2", "GF(5)", "sign", oracles.sign_square_simple(5), False),
    ("pair2+pair2", "GF(3)", "cob2", False, True),
    ("pair2+pair2", "GF(5)", "none", False, False),
    ("fix3", "GF(3)", "cob2", False, True),
    ("fix3", "GF(2)", "none", False, False),
    ("s3", "GF(3)", "cob2", False, True),
    ("s3", "GF(2)", "none", False, False),
    ("z8", "GF(2)", "none", False, True),
    ("z3", "GF(3)", "none", False, False),
]


def _klein_form(nondeg, rnd):
    """A bilinear form x^T M y on (Z/2)^2 (arrow i has bits i & 1, i >> 1),
    a 2-cocycle; its commutator form is nondegenerate iff M01 != M10."""
    m00, m11, m01 = rnd.randrange(2), rnd.randrange(2), rnd.randrange(2)
    m10 = 1 - m01 if nondeg else m01
    mat = ((m00, m01), (m10, m11))
    bits = lambda x: (x & 1, x >> 1)
    return {(x, y): sum(mat[i][j] * bits(x)[i] * bits(y)[j] for i in range(2) for j in range(2)) % 2
            for x in range(4) for y in range(4)}


def make_specs(rnd):
    specs = []
    for name, ring, kind, simple, smoke in SLOTS:
        spec = {"groupoid": name, "ring": ring, "kind": kind, "simple": simple, "smoke": smoke}
        gpd = groupoid(name)
        if kind.startswith("cob"):
            spec["order"] = int(kind[3:])
            spec["cob"] = coboundary(gpd, spec["order"], rnd)
        elif kind.startswith("klein"):
            spec["order"] = 2
            spec["table"] = sorted(_klein_form(kind == "klein_nondeg", rnd).items())
            spec["cob"] = coboundary(gpd, 2, rnd)
        elif kind == "sign":
            spec["order"] = 2
        specs.append(spec)
    return specs


def build(specs, workdir):
    return [_slot(spec) for spec in specs]


def _cocycle(gpd, spec):
    kind = spec["kind"]
    if kind == "none":
        return None
    if kind == "sign":
        return T.z2_neg_cocycle()
    if kind.startswith("cob"):
        return T.apply_coboundary(T.trivial_cocycle(gpd, spec["order"]), spec["cob"])
    return T.apply_coboundary(T.Cocycle(gpd, 2, dict(spec["table"])), spec["cob"])


def _slot(spec):
    gpd = groupoid(spec["groupoid"])
    coc = _cocycle(gpd, spec)
    ctx = context(gpd, spec["ring"], coc)
    structural = T.is_effective(gpd)
    if spec["kind"].startswith("klein") and oracles.klein_twisted_simple(coc.table, ctx.ring.p) != spec["simple"]:
        raise AssertionError("klein cocycle does not have the slot's commutator form")

    def run():
        res = T.is_simple(ctx, mode="exhaustive")
        return res, (T.is_simple(ctx).simple if structural else None)

    cert_dims = {}  # certificate -> dim of the ideal it generates, computed once

    def cert_dim(cert):
        key = tuple(sorted(cert.coeffs.items()))
        if key not in cert_dims:
            cert_dims[key] = T.ideal_generated(ctx, [cert]).dim
        return cert_dims[key]

    def check(out):
        res, struct = out
        if res.simple != spec["simple"]:
            return "exhaustive verdict %r, expected %r" % (res.simple, spec["simple"])
        if structural and struct != spec["simple"]:
            return "structural verdict %r, expected %r" % (struct, spec["simple"])
        if not res.simple and not (res.certificate.coeffs and cert_dim(res.certificate) < gpd.m):
            return "certificate generates the whole algebra"
        return None

    desc = {"kind": "simple", "groupoid": spec["groupoid"], "arrows": gpd.m, "ring": spec["ring"],
            "cocycle_order": coc.n if coc else 1, "cocycle": spec["kind"]}
    return Slot(desc, run, check, spec["smoke"])
