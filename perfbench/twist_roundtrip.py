"""Workload `twist_roundtrip`: cocycles, twists and the equivariant picture.

Each job takes a seeded cocycle and runs build_twist, validate_twist,
find_section and induced_cocycle; then twists_isomorphic against a
cohomologous perturbation (must be found) and, where the base has a
nonzero H^2, against a known different class (must be None); then the
two-route product (equiv_convolve against convolve after psi) and the
two-route star (equiv_star against involute) over Q(zeta_n) or GF(p^2).
Some jobs are enumerate_cocycles on small bases.  Ring representation,
re-validation and H^2 counting show here; ideal and simplicity work does not.

Oracles.  validate_twist finds no violation; the canonical section of the
model twist induces the input cocycle exactly; the returned morphism passes
validate_twist_morphism; the two equivariant routes agree; a pair whose
class invariants differ (oracles.cyclic_invariant, klein_invariant,
restricted_square) gives None, and brute_force_cohomologous agrees wherever
its search space fits BRUTE_CAP; enumerate_cocycles returns |H^2| * |B^2|
cocycles (oracles.cocycle_count), all distinct.
"""

from __future__ import annotations

import oracles
from common import Slot, coboundary, groupoid, memo, sparse

import twistalg as T

BRUTE_CAP = 5000

REFERENCE = "loop"  # jobs are scaled by the in-process reference loop (run.Reference)

# (base, cocycle order, ring, involution, in the self-test cycle)
ROUNDTRIPS = [
    ("pair3", 4, "Q(zeta_4)", "conj", True),
    ("pair3", 4, "GF(3^2)", "frobenius", False),
    ("pair4", 4, "Q(zeta_8)", "conj", False),
    ("pair4", 4, "GF(7^2)", "frobenius", False),
    ("pair4", 4, "Q(zeta_4)", "conj", False),
    ("pair5", 4, "Q(zeta_4)", "conj", False),
    ("pair5", 4, "GF(3^2)", "frobenius", False),
    ("z4", 4, "Q(zeta_4)", "conj", True),
    ("z4", 4, "Q(zeta_8)", "conj", False),
    ("z4", 4, "GF(3^2)", "frobenius", False),
    ("z8", 4, "Q(zeta_4)", "conj", False),
    ("z8", 4, "GF(7^2)", "frobenius", False),
    ("z8", 4, "GF(3^2)", "frobenius", False),
    ("klein", 2, "Q(zeta_4)", "conj", True),
    ("klein", 2, "GF(3^2)", "frobenius", False),
    ("klein", 2, "GF(5^2)", "frobenius", False),
    ("klein", 2, "Q(zeta_8)", "conj", False),
    ("s3", 2, "Q(zeta_4)", "conj", True),
    ("s3", 2, "GF(3^2)", "frobenius", False),
    ("s3", 2, "GF(5^2)", "frobenius", False),
    ("s3", 2, "Q(zeta_8)", "conj", False),
]

# (base, order, family for the count formula, points or group order, in the self-test cycle)
ENUMERATIONS = [
    ("klein", 2, "klein", 4, True),
    ("z4", 2, "cyclic", 4, False),
    ("z3", 3, "cyclic", 3, True),
    ("pair3", 2, "pair", 3, False),
]

# s3_table sorts the permutations of three letters; element 1 is (0 2 1),
# a transposition.
S3_TRANSPOSITION = 1


def _sign(perm_index):
    """Parity of the i-th permutation of three letters in sorted order."""
    return (0, 1, 1, 0, 0, 1)[perm_index]


def _class_table(g, base, k):
    """k times a generator of a nonzero class on base, as an exponent table."""
    if base.startswith("z"):
        m = g.m
        return {(a, b): k * (1 if a + b >= m else 0) for (a, b) in g.comp}
    if base == "klein":
        # bilinear form x1 * y2 on (Z/2)^2: nondegenerate commutator form
        return {(x, y): k * (x & 1) * (y >> 1) for (x, y) in g.comp}
    if base == "s3":
        # the sign map pulled back from the nonzero class on Z/2
        return {(a, b): k * _sign(a) * _sign(b) for (a, b) in g.comp}
    return {pair: 0 for pair in g.comp}  # pair groupoids: H^2 = 0


def _invariant(base, table, n):
    if base.startswith("z"):
        return oracles.cyclic_invariant(table, int(base[1:]), n)
    if base == "klein":
        return oracles.klein_invariant(table, n)
    if base == "s3":
        return oracles.restricted_square(table, S3_TRANSPOSITION, n)
    return 0


def make_specs(rnd):
    specs = []
    for base, n, ring, inv, smoke in ROUNDTRIPS:
        g = groupoid(base)
        specs.append({
            "kind": "roundtrip", "base": base, "order": n, "ring": ring, "involution": inv,
            "smoke": smoke,
            "class": rnd.randrange(n),
            "cob": coboundary(g, n, rnd),
            "perturb": coboundary(g, n, rnd),
            "f": sparse(range(g.m), (3 * g.m + 4) // 5, ring, rnd),
            "g": sparse(range(g.m), (3 * g.m + 4) // 5, ring, rnd),
        })
    for base, n, family, size, smoke in ENUMERATIONS:
        specs.append({"kind": "enumerate", "base": base, "order": n, "family": family,
                      "size": size, "smoke": smoke})
    return specs


def build(specs, workdir):
    return [_roundtrip(s) if s["kind"] == "roundtrip" else _enumerate(s) for s in specs]


def _roundtrip(spec):
    base, n = spec["base"], spec["order"]
    g = groupoid(base)
    coc = T.apply_coboundary(T.Cocycle(g, n, _class_table(g, base, spec["class"])), spec["cob"])
    perturbed = T.apply_coboundary(coc, spec["perturb"])
    other = None
    if not base.startswith("pair"):
        other = T.multiply_cocycles(coc, T.Cocycle(g, n, _class_table(g, base, 1)))
    ring = T.parse_ring(spec["ring"])
    tgrp = T.unit_subgroup(ring, n)
    conj = T.parse_involution(ring, spec["involution"])
    f_coeffs = {a: ring.parse(c) for a, c in spec["f"].items()}
    g_coeffs = {a: ring.parse(c) for a, c in spec["g"].items()}

    def run():
        tw = T.build_twist(g, coc)
        violations = T.validate_twist(tw)
        sec = T.find_section(tw)
        induced = T.induced_cocycle(tw, sec)
        same = T.twists_isomorphic(tw, T.build_twist(g, perturbed))
        diff = T.twists_isomorphic(tw, T.build_twist(g, other)) if other is not None else None
        ectx = T.EquivContext(tw, sec, ring, tgrp, conj)
        ctx = T.Context(g, ring, tgrp, T.invert_cocycle(induced), conj)
        F = T.EquivariantElement(ectx, f_coeffs)
        G = T.EquivariantElement(ectx, g_coeffs)
        product = (T.psi(T.equiv_convolve(F, G), ctx), T.convolve(T.psi(F, ctx), T.psi(G, ctx)))
        star = (T.psi(T.equiv_star(F), ctx), T.involute(T.psi(F, ctx)))
        return violations, induced, same, diff, product, star

    @memo
    def brute():
        """Independent search, where it fits: (finds the perturbation, finds other)."""
        if n ** (g.m - len(g.units)) > BRUTE_CAP:
            return None
        return (T.brute_force_cohomologous(perturbed, coc, cap=BRUTE_CAP) is not None,
                other is not None and T.brute_force_cohomologous(other, coc, cap=BRUTE_CAP) is not None)

    if other is not None and _invariant(base, other.table, n) == _invariant(base, coc.table, n):
        raise AssertionError("the 'different class' shares the cocycle's invariants")

    def check(out):
        violations, induced, same, diff, product, star = out
        if violations:
            return "validate_twist: %s" % violations[:2]
        if induced != coc:
            return "canonical section does not induce the input cocycle"
        if same is None or T.validate_twist_morphism(same):
            return "cohomologous perturbation not matched by a valid morphism"
        if diff is not None:
            return "twists of different classes reported isomorphic"
        if brute() not in (None, (True, False)):
            return "brute-force search disagrees: %r" % (brute(),)
        if product[0] != product[1]:
            return "equiv_convolve and psi-then-convolve disagree"
        if star[0] != star[1]:
            return "equiv_star and involute disagree"
        return None

    desc = {"kind": "twist", "groupoid": base, "arrows": g.m, "ring": spec["ring"],
            "cocycle_order": n, "total_arrows": g.m * n}
    return Slot(desc, run, check, spec["smoke"])


def _enumerate(spec):
    base, n = spec["base"], spec["order"]
    g = groupoid(base)
    expected = oracles.cocycle_count(spec["family"], spec["size"], n)

    def run():
        return T.enumerate_cocycles(g, n)

    def check(out):
        if len(out) != expected or len(set(out)) != len(out):
            return "%d cocycles (%d distinct), expected %d" % (len(out), len(set(out)), expected)
        return None

    desc = {"kind": "enumerate", "groupoid": base, "arrows": g.m, "ring": None, "cocycle_order": n}
    return Slot(desc, run, check, spec["smoke"])
