"""Every public reader of a groupoid, cocycle, grading or twist gates it.

The inventory is discovered, not kept by hand: every public callable of
twistalg with a parameter annotated Groupoid, Cocycle, Grading, Twist or
TwistMorphism is either gated, with a call per parameter kind below, or
exempt, with the reason it reads its object ungated.  A gated callable
given an invalid object of a kind it takes raises AxiomError of that kind,
with the validator's violations, and marks nothing.  Before the last
readers were gated, enumerate_cocycles listed 2 cocycles on a z2 whose
composite (1, 1) is 1, is_effective answered False for it, and
enumerate_cocycles, disjoint_union, subgroupoid and restrict raised a bare
KeyError on a z2 whose composite (1, 1) is deleted.
"""

import inspect
import os

import pytest

import twistalg as T
from conftest import broken_z2, make_context, non_normalised_z2, unmarked

# annotation -> the kind of the AxiomError its gate raises
KINDS = {"Groupoid": "groupoid", "Cocycle": "cocycle", "Grading": "grading",
         "Twist": "twist", "TwistMorphism": "twist"}

RAW = "a raw constructor: it checks nothing, and its object meets a gate when read"
REPORTER = "a reporter: it returns the violations as data and ignores the mark"
QUERY = ("a table query: the validators run it on tables not yet checked, and so do"
         " GroupTable and test_associativity_failures_match_every_composable_triple;"
         " a gate would need an ungated second copy of it")
EXEMPT = {
    "Cocycle": RAW,
    "Grading": RAW,
    "Twist": RAW,
    "validate_groupoid": REPORTER,
    "validate_cocycle": REPORTER,
    "validate_grading": REPORTER,
    "validate_twist": REPORTER,
    "validate_coboundary": REPORTER + ", on the vector; of the groupoid it reads m and units",
    "composable_pairs": QUERY,
    "composable_triples": QUERY,
    "generating_set": QUERY,
    "orbits": QUERY,
    # groupoid.associativity_failures is not exported, and is a table query too
}

Q = T.parse_ring("Q")
TGRP = T.unit_subgroup(Q, 2)
SEC = (0, 2)  # the canonical section of the sign twist over z2


def zero_cocycle(g):
    """The order-two cocycle 0 on g, built raw as a file would build it."""
    return T.Cocycle(g, 2, {pair: 0 for pair in T.composable_pairs(g)})


def sign_twist():
    coc = T.z2_neg_cocycle()
    return T.build_twist(coc.gpd, coc)


def invalid_twist():
    """The sign twist with its projection sending an arrow off the base,
    over an unmarked copy of the total."""
    tw = sign_twist()
    return unmarked(T.Twist(tw.base, tw.total, 2, tw.embed, (0, 0, 5, 1)))


def graded():
    """A context on z2, the element delta_1 and the ideal it generates."""
    ctx = make_context(T.build("z2"), "Q")
    f = T.delta(ctx, 1)
    return ctx, f, T.ideal_generated(ctx, [f])


def graded_witness(grading):
    ctx, _, ideal = graded()
    return T.graded_ck_witness(ctx, grading, ideal)


def trivial(coc):
    return T.trivial_cocycle(coc.gpd, coc.n)


# name -> annotation -> calls, each of one invalid object of that kind
GATED = {
    "check_groupoid": {"Groupoid": [T.check_groupoid]},
    "is_bisection": {"Groupoid": [lambda g: T.is_bisection(g, [1])]},
    "bisection_product": {"Groupoid": [lambda g: T.bisection_product(g, [1], [1])]},
    "bisection_inverse": {"Groupoid": [lambda g: T.bisection_inverse(g, [1])]},
    "enumerate_bisections": {"Groupoid": [T.enumerate_bisections]},
    "isotropy": {"Groupoid": [T.isotropy]},
    "is_effective": {"Groupoid": [T.is_effective]},
    "is_minimal": {"Groupoid": [T.is_minimal]},
    "subgroupoid": {"Groupoid": [lambda g: T.subgroupoid(g, [0])]},
    "restrict": {"Groupoid": [lambda g: T.restrict(g, [0])]},
    "disjoint_union": {"Groupoid": [lambda g: T.disjoint_union(g, T.build("z2")),
                                    lambda g: T.disjoint_union(T.build("z2"), g)]},
    "trivial_cocycle": {"Groupoid": [lambda g: T.trivial_cocycle(g, 2)]},
    "free_pairs": {"Groupoid": [T.free_pairs]},
    "enumerate_cocycles": {"Groupoid": [lambda g: T.enumerate_cocycles(g, 2)]},
    "serialize_groupoid": {"Groupoid": [T.serialize_groupoid]},
    "write_groupoid": {"Groupoid": [lambda g: T.write_groupoid(os.devnull, g)]},
    "build_twist": {"Groupoid": [lambda g: T.build_twist(g, zero_cocycle(g))],
                    "Cocycle": [lambda c: T.build_twist(c.gpd, c)]},
    "Context": {"Groupoid": [lambda g: T.Context(g, Q, TGRP, zero_cocycle(g))],
                "Cocycle": [lambda c: T.Context(c.gpd, Q, TGRP, c)]},
    "check_cocycle": {"Cocycle": [T.check_cocycle]},
    "invert_cocycle": {"Cocycle": [T.invert_cocycle]},
    "multiply_cocycles": {"Cocycle": [lambda c: T.multiply_cocycles(c, trivial(c)),
                                      lambda c: T.multiply_cocycles(trivial(c), c)]},
    "apply_coboundary": {"Cocycle": [lambda c: T.apply_coboundary(c, [0, 0])]},
    "check_cohomologous": {"Cocycle": [lambda c: T.check_cohomologous(c, trivial(c)),
                                       lambda c: T.check_cohomologous(trivial(c), c)]},
    "brute_force_cohomologous": {
        "Cocycle": [lambda c: T.brute_force_cohomologous(c, trivial(c)),
                    lambda c: T.brute_force_cohomologous(trivial(c), c)]},
    "serialize_cocycle": {"Cocycle": [T.serialize_cocycle]},
    "write_cocycle": {"Cocycle": [lambda c: T.write_cocycle(os.devnull, c)]},
    "check_grading": {"Grading": [T.check_grading]},
    "kernel_arrows": {"Grading": [T.kernel_arrows]},
    "graded_component": {"Grading": [lambda gr: T.graded_component(graded()[1], gr, 0)]},
    "graded_components": {"Grading": [lambda gr: T.graded_components(graded()[1], gr)]},
    "is_graded_ideal": {"Grading": [lambda gr: T.is_graded_ideal(graded()[2], gr)]},
    "graded_ck_witness": {"Grading": [graded_witness]},
    "serialize_grading": {"Grading": [T.serialize_grading]},
    "write_grading": {"Grading": [lambda gr: T.write_grading(os.devnull, gr)]},
    "check_twist": {"Twist": [T.check_twist]},
    "unique_scalar": {"Twist": [lambda tw: T.unique_scalar(tw, 2, 3)]},
    "find_section": {"Twist": [T.find_section]},
    "validate_section": {"Twist": [lambda tw: T.validate_section(tw, SEC)]},
    "induced_cocycle": {"Twist": [lambda tw: T.induced_cocycle(tw, SEC)]},
    "section_iso": {"Twist": [lambda tw: T.section_iso(tw, SEC)]},
    "twists_isomorphic": {"Twist": [lambda tw: T.twists_isomorphic(tw, sign_twist()),
                                    lambda tw: T.twists_isomorphic(sign_twist(), tw)]},
    "EquivContext": {"Twist": [lambda tw: T.EquivContext(tw, SEC, Q, TGRP)]},
    "serialize_twist": {"Twist": [T.serialize_twist]},
    "write_twist": {"Twist": [lambda tw: T.write_twist(os.devnull, tw)]},
    "validate_twist_morphism": {"TwistMorphism": [
        lambda tw: T.validate_twist_morphism(T.TwistMorphism(tw, sign_twist(), (0, 1, 2, 3))),
        lambda tw: T.validate_twist_morphism(T.TwistMorphism(sign_twist(), tw, (0, 1, 2, 3)))]},
}

# annotation -> (case name, maker of an invalid object of that kind)
INVALID = {
    "Groupoid": [("composite", lambda: broken_z2("composite")),
                 ("deleted", lambda: broken_z2("deleted"))],
    "Cocycle": [("non-normalised", non_normalised_z2)],
    "Grading": [("degree out of range", lambda: T.Grading(T.build("z2"), T.cyclic_group(2), [0, 5]))],
    "Twist": [("projection off the base", invalid_twist)],
}
INVALID["TwistMorphism"] = INVALID["Twist"]

VALIDATE = {"groupoid": T.validate_groupoid, "cocycle": T.validate_cocycle,
            "grading": T.validate_grading, "twist": T.validate_twist}


def marks(obj):
    """The checked flags of obj and of the groupoids it stands on."""
    if isinstance(obj, T.Groupoid):
        return (obj.checked,)
    if isinstance(obj, T.Twist):
        return obj.checked, obj.base.checked, obj.total.checked
    return obj.checked, obj.gpd.checked


def public_readers():
    """name -> the set of checked kinds its parameters are annotated with,
    over every public callable of twistalg."""
    found = {}
    for name in dir(T):
        obj = getattr(T, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue
        kinds = {p.annotation for p in params} & KINDS.keys()
        if kinds:
            found[name] = kinds
    return found


def test_the_inventory_is_every_public_reader():
    """A new public function that takes a checked kind must be gated here
    or exempted with its reason."""
    found = public_readers()
    assert not GATED.keys() & EXEMPT.keys()
    assert found.keys() == GATED.keys() | EXEMPT.keys()
    assert {name: set(GATED[name]) for name in GATED} == {name: found[name] for name in GATED}


CALLS = [
    pytest.param(run, make, KINDS[ann], id="%s-%s%s" % (name, case, "-%d" % i if i else ""))
    for name, per_kind in GATED.items()
    for ann, runs in per_kind.items()
    for i, run in enumerate(runs)
    for case, make in INVALID[ann]
]


@pytest.mark.parametrize("run,make,kind", CALLS)
def test_every_gated_reader_refuses_an_invalid_object(run, make, kind):
    bad = make()
    want = VALIDATE[kind](bad)
    assert want
    before = marks(bad)
    with pytest.raises(T.AxiomError) as exc:
        run(bad)
    assert exc.value.kind == kind and exc.value.violations == want
    assert marks(bad) == before and not bad.checked
