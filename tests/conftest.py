"""Shared helpers plus the acceptance-criteria report.

Acceptance tests call record(n) as their last statement; the terminal
summary then prints one PASS/FAIL line per criterion.  A criterion whose
test failed (or never ran) stays FAIL.
"""

import random
from unittest import mock

import pytest

import twistalg as T
from twistalg import fileio

CRITERIA = {
    1: "groupoid axiom suite over the whole catalog, exhaustive associativity",
    2: "convolution associativity and star laws on random elements, 6+ contexts",
    3: "characteristic-function identities for every bisection, twisted",
    4: "cohomologous = isomorphic twists = matching induced cocycles, with class counts",
    5: "canonical section induces its own cocycle; all sections checked",
    6: "equivariant picture is a star-preserving algebra isomorphism",
    7: "unit-set witness lands inside every randomly generated ideal",
    8: "exhaustive and structural simplicity verdicts agree on effective contexts",
    9: "simplicity flip on the order-two group over GF(3)",
    10: "grading reassembly, component products, graded witnesses",
    11: "free module of rank |G|; local units absorb every finite family",
    12: "CLI output byte-stable and re-parseable",
}

_passed = set()
_acceptance_seen = False


def record(num: int) -> None:
    _passed.add(num)


def pytest_collection_modifyitems(items):
    global _acceptance_seen
    for item in items:
        if "test_acceptance" in item.nodeid:
            _acceptance_seen = True
            break


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_seen:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        status = "PASS" if num in _passed else "FAIL"
        terminalreporter.write_line("criterion %02d %s  %s" % (num, status, CRITERIA[num]))


# --- shared constructors --------------------------------------------------


def all_sections(tw):
    """Every global section: units are forced, other fibers are free."""
    import itertools

    slots = []
    for a in range(tw.base.m):
        if a in tw.base.unit_set:
            slots.append((tw.embed[(a, 0)],))
        else:
            slots.append(tw.fiber(a))
    return [list(choice) for choice in itertools.product(*slots)]


def carry_cocycle(n: int):
    """On the order-n cyclic group: exponent 1 exactly when the sum of two
    elements wraps.  The total number of wraps in a triple sum is the same
    however it is bracketed, so the identity holds over the integers; the
    extension it classifies is the order-n^2 cyclic group, which has an
    element of order n^2, so for n > 1 this is never a coboundary."""
    g = T.build("z%d" % n)
    table = {(a, b): (1 if a + b >= n else 0) for (a, b) in g.comp}
    coc = T.Cocycle(g, n, table)
    assert T.validate_cocycle(coc) == []
    return coc


def relabel_groupoid(g, perm):
    """The groupoid with every arrow a renamed perm[a]."""
    new = [None] * g.m
    for a, p in enumerate(perm):
        new[p] = a
    return T.Groupoid(
        [perm[u] for u in g.units],
        [perm[g.src[a]] for a in new],
        [perm[g.rng[a]] for a in new],
        [perm[g.inv[a]] for a in new],
        {(perm[a], perm[b]): perm[c] for (a, b), c in g.comp.items()},
    )


def make_context(g, ring_spec, coc=None, involution=None):
    ring = T.parse_ring(ring_spec)
    if coc is None:
        coc = T.trivial_cocycle(g, 1)
    tgrp = T.unit_subgroup(ring, coc.n)
    conj = T.parse_involution(ring, involution) if involution else None
    return T.Context(g, ring, tgrp, coc, conj)


def random_element(ctx, rnd: random.Random, density: float = 0.6):
    coeffs = {}
    for a in range(ctx.gpd.m):
        if rnd.random() < density:
            coeffs[a] = ctx.ring.random_element(rnd)
    return T.from_coeffs(ctx, coeffs)


def random_nonzero(ctx, rnd: random.Random, density: float = 0.6):
    while True:
        f = random_element(ctx, rnd, density)
        if f.coeffs:
            return f


def table_contexts(ring_spec, rnd, orders=(2, 4), max_size=None, extra=()):
    """Every catalog groupoid, then each extra groupoid (whose algebra has
    at most max_size elements, if given): untwisted, with its shipped
    cocycles, with a sample of its enumerated ones (the given orders,
    searches over 20,000 nodes skipped) and with a seeded order-4
    coboundary, wherever the ring has the unit group."""
    ring = T.parse_ring(ring_spec)

    def has_units(n):
        try:
            return T.unit_subgroup(ring, n)
        except ValueError:
            return None

    shipped = [(T.build(name), T.fixture_cocycles(name).values()) for name in T.CATALOG]
    for g, fixtures in shipped + [(g, ()) for g in extra]:
        if max_size and ring.size ** g.m > max_size:
            continue
        cocs = [T.trivial_cocycle(g, 1)] + list(fixtures)
        for n in orders:
            if has_units(n) is None:
                continue
            try:
                found = T.enumerate_cocycles(g, n, cap=20000)
            except ValueError:
                continue
            cocs += found[:: max(1, len(found) // 3)]
        b = [0 if a in g.unit_set else rnd.randrange(4) for a in range(g.m)]
        cocs.append(T.apply_coboundary(T.trivial_cocycle(g, 4), b))
        for coc in cocs:
            tgrp = has_units(coc.n)
            if tgrp is not None:
                yield T.Context(g, ring, tgrp, coc)


# --- read-only tables and the validation gate -----------------------------


def assert_read_only(table):
    """Writes to a read-only table raise: item assignment and del, and the
    dict methods, which the table lacks and which reject it when called
    unbound."""
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = table[key]
    with pytest.raises(TypeError):
        del table[key]
    with pytest.raises(TypeError):
        dict.update(table, {key: table[key]})
    with pytest.raises(TypeError):
        dict.pop(table, key)
    assert not hasattr(table, "update") and not hasattr(table, "pop")


def unmarked(obj):
    """A fresh copy of a groupoid, cocycle, grading or twist that is not
    marked checked.  It shares obj's parts, but a twist gets an unmarked
    copy of its total, which check_twist marks with the twist."""
    if isinstance(obj, T.Groupoid):
        return T.Groupoid(obj.units, obj.src, obj.rng, obj.inv, obj.comp)
    if isinstance(obj, T.Cocycle):
        return T.Cocycle(obj.gpd, obj.n, obj.table)
    if isinstance(obj, T.Grading):
        return T.Grading(obj.gpd, obj.group, obj.deg)
    return T.Twist(obj.base, unmarked(obj.total), obj.n, obj.embed, obj.proj)


def broken_z2(case):
    """The order-two group with its composite (1, 1) set to 1 or deleted."""
    g = T.build("z2")
    comp = dict(g.comp)
    if case == "composite":
        comp[(1, 1)] = 1
    else:
        del comp[(1, 1)]
    return T.Groupoid(g.units, g.src, g.rng, g.inv, comp)


def non_normalised_z2():
    """z2's sign cocycle with 1 on the unit pair (0, 0) too: it breaks
    normalisation."""
    return T.Cocycle(T.build("z2"), 2, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1})


def write_ungated(write, path, obj):
    """write(path, obj) with the writers' gates lifted, for an obj that
    breaks its axioms: the file a hand edit could make, which the readers
    and the CLI must refuse."""
    gates = ("check_groupoid", "check_cocycle", "check_grading", "check_twist")
    with mock.patch.multiple(fileio, **{name: lambda obj: obj for name in gates}):
        write(path, obj)


def kept(obj, table):
    """What obj keeps of a derived table (groupoid.derived): the pair
    (args, value) of its last build, or None."""
    return obj._derived.get(table.__wrapped__)


def count_calls(monkeypatch, module, name):
    """Rebind module.name, as the bench tracer does, to a wrapper that
    records the first argument of every call; returns that list."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda obj, *rest: calls.append(obj) or original(obj, *rest))
    return calls


def assert_never_marked(obj, check, validate):
    """An invalid object raises the same violations on every check and is
    never marked; the validator reports them all even when the flag says
    otherwise."""
    want = validate(obj)
    assert want
    for _ in range(2):
        with pytest.raises(T.AxiomError) as exc:
            check(obj)
        assert exc.value.violations == want and not obj.checked
    obj.checked = True
    assert validate(obj) == want


def assert_flag_ignored(make, check):
    """Two objects made alike are equal, and hash alike, whichever of them
    has been checked."""
    x, y = make(), make()
    check(x)
    assert x.checked and not y.checked
    assert x == y and y == x and hash(x) == hash(y)
