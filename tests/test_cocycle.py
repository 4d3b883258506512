"""Cocycle identities, coboundaries, and the two cohomology testers."""

import hashlib
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistalg as T
from twistalg import cocycle as C
from twistalg.groupoid import associativity_failures
from conftest import (
    assert_flag_ignored, assert_never_marked, assert_read_only, broken_z2, count_calls,
    make_context, non_normalised_z2, unmarked,
)


def test_trivial_cocycle_validates():
    for name in ("pair2", "z4", "swap2", "s3"):
        g = T.build(name)
        for n in (1, 2, 3):
            assert T.validate_cocycle(T.trivial_cocycle(g, n)) == []


def test_z2_neg_cocycle_validates():
    g = T.build("z2")
    coc = T.Cocycle(g, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1})
    assert T.validate_cocycle(coc) == []


def test_asymmetric_pair2_cocycle_rejected():
    # sigma((1,2),(2,1)) = -1 with sigma((2,1),(1,2)) = +1 breaks the
    # identity: the two loop products must carry equal exponents
    g = T.build("pair2")
    table = {pair: 0 for pair in g.comp}
    table[(1, 2)] = 1
    bad = T.validate_cocycle(T.Cocycle(g, 2, table))
    assert bad and any("triple" in x for x in bad)


def test_normalisation_violation_detected():
    g = T.build("pair2")
    table = {pair: 0 for pair in g.comp}
    table[(0, 1)] = 1  # unit on the left
    bad = T.validate_cocycle(T.Cocycle(g, 2, table))
    assert bad


def test_totality_violations_detected():
    g = T.build("pair2")
    table = {pair: 0 for pair in g.comp}
    del table[(1, 2)]
    assert T.validate_cocycle(T.Cocycle(g, 2, table))
    table = {pair: 0 for pair in g.comp}
    table[(1, 1)] = 0  # not composable
    assert T.validate_cocycle(T.Cocycle(g, 2, table))


def test_check_cocycle_raises():
    g = T.build("pair2")
    table = {pair: 0 for pair in g.comp}
    table[(1, 2)] = 1
    with pytest.raises(ValueError):
        T.check_cocycle(T.Cocycle(g, 2, table))


@given(
    name=st.sampled_from(["pair2", "pair3", "z3", "z4", "swap2", "fix3"]),
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=40, deadline=None)
def test_coboundaries_are_cocycles(name, n, seed):
    g = T.build(name)
    rnd = random.Random(seed)
    b = [0 if a in g.unit_set else rnd.randrange(n) for a in range(g.m)]
    assert T.validate_coboundary(g, n, b) == []
    coc = T.apply_coboundary(T.trivial_cocycle(g, n), b)
    assert T.validate_cocycle(coc) == []
    # and perturbing a valid cocycle keeps it valid
    again = T.apply_coboundary(coc, b)
    assert T.validate_cocycle(again) == []


def test_coboundary_must_vanish_on_units():
    g = T.build("pair2")
    assert T.validate_coboundary(g, 2, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        T.apply_coboundary(T.trivial_cocycle(g, 2), [1, 0, 0, 0])


def test_invert_and_multiply_stay_valid():
    """Oracle for the born-checked cocycles of invert_cocycle,
    multiply_cocycles and apply_coboundary: over every catalog groupoid,
    for n = 2 and 3, the validator (which ignores the mark) passes them on
    up to six listed cocycles each, their pairwise products and a seeded
    coboundary perturbation."""
    rnd, made = random.Random("born checked"), 0
    for name in T.CATALOG:
        g = T.build(name)
        for n in (2, 3):
            cocs = T.enumerate_cocycles(g, n, cap=2 ** 16)
            cocs = rnd.sample(cocs, min(6, len(cocs)))
            for x in cocs:
                b = [0 if a in g.unit_set else rnd.randrange(n) for a in range(g.m)]
                out = [T.invert_cocycle(x), T.apply_coboundary(x, b)]
                out += [T.multiply_cocycles(x, y) for y in cocs]
                assert all(T.validate_cocycle(c) == [] and c.checked for c in out), name
                made += len(out)
    assert made > 400


def test_every_trivial_cocycle_validates(monkeypatch):
    """Oracle for the born-checked trivial cocycle: on every catalog
    groupoid and pair_groupoid(n), n <= 6, for orders 1 to 4, it passes the
    gate unvalidated, and an unmarked copy validates."""
    groupoids = [T.build(name) for name in T.CATALOG] + [T.pair_groupoid(n) for n in range(1, 7)]
    calls = count_calls(monkeypatch, C, "validate_cocycle")
    for g in groupoids:
        for n in range(1, 5):
            coc = T.trivial_cocycle(g, n)
            assert coc.checked and T.check_cocycle(coc) is coc and calls == []
            assert C.validate_cocycle(unmarked(coc)) == []
            calls.clear()


def test_every_enumerated_cocycle_validates(monkeypatch):
    """Oracle for the born-checked enumerated cocycles: on every catalog
    groupoid, for n = 2 and 3, every listed cocycle under a cap of 2^10
    passes the gate unvalidated, and an unmarked copy validates.  pair4 and
    z8 at n = 3 are over the cap."""
    groupoids = [T.build(name) for name in T.CATALOG]
    calls = count_calls(monkeypatch, C, "validate_cocycle")
    listed, over = 0, []
    for g in groupoids:
        for n in (2, 3):
            try:
                cocs = T.enumerate_cocycles(g, n, cap=2 ** 10)
            except ValueError:
                over.append((g.m, n))
                continue
            assert all(c.checked and T.check_cocycle(c) is c for c in cocs) and calls == []
            assert all(C.validate_cocycle(unmarked(c)) == [] for c in cocs)
            listed += len(cocs)
            calls.clear()
    assert listed == 1146 and over == [(16, 3), (8, 3)]


def test_solver_and_brute_force_agree():
    for name, n in (("z2", 2), ("pair2", 2), ("z3", 3), ("z4", 2)):
        g = T.build(name)
        cocs = T.enumerate_cocycles(g, n, cap=2 ** 16)
        for x in cocs:
            for y in cocs:
                b1 = T.check_cohomologous(x, y)
                b2 = T.brute_force_cohomologous(x, y)
                assert (b1 is None) == (b2 is None), (name, x, y)
                if b1 is not None:
                    assert T.apply_coboundary(y, b1) == x
                    assert T.apply_coboundary(y, b2) == x


def test_solver_witnesses_are_pinned():
    """The diagonalization serves both the coboundary solver and the
    cocycle enumerator, so the exact witnesses are pinned: a sha256 over
    check_cohomologous(x, y) (b or None) for every ordered pair of
    enumerated cocycles of z4, klein, pair3 and s3 with n = 2.  A kernel
    that changes a witness must change this digest and say why."""
    h = hashlib.sha256()
    for name in ("z4", "klein", "pair3", "s3"):
        cocs = T.enumerate_cocycles(T.build(name), 2)
        for x in cocs:
            for y in cocs:
                h.update(repr(T.check_cohomologous(x, y)).encode() + b"\n")
    assert h.hexdigest() == "5175df3f29e99db3ab128dd7aaeaa45e6fcea4392c4993d2f125d4995442e90f"


def test_solver_witnesses_are_pinned_for_larger_orders():
    """As above with n = 3 and 4, where entries of absolute value 2 or more
    reach the pivot rule: a sha256 over check_cohomologous(x, y) for 12
    seeded pairs from base_cocycles per groupoid and order."""
    h = hashlib.sha256()
    for name in ("z4", "z8", "fix3", "swap2", "pair2_pair2", "pair4"):
        g = T.build(name)
        for n in (3, 4):
            rnd = random.Random("witness pin:%s:%d" % (name, n))
            for _ in range(12):
                x, y = base_cocycles(g, n, rnd)
                h.update(repr(T.check_cohomologous(x, y)).encode() + b"\n")
    assert h.hexdigest() == "ca39db6e16366989062f7e07d63a961ced2817ab05954d609561210e7b0613e0"


def test_z4_mu2_has_two_classes():
    g = T.build("z4")
    cocs = T.enumerate_cocycles(g, 2)
    assert len(cocs) == 8
    classes = []
    for c in cocs:
        for cls in classes:
            if T.check_cohomologous(c, cls[0]) is not None:
                cls.append(c)
                break
        else:
            classes.append([c])
    assert sorted(len(c) for c in classes) == [4, 4]


def test_coboundary_guard_survives_optimization(monkeypatch):
    # the witness check raises, so that python -O keeps it: with
    # apply_coboundary made to ignore b, the solver's b no longer links them
    target, base = T.pair2_coboundary_cocycle(), T.trivial_cocycle(T.build("pair2"), 2)
    assert T.check_cohomologous(target, base) is not None
    monkeypatch.setattr(C, "apply_coboundary", lambda coc, b: coc)
    with pytest.raises(RuntimeError, match="^solver coboundary does not link the cocycles$"):
        T.check_cohomologous(target, base)


def test_cohomologous_rejects_mixed_contexts():
    with pytest.raises(ValueError):
        T.check_cohomologous(
            T.trivial_cocycle(T.build("z2"), 2),
            T.trivial_cocycle(T.build("pair2"), 2),
        )
    with pytest.raises(ValueError):
        T.check_cohomologous(
            T.trivial_cocycle(T.build("z2"), 2),
            T.trivial_cocycle(T.build("z2"), 4),
        )


def test_cohomologous_rejects_a_table_off_the_composable_pairs():
    # z4 with (3, 3) dropped from one table: one argument order used to fail
    # the witness check and the other to raise KeyError (3, 3)
    g = T.build("z4")
    good = T.enumerate_cocycles(g, 2)[1]
    bad = T.Cocycle(g, 2, {p: k for p, k in good.table.items() if p != (3, 3)})
    for target, base in ((bad, good), (good, bad)):
        with pytest.raises(T.AxiomError) as exc:
            T.check_cohomologous(target, base)
        assert exc.value.violations == ["no value on composable pair (3, 3)"]
    # a value on a non-composable pair is refused the same way
    p = T.build("pair2")
    extra = T.Cocycle(p, 2, {**T.trivial_cocycle(p, 2).table, (1, 1): 0})
    for target, base in ((extra, T.trivial_cocycle(p, 2)), (T.trivial_cocycle(p, 2), extra)):
        with pytest.raises(T.AxiomError) as exc:
            T.check_cohomologous(target, base)
        assert exc.value.violations == ["value on non-composable pair (1, 1)"]


def test_one_coboundary_diagonalization_per_groupoid(monkeypatch):
    """The coboundary matrix depends on the groupoid alone, so one
    diagonalization serves every order n and every pair of cocycles; an
    equal but distinct groupoid makes its own."""
    g, again = T.build("s3"), T.build("s3")
    assert g == again and g is not again
    rnd = random.Random("one solve")
    cases = []
    for h in (g, again, g):
        for n in (2, 3, 4):
            x = T.trivial_cocycle(h, n)
            for _ in range(4):
                b = [0 if a in h.unit_set else rnd.randrange(n) for a in range(h.m)]
                cases.append((T.apply_coboundary(x, b), x))
    calls = count_calls(monkeypatch, C, "_diagonalize")
    for target, base in cases:
        assert T.apply_coboundary(base, T.check_cohomologous(target, base)) == target
    assert len(calls) == 2
    # the enumerator solves its own system on every call, and keeps nothing
    T.enumerate_cocycles(g, 2)
    T.enumerate_cocycles(g, 2)
    assert len(calls) == 4


def test_brute_force_cap():
    g = T.build("s3")
    with pytest.raises(ValueError):
        T.brute_force_cohomologous(
            T.trivial_cocycle(g, 4), T.trivial_cocycle(g, 4), cap=10
        )


def test_group_table_validation():
    with pytest.raises(ValueError):
        T.GroupTable([[0, 1], [1, 1]])  # 1 not invertible
    with pytest.raises(ValueError):
        T.GroupTable([[1, 0], [1, 0]])  # no identity
    t = T.cyclic_group(6)
    assert t.identity == 0 and t.inv(1) == 5


@pytest.mark.parametrize(
    "loop",
    [
        # (1*1)*2 = 2 but 1*(1*2) = 4; the only group of order 5 is cyclic
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
        # 1 reaches only {0, 1}, so the second generator 2 is needed: the
        # table is associative at every middle element in {0, 1}
        [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
         [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]],
    ],
    ids=["order5", "order6"],
)
def test_group_table_rejects_loop(loop):
    # Latin squares with identity 0 and two-sided inverses that are not groups
    with pytest.raises(ValueError, match=r"table is not associative at \(\d+, \d+, \d+\)"):
        T.GroupTable(loop)


def reduced_latin_squares(k):
    """Latin squares on 0..k-1 whose first row and column are 0..k-1."""
    rows = list(itertools.permutations(range(k)))
    out = []

    def grow(square):
        if len(square) == k:
            out.append(square)
            return
        for p in rows:
            if p[0] == len(square) and all(p[c] != r[c] for r in square for c in range(k)):
                grow(square + [p])

    grow([tuple(range(k))])
    return out


@pytest.mark.parametrize("k", [4, 5])
def test_group_table_associativity_matches_brute(k):
    # every loop of order 4 and 5, against the full k**3 check
    for square in reduced_latin_squares(k):
        assoc = all(
            square[square[a][b]][c] == square[a][square[b][c]]
            for a in range(k) for b in range(k) for c in range(k)
        )
        try:
            T.GroupTable(square)
            accepted = True
        except ValueError as exc:
            accepted = False
            at = re.search(r"not associative at \((\d+), (\d+), (\d+)\)", str(exc))
            if at:
                a, b, c = map(int, at.groups())
                assert square[square[a][b]][c] != square[a][square[b][c]]
        assert accepted == assoc


def test_group_table_failure_between_non_generators():
    # z4 is generated by 1; only 2 * 3 changes (1 -> 3), which keeps the
    # identity and the inverses; the failure is reported at the generator
    table = [list(row) for row in T.cyclic_group(4).table]
    table[2][3] = 3
    middles = {
        b for a in range(4) for b in range(4) for c in range(4)
        if table[table[a][b]][c] != table[a][table[b][c]]
    }
    assert middles == {1, 2, 3}
    with pytest.raises(ValueError, match=r"not associative at \(1, 1, 3\)"):
        T.GroupTable(table)


def head_group_table_error(table):
    """GroupTable's checks in their old form, with associativity decided on
    the dict-keyed one-unit groupoid of the table: the error message, or
    None for a group."""
    k = len(table)
    if any(len(row) != k for row in table):
        return "multiplication table is not square"
    if any(not (0 <= x < k) for row in table for x in row):
        return "table entry out of range"
    ident = next(
        (e for e in range(k) if all(table[e][x] == x == table[x][e] for x in range(k))), None
    )
    if ident is None:
        return "table has no identity"
    inv = [max((y for y in range(k) if table[x][y] == ident == table[y][x]), default=None)
           for x in range(k)]
    if None in inv:
        return "table has a non-invertible element"
    comp = {(a, b): x for a, row in enumerate(table) for b, x in enumerate(row)}
    bad = associativity_failures(T.Groupoid([ident], [ident] * k, [ident] * k, inv, comp))
    return "table is not associative at (%d, %d, %d)" % bad[0] if bad else None


def relabelled(table, perm):
    """The table with every element x renamed perm[x]."""
    out = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, x in enumerate(row):
            out[perm[a]][perm[b]] = perm[x]
    return out


def test_group_table_row_check_matches_the_old_check():
    """Seeded group tables of order at most 6, relabelled and with one to
    three entries changed: GroupTable raises the old message or none, and
    accepts a table with identity and inverses exactly when the full k**3
    triple check finds it associative."""
    rnd = random.Random(11)
    groups = [T.cyclic_group(k).table for k in range(1, 7)] + [T.klein_table().table, T.s3_table().table]
    outcomes = set()
    for base in groups:
        k = len(base)
        for trial in range(60):
            perm = list(range(k))
            rnd.shuffle(perm)
            table = relabelled(base, perm)
            for _ in range(trial % 4):
                table[rnd.randrange(k)][rnd.randrange(k)] = rnd.choice(range(-1, k + 1))
            want = head_group_table_error(table)
            try:
                T.GroupTable(table)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, table
            if want is None or want.startswith("table is not associative"):
                assoc = all(table[table[a][b]][c] == table[a][table[b][c]]
                            for a in range(k) for b in range(k) for c in range(k))
                assert (got is None) == assoc
            outcomes.add(want and want.split(" at ")[0])
    assert outcomes == {None, "table entry out of range", "table has no identity",
                        "table has a non-invertible element", "table is not associative"}


@pytest.mark.parametrize("make,msg", [
    (lambda: T.Cocycle(T.build("z2"), 0, {}), "cocycle order must be positive"),
    (lambda: T.apply_coboundary(T.trivial_cocycle(T.build("z2"), 2), [0]),
     "coboundary vector has wrong length"),
    (lambda: T.GroupTable([[0, 1], [1]]), "multiplication table is not square"),
    (lambda: T.Grading(T.build("z2"), T.cyclic_group(2), [0]), "degree vector has wrong length"),
])
def test_constructor_refusals(make, msg):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == msg


def test_grading_validation():
    p3 = T.build("pair3")
    # degree of (i, j) is d(i) - d(j) with d = (0, 1, 1) on the points
    d = [0, 1, 1]
    deg = [(d[a // 3] - d[a % 3]) % 2 for a in range(9)]
    grading = T.Grading(p3, T.cyclic_group(2), deg)
    assert T.validate_grading(grading) == []
    kernel = T.kernel_arrows(grading)
    assert kernel == [0, 4, 5, 7, 8]
    bad = T.Grading(p3, T.cyclic_group(2), [1] + deg[1:])
    assert T.validate_grading(bad)


def test_grading_into_a_nonabelian_group_keeps_the_factor_order():
    # s3 graded by itself is a homomorphism; a -> a^-1 reverses products,
    # so it fails exactly at the pairs that do not commute
    tbl = T.s3_table()
    g = T.build("s3")
    assert T.validate_grading(T.Grading(g, tbl, range(6))) == []
    bad = T.Grading(g, tbl, [tbl.inv(a) for a in range(6)])
    assert T.validate_grading(bad) == [
        "homomorphism law fails at pair (%d, %d)" % (a, b)
        for a in range(6) for b in range(6) if tbl.op(a, b) != tbl.op(b, a)]


def test_integer_grading():
    p2 = T.build("pair2")
    grading = T.Grading(p2, T.IntGroup(), [0, -1, 1, 0])
    assert T.validate_grading(grading) == []
    assert T.kernel_arrows(grading) == [0, 3]


# --- the 2-cocycle identity on a generating set, against the full walk -------


def identity_walk_failures(coc):
    """Every composable triple where the 2-cocycle identity fails, walked in full."""
    g, t, n = coc.gpd, coc.table, coc.n
    into = {u: [b for b in range(g.m) if g.rng[b] == u] for u in g.units}
    comp = g.comp
    return [
        (a, b, c)
        for a in range(g.m)
        for b in into[g.src[a]]
        for c in into[g.src[b]]
        if (t[(a, b)] + t[(comp[(a, b)], c)] - t[(a, comp[(b, c)])] - t[(b, c)]) % n
    ]


def base_cocycles(g, n, rnd):
    """Two enumerated cocycles, or two random coboundaries when the search
    passes a small node cap."""
    try:
        return rnd.sample(T.enumerate_cocycles(g, n, cap=2 ** 12), 2)
    except ValueError:
        triv = T.trivial_cocycle(g, n)
        free = [a for a in range(g.m) if a not in g.unit_set]
        out = []
        for _ in range(2):
            b = [0] * g.m
            for a in free:
                b[a] = rnd.randrange(n)
            out.append(T.apply_coboundary(triv, b))
        return out


def test_generator_cocycle_identity_matches_triple_walk():
    verdicts = {True: 0, False: 0}
    groupoids = [(name, T.build(name)) for name in T.CATALOG] + [("pair5", T.pair_groupoid(5))]
    pattern = re.compile(r"2-cocycle identity fails at triple \((\d+), (\d+), (\d+)\)")
    for name, g in groupoids:
        free = T.free_pairs(g)
        if not free:
            continue
        for n in (2, 3, 4):
            rnd = random.Random("cocycle mutants:%s:%d" % (name, n))
            for base in base_cocycles(g, n, rnd):
                assert T.validate_cocycle(base) == [] and identity_walk_failures(base) == []
                for _ in range(20):
                    table = dict(base.table)
                    for pair in rnd.sample(free, min(len(free), rnd.randint(1, 3))):
                        table[pair] += rnd.randrange(1, n)
                    mut = T.Cocycle(g, n, table)
                    v = T.validate_cocycle(mut)
                    listed = [tuple(map(int, pattern.fullmatch(s).groups())) for s in v]
                    walk = identity_walk_failures(mut)
                    gens = set(T.generating_set(g))
                    assert listed == [t for t in walk if t[1] in gens]
                    assert bool(listed) == bool(walk)
                    verdicts[not walk] += 1
    assert verdicts[True] > 100 and sum(verdicts.values()) > 1500


def slow_validate_cocycle(coc):
    """validate_cocycle's list read off the tuple-keyed tables: totality in
    ascending pair order, normalisation per arrow, and the identity at
    every composable triple with a generator middle, sorted."""
    g, t, n = coc.gpd, coc.table, coc.n
    pairs = set(T.composable_pairs(g))
    v = ["no value on composable pair (%d, %d)" % p for p in sorted(pairs) if p not in t]
    v += ["value on non-composable pair (%d, %d)" % p for p in sorted(t) if p not in pairs]
    if v:
        return v
    for a in range(g.m):
        if t[(g.rng[a], a)] % n:
            v.append("normalisation fails on (rng(%d), %d)" % (a, a))
        if t[(a, g.src[a])] % n:
            v.append("normalisation fails on (%d, src(%d))" % (a, a))
    gens, comp = set(T.generating_set(g)), g.comp
    bad = [(a, b, c) for a, b, c in T.composable_triples(g) if b in gens
           and (t[(a, b)] + t[(comp[(a, b)], c)] - t[(a, comp[(b, c)])] - t[(b, c)]) % n]
    return v + ["2-cocycle identity fails at triple (%d, %d, %d)" % abc for abc in sorted(bad)]


def test_cocycle_violations_match_the_slow_validator():
    """Seeded corruptions: changed values anywhere (units included), dropped
    pairs and added non-composable pairs; the lists agree entry by entry."""
    groupoids = [(name, T.build(name)) for name in T.CATALOG] + [("pair5", T.pair_groupoid(5))]
    kinds = {}
    for name, g in groupoids:
        pairs = sorted(g.comp)
        outside = [(a, c) for a in range(g.m) for c in range(g.m) if (a, c) not in g.comp]
        for n in (2, 3, 4):
            rnd = random.Random("cocycle corruptions:%s:%d" % (name, n))
            for base in base_cocycles(g, n, rnd):
                assert T.validate_cocycle(base) == slow_validate_cocycle(base) == []
                for _ in range(15):
                    table = dict(base.table)
                    kind = rnd.choice(["value", "value", "drop", "add"] if outside else ["value", "drop"])
                    for _ in range(rnd.randint(1, 3)):
                        if kind == "value":
                            pair = rnd.choice(pairs)
                            table[pair] = table[pair] + rnd.randrange(1, n)
                        elif kind == "drop":
                            table.pop(rnd.choice(pairs), None)
                        else:
                            table[rnd.choice(outside)] = rnd.randrange(n)
                    coc = T.Cocycle(g, n, table)
                    want = slow_validate_cocycle(coc)
                    assert T.validate_cocycle(coc) == want
                    kinds[kind] = kinds.get(kind, 0) + bool(want)
    assert min(kinds.values()) > 100, kinds


# --- read-only tables behind one validation gate -----------------------------


def test_table_is_read_only(tmp_path):
    path = str(tmp_path / "z2_neg.coc")
    T.write_cocycle(path, T.z2_neg_cocycle())
    g = T.build("pair2")
    made = T.Cocycle(g, 2, {pair: 0 for pair in g.comp})
    listed = T.enumerate_cocycles(T.build("z4"), 2)[1]
    for coc in (made, T.z2_neg_cocycle(), listed, T.read_cocycle(path)):
        assert_read_only(coc.table)


def test_one_cocycle_is_validated_once(monkeypatch):
    coc = T.z2_neg_cocycle()
    calls = count_calls(monkeypatch, C, "validate_cocycle")
    make_context(coc.gpd, "GF(3)", coc)
    make_context(coc.gpd, "GF(5)", coc)
    T.build_twist(coc.gpd, coc)
    assert calls == [coc] and coc.checked


def test_derived_cocycles_are_born_checked(monkeypatch):
    # invert, multiply, apply_coboundary and the induced cocycle keep the
    # axioms and mark what they make, validating only their input
    coc = T.z2_neg_cocycle()
    calls = count_calls(monkeypatch, C, "validate_cocycle")
    tw = T.check_twist(T.build_twist(coc.gpd, coc))
    derived = [
        T.invert_cocycle(coc),
        T.multiply_cocycles(coc, coc),
        T.apply_coboundary(coc, [0, 1]),
        T.induced_cocycle(tw, T.find_section(tw)),
    ]
    assert all(d.checked for d in derived) and calls == [coc]


def test_one_grading_is_validated_once(monkeypatch):
    ctx = make_context(T.build("pair2"), "GF(3)")
    grading = T.Grading(ctx.gpd, T.IntGroup(), [0, -1, 1, 0])
    calls = count_calls(monkeypatch, C, "validate_grading")
    f = T.from_coeffs(ctx, {1: 1, 2: 2})
    ideal = T.ideal_generated(ctx, [f])
    T.graded_components(f, grading)
    T.is_graded_ideal(ideal, grading)
    T.graded_ck_witness(ctx, grading, ideal)
    assert calls == [grading] and grading.checked


def test_invalid_cocycle_and_grading_are_never_marked():
    g = T.build("pair2")
    table = {pair: 0 for pair in g.comp}
    table[(1, 2)] = 1
    assert_never_marked(T.Cocycle(g, 2, table), T.check_cocycle, T.validate_cocycle)
    grading = T.Grading(g, T.cyclic_group(2), [1, 0, 0, 0])
    assert_never_marked(grading, T.check_grading, T.validate_grading)


GATES = {
    "check_cocycle": lambda coc, grading: T.check_cocycle(coc),
    "Context": lambda coc, grading: make_context(coc.gpd, "GF(3)", coc),
    "build_twist": lambda coc, grading: T.build_twist(coc.gpd, coc),
    "check_grading": lambda coc, grading: T.check_grading(grading),
}


@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("case", ["composite", "deleted"])
def test_gates_check_the_groupoid_first(case, gate):
    """A cocycle or grading on something that is not a groupoid is refused
    with the groupoid's violations, every time, and nothing is marked."""
    g = broken_z2(case)
    want = T.validate_groupoid(g)
    assert want
    coc = T.Cocycle(g, 2, {pair: int(pair == (1, 1)) for pair in T.composable_pairs(g)})
    grading = T.Grading(g, T.cyclic_group(2), [0, 1])
    for _ in range(2):
        with pytest.raises(T.AxiomError) as exc:
            GATES[gate](coc, grading)
        assert exc.value.kind == "groupoid" and exc.value.violations == want
        assert not (g.checked or coc.checked or grading.checked)


COCYCLE_READERS = {
    "check_cohomologous": lambda bad, good: T.check_cohomologous(bad, good),
    "check_cohomologous, base": lambda bad, good: T.check_cohomologous(good, bad),
    "brute_force_cohomologous": lambda bad, good: T.brute_force_cohomologous(bad, good),
    "brute_force_cohomologous, base": lambda bad, good: T.brute_force_cohomologous(good, bad),
    "multiply_cocycles": lambda bad, good: T.multiply_cocycles(bad, good),
    "multiply_cocycles, right": lambda bad, good: T.multiply_cocycles(good, bad),
    "apply_coboundary": lambda bad, good: T.apply_coboundary(bad, [0, 1]),
    "invert_cocycle": lambda bad, good: T.invert_cocycle(bad),
}


@pytest.mark.parametrize("reader", sorted(COCYCLE_READERS))
@pytest.mark.parametrize("case", ["normalisation", "groupoid"])
def test_cocycle_functions_gate_their_input(case, reader):
    """Every function that takes a cocycle refuses one that breaks
    normalisation, or that stands on no groupoid, with its gate's
    violations, and marks nothing.  check_cohomologous(bad, trivial) used
    to answer None for the first."""
    if case == "normalisation":
        bad, kind = non_normalised_z2(), "cocycle"
        want = T.validate_cocycle(bad)
    else:
        g = broken_z2("composite")
        bad, kind = T.Cocycle(g, 2, {pair: 0 for pair in T.composable_pairs(g)}), "groupoid"
        want = T.validate_groupoid(g)
    good = T.trivial_cocycle(T.build("z2"), 2)
    with pytest.raises(T.AxiomError) as exc:
        COCYCLE_READERS[reader](bad, good)
    assert exc.value.kind == kind and exc.value.violations == want and not bad.checked


def test_cocycle_validator_sorts_the_pairs_it_names():
    """Missing and extra pairs are named in ascending order, whatever order
    the table lists its pairs in."""
    g = T.build("pair2")
    missing, extra = [(2, 1), (0, 1), (1, 2)], [(3, 1), (2, 2), (1, 1), (0, 2)]
    table = {pair: 0 for pair in g.comp if pair not in missing}
    table.update(dict.fromkeys(extra, 0))
    want = (["no value on composable pair (%d, %d)" % p for p in sorted(missing)]
            + ["value on non-composable pair (%d, %d)" % p for p in sorted(extra)])
    for order in (sorted(table), sorted(table, reverse=True)):
        assert T.validate_cocycle(T.Cocycle(g, 2, {p: table[p] for p in order})) == want


def test_cocycle_and_grading_equality_ignore_the_flag():
    assert_flag_ignored(T.z2_neg_cocycle, T.check_cocycle)
    g = T.build("pair2")
    assert_flag_ignored(lambda: T.Grading(g, T.IntGroup(), [0, -1, 1, 0]), T.check_grading)


# --- the integer kernel on matrices without unit entries ---------------------


def non_unit_matrices():
    """Integer matrices with no entry +-1, so no pivot is a unit: two fixed
    ones and seeded random ones up to 4 x 3."""
    rnd = random.Random(20)
    entries = [0, 0, 2, -2, 3, -3, 4, -4, 5, 6, -6]
    out = [([[2, 3], [4, 5]], 2), ([[6, 4], [4, 6]], 2)]
    for _ in range(40):
        rows, cols = rnd.randint(1, 4), rnd.randint(1, 3)
        out.append(([[rnd.choice(entries) for _ in range(cols)] for _ in range(rows)], cols))
    return out


def test_diagonalize_replays_to_the_diagonal():
    """U * A * V = D, with U replayed from ops and D the returned diagonal;
    V has determinant +-1."""
    remainders = 0
    for mat, cols in non_unit_matrices():
        d, v, ops = C._diagonalize(mat, cols)
        ua = [list(r) for r in mat]
        for i, t, q in ops:
            if q is None:
                ua[i], ua[t] = ua[t], ua[i]
            else:
                ua[i] = [x - q * y for x, y in zip(ua[i], ua[t])]
            # a row op whose pivot does not divide its column leaves a remainder
            remainders += q is not None and ua[i][t] != 0
        uav = [[sum(r[k] * v[k][j] for k in range(cols)) for j in range(cols)] for r in ua]
        assert uav == [[d[i] if i == j else 0 for j in range(cols)] for i in range(len(mat))]
        assert abs(_det(v)) == 1
    assert remainders > 0


def _det(m):
    """Integer determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_solve_mod_matches_brute_force(n):
    """x solves A x = b mod n exactly when a solution exists, and the kernel
    orders and columns sum directly to every solution of A x = 0."""
    rnd = random.Random(n)
    for mat, cols in non_unit_matrices():
        diag = C._diagonalize(mat, cols)
        space = list(itertools.product(range(n), repeat=cols))

        def image(x):
            return [sum(a * xi for a, xi in zip(row, x)) % n for row in mat]

        homogeneous = {x for x in space if not any(image(x))}
        for rhs in ([0] * len(mat), image(rnd.choice(space)),
                    [rnd.randrange(n) for _ in mat]):
            solutions = {x for x in space if image(x) == rhs}
            x, kernel = C._solve_mod(diag, rhs, n)
            assert (x is None) == (not solutions)
            assert x is None or tuple(x) in solutions
            spanned = {tuple(sum(k * c[i] for k, (_, c) in zip(ks, kernel)) % n for i in range(cols))
                       for ks in itertools.product(*(range(order) for order, _ in kernel))}
            assert spanned == homogeneous
            assert len(homogeneous) == math.prod(order for order, _ in kernel)


@pytest.mark.parametrize("name", ["pair1", "pair2", "z2", "s3"])
def test_enumerate_cocycles_refuses_an_order_below_one(name):
    """n = 0 had divided by zero on any groupoid with a free pair; every
    order below one gets the message Cocycle gives."""
    g = T.build(name)
    for n in (0, -1, -3):
        with pytest.raises(ValueError, match="^cocycle order must be positive$"):
            T.enumerate_cocycles(g, n)
