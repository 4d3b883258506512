"""Command line driver: exit codes, printed lines, artifact files."""

import ast
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistalg as T
from conftest import write_ungated
from twistalg import cli
from twistalg.cli import main
from twistalg.fileio import _read, parse_cocycle_block, parse_grading_block, parse_groupoid_block


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    """Directory holding every catalog groupoid and shipped cocycle."""
    d = tmp_path_factory.mktemp("fixtures")
    T.emit_fixtures(str(d))
    return d


def write(dirpath, name, text):
    p = dirpath / name
    p.write_text(text)
    return str(p)


# --- validation and queries ----------------------------------------------------


def test_validate_groupoid_ok(fx, capsys):
    code, out, err = run(capsys, "validate", "groupoid", str(fx / "s3.gpd"))
    assert (code, out, err) == (0, "ok\n", "")


def test_validate_groupoid_violations(fx, tmp_path, capsys):
    text = (fx / "z2.gpd").read_text().replace("inv 1 1", "inv 1 0")
    p = write(tmp_path, "bad.gpd", text)
    code, out, err = run(capsys, "validate", "groupoid", p)
    assert code == 1
    assert out.startswith("violation:")


def test_validate_cocycle_and_twist_and_grading(fx, tmp_path, capsys):
    assert run(capsys, "validate", "cocycle", str(fx / "z2_neg.coc"))[0] == 0
    code, _, _ = run(capsys, "twist", "build", str(fx / "z2.gpd"),
                     str(fx / "z2_neg.coc"), "--out", str(tmp_path))
    assert code == 0
    assert run(capsys, "validate", "twist", str(tmp_path / "twist.twi"))[0] == 0
    body = "\n".join(T.serialize_grading(T.Grading(T.build("z4"), T.cyclic_group(4), [0, 1, 2, 3])))
    p = write(tmp_path, "z4.grd", body + "\n")
    code, out, _ = run(capsys, "validate", "grading", p)
    assert (code, out) == (0, "ok\n")


def _pair3_with(edits):
    """pair3 with the composites in edits set, or deleted where None."""
    g = T.pair_groupoid(3)
    comp = dict(g.comp)
    for pair, value in edits.items():
        if value is None:
            del comp[pair]
        else:
            comp[pair] = value
    return T.Groupoid(g.units, g.src, g.rng, g.inv, comp)


def _permuted_cases():
    """case -> (kind, writer, parser, invalid object, the violations the
    CLI prints for it).  Six composites of pair3 deleted, or three landing
    on arrows of the wrong range; a cocycle over the second; a grading of
    pair3 that breaks the homomorphism law at the pairs through arrow 1."""
    deleted = _pair3_with(dict.fromkeys([(3, 1), (1, 3), (2, 7), (1, 5), (5, 7), (6, 2)]))
    mistyped = _pair3_with({(1, 3): 4, (2, 6): 8, (5, 7): 0})
    units = mistyped.unit_set
    coc = T.Cocycle(mistyped, 2, {(a, b): int(a not in units and b not in units)
                                  for a, b in T.composable_pairs(mistyped)})
    deg = [((0, 1, 1)[a // 3] - (0, 1, 1)[a % 3]) % 2 for a in range(9)]
    deg[1] = 1 - deg[1]
    grading = T.Grading(T.pair_groupoid(3), T.cyclic_group(2), deg)
    return {
        "groupoid-deleted": ("groupoid", T.write_groupoid, parse_groupoid_block, deleted,
                             T.validate_groupoid(deleted)),
        "groupoid-mistyped": ("groupoid", T.write_groupoid, parse_groupoid_block, mistyped,
                              T.validate_groupoid(mistyped)),
        "cocycle": ("cocycle", T.write_cocycle, parse_cocycle_block, coc,
                    T.validate_groupoid(mistyped)),
        "grading": ("grading", T.write_grading, parse_grading_block, grading,
                    T.validate_grading(grading)),
    }


def _permuted_records(path):
    """A copy of the file at path with each run of comp, val and deg
    records reversed."""
    lines = Path(path).read_text().splitlines()
    for word in ("comp", "val", "deg"):
        at = [i for i, line in enumerate(lines) if line.split()[0] == word]
        for i, line in zip(at, [lines[i] for i in reversed(at)]):
            lines[i] = line
    out = path + ".permuted"
    Path(out).write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("case", ["groupoid-deleted", "groupoid-mistyped", "cocycle", "grading"])
def test_permuted_records_print_the_same_violations(case, tmp_path, capsys):
    """A file and its copy with the records permuted read back as equal
    objects whose compositions are listed in different orders, and validate
    prints the same lines for both, in ascending pair order."""
    kind, write, parse, bad, violations = _permuted_cases()[case]
    path = str(tmp_path / ("bad." + kind))
    write_ungated(write, path, bad)
    other = _permuted_records(path)
    x, y = _read(path, parse), _read(other, parse)
    gx, gy = (x, y) if kind == "groupoid" else (x.gpd, y.gpd)
    assert x == y == bad and list(gx.comp) != list(gy.comp)
    want = "".join("violation: %s\n" % v for v in violations)
    assert run(capsys, "validate", kind, path) == run(capsys, "validate", kind, other) == (1, want, "")
    pairs = [tuple(map(int, re.findall(r"\d+", v)[:2])) for v in violations]
    assert len(pairs) >= 5 and pairs == sorted(pairs)


def test_orbit_queries(fx, capsys):
    code, out, _ = run(capsys, "orbits", str(fx / "pair2_pair2.gpd"))
    assert code == 0
    assert out == "orbit 0: 0 3\norbit 1: 4 7\n"
    assert run(capsys, "effective", str(fx / "fix3.gpd"))[1] == "effective: false\n"
    assert run(capsys, "minimal", str(fx / "pair3.gpd"))[1] == "minimal: true\n"


# --- element arithmetic -----------------------------------------------------------


def test_mul_twisted_group_algebra(fx, tmp_path, capsys):
    # delta_g * delta_g picks up the sign of the twist, and -1 = 2 in GF(3)
    dg = write(tmp_path, "dg.elt", "element\ncoeff 1 1\n")
    code, out, _ = run(capsys, "mul", "--ring", "GF(3)",
                       "--cocycle", str(fx / "z2_neg.coc"), dg, dg)
    assert code == 0
    assert out == "element\ncoeff 0 2\n"


def test_mul_artifact_deterministic(fx, tmp_path, capsys):
    f = write(tmp_path, "f.elt", "element\ncoeff 1 2/3\ncoeff 2 -1\n")
    outs = []
    for sub in ("a", "b"):
        code, out, _ = run(capsys, "mul", "--groupoid", str(fx / "pair2.gpd"),
                           "--out", str(tmp_path / sub), f, f)
        assert code == 0
        assert out == "wrote product.elt\n"
        outs.append((tmp_path / sub / "product.elt").read_bytes())
    assert outs[0] == outs[1]
    ctx = T.Context(T.build("pair2"), T.parse_ring("Q"),
                    T.unit_subgroup(T.parse_ring("Q"), 1),
                    T.trivial_cocycle(T.build("pair2"), 1))
    back = T.read_element(str(tmp_path / "a" / "product.elt"), ctx)
    ff = T.read_element(f, ctx)
    assert back == T.convolve(ff, ff)


def test_star_default_involution(fx, tmp_path, capsys):
    f = write(tmp_path, "f.elt", "element\ncoeff 1 3\n")
    code, out, _ = run(capsys, "star", "--ring", "Q",
                       "--groupoid", str(fx / "pair2.gpd"), f)
    assert code == 0
    assert out == "element\ncoeff 2 3\n"  # arrow 2 is the inverse of arrow 1


@pytest.mark.parametrize("ring,lit,name", [
    ("Q", "1/2", "id"), ("GF(5)", "2", "id"), ("GF(3^2)", "1+w", "frobenius"), ("Q(zeta_4)", "zeta", "conj"),
])
def test_star_auto_involution_is_the_ring_kind_default(ring, lit, name, fx, tmp_path, capsys):
    f = write(tmp_path, "f.elt", "element\ncoeff 1 %s\n" % lit)
    base = ("star", "--ring", ring, "--cocycle", str(fx / "z2_neg.coc"))
    code, auto, err = run(capsys, *base, f)
    assert (code, err) == (0, "")
    assert run(capsys, *base, "--involution", "auto", f) == (0, auto, "")
    assert run(capsys, *base, "--involution", name, f) == (0, auto, "")
    assert (run(capsys, *base, "--involution", "id", f)[1] == auto) == (name == "id")


def test_decompose(fx, tmp_path, capsys):
    f = write(tmp_path, "f.elt", "element\ncoeff 0 1\ncoeff 1 1\ncoeff 2 1\ncoeff 3 1\n")
    code, out, _ = run(capsys, "decompose", "--groupoid", str(fx / "pair2.gpd"), f)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "parts: 2"
    assert lines[1] == "decomposition"
    assert lines[2] == "parts 2"
    assert lines[3] == "part 0 1 0 3"
    assert lines[4] == "part 1 1 1 2"


# --- cocycle comparison -------------------------------------------------------------


def test_cohomologous_negative(fx, capsys):
    code, out, _ = run(capsys, "cohomologous", str(fx / "z2_neg.coc"), str(fx / "z2_triv.coc"))
    assert code == 0
    assert out.splitlines()[0] == "cohomologous: false"
    assert out.splitlines()[-1] == "none"


@pytest.mark.parametrize("method", ["solve", "brute"])
def test_cohomologous_positive(fx, method, capsys):
    code, out, _ = run(capsys, "cohomologous", "--method", method,
                       str(fx / "pair2_cob.coc"), str(fx / "pair2_triv.coc"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cohomologous: true"
    assert lines[1:3] == ["coboundary", "order 2"]
    assert any(ln.startswith("b ") for ln in lines)


# --- twists ---------------------------------------------------------------------------


def test_twist_round_trip_via_cli(fx, tmp_path, capsys):
    code, _, _ = run(capsys, "twist", "build", str(fx / "z2.gpd"),
                     str(fx / "z2_neg.coc"), "--out", str(tmp_path))
    assert code == 0
    twi = str(tmp_path / "twist.twi")

    code, out, _ = run(capsys, "twist", "iso", twi, twi)
    assert code == 0
    assert out.splitlines()[0] == "isomorphic: true"

    code, out, _ = run(capsys, "twist", "section", twi)
    assert code == 0
    assert out.splitlines()[0] == "section"

    # the canonical section recovers the cocycle that built the twist
    code, out, _ = run(capsys, "twist", "induced", twi)
    assert code == 0
    assert out == (fx / "z2_neg.coc").read_text()


def test_twist_iso_negative(fx, tmp_path, capsys):
    run(capsys, "twist", "build", str(fx / "z2.gpd"), str(fx / "z2_neg.coc"),
        "--out", str(tmp_path / "neg"))
    run(capsys, "twist", "build", str(fx / "z2.gpd"), str(fx / "z2_triv.coc"),
        "--out", str(tmp_path / "triv"))
    code, out, _ = run(capsys, "twist", "iso", str(tmp_path / "neg" / "twist.twi"),
                       str(tmp_path / "triv" / "twist.twi"))
    assert code == 0
    assert out.splitlines()[0] == "isomorphic: false"
    assert out.splitlines()[-1] == "none"


def test_twist_iso_refuses_different_bases(fx, tmp_path, capsys):
    for name, coc in (("z2", "z2_neg"), ("pair2", "pair2_cob")):
        run(capsys, "twist", "build", str(fx / (name + ".gpd")), str(fx / (coc + ".coc")),
            "--out", str(tmp_path / name))
    got = run(capsys, "twist", "iso", str(tmp_path / "z2" / "twist.twi"),
              str(tmp_path / "pair2" / "twist.twi"))
    assert got == (1, "", "error: twists do not share a base groupoid and order\n")


def test_twist_iso_needs_two_files(fx, tmp_path, capsys):
    run(capsys, "twist", "build", str(fx / "z2.gpd"), str(fx / "z2_neg.coc"), "--out", str(tmp_path))
    got = run(capsys, "twist", "iso", str(tmp_path / "twist.twi"))
    assert got == (2, "", "error: twist iso needs two twist files\n")


EXTRA_FILE = [
    (["twist", "iso", "twist.twi", "triv.twi", "twist.twi"], "twist iso needs two twist files"),
    (["twist", "section", "twist.twi", "z2.gpd"], "twist section needs one twist file"),
    (["twist", "induced", "twist.twi", "z2.gpd"], "twist induced needs one twist file"),
    (["twist", "build", "z2.gpd", "z2_neg.coc", "z2_triv.coc"],
     "twist build needs a groupoid file and a cocycle file"),
    (["ideal", "--ring", "GF(3)", "member", "z2.gpd", "ideal.idl", "e.elt", "e.elt"],
     "ideal member needs an ideal file and an element file"),
    (["catalog", "list", "z2"], "catalog list needs no catalog name"),
    (["catalog", "emit", "z2", "pair2"], "catalog emit needs at most one catalog name"),
]


@pytest.mark.parametrize("argv,need", EXTRA_FILE, ids=[n.split(" needs")[0] for _, n in EXTRA_FILE])
def test_an_extra_file_is_a_usage_error(emitted, tmp_path, capsys, argv, need):
    """Every file after the verb is read or refused; none is ignored."""
    triv = T.build_twist(T.build("z2"), T.read_cocycle(str(emitted / "z2_triv.coc")))
    T.write_twist(str(tmp_path / "triv.twi"), triv)
    paths = [str((tmp_path if a == "triv.twi" else emitted) / a) if "." in a else a for a in argv]
    out = tmp_path / "out"
    got = run(capsys, *paths, "--out", str(out))
    assert got == (2, "", "error: %s\n" % need)
    assert not out.exists()


def test_files_after_a_flag_are_read(emitted, tmp_path, capsys):
    """A flag between the files of twist or ideal: every file is still
    read, and the call prints and writes what the flags-first call does."""
    triv = T.build_twist(T.build("z2"), T.read_cocycle(str(emitted / "z2_triv.coc")))
    T.write_twist(str(tmp_path / "triv.twi"), triv)
    twi, gpd, elt = (str(emitted / x) for x in ("twist.twi", "z2.gpd", "e.elt"))
    a, b = tmp_path / "a", tmp_path / "b"
    got = run(capsys, "twist", "iso", twi, "--out", str(a), str(tmp_path / "triv.twi"))
    assert got == run(capsys, "twist", "iso", "--out", str(b), twi, str(tmp_path / "triv.twi"))
    assert got == (0, "isomorphic: false\nwrote morphism.mor\n", "")
    assert (a / "morphism.mor").read_bytes() == (b / "morphism.mor").read_bytes()

    got = run(capsys, "ideal", "--ring", "GF(3)", "member", gpd, "--cocycle",
              str(emitted / "z2_triv.coc"), str(emitted / "ideal.idl"), elt)
    assert got == (0, "member: true\n", "")

    # 1 + delta_1 and 1 - delta_1 span the two idempotent ideals of GF(3)[Z/2]
    e1 = write(tmp_path, "e1.elt", "element\ncoeff 0 1\ncoeff 1 1\n")
    e2 = write(tmp_path, "e2.elt", "element\ncoeff 0 1\ncoeff 1 2\n")
    got = run(capsys, "ideal", "--ring", "GF(3)", "gen", gpd, e1, "--out", str(a), e2)
    assert got == (0, "dim: 2\nwrote ideal.idl\n", "")
    assert run(capsys, "ideal", "--ring", "GF(3)", "gen", gpd, e1)[1].startswith("dim: 1\n")


@pytest.mark.parametrize("argv", [
    ["twist", "iso", "twist.twi", "twist.twi", "--bogus"],
    ["mul", "--groupoid", "z2.gpd", "e.elt", "e.elt", "e.elt"],
])
def test_unrecognized_arguments_are_a_usage_error(emitted, capsys, argv):
    """The last argument is left over, and argparse refuses it."""
    paths = [str(emitted / a) if "." in a else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(paths)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: unrecognized arguments: %s\n" % paths[-1])


def test_mul_needs_a_groupoid_or_cocycle(tmp_path, capsys):
    f = write(tmp_path, "f.elt", "element\ncoeff 0 1\n")
    got = run(capsys, "mul", "--ring", "Q", f, f)
    assert got == (1, "", "error: need a groupoid file or --cocycle/--groupoid\n")


def test_psi_restricts_along_section(fx, tmp_path, capsys):
    run(capsys, "twist", "build", str(fx / "z2.gpd"), str(fx / "z2_neg.coc"),
        "--out", str(tmp_path))
    f = write(tmp_path, "f.elt", "element\ncoeff 0 2\ncoeff 1 1\n")
    code, out, _ = run(capsys, "psi", "--ring", "GF(3)", str(tmp_path / "twist.twi"), f)
    assert code == 0
    assert out == "element\ncoeff 0 2\ncoeff 1 1\n"


# --- gradings, ideals, witnesses ---------------------------------------------------


def grading_file(tmp_path):
    body = "\n".join(T.serialize_grading(T.Grading(T.build("z4"), T.cyclic_group(4), [0, 1, 2, 3])))
    return write(tmp_path, "z4.grd", body + "\n")


def test_grade_components(fx, tmp_path, capsys):
    grd = grading_file(tmp_path)
    f = write(tmp_path, "f.elt", "element\ncoeff 0 1\ncoeff 2 5\n")
    code, out, _ = run(capsys, "grade", "--out", str(tmp_path / "o"), grd, f)
    assert code == 0
    assert out == "components: 2\nwrote component_0.elt\nwrote component_2.elt\n"
    assert (tmp_path / "o" / "component_2.elt").read_text() == "element\ncoeff 2 5\n"


def test_ideal_gen_and_member(fx, tmp_path, capsys):
    gen = write(tmp_path, "gen.elt", "element\ncoeff 0 1\ncoeff 1 1\n")
    code, out, _ = run(capsys, "ideal", "--ring", "GF(3)", "--out", str(tmp_path),
                       "gen", str(fx / "z2.gpd"), gen)
    assert code == 0
    assert out == "dim: 1\nwrote ideal.idl\n"
    idl = str(tmp_path / "ideal.idl")

    code, out, _ = run(capsys, "ideal", "--ring", "GF(3)",
                       "member", str(fx / "z2.gpd"), idl, gen)
    assert (code, out) == (0, "member: true\n")
    other = write(tmp_path, "d0.elt", "element\ncoeff 0 1\n")
    code, out, _ = run(capsys, "ideal", "--ring", "GF(3)",
                       "member", str(fx / "z2.gpd"), idl, other)
    assert (code, out) == (0, "member: false\n")


def test_ck_witness_cli(fx, tmp_path, capsys):
    gen = write(tmp_path, "gen.elt", "element\ncoeff 1 1\n")
    run(capsys, "ideal", "--ring", "GF(3)", "--out", str(tmp_path),
        "gen", str(fx / "pair2.gpd"), gen)
    code, out, _ = run(capsys, "ck-witness", "--ring", "GF(3)",
                       str(fx / "pair2.gpd"), str(tmp_path / "ideal.idl"))
    assert (code, out) == (0, "witness: 0\n")


def test_graded_witness_cli(fx, tmp_path, capsys):
    grd = grading_file(tmp_path)
    gen = write(tmp_path, "gen.elt", "element\ncoeff 2 1\n")
    run(capsys, "ideal", "--ring", "Q", "--out", str(tmp_path),
        "gen", str(fx / "z4.gpd"), gen)
    code, out, _ = run(capsys, "graded-witness", "--ring", "Q",
                       grd, str(tmp_path / "ideal.idl"))
    assert (code, out) == (0, "witness: 0\n")


# --- simplicity -------------------------------------------------------------------


def test_simple_twisted_flip(fx, capsys):
    code, out, _ = run(capsys, "simple", "--ring", "GF(3)",
                       "--cocycle", str(fx / "z2_neg.coc"),
                       "--mode", "exhaustive", str(fx / "z2.gpd"))
    assert code == 0
    assert out.splitlines()[0] == "simple: true"

    code, out, _ = run(capsys, "simple", "--ring", "GF(3)",
                       "--mode", "exhaustive", str(fx / "z2.gpd"))
    assert code == 0
    assert out.splitlines()[0] == "simple: false"
    assert "element" in out  # the failing generator is printed as certificate


def test_simple_structural_outputs(fx, tmp_path, capsys):
    code, out, _ = run(capsys, "simple", "--ring", "GF(3)", str(fx / "z2.gpd"))
    assert code == 0
    assert out == "simple: unknown\nreason: groupoid is not effective\n"

    code, out, _ = run(capsys, "simple", "--ring", "GF(3)", "--out", str(tmp_path),
                       str(fx / "pair2_pair2.gpd"))
    assert code == 0
    assert out.splitlines()[0] == "simple: false"
    assert (tmp_path / "certificate.idl").exists()


@pytest.mark.parametrize("mode", ["exhaustive", "structural"])
def test_simple_zero_algebra_is_not_simple(mode, tmp_path, capsys):
    # a simple algebra is nonzero by definition
    gpd = write(tmp_path, "zero.gpd", "groupoid\narrows 0\nunits\n")
    assert run(capsys, "validate", "groupoid", gpd)[:2] == (0, "ok\n")
    code, out, err = run(capsys, "simple", "--ring", "GF(3)", "--mode", mode, gpd)
    assert (code, out, err) == (0, "simple: false\nreason: the zero algebra is not simple\n", "")


# --- catalog ----------------------------------------------------------------------


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(T.CATALOG)
    assert lines[0].startswith("pair1")


def test_catalog_emit(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "emit", "z2", "--out", str(tmp_path))
    assert code == 0
    assert out == "wrote z2.gpd\nwrote z2_triv.coc\nwrote z2_neg.coc\n"
    assert (tmp_path / "z2_neg.coc").exists()


@pytest.mark.parametrize("names", [["z2"], []], ids=["one", "all"])
@pytest.mark.parametrize("flags_first", [True, False], ids=["flags-first", "name-first"])
def test_catalog_emit_names_after_a_flag(tmp_path, capsys, names, flags_first):
    """One name or none, before or after --out: emit prints and writes what
    emit_fixtures writes for it."""
    want = T.emit_fixtures(str(tmp_path / "want"), names[0] if names else "all")
    out = ["--out", str(tmp_path / "got")]
    got = run(capsys, "catalog", "emit", *(out + names if flags_first else names + out))
    assert got == (0, "".join("wrote %s\n" % f for f in want), "")
    assert sorted(os.listdir(tmp_path / "got")) == sorted(want)
    for f in want:
        assert (tmp_path / "got" / f).read_bytes() == (tmp_path / "want" / f).read_bytes()


# --- integers past Python's 4,300-digit default ------------------------------------


@pytest.fixture
def int_digit_limit():
    """The int-string conversion limit, set to 4,300 for the test where
    the Python has one (the default, which PYTHONINTMAXSTRDIGITS may have
    changed) and put back after it; None on Pythons without one."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield None
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("ring,den,square_den", [("Z", "", ""), ("Q", "/2", "/4")])
def test_product_past_the_int_digit_limit_is_printed(ring, den, square_den, fx, tmp_path, capsys,
                                                     int_digit_limit):
    """(10^3000 - 1)^2 has 6,000 digits: 2,999 nines, an 8, 2,999 zeros and
    a 1; the product is printed exactly, and the limit is as before."""
    f = write(tmp_path, "f.elt", "element\ncoeff 0 %s%s\n" % ("9" * 3000, den))
    got = run(capsys, "mul", "--ring", ring, "--groupoid", str(fx / "z2.gpd"), f, f)
    square = "9" * 2999 + "8" + "0" * 2999 + "1"
    assert got == (0, "element\ncoeff 0 %s%s\n" % (square, square_den), "")
    if int_digit_limit is not None:
        assert sys.get_int_max_str_digits() == int_digit_limit


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_literal_past_the_int_digit_limit_is_read(ring, fx, tmp_path, capsys, int_digit_limit):
    """A 5,000-digit coefficient is read and written back by star."""
    text = "element\ncoeff 0 -1%s\n" % ("2" * 4999)
    f = write(tmp_path, "f.elt", text)
    assert run(capsys, "star", "--ring", ring, "--groupoid", str(fx / "z2.gpd"), f) == (0, text, "")
    if int_digit_limit is not None:
        assert sys.get_int_max_str_digits() == int_digit_limit


def test_int_digit_limit_is_restored_after_a_usage_error(capsys, int_digit_limit):
    if int_digit_limit is None:
        pytest.skip("this Python has no int-string conversion limit")
    sys.set_int_max_str_digits(5000)
    with pytest.raises(SystemExit):
        main(["mul"])
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == 5000


# --- failure modes -----------------------------------------------------------------


def test_missing_file_is_error(capsys):
    code, out, err = run(capsys, "orbits", "no_such_file.gpd")
    assert code == 1
    assert err.startswith("error:")


def test_bad_ring_spec(fx, tmp_path, capsys):
    f = write(tmp_path, "f.elt", "element\n")
    code, _, err = run(capsys, "mul", "--ring", "GF(6)",
                       "--groupoid", str(fx / "pair2.gpd"), f, f)
    assert code == 1
    assert err.startswith("error:") and "prime" in err


def test_groupoid_cocycle_cross_check(fx, tmp_path, capsys):
    f = write(tmp_path, "f.elt", "element\n")
    code, _, err = run(capsys, "mul", "--ring", "GF(3)",
                       "--groupoid", str(fx / "pair2.gpd"),
                       "--cocycle", str(fx / "z2_neg.coc"), f, f)
    assert code == 1
    assert "different groupoid" in err


def assert_one_error_line(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_ideal_file_not_in_rref(fx, tmp_path, capsys):
    # rows (1,1) and (1,0) span the whole algebra, so delta_1 is a member
    idl = write(tmp_path, "i.idl", "ideal\ndim 2\nvec 0 0 1\nvec 0 1 1\nvec 1 0 1\n")
    d1 = write(tmp_path, "d1.elt", "element\ncoeff 1 1\n")
    code, out, err = run(capsys, "ideal", "--ring", "GF(3)", "member", str(fx / "z2.gpd"), idl, d1)
    assert_one_error_line(code, out, err)
    assert "row echelon" in err


def test_ideal_file_not_closed(fx, tmp_path, capsys):
    idl = write(tmp_path, "i.idl", "ideal\ndim 1\nvec 0 1 1\n")
    code, out, err = run(capsys, "ck-witness", "--ring", "GF(3)", str(fx / "pair2.gpd"), idl)
    assert_one_error_line(code, out, err)
    assert "not closed" in err


def test_ideal_file_negative_indices(fx, tmp_path, capsys):
    idl = write(tmp_path, "i.idl", "ideal\ndim 1\nvec -1 0 1\nvec 0 -1 1\n")
    elt = write(tmp_path, "f.elt", "element\ncoeff 0 1\ncoeff 1 1\n")
    code, out, err = run(capsys, "ideal", "--ring", "GF(3)", "member", str(fx / "z2.gpd"), idl, elt)
    assert_one_error_line(code, out, err)
    assert "out of range" in err


# --- every input file is checked where it is read ----------------------------------


def nonassociative_twist(tmp_path):
    """The z2_neg twist with one product of its total groupoid changed."""
    lines = T.serialize_twist(T.build_twist(T.build("z2"), T.z2_neg_cocycle()))
    i = max(k for k, ln in enumerate(lines) if ln == "comp 2 2 1")
    lines[i] = "comp 2 2 0"
    return write(tmp_path, "bad.twi", "\n".join(lines) + "\n")


@pytest.mark.parametrize("verb", ["mul", "twist induced", "psi", "grade"])
def test_invalid_input_prints_violations(verb, fx, tmp_path, capsys):
    elt = write(tmp_path, "d.elt", "element\ncoeff 1 1\n")
    if verb == "mul":
        kind = "groupoid"
        bad = write(tmp_path, "broken.gpd",
                    (fx / "z2.gpd").read_text().replace("comp 1 1 0", "comp 1 1 1"))
        argv = ["mul", "--ring", "GF(3)", "--groupoid", bad, elt, elt]
    elif verb == "grade":
        kind = "grading"
        text = Path(grading_file(tmp_path)).read_text()
        bad = write(tmp_path, "bad.grd", text.replace("deg 3 3", "deg 3 2"))
        argv = ["grade", bad, elt]
    else:
        kind = "twist"
        bad = nonassociative_twist(tmp_path)
        argv = (["twist", "induced", bad] if verb == "twist induced"
                else ["psi", "--ring", "GF(3)", bad, elt])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == run(capsys, "validate", kind, bad)[1]
    assert out and all(ln.startswith("violation: ") for ln in out.splitlines())


# int() and Fraction() take underscores or non-ASCII digits on some or all
# supported Pythons; no ring literal does
BAD_DIGIT_LITERALS = [(ring, lit) for ring in ("Z", "Q", "GF(3)", "GF(3^2)", "Q(zeta_4)")
                      for lit in ("1_0", "\u0663")]


@pytest.mark.parametrize(
    "ring,text,match",
    [
        ("Q(zeta_4)", "element\ncoeff 0 1/0*zeta\n", "zero denominator"),
        ("GF(3^2)", "element\ncoeff 0 1/0+w\n", "zero denominator"),
        ("Q", "element\ncoeff 0 1\ncoeff 0 2\n", "line 3: repeated coeff 0"),
        # a sign with no term after it once read as 1: 1+ was 2 in GF(3^2)
        ("GF(3^2)", "element\ncoeff 0 1+\n", "bad ring literal term '+'"),
    ] + [(ring, "element\ncoeff 0 %s\n" % lit, repr(lit)) for ring, lit in BAD_DIGIT_LITERALS],
    ids=["cyclotomic-1/0", "gf9-1/0", "repeated-coeff", "gf9-sign-only"]
    + ["%s-%s" % (ring, lit.encode("unicode_escape").decode()) for ring, lit in BAD_DIGIT_LITERALS],
)
def test_bad_element_file_is_one_error(ring, text, match, fx, tmp_path, capsys):
    f = write(tmp_path, "f.elt", text)
    code, out, err = run(capsys, "mul", "--ring", ring, "--groupoid", str(fx / "z2.gpd"), f, f)
    assert_one_error_line(code, out, err)
    assert match in err


def test_negative_arrow_record(fx, tmp_path, capsys):
    # arrow -1 used to overwrite arrow 1's record, and the file validated
    text = (fx / "z2.gpd").read_text()
    bad = write(tmp_path, "g.gpd", text.replace("arrow 1 src", "arrow -1 src"))
    code, out, err = run(capsys, "validate", "groupoid", bad)
    assert_one_error_line(code, out, err)
    assert "arrow -1 out of range" in err


@pytest.mark.parametrize(
    "what,name,old,new,match",
    [
        ("groupoid", "z2.gpd", "comp 1 1 0", "comp 1 1 1\ncomp 1 1 0", "line 9: repeated comp 1 1"),
        ("cocycle", "z2_neg.coc", "val 1 1 1", "val 1 1 1\nval 1 1 0", "line 14: repeated val 1 1"),
    ],
    ids=["comp", "val"],
)
def test_repeated_pair_record(what, name, old, new, match, fx, tmp_path, capsys):
    # the later record used to win, and the file validated
    bad = write(tmp_path, name, (fx / name).read_text().replace(old, new))
    code, out, err = run(capsys, "validate", what, bad)
    assert_one_error_line(code, out, err)
    assert match in err


@pytest.mark.parametrize(
    "name,old,new,match",
    [
        ("pair2_cob.coc", "val 1 2 1", "val 1 1 1", "line 18: val on non-composable pair (1, 1)"),
        ("z2_neg.coc", "val 1 1 1", "val 1 2 1", "line 13: val on non-composable pair (1, 2)"),
        ("z2_neg.coc", "val 1 1 1", "val 1 1 2", "line 13: exponent 2 out of range for order 2"),
        ("z2_neg.coc", "val 1 1 1", "val 1 1 -1", "line 13: exponent -1 out of range for order 2"),
    ],
    ids=["pair2-loop", "z2-off-arrows", "order", "negative"],
)
def test_val_record_error_names_its_line(name, old, new, match, fx, tmp_path, capsys):
    text = (fx / name).read_text()
    assert old in text
    bad = write(tmp_path, name, text.replace(old, new))
    code, out, err = run(capsys, "validate", "cocycle", bad)
    assert (code, out, err) == (1, "", "error: %s\n" % match)


@pytest.mark.parametrize(
    "what,name,old,new,match",
    [
        ("groupoid", "z2.gpd", "comp 1 1 0", "comp 1 1", "line 8: bad comp record"),
        ("groupoid", "z2.gpd", "comp 1 1 0", "comp 1 x 0", "line 8: bad comp record"),
        ("groupoid", "z2.gpd", "comp 1 1 0", "comp 1 1 0_0", "line 8: bad comp record"),
        ("groupoid", "z2.gpd", "arrows 2", "arrows two", "line 2: bad arrows record"),
        ("groupoid", "z2.gpd", "units 0", "units zero", "line 3: bad units record"),
        ("groupoid", "z2.gpd", "inv 1 1", "inv 1 one", "line 7: bad inv record"),
        ("cocycle", "z2_neg.coc", "val 1 1 1", "val 1 1", "line 13: bad val record"),
        ("cocycle", "z2_neg.coc", "val 1 1 1", "val 1 1 y", "line 13: bad val record"),
        ("cocycle", "z2_neg.coc", "order 2", "order two", "line 2: bad order record"),
        ("twist", None, "i 0 1 1", "i 0 x 1", "line 36: bad i record"),
    ],
    ids=["comp-short", "comp-word", "comp-underscore", "arrows", "units", "inv", "val-short", "val-word", "order", "i"],
)
def test_bad_field_record(what, name, old, new, match, fx, tmp_path, capsys):
    # these used to print a bare Python error naming neither line nor record
    text = z2_neg_twist_text() if what == "twist" else (fx / name).read_text()
    assert old in text
    bad = write(tmp_path, "bad", text.replace(old, new))
    code, out, err = run(capsys, "validate", what, bad)
    assert_one_error_line(code, out, err)
    assert err == "error: %s\n" % match


def test_missing_dense_record_names_its_line(fx, tmp_path, capsys):
    text = (fx / "z2.gpd").read_text()
    assert "inv 1 1\n" in text
    bad = write(tmp_path, "bad.gpd", text.replace("inv 1 1\n", ""))
    code, out, err = run(capsys, "validate", "groupoid", bad)
    assert_one_error_line(code, out, err)
    assert err == "error: line 6: missing inv 1: inv records must cover 0..1\n"


def test_bad_dim_record(fx, tmp_path, capsys):
    idl = write(tmp_path, "i.idl", "ideal\ndim one\nvec 0 0 1\n")
    elt = write(tmp_path, "f.elt", "element\ncoeff 1 1\n")
    code, out, err = run(capsys, "ideal", "--ring", "GF(3)", "member", str(fx / "z2.gpd"), idl, elt)
    assert_one_error_line(code, out, err)
    assert err == "error: line 2: bad dim record\n"


def z2_grading_text(fx):
    return "grading\ngroup cyclic 2\nbegin groupoid\n" + (fx / "z2.gpd").read_text() + "end\ndeg 1 1\n"


# (kind, file text from the fixtures, begin record, its replacement, message)
MISNAMED_BLOCKS = [
    ("cocycle", lambda fx: (fx / "z2_neg.coc").read_text(), "begin groupoid", "begin base",
     "expected a groupoid block inside the cocycle file"),
    ("grading", z2_grading_text, "begin groupoid", "begin total",
     "expected a groupoid block inside the grading file"),
    ("twist", lambda fx: z2_neg_twist_text(), "begin base", "begin total",
     "expected the base groupoid block first"),
    ("twist", lambda fx: z2_neg_twist_text(), "begin total", "begin base",
     "expected the total groupoid block second"),
]


@pytest.mark.parametrize("what,text,old,new,message", MISNAMED_BLOCKS)
def test_misnamed_nested_block(what, text, old, new, message, fx, tmp_path, capsys):
    # the error names the line of the misnamed begin record
    lines = text(fx).splitlines()
    assert run(capsys, "validate", what, write(tmp_path, "ok", "\n".join(lines) + "\n"))[0] == 0
    line = lines.index(old) + 1
    lines[line - 1] = new
    code, out, err = run(capsys, "validate", what, write(tmp_path, "bad", "\n".join(lines) + "\n"))
    assert_one_error_line(code, out, err)
    assert err == "error: line %d: %s\n" % (line, message)


@pytest.mark.parametrize("dim", ["-1", "3", "99"])
def test_ideal_dimension_out_of_range(dim, fx, tmp_path, capsys):
    idl = write(tmp_path, "i.idl", "# z2 has 2 arrows\nideal\ndim %s\nvec 0 0 1\n" % dim)
    elt = write(tmp_path, "f.elt", "element\ncoeff 1 1\n")
    code, out, err = run(capsys, "ideal", "--ring", "GF(3)", "member", str(fx / "z2.gpd"), idl, elt)
    assert_one_error_line(code, out, err)
    assert err == "error: line 3: ideal dimension %s out of range for 2 arrows\n" % dim


def test_unit_listed_twice(fx, tmp_path, capsys):
    bad = write(tmp_path, "g.gpd", (fx / "z2.gpd").read_text().replace("units 0", "units 0 0"))
    assert run(capsys, "validate", "groupoid", bad) == (1, "violation: unit 0 is listed more than once\n", "")


def test_grading_degree_out_of_range(emitted, tmp_path, capsys):
    text = (emitted / "z2.grd").read_text()
    assert "group table 2\n" in text and text.endswith("deg 1 1\n")
    bad = write(tmp_path, "bad.grd", text.replace("deg 1 1\n", "deg 1 5\n"))
    got = run(capsys, "validate", "grading", bad)
    assert got == (1, "violation: degree of arrow 1 is out of range\n", "")


def test_large_cyclic_grading_group(fx, tmp_path, capsys):
    # the group table is checked in O(k^2 * generators), not O(k^3)
    body = (fx / "z2.gpd").read_text()
    grd = write(tmp_path, "z2.grd",
                "grading\ngroup cyclic 500\nbegin groupoid\n" + body + "end\ndeg 1 250\n")
    start = time.perf_counter()
    assert run(capsys, "validate", "grading", grd) == (0, "ok\n", "")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", ["1025", "1000000000"])
def test_cyclic_grading_group_is_bounded(k, fx, tmp_path, capsys):
    # the table and its groupoid have k^2 entries, so one record could
    # exhaust memory; the bound is checked before either is built
    body = (fx / "z2.gpd").read_text()
    grd = write(tmp_path, "z2.grd", "grading\ngroup cyclic %s\nbegin groupoid\n%send\n" % (k, body))
    start = time.perf_counter()
    err = "error: line 2: cyclic group order %s exceeds 1024\n" % k
    assert run(capsys, "validate", "grading", grd) == (1, "", err)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [1000, 100000])
def test_twist_order_is_bounded(n, fx, tmp_path, capsys):
    # the z2_neg file at order n would build a total groupoid with 4 n^2
    # composable pairs; build_twist refuses it before allocating any
    text = (fx / "z2_neg.coc").read_text()
    assert len(text.splitlines()) == 13
    coc = write(tmp_path, "big.coc", text.replace("order 2\n", "order %d\n" % n))
    start = time.perf_counter()
    code, out, err = run(capsys, "twist", "build", str(fx / "z2.gpd"), coc, "--out", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert_one_error_line(code, out, err)
    assert err == ("error: twist would have %d composable pairs, |base.comp| * n^2 = 4 * %d^2,"
                   " more than 2^20\n" % (4 * n * n, n))
    assert not (tmp_path / "twist.twi").exists()


# the least prime past each field bound, composites refused by size before
# any primality test, and the least n past 1024; without the bounds each of
# these still fails fast, where a large prime or n would hang or exhaust memory
@pytest.mark.parametrize("spec,message", [
    ("GF(1048583)", "GF(1048583) has more than 2^20 elements"),
    ("GF(1000000000000000000)", "GF(1000000000000000000) has more than 2^20 elements"),
    ("GF(1031^2)", "GF(1031^2) has more than 2^20 elements"),
    ("GF(1025^2)", "GF(1025^2) has more than 2^20 elements"),
    ("Q(zeta_1025)", "Q(zeta_1025): n may be at most 1024"),
])
def test_oversize_ring_spec_is_one_error(spec, message, fx, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "mul", "--ring", spec, "--groupoid", str(fx / "z2.gpd"), "a.elt", "b.elt")
    assert time.perf_counter() - start < 1.0
    assert_one_error_line(code, out, err)
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("spec", ["GF(\u0663)", "GF(\uff11\uff13)", "Q(zeta_\u0664)"])
def test_non_ascii_ring_spec_is_one_error(spec, fx, tmp_path, capsys):
    dg = write(tmp_path, "dg.elt", "element\ncoeff 1 1\n")
    code, out, err = run(capsys, "mul", "--ring", spec, "--groupoid", str(fx / "z2.gpd"), dg, dg)
    assert_one_error_line(code, out, err)
    assert err == "error: unknown ring spec %r\n" % spec


def test_unit_subgroup_of_the_largest_quadratic_field_is_fast(fx, tmp_path, capsys):
    # -1, the element of order 2, comes last in GF(1021^2)'s elements()
    dg = write(tmp_path, "dg.elt", "element\ncoeff 1 1\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "mul", "--ring", "GF(1021^2)", "--cocycle", str(fx / "z2_neg.coc"), dg, dg)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "element\ncoeff 0 1020\n")


def test_largest_ring_specs_parse():
    for spec, size in (("GF(1048573)", 1048573), ("GF(1021^2)", 1021 ** 2)):
        assert T.parse_ring(spec).size == size
    assert T.parse_ring("Q(zeta_1024)").degree == 512


def test_largest_cyclotomic_field_parses_fast():
    # its n powers of zeta are kept as integer coordinates
    T.rings.cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    ring = T.parse_ring("Q(zeta_1024)")
    assert time.perf_counter() - start < 0.3
    assert ring.zeta(1023) == ring.neg(ring.zeta(511))


@pytest.fixture(scope="module")
def emitted(fx, tmp_path_factory):
    """One file of every kind the library writes: two fixtures, plus what
    the verbs that write the rest made over z2."""
    d = tmp_path_factory.mktemp("emitted")
    for name in ("z2.gpd", "z2_neg.coc", "z2_triv.coc"):
        shutil.copy(fx / name, d)
    gpd, neg, triv, twi = (str(d / x) for x in ("z2.gpd", "z2_neg.coc", "z2_triv.coc", "twist.twi"))
    elt = write(d, "e.elt", "element\ncoeff 1 1\n")
    T.write_grading(str(d / "z2.grd"), T.Grading(T.build("z2"), T.cyclic_group(2), [0, 1]))
    for argv in (["twist", "build", gpd, neg], ["twist", "section", twi], ["twist", "iso", twi, twi],
                 ["cohomologous", neg, triv], ["decompose", "--groupoid", gpd, elt],
                 ["ideal", "gen", "--ring", "GF(3)", gpd, elt]):
        assert quiet_main(argv + ["--out", str(d)]) == 0
    return d


def truncated(emitted, tmp_path, name, keep):
    """name cut to its first keep lines.  A bare `element`, `section` or
    `morphism` line is a whole (empty) file, so those are cut to nothing."""
    lines = (emitted / name).read_text().splitlines(keepends=True)
    assert len(lines) > keep
    return write(tmp_path, name, "".join(lines[:keep]))


# (file, lines kept, argv reading the cut file through path)
TRUNCATED_CLI = [
    ("z2.gpd", 1, lambda cut, path: ["validate", "groupoid", cut]),
    ("z2_neg.coc", 1, lambda cut, path: ["validate", "cocycle", cut]),
    ("z2.grd", 1, lambda cut, path: ["validate", "grading", cut]),
    ("twist.twi", 1, lambda cut, path: ["validate", "twist", cut]),
    ("e.elt", 0, lambda cut, path: ["star", "--groupoid", path("z2.gpd"), cut]),
    ("ideal.idl", 1, lambda cut, path: ["ideal", "member", "--ring", "GF(3)", path("z2.gpd"),
                                        cut, path("e.elt")]),
]


@pytest.mark.parametrize("name,keep,argv", TRUNCATED_CLI)
def test_truncated_file_is_unexpected_end(name, keep, argv, emitted, tmp_path, capsys):
    cut = truncated(emitted, tmp_path, name, keep)
    out = run(capsys, *argv(cut, lambda x: str(emitted / x)))
    assert out == (1, "", "error: unexpected end of file\n")


# the kinds no verb reads back
@pytest.mark.parametrize("name,keep,reader", [
    ("section.sec", 0, T.read_section),
    ("morphism.mor", 0, T.read_morphism),
    ("coboundary.cob", 1, T.read_coboundary),
    ("parts.dec", 1, lambda p: T.read_decomposition(p, T.parse_ring("Q"))),
])
def test_truncated_artifact_is_unexpected_end(name, keep, reader, emitted, tmp_path):
    with pytest.raises(ValueError, match="^unexpected end of file$"):
        reader(truncated(emitted, tmp_path, name, keep))


def with_field(emitted, tmp_path, name, record, field):
    """name with a field added to the first record that is exactly record,
    and that record's line number."""
    lines = (emitted / name).read_text().splitlines(keepends=True)
    i = lines.index(record + "\n")
    lines[i] = "%s %s\n" % (record, field)
    return write(tmp_path, name, "".join(lines)), i + 1


# (file, marker record, argv reading the edited file through path)
MARKER_CLI = [
    ("z2.gpd", "groupoid", lambda bad, path: ["validate", "groupoid", bad]),
    ("z2_neg.coc", "cocycle", lambda bad, path: ["validate", "cocycle", bad]),
    ("z2_neg.coc", "end", lambda bad, path: ["validate", "cocycle", bad]),
    ("z2.grd", "grading", lambda bad, path: ["validate", "grading", bad]),
    ("twist.twi", "twist", lambda bad, path: ["validate", "twist", bad]),
    ("e.elt", "element", lambda bad, path: ["mul", "--groupoid", path("z2.gpd"), bad, bad]),
    ("ideal.idl", "ideal", lambda bad, path: ["ideal", "member", "--ring", "GF(3)",
                                              path("z2.gpd"), bad, path("e.elt")]),
]


@pytest.mark.parametrize("name,record,argv", MARKER_CLI, ids=[r for _, r, _ in MARKER_CLI])
def test_marker_record_takes_no_field(name, record, argv, emitted, tmp_path, capsys):
    # a marker record used to be read by its first word alone, and the run exited 0
    bad, line = with_field(emitted, tmp_path, name, record, "junk")
    out = run(capsys, *argv(bad, lambda x: str(emitted / x)))
    assert out == (1, "", "error: line %d: bad %s record\n" % (line, record))


def test_group_Z_record_takes_no_field(fx, tmp_path, capsys):
    text = "grading\ngroup Z\nbegin groupoid\n" + (fx / "z2.gpd").read_text() + "end\n"
    assert run(capsys, "validate", "grading", write(tmp_path, "z.grd", text)) == (0, "ok\n", "")
    bad = write(tmp_path, "bad.grd", text.replace("group Z", "group Z 5"))
    assert run(capsys, "validate", "grading", bad) == (1, "", "error: line 2: bad group record\n")


# the kinds no verb reads back
@pytest.mark.parametrize("name,record,reader", [
    ("section.sec", "section", T.read_section),
    ("morphism.mor", "morphism", T.read_morphism),
    ("coboundary.cob", "coboundary", T.read_coboundary),
    ("parts.dec", "decomposition", lambda p: T.read_decomposition(p, T.parse_ring("Q"))),
])
def test_artifact_marker_record_takes_no_field(name, record, reader, emitted, tmp_path):
    bad, line = with_field(emitted, tmp_path, name, record, "7")
    with pytest.raises(ValueError, match="^line %d: bad %s record$" % (line, record)):
        reader(bad)


def z2_neg_twist_text():
    return "\n".join(T.serialize_twist(T.build_twist(T.build("z2"), T.z2_neg_cocycle()))) + "\n"


@pytest.mark.parametrize("e", ["99", "-1"])
def test_twist_embedding_out_of_range(e, tmp_path, capsys):
    bad = write(tmp_path, "t.twi", z2_neg_twist_text().replace("i 0 1 1", "i 0 1 " + e))
    for argv in (["validate", "twist", bad], ["twist", "induced", bad]):
        assert run(capsys, *argv) == (1, "violation: embedding hits a non-arrow\n", "")


def test_twist_repeated_embedding_record(tmp_path, capsys):
    # the second record used to overwrite the first, and the file validated
    bad = write(tmp_path, "t.twi", z2_neg_twist_text().replace("i 0 1 1", "i 0 1 0\ni 0 1 1"))
    code, out, err = run(capsys, "validate", "twist", bad)
    assert_one_error_line(code, out, err)
    assert "repeated i 0 1" in err


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    T.emit_fixtures(str(d))
    T.write_twist(str(d / "z2_neg.twi"), T.build_twist(T.build("z2"), T.z2_neg_cocycle()))
    write(d, "fuzz.elt", "element\ncoeff 0 1\ncoeff 1 2\n")
    return d


# (fixture, kind, argv from the mutated file, the original and an element file)
FUZZ_RUNS = [
    ("z2.gpd", "groupoid", lambda m, o, e: ["mul", "--ring", "GF(3)", "--groupoid", m, e, e]),
    ("pair2.gpd", "groupoid", lambda m, o, e: ["mul", "--ring", "GF(3)", "--groupoid", m, e, e]),
    ("pair2.gpd", "groupoid", lambda m, o, e: ["simple", "--ring", "GF(3)", m]),
    ("z2_neg.coc", "cocycle", lambda m, o, e: ["mul", "--ring", "GF(3)", "--cocycle", m, e, e]),
    ("pair2_cob.coc", "cocycle", lambda m, o, e: ["cohomologous", m, o]),
    ("z2_neg.twi", "twist", lambda m, o, e: ["twist", "induced", m]),
    ("z2_neg.twi", "twist", lambda m, o, e: ["twist", "iso", m, o]),
    ("z2_neg.twi", "twist", lambda m, o, e: ["psi", "--ring", "GF(3)", m, e]),
]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    run_=st.sampled_from(FUZZ_RUNS),
    mutation=st.sampled_from(["drop", "dup", "-1", "99", "1/0", "x"]),
    line=st.integers(0, 99),
    token=st.integers(0, 9),
)
def test_fuzz_mutated_fixtures(fuzz_dir, run_, mutation, line, token):
    """A mutated fixture ends with exit 0, 1 or 2, never an exception, and
    with 0 only when validate accepts the mutated file."""
    name, kind, argv = run_
    lines = (fuzz_dir / name).read_text().splitlines()
    i = line % len(lines)
    if mutation == "drop":
        del lines[i]
    elif mutation == "dup":
        lines.insert(i, lines[i])
    else:
        toks = lines[i].split()
        toks[token % len(toks)] = mutation
        lines[i] = " ".join(toks)
    bad = write(fuzz_dir, "mutated" + os.path.splitext(name)[1], "\n".join(lines) + "\n")
    code = quiet_main(argv(bad, str(fuzz_dir / name), str(fuzz_dir / "fuzz.elt")))
    assert code in (0, 1, 2)
    if code == 0:
        assert quiet_main(["validate", kind, bad]) == 0


def test_usage_errors(fx, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "ideal", "gen", str(fx / "z2.gpd"))[0] == 2
    assert run(capsys, "twist", "build", str(fx / "z2.gpd"))[0] == 2
    assert run(capsys, "ideal", "member", str(fx / "z2.gpd"))[0] == 2


def parse_exit(parser, argv):
    """Exit code, stdout and stderr of a parse of argv that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parser.parse_known_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_one_verb_parser_reads_as_the_full_one(verb):
    """The parser build_parser(verb) builds prints the full parser's help
    and missing-argument error for that verb."""
    one, full = cli.build_parser(verb), cli.build_parser()
    assert "{%s}" % verb in one.format_usage()
    for argv in ([verb, "--help"], [verb]):
        got = parse_exit(one, argv)
        assert got == parse_exit(full, argv)
        assert got[0] == (0 if "--help" in argv else 2)
    assert parse_exit(one, [verb])[2].startswith("usage: twistalg %s " % verb)


@pytest.mark.parametrize("argv", [[], ["--help"], ["no-such-verb"], ["mu"],
                                  ["orbits", "a.gpd", "b.gpd"], ["mul", "a", "b", "c"]])
def test_top_level_usage_lists_every_verb(argv, capsys):
    """Top-level help, no verb, an unknown verb and unrecognized arguments
    print the usage of the parser with every verb."""
    full = cli.build_parser()
    usage = full.format_usage()
    assert "{%s}" % ",".join(cli._VERBS) in usage
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    if argv == ["--help"]:
        assert (exc.value.code, out, err) == (0, full.format_help(), "")
    else:
        assert exc.value.code == 2 and out == ""
        assert err.startswith(usage)
        if len(argv) > 1:
            assert err == usage + "twistalg: error: unrecognized arguments: %s\n" % argv[-1]


def package_env():
    """The environment with the package under test first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(T.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_loads_no_fractions(fx, tmp_path):
    """Importing the CLI, and a run over Z or GF(p), loads neither
    fractions nor the decimal module it imports; a Q run loads them."""
    code = ("import sys; before = set(sys.modules); from twistalg.cli import main; "
            "loaded = lambda: sorted({'fractions', 'decimal'} - before & set(sys.modules)); "
            "print(loaded()); main(sys.argv[1:]); print(loaded())")
    gpd, elt = str(fx / "z2.gpd"), write(tmp_path, "dg.elt", "element\ncoeff 1 1\n")
    for ring, loaded in (("GF(3)", "[]"), ("Z", "[]"), ("Q", "['decimal', 'fractions']")):
        proc = subprocess.run([sys.executable, "-c", code, "mul", "--ring", ring, "--groupoid", gpd,
                               elt, elt], capture_output=True, text=True, env=package_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["[]", "element", "coeff 0 1", loaded]


def test_module_run_keeps_exit_codes_and_bytes(fx, tmp_path):
    """python -m twistalg.cli goes through console(): its exit codes,
    printed bytes and --out files are those of main()."""
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe is block-buffered: the exit flushes it

    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "twistalg.cli", *argv],
                              capture_output=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    dg = write(tmp_path, "dg.elt", "element\ncoeff 1 1\n")
    got = cli("mul", "--ring", "GF(3)", "--cocycle", str(fx / "z2_neg.coc"), dg, dg)
    assert got == (0, b"element\ncoeff 0 2\n", b"")
    missing = str(tmp_path / "missing.gpd")
    code, out, err = cli("validate", "groupoid", missing)
    assert (code, out) == (1, b"")
    assert err.decode().splitlines() == ["error: [Errno 2] No such file or directory: %r" % missing]
    code, out, err = cli("mul")
    assert (code, out) == (2, b"")
    assert err.startswith(b"usage: twistalg mul ")
    want = T.emit_fixtures(str(tmp_path / "want"))
    got = cli("catalog", "emit", "all", "--out", str(tmp_path / "got"))
    assert got == (0, "".join("wrote %s\n" % f for f in want).encode(), b"")
    assert sorted(os.listdir(tmp_path / "got")) == sorted(want)
    for f in want:
        assert (tmp_path / "got" / f).read_bytes() == (tmp_path / "want" / f).read_bytes()


def console_script_command():
    """argv prefix that runs the ``twistalg`` console script.

    The installed executable when one is on PATH; otherwise the entry
    point that ``[project.scripts]`` in pyproject.toml declares, run
    through the current interpreter, with PYTHONPATH led by the directory
    holding the imported ``twistalg`` package.  Returns ``(argv, env)``.
    """
    exe = shutil.which("twistalg")
    if exe is not None:
        return [exe], None
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    # a line match, not tomllib: tomllib is missing on Python 3.10
    scripts = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    m = re.search(r'^twistalg\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert m, "pyproject.toml declares no twistalg console script"
    module, func = m.groups()
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = f"import sys; sys.argv[0] = 'twistalg'; from {module} import {func}; {func}()"
    return [sys.executable, "-c", code], env


def test_console_script_smoke(fx, tmp_path):
    dg = tmp_path / "dg.elt"
    dg.write_text("element\ncoeff 1 1\n")
    argv, env = console_script_command()
    proc = subprocess.run(
        argv + ["mul", "--ring", "GF(3)", "--cocycle", str(fx / "z2_neg.coc"),
                str(dg), str(dg)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "element\ncoeff 0 2\n"


# runs the argv lists read from stdin through main, one after another, and
# prints its optimization level and each run's exit code, stdout and stderr
_SWEEP_CHILD = """
import contextlib, io, json, sys
from twistalg.cli import main
got = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    got.append([code, out.getvalue(), err.getvalue()])
json.dump([sys.flags.optimize, got], sys.stdout)
"""


def test_other_optimization_level_prints_the_same(fx, tmp_path, capsys, monkeypatch):
    """python -O strips assert statements and sets __debug__ to False;
    every verb must exit, print and write the same bytes either way,
    errors included.  The sweep runs through main here and in one child
    interpreter at the other level, each in its own copy of the inputs,
    by relative paths, so what is printed compares as it is."""
    here, there = tmp_path / "here", tmp_path / "there"
    shutil.copytree(fx, here)
    for name, text in (
            ("gen.elt", "element\ncoeff 0 1\n"),
            ("gen2.elt", "element\ncoeff 1 1\ncoeff 2 2\n"),
            ("d4.elt", "element\ncoeff 4 1\n"),
            ("zeta8.elt", "element\ncoeff 0 1/2+zeta^3\ncoeff 1 -zeta+2/3*zeta^2\n"),
            # over Q(zeta_3) and Q(zeta_12) their reductions mod Phi_n are
            # no signed permutations
            ("a.elt", "element\ncoeff 0 1/2-zeta^2\ncoeff 1 zeta+2/3*zeta^3\ncoeff 3 -5/4+zeta^5\n"),
            ("b.elt", "element\ncoeff 1 3-1/2*zeta\ncoeff 2 zeta^4+7/6*zeta^7\ncoeff 3 2*zeta^11\n"),
            ("zero.idl", "ideal\ndim 0\n"),
            ("z2.grd", z2_grading_text(fx)),
            # the law breaks at (1, 1)
            ("z2-bad.grd", z2_grading_text(fx).replace("cyclic 2", "cyclic 3")),
            # the projections of arrows 1 and 2 swapped
            ("z2_neg-bad.twi", z2_neg_twist_text().replace("q 1 0\nq 2 1\n", "q 1 1\nq 2 0\n"))):
        write(here, name, text)

    runs = [["catalog", "emit", "all", "--out", "emit"], ["catalog", "emit", "--out", "one", "z2"]]
    for gpd, coc in (("pair2", "pair2_triv"), ("pair2", "pair2_cob"), ("z2", "z2_triv"),
                     ("z2", "z2_neg")):
        d = "tw/" + coc
        twi = d + "/twist.twi"
        runs += [["twist", "build", gpd + ".gpd", coc + ".coc", "--out", d],
                 # the mark build_twist sets is not written: the read validates in full
                 ["validate", "twist", twi], ["twist", "section", twi], ["twist", "induced", twi],
                 ["twist", "iso", twi, twi, "--out", d],
                 ["psi", "--ring", "Q(zeta_4)", "--involution", "conj", twi, "gen.elt"],
                 ["psi", "--ring", "Q(zeta_8)", twi, "zeta8.elt"],
                 ["simple", "--mode", "exhaustive", "--ring", "GF(3)", "--cocycle", coc + ".coc",
                  "--out", d, gpd + ".gpd"]]
    runs += [["cohomologous", "pair2_cob.coc", "pair2_triv.coc", "--out", "coh/pair2_cob"],
             ["cohomologous", "z2_neg.coc", "z2_triv.coc", "--out", "coh/z2_neg"]]
    for gpd in sorted(p.stem for p in fx.glob("*.gpd")):
        runs += [["orbits", gpd + ".gpd"], ["effective", gpd + ".gpd"], ["minimal", gpd + ".gpd"],
                 ["simple", "--mode", "exhaustive", "--ring", "GF(2)", "--out", "gpd/" + gpd,
                  gpd + ".gpd"],
                 ["ideal", "--ring", "GF(3)", "--out", "gpd/" + gpd, "gen", gpd + ".gpd", "gen.elt"]]
    for gpd in ("klein.gpd", "z4.gpd"):
        for ring in ("Q(zeta_3)", "Q(zeta_12)"):
            runs += [["mul", "--ring", ring, "--groupoid", gpd, "a.elt", "b.elt"],
                     ["star", "--ring", ring, "--groupoid", gpd, "a.elt"],
                     ["decompose", "--ring", ring, "--groupoid", gpd, "a.elt"]]
    runs += [["validate", "grading", "z2.grd"],
             ["grade", "--ring", "GF(3)", "--out", "grade", "z2.grd", "gen.elt"],
             ["graded-witness", "--ring", "GF(3)", "z2.grd", "gpd/z2/ideal.idl"]]
    # (argv, its exit code, the first line it prints and its stderr)
    pinned = [
        (["ideal", "--ring", "GF(3)", "--out", "pp", "gen", "pair2_pair2.gpd", "gen2.elt"],
         (0, "dim: 4", "")),
        (["ideal", "--ring", "GF(3)", "member", "pair2_pair2.gpd", "pp/ideal.idl", "gen2.elt"],
         (0, "member: true", "")),
        (["ideal", "--ring", "GF(3)", "member", "pair2_pair2.gpd", "pp/ideal.idl", "d4.elt"],
         (0, "member: false", "")),
        (["ck-witness", "--ring", "GF(3)", "pair2_pair2.gpd", "pp/ideal.idl"], (0, "witness: 0", "")),
        (["ck-witness", "--ring", "GF(3)", "pair2_pair2.gpd", "zero.idl"],
         (1, "", "error: zero ideal has no witness\n")),
        (["cohomologous", "pair2_cob.coc", "pair2_triv.coc"], (0, "cohomologous: true", "")),
        (["cohomologous", "z2_neg.coc", "z2_triv.coc"], (0, "cohomologous: false", "")),
        (["twist", "iso", "tw/pair2_cob/twist.twi", "tw/pair2_cob/twist.twi"],
         (0, "isomorphic: true", "")),
        (["twist", "iso", "tw/z2_neg/twist.twi", "tw/z2_triv/twist.twi"], (0, "isomorphic: false", "")),
        (["validate", "grading", "z2-bad.grd"],
         (1, "violation: homomorphism law fails at pair (1, 1)", "")),
        (["validate", "twist", "z2_neg-bad.twi"], (1, "violation: projection breaks inv at 2", "")),
    ]
    runs += [argv for argv, _ in pinned]
    assert {argv[0] for argv in runs} == set(cli._VERBS)

    shutil.copytree(here, there)
    env = package_env()
    env.pop("PYTHONOPTIMIZE", None)  # the child runs at the level its flags set
    proc = subprocess.run([sys.executable, *([] if sys.flags.optimize else ["-O"]), "-c", _SWEEP_CHILD],
                          input=json.dumps(runs), capture_output=True, text=True, cwd=there, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    level, child = json.loads(proc.stdout)
    assert bool(level) != bool(sys.flags.optimize)
    monkeypatch.chdir(here)
    got = [run(capsys, *argv) for argv in runs]
    assert [tuple(r) for r in child] == got
    assert [code for code, _, _ in got[:-len(pinned)]] == [0] * (len(runs) - len(pinned))
    assert [(code, out.partition("\n")[0], err)
            for code, out, err in got[-len(pinned):]] == [want for _, want in pinned]

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert tree(here) == tree(there)


def test_library_has_no_assert_statements():
    """python -O strips assert statements and sets __debug__ to False, so
    every self-check in the library raises explicitly instead, and no code
    reads __debug__ or sys.flags to act otherwise under -O."""
    pkg = Path(T.__file__).resolve().parent
    found = ["%s:%d" % (path.relative_to(pkg), node.lineno)
             for path in sorted(pkg.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"
             or isinstance(node, ast.Attribute) and node.attr == "flags"
             and isinstance(node.value, ast.Name) and node.value.id == "sys"
             or isinstance(node, ast.ImportFrom) and node.module == "sys"
             and any(alias.name == "flags" for alias in node.names)]
    assert found == []
