"""Text formats: round trips, hand-written files, and rejection paths."""

from fractions import Fraction
from pathlib import Path

import pytest

import twistalg as T
from conftest import carry_cocycle, make_context


def path(tmp_path, name):
    return str(tmp_path / name)


# --- groupoids ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(T.CATALOG))
def test_groupoid_round_trip(name, tmp_path):
    g = T.build(name)
    p = path(tmp_path, name + ".gpd")
    T.write_groupoid(p, g)
    assert T.read_groupoid(p) == g
    # byte stability
    first = Path(p).read_bytes()
    T.write_groupoid(p, T.read_groupoid(p))
    assert Path(p).read_bytes() == first
    assert first.endswith(b"\n")
    assert b"\r" not in first


def test_groupoid_file_omits_unit_compositions():
    g = T.build("pair2")
    lines = T.serialize_groupoid(g)
    comp_lines = [ln for ln in lines if ln.startswith("comp")]
    # only (1,2) and (2,1) survive; products with a unit factor are implied
    assert comp_lines == ["comp 1 2 0", "comp 2 1 3"]


def test_hand_written_groupoid_with_comments(tmp_path):
    p = path(tmp_path, "g.gpd")
    with open(p, "w") as fh:
        fh.write(
            "# order-2 group, written by hand\n"
            "groupoid\n"
            "arrows 2\n\n"
            "units 0\n"
            "arrow 0 src 0 rng 0\n"
            "arrow 1 src 0 rng 0\n"
            "inv 0 0\n"
            "inv 1 1\n"
            "comp 1 1 0   # the only free product\n"
        )
    assert T.read_groupoid(p) == T.build("z2")


def test_groupoid_missing_records(tmp_path):
    p = path(tmp_path, "g.gpd")
    with open(p, "w") as fh:
        fh.write("groupoid\narrows 2\nunits 0\narrow 0 src 0 rng 0\ninv 0 0\ninv 1 1\n")
    with pytest.raises(ValueError, match="missing arrow"):
        T.read_groupoid(p)


def test_groupoid_trailing_content(tmp_path):
    g = T.build("pair1")
    p = path(tmp_path, "g.gpd")
    T.write_groupoid(p, g)
    with open(p, "a") as fh:
        fh.write("surprise\n")
    with pytest.raises(ValueError, match="trailing"):
        T.read_groupoid(p)


def test_groupoid_bad_header(tmp_path):
    p = path(tmp_path, "g.gpd")
    with open(p, "w") as fh:
        fh.write("gruppoid\n")
    with pytest.raises(ValueError):
        T.read_groupoid(p)


# --- cocycles ------------------------------------------------------------------


@pytest.mark.parametrize(
    "coc",
    [
        T.z2_neg_cocycle(),
        T.pair2_coboundary_cocycle(),
        T.trivial_cocycle(T.build("s3"), 3),
        carry_cocycle(4),
    ],
    ids=["z2_neg", "pair2_cob", "s3_triv", "z4_carry"],
)
def test_cocycle_round_trip(coc, tmp_path):
    p = path(tmp_path, "c.coc")
    T.write_cocycle(p, coc)
    back = T.read_cocycle(p)
    assert back == coc
    assert back.gpd == coc.gpd


def test_cocycle_val_on_non_composable(tmp_path):
    p = path(tmp_path, "c.coc")
    T.write_cocycle(p, T.trivial_cocycle(T.build("pair2"), 2))
    with open(p, "a") as fh:
        fh.write("val 1 1 1\n")
    with pytest.raises(ValueError, match="non-composable"):
        T.read_cocycle(p)


def test_cocycle_repeated_val(tmp_path):
    p = path(tmp_path, "c.coc")
    T.write_cocycle(p, T.z2_neg_cocycle())
    with open(p, "a") as fh:
        fh.write("val 1 1 0\n")
    with pytest.raises(ValueError, match="line 14: repeated val 1 1"):
        T.read_cocycle(p)


def test_cocycle_val_is_checked_before_its_repeat(tmp_path):
    # the exponent of a repeated val record is checked first
    p = path(tmp_path, "c.coc")
    T.write_cocycle(p, T.z2_neg_cocycle())
    with open(p, "a") as fh:
        fh.write("val 1 1 5\n")
    with pytest.raises(ValueError, match=r"^line 14: exponent 5 out of range for order 2$"):
        T.read_cocycle(p)


def test_unit_listed_twice(tmp_path):
    p = path(tmp_path, "g.gpd")
    T.write_text(p, Z2.replace("units 0", "units 0 0"))
    with pytest.raises(T.AxiomError) as exc:
        T.read_groupoid(p)
    assert exc.value.violations == ["unit 0 is listed more than once"]
    g = T.build("pair2")
    twice = T.Groupoid(g.units + g.units[:1], g.src, g.rng, g.inv, g.comp)
    assert T.validate_groupoid(twice) == ["unit %d is listed more than once" % g.units[0]]


def test_cocycle_exponent_out_of_range(tmp_path):
    p = path(tmp_path, "c.coc")
    T.write_cocycle(p, T.trivial_cocycle(T.build("z2"), 2))
    with open(p, "a") as fh:
        fh.write("val 1 1 5\n")
    with pytest.raises(ValueError, match="out of range"):
        T.read_cocycle(p)


# --- gradings --------------------------------------------------------------------


def test_grading_round_trip_int_group(tmp_path):
    g = T.build("pair2")
    grading = T.Grading(g, T.IntGroup(), [0, -1, 1, 0])
    p = path(tmp_path, "g.grd")
    T.write_grading(p, grading)
    back = T.read_grading(p)
    assert back.deg == grading.deg
    assert isinstance(back.group, T.IntGroup)


def test_grading_round_trip_table_group(tmp_path):
    g = T.build("z4")
    grading = T.Grading(g, T.cyclic_group(4), [0, 1, 2, 3])
    p = path(tmp_path, "g.grd")
    T.write_grading(p, grading)
    back = T.read_grading(p)
    assert back.deg == grading.deg
    assert back.group.table == grading.group.table


def test_grading_cyclic_shorthand(tmp_path):
    p = path(tmp_path, "g.grd")
    body = "\n".join(T.serialize_groupoid(T.build("z2")))
    with open(p, "w") as fh:
        fh.write("grading\ngroup cyclic 2\nbegin groupoid\n%s\nend\ndeg 1 1\n" % body)
    back = T.read_grading(p)
    assert back.deg == (0, 1)
    assert back.group.order == 2


def test_grading_unknown_group_kind(tmp_path):
    p = path(tmp_path, "g.grd")
    with open(p, "w") as fh:
        fh.write("grading\ngroup quaternion 8\n")
    with pytest.raises(ValueError, match="group kind"):
        T.read_grading(p)


# --- elements ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "ring_spec,coeffs",
    [
        ("Q", {0: Fraction(-3, 7), 2: Fraction(5)}),
        ("Z", {1: -12}),
        ("GF(3)", {0: 2, 3: 1}),
        ("GF(3^2)", {1: (2, 1), 2: (0, 2)}),
        ("Q(zeta_8)", None),  # filled below with zeta powers
    ],
)
def test_element_round_trip(ring_spec, coeffs, tmp_path):
    ctx = make_context(T.build("pair2"), ring_spec)
    if coeffs is None:
        z = ctx.ring.zeta()
        coeffs = {0: z, 1: ctx.ring.add(ctx.ring.one(), ctx.ring.neg(z)), 2: ctx.ring.mul(z, z)}
    f = T.from_coeffs(ctx, coeffs)
    p = path(tmp_path, "f.elt")
    T.write_element(p, f)
    assert T.read_element(p, ctx) == f
    # literals contain no spaces: every coeff line has exactly 3 tokens
    for ln in Path(p).read_text().splitlines()[1:]:
        assert len(ln.split()) == 3


def test_element_arrow_out_of_range(tmp_path):
    ctx = make_context(T.build("pair2"), "Q")
    p = path(tmp_path, "f.elt")
    with open(p, "w") as fh:
        fh.write("element\ncoeff 9 1\n")
    with pytest.raises(ValueError, match="out of range"):
        T.read_element(p, ctx)


def test_element_bad_literal(tmp_path):
    ctx = make_context(T.build("pair2"), "GF(3)")
    p = path(tmp_path, "f.elt")
    with open(p, "w") as fh:
        fh.write("element\ncoeff 0 w\n")
    with pytest.raises(ValueError):
        T.read_element(p, ctx)


# --- twists -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "coc", [T.z2_neg_cocycle(), carry_cocycle(4)], ids=["z2_neg", "z4_carry"]
)
def test_twist_round_trip(coc, tmp_path):
    tw = T.build_twist(coc.gpd, coc)
    p = path(tmp_path, "t.twi")
    T.write_twist(p, tw)
    back = T.read_twist(p)
    assert back == tw
    assert T.validate_twist(back) == []


def test_twist_q_table_must_cover(tmp_path):
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    p = path(tmp_path, "t.twi")
    lines = [ln for ln in T.serialize_twist(tw) if not ln.startswith("q 3")]
    with open(p, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="cover"):
        T.read_twist(p)


# --- result artifacts ------------------------------------------------------------


def test_section_round_trip(tmp_path):
    tw = T.build_twist(T.build("pair2"), T.pair2_coboundary_cocycle())
    sec = T.find_section(tw)
    p = path(tmp_path, "s.sec")
    T.write_text(p, "\n".join(T.serialize_section(sec)) + "\n")
    assert T.read_section(p) == sec


def test_morphism_round_trip(tmp_path):
    p = path(tmp_path, "m.mor")
    T.write_text(p, "\n".join(T.serialize_morphism((0, 1, 3, 2))) + "\n")
    assert T.read_morphism(p) == (0, 1, 3, 2)
    T.write_text(p, "\n".join(T.serialize_morphism(None)) + "\n")
    assert T.read_morphism(p) is None


def test_coboundary_round_trip(tmp_path):
    p = path(tmp_path, "b.cob")
    T.write_text(p, "\n".join(T.serialize_coboundary(2, 4, [0, 1, 0, 1])) + "\n")
    assert T.read_coboundary(p) == (2, 4, [0, 1, 0, 1])
    T.write_text(p, "\n".join(T.serialize_coboundary(2, 4, None)) + "\n")
    assert T.read_coboundary(p) == (2, 4, None)


def test_ideal_round_trip(tmp_path):
    ctx = make_context(T.build("pair2_pair2"), "GF(3)")
    ideal = T.ideal_generated(ctx, [T.delta(ctx, 1)])
    p = path(tmp_path, "i.idl")
    T.write_ideal(p, ideal)
    back = T.read_ideal(p, ctx)
    assert back == ideal
    assert back.dim == ideal.dim


@pytest.mark.parametrize(
    "body,match",
    [
        ("dim 1\nvec 1 0 1\n", "line 3: vec 1 0 out of range"),
        ("dim 1\nvec 0 8 1\n", "out of range"),
        ("dim 1\nvec 0 0 1\nvec 0 0 1\nvec 0 1 1\n", "line 4: repeated vec 0 0"),
        ("dim 1\nvec 0 0 1 2\n", "vec wants"),
        ("dim 9\n", "dimension 9 out of range"),
        ("dim 2\nvec 0 0 1\n", "row echelon"),  # a zero row
        ("dim 1\nvec 0 0 2\n", "row echelon"),  # leading coefficient not one
        ("dim 1\nvec 0 1 1\n", "not closed"),
    ],
    ids=["row", "arrow", "repeated", "tokens", "dim", "zero-row", "lead", "not-closed"],
)
def test_ideal_reader_rejects(body, match, tmp_path):
    ctx = make_context(T.build("pair2_pair2"), "GF(3)")
    p = path(tmp_path, "i.idl")
    T.write_text(p, "ideal\n" + body)
    with pytest.raises(ValueError, match=match):
        T.read_ideal(p, ctx)


def test_decomposition_round_trip(tmp_path):
    ctx = make_context(T.build("pair3"), "Q")
    f = T.from_coeffs(ctx, {0: Fraction(2), 1: Fraction(2), 5: Fraction(-1)})
    parts = T.disjoint_decomposition(f)
    p = path(tmp_path, "d.dec")
    T.write_text(p, "\n".join(T.serialize_decomposition(ctx.ring, parts)) + "\n")
    assert T.read_decomposition(p, ctx.ring) == parts


def test_decomposition_missing_part(tmp_path):
    p = path(tmp_path, "d.dec")
    with open(p, "w") as fh:
        fh.write("decomposition\nparts 2\npart 0 1 0\n")
    with pytest.raises(ValueError, match="missing part"):
        T.read_decomposition(p, T.parse_ring("Q"))


# --- checks made while reading ---------------------------------------------------


Z2 = "\n".join(T.serialize_groupoid(T.build("z2"))) + "\n"


@pytest.mark.parametrize(
    "old,new,match",
    [
        ("arrow 1 src 0 rng 0", "arrow -1 src 0 rng 0", "line 5: arrow -1 out of range"),
        ("arrow 1 src 0 rng 0", "arrow 0 src 0 rng 0", "line 5: repeated arrow 0"),
        ("arrow 1 src 0 rng 0", "arrow 1 src 0 rng", "line 5: bad arrow record"),
        ("inv 1 1", "inv 2 1", "line 7: inv 2 out of range"),
        ("inv 1 1\n", "", "missing inv 1"),
        ("arrows 2", "arrows -1", "negative arrows"),
        # the later record used to win, so this file validated
        ("comp 1 1 0", "comp 1 1 1\ncomp 1 1 0", "line 9: repeated comp 1 1"),
    ],
    ids=["negative", "repeated", "fields", "inv-range", "inv-missing", "count", "repeated-comp"],
)
def test_groupoid_reader_rejects_records(old, new, match, tmp_path):
    p = path(tmp_path, "g.gpd")
    T.write_text(p, Z2.replace(old, new))
    with pytest.raises(ValueError, match=match):
        T.read_groupoid(p)


def test_groupoid_reader_checks_axioms(tmp_path):
    p = path(tmp_path, "g.gpd")
    T.write_text(p, Z2.replace("comp 1 1 0", "comp 1 1 1"))
    with pytest.raises(T.AxiomError) as exc:
        T.read_groupoid(p)
    v = exc.value.violations
    assert exc.value.kind == "groupoid"
    assert v == T.validate_groupoid(T.Groupoid([0], [0, 0], [0, 0], [0, 1], {
        (0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}))
    assert str(exc.value) == "invalid groupoid: " + "; ".join(v[:4])


def test_cocycle_and_grading_readers_check_groupoid_first(tmp_path):
    broken = Z2.replace("comp 1 1 0", "comp 1 1 1")
    p = path(tmp_path, "c.coc")
    T.write_text(p, "cocycle\norder 2\nbegin groupoid\n%send\n" % broken)
    with pytest.raises(T.AxiomError, match="invalid groupoid"):
        T.read_cocycle(p)
    T.write_text(p, "cocycle\norder 2\nbegin groupoid\n%send\nval 0 1 1\n" % Z2)
    with pytest.raises(T.AxiomError, match="invalid cocycle: normalisation"):
        T.read_cocycle(p)
    p = path(tmp_path, "g.grd")
    T.write_text(p, "grading\ngroup cyclic 2\nbegin groupoid\n%send\n" % broken)
    with pytest.raises(T.AxiomError, match="invalid groupoid"):
        T.read_grading(p)
    T.write_text(p, "grading\ngroup cyclic 4\nbegin groupoid\n%send\ndeg 1 1\n" % Z2)
    with pytest.raises(T.AxiomError, match="invalid grading: homomorphism"):
        T.read_grading(p)
    T.write_text(p, "grading\ngroup cyclic 2\nbegin groupoid\n%send\ndeg 2 1\n" % Z2)
    with pytest.raises(ValueError, match="deg 2 out of range"):
        T.read_grading(p)


def test_twist_reader_checks_axioms(tmp_path):
    tw = T.build_twist(T.build("z2"), T.z2_neg_cocycle())
    lines = T.serialize_twist(tw)
    # the total block's comp 2 2 1 becomes 2 2 0: associativity fails
    i = max(k for k, ln in enumerate(lines) if ln == "comp 2 2 1")
    lines[i] = "comp 2 2 0"
    p = path(tmp_path, "t.twi")
    T.write_text(p, "\n".join(lines) + "\n")
    with pytest.raises(T.AxiomError) as exc:
        T.read_twist(p)
    assert exc.value.kind == "twist"
    assert exc.value.violations[0].startswith("total: associativity fails")


@pytest.mark.parametrize(
    "text,read,match",
    [
        ("element\ncoeff 0 1\ncoeff 0 2\n", "element", "line 3: repeated coeff 0"),
        ("element\ncoeff -1 1\n", "element", "coeff -1 out of range"),
        ("section\nmap 0 0\nmap 2 1\n", "section", "line 3: map 2 out of range"),
        ("section\nmap 0 0\nmap 0 1\n", "section", "repeated map 0"),
        ("morphism\nmap 1 0\n", "morphism", "map 1 out of range"),
        ("coboundary\norder 2\narrows 2\nb 2 1\n", "coboundary", "b 2 out of range"),
        ("coboundary\norder 2\narrows 2\nb 1 1\nb 1 1\n", "coboundary", "repeated b 1"),
        ("decomposition\nparts 2\npart 0 1 0\npart 0 1 1\n", "decomposition", "repeated part 0"),
        ("decomposition\nparts 1\npart 0\n", "decomposition", "bad part record"),
        ("section\nmap 0 0\nnone\n", "section", "line 3: trailing content"),
    ],
)
def test_indexed_records_rejected(text, read, match, tmp_path):
    p = path(tmp_path, "x")
    T.write_text(p, text)
    ctx = make_context(T.build("pair2"), "Q")
    call = {
        "element": lambda: T.read_element(p, ctx),
        "section": lambda: T.read_section(p),
        "morphism": lambda: T.read_morphism(p),
        "coboundary": lambda: T.read_coboundary(p),
        "decomposition": lambda: T.read_decomposition(p, ctx.ring),
    }[read]
    with pytest.raises(ValueError, match=match):
        call()
