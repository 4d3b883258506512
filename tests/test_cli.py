"""Command line driver: exit codes, printed lines, artifact files."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import twistalg as T
from twistalg.cli import main


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


def test_usage_errors(fx, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "ideal", "gen", str(fx / "z2.gpd"))[0] == 2
    assert run(capsys, "twist", "build", str(fx / "z2.gpd"))[0] == 2
    assert run(capsys, "ideal", "member", str(fx / "z2.gpd"))[0] == 2


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
