"""Workload `cli_batch`: the cli and fileio layers plus interpreter start.

Each job is one `python -m twistalg.cli <verb>` subprocess, run one at a
time, on fixtures and seeded files written during set-up.  The verb mix
follows demos/cli_tour.sh.  Interpreter start, import and text parsing
dominate, so this is where reading, validating and import-time work show.

Subprocesses get PYTHONPATH=src (no install is needed) and a
PYTHONPYCACHEPREFIX inside the run's own directory, warmed during set-up,
so nothing is written under src/.  Set-up starts from an empty directory
every time, so every set-up pays the same cold bytecode compile.

Oracles.  Exit code 0 and empty stderr; stdout byte-identical to the text
built in this process from library objects and serializers (for `twist
induced`, to the input cocycle file itself; for orbits, membership and
verdicts, to answers known from the groupoids' structure); and every
invocation of a job byte-identical to its first one.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys

from common import Slot, context, element, groupoid, memo, pair_blocks, sparse

import twistalg as T
import twistalg.cli  # noqa: F401  (the in-process variant calls T.cli.main)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 60
REFERENCE = "interp"  # jobs are scaled by a bare interpreter start (run.Reference)


def child_env(workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def verb_ms(slots, loop):
    """Median subprocess wall time per verb key over a loop's jobs."""
    by_verb = {}
    for i, dt in zip(loop.by_slot, loop.times):
        verb = slots[i].desc.get("verb")
        if verb:
            by_verb.setdefault(verb, []).append(1000.0 * dt)
    return {v: statistics.median(ts) for v, ts in by_verb.items()}


# --- seeded inputs -------------------------------------------------------------

def _carry(m, n, k):
    """k times the carry cocycle on the cyclic group of order m, as a table
    over all pairs: its class is k in H^2(Z/m; Z/n) = Z/gcd(m, n)."""
    return {(a, b): k * (1 if a + b >= m else 0) for a in range(m) for b in range(m)}


def make_specs(rnd):
    return {
        "z4_class": rnd.randrange(4),
        "z4_cob": [0] + [rnd.randrange(4) for _ in range(3)],
        "z4_perturb": [0] + [rnd.randrange(4) for _ in range(3)],
        "mul_a": sparse(range(2), 2, "GF(3)", rnd),
        "mul_b": sparse(range(2), 2, "GF(3)", rnd),
        "mul_p": sparse(range(9), 5, "Q", rnd),
        "mul_q": sparse(range(9), 5, "Q", rnd),
        "star": sparse(range(4), 3, "Q(zeta_4)", rnd),
        "decompose": sparse(range(9), 6, "GF(5)", rnd),
        "psi": sparse(range(4), 3, "Q(zeta_4)", rnd),
        "gen4": sparse(range(16), 3, "GF(3)", rnd),
        "gen22": sparse(range(4), 2, "GF(3)", rnd),
        "member_in": sparse(range(4), 2, "GF(3)", rnd),
        "member_out": sparse(range(2, 8), 3, "GF(3)", rnd),
    }


def _write_element(path, coeffs):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("element\n" + "".join("coeff %d %s\n" % (a, c) for a, c in sorted(coeffs.items())))


def build(specs, workdir):
    """Fresh run directory, fixtures, seeded files, warm bytecode; the slots."""
    shutil.rmtree(workdir, ignore_errors=True)
    fx = os.path.join(workdir, "fx")
    T.emit_fixtures(fx, "all")
    path = lambda name: os.path.join(fx, name)

    z4 = T.build("z4")
    coc = T.apply_coboundary(T.Cocycle(z4, 4, _carry(4, 4, specs["z4_class"])), specs["z4_cob"])
    cohom = T.apply_coboundary(coc, specs["z4_perturb"])
    other = T.multiply_cocycles(coc, T.Cocycle(z4, 4, _carry(4, 4, 1)))
    for name, c in (("z4_c.coc", coc), ("z4_p.coc", cohom), ("z4_x.coc", other)):
        T.write_cocycle(path(name), c)
    twists = {}
    for name, c in (("tw_c.twi", coc), ("tw_p.twi", cohom), ("tw_x.twi", other)):
        twists[name] = T.build_twist(z4, c)
        T.write_twist(path(name), twists[name])
    for key in ("mul_a", "mul_b", "mul_p", "mul_q", "star", "decompose", "psi",
                "gen4", "gen22", "member_in", "member_out"):
        _write_element(path(key + ".elt"), specs[key])
    p22 = groupoid("pair2+pair2")
    ctx22 = context(p22, "GF(3)")
    ideal22 = T.ideal_generated(ctx22, [element(ctx22, specs["gen22"])])
    T.write_ideal(path("i22.idl"), ideal22)

    env = child_env(workdir)
    subprocess.run([sys.executable, "-c", "import twistalg.cli"], env=env, cwd=workdir,
                   check=True, timeout=TIMEOUT_S)

    lines = lambda ls: "\n".join(ls) + "\n"

    def read(name):
        with open(path(name), encoding="utf-8") as fh:
            return fh.read()

    block0 = set(pair_blocks("pair2+pair2")[0][0])

    def mul(ring, coc_or_gpd, a, b):
        ctx = context(coc_or_gpd.gpd, ring, coc_or_gpd) if isinstance(coc_or_gpd, T.Cocycle) \
            else context(coc_or_gpd, ring)
        return lines(T.serialize_element(T.convolve(element(ctx, specs[a]), element(ctx, specs[b]))))

    def star():
        ctx = context(z4, "Q(zeta_4)", coc, "conj")
        return lines(T.serialize_element(T.involute(element(ctx, specs["star"]))))

    def decompose():
        ctx = context(T.pair_groupoid(3), "GF(5)")
        parts = T.disjoint_decomposition(element(ctx, specs["decompose"]))
        return "parts: %d\n" % len(parts) + lines(T.serialize_decomposition(ctx.ring, parts))

    def psi():
        tw = twists["tw_c.twi"]
        sec = T.find_section(tw)
        ring = T.parse_ring("Q(zeta_4)")
        tgrp, conj = T.unit_subgroup(ring, 4), T.parse_involution(ring, "conj")
        ectx = T.EquivContext(tw, sec, ring, tgrp, conj)
        ctx = T.Context(z4, ring, tgrp, T.invert_cocycle(T.induced_cocycle(tw, sec)), conj)
        h = element(ctx, specs["psi"])
        return lines(T.serialize_element(T.psi(T.EquivariantElement(ectx, h.coeffs), ctx)))

    def ideal_gen(name, key, dim):
        ctx = context(groupoid(name), "GF(3)")
        ideal = T.ideal_generated(ctx, [element(ctx, specs[key])])
        if ideal.dim != dim:
            raise AssertionError("ideal dim %d, expected %d" % (ideal.dim, dim))
        return "dim: %d\n" % dim + lines(T.serialize_ideal(ideal))

    def iso():
        mor = T.twists_isomorphic(twists["tw_c.twi"], twists["tw_p.twi"])
        return "isomorphic: true\n" + lines(T.serialize_morphism(mor.mapping))

    def witness():
        (u,) = T.ck_witness(ctx22, ideal22)
        if u not in block0:
            raise AssertionError("witness %d outside the generated block" % u)
        return "witness: %d\n" % u

    def simple_structural():
        res = T.is_simple(ctx22)
        return "simple: false\nreason: %s\n" % res.reason + lines(T.serialize_ideal(res.certificate))

    def cohomologous():
        return "cohomologous: true\n" + lines(T.serialize_coboundary(4, 4, T.check_cohomologous(cohom, coc)))

    ring_opts = lambda ring: ["--ring", ring]
    jobs = [
        ("catalog_list", ["catalog", "list"],
         lambda: "".join("%-12s %s\n" % (e.name, e.summary) for e in T.CATALOG.values())),
        ("validate", ["validate", "groupoid", path("s3.gpd")], lambda: "ok\n"),
        ("validate", ["validate", "cocycle", path("z4_c.coc")], lambda: "ok\n"),
        ("orbits", ["orbits", path("pair2_pair2.gpd")], lambda: "".join(
            "orbit %d: %s\n" % (i, " ".join(map(str, units)))
            for i, (_, units, _) in enumerate(pair_blocks("pair2+pair2")))),
        ("effective", ["effective", path("fix3.gpd")], lambda: "effective: false\n"),
        ("minimal", ["minimal", path("z4.gpd")], lambda: "minimal: true\n"),
        ("twist_build", ["twist", "build", path("z4.gpd"), path("z4_c.coc")],
         lambda: lines(T.serialize_twist(T.build_twist(z4, coc)))),
        ("twist_section", ["twist", "section", path("tw_c.twi")],
         lambda: lines(T.serialize_section(T.find_section(twists["tw_c.twi"])))),
        ("twist_induced", ["twist", "induced", path("tw_c.twi")], lambda: read("z4_c.coc")),
        ("twist_iso", ["twist", "iso", path("tw_c.twi"), path("tw_p.twi")], iso),
        ("twist_iso", ["twist", "iso", path("tw_c.twi"), path("tw_x.twi")],
         lambda: "isomorphic: false\nmorphism\nnone\n"),
        ("mul", ["mul"] + ring_opts("GF(3)") + ["--cocycle", path("z2_neg.coc"),
                                               path("mul_a.elt"), path("mul_b.elt")],
         lambda: mul("GF(3)", T.z2_neg_cocycle(), "mul_a", "mul_b")),
        ("mul", ["mul"] + ring_opts("Q") + ["--groupoid", path("pair3.gpd"),
                                           path("mul_p.elt"), path("mul_q.elt")],
         lambda: mul("Q", T.pair_groupoid(3), "mul_p", "mul_q")),
        ("star", ["star"] + ring_opts("Q(zeta_4)") + ["--cocycle", path("z4_c.coc"), path("star.elt")],
         star),
        ("decompose", ["decompose"] + ring_opts("GF(5)") + ["--groupoid", path("pair3.gpd"),
                                                           path("decompose.elt")], decompose),
        ("psi", ["psi"] + ring_opts("Q(zeta_4)") + ["--involution", "auto", path("tw_c.twi"),
                                                   path("psi.elt")], psi),
        ("ideal_gen", ["ideal"] + ring_opts("GF(3)") + ["gen", path("pair4.gpd"), path("gen4.elt")],
         lambda: ideal_gen("pair4", "gen4", 16)),
        ("ideal_gen", ["ideal"] + ring_opts("GF(3)") + ["gen", path("pair2_pair2.gpd"), path("gen22.elt")],
         lambda: ideal_gen("pair2+pair2", "gen22", 4)),
        ("ideal_member", ["ideal"] + ring_opts("GF(3)")
         + ["member", path("pair2_pair2.gpd"), path("i22.idl"), path("member_in.elt")], lambda: "member: true\n"),
        ("ideal_member", ["ideal"] + ring_opts("GF(3)")
         + ["member", path("pair2_pair2.gpd"), path("i22.idl"), path("member_out.elt")],
         lambda: "member: %s\n" % ("true" if set(specs["member_out"]) <= block0 else "false")),
        ("ck-witness", ["ck-witness"] + ring_opts("GF(3)") + [path("pair2_pair2.gpd"), path("i22.idl")],
         witness),
        ("simple_structural", ["simple"] + ring_opts("GF(3)") + [path("pair2_pair2.gpd")],
         simple_structural),
        ("simple_exhaustive", ["simple"] + ring_opts("GF(3)") + ["--cocycle", path("z2_neg.coc"),
                                                                "--mode", "exhaustive", path("z2.gpd")],
         lambda: "simple: true\nreason: every nonzero element generates the algebra\n"),
        ("cohomologous", ["cohomologous", path("z4_p.coc"), path("z4_c.coc")], cohomologous),
        ("cohomologous", ["cohomologous", path("z4_x.coc"), path("z4_c.coc")],
         lambda: "cohomologous: false\ncoboundary\norder 4\narrows 4\nnone\n"),
    ]
    return [_slot(verb, argv, expect, workdir, env) for verb, argv, expect in jobs]


def _slot(verb, argv, expect, workdir, env):
    cmd = [sys.executable, "-m", "twistalg.cli"] + argv

    def run():
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, timeout=TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def inproc():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = T.cli.main(argv)
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    expected = memo(lambda: expect().encode("utf-8"))
    first = []

    def check(result):
        code, stdout, stderr = result
        if code != 0 or stderr:
            return "exit %d, stderr %r" % (code, stderr[-200:])
        if stdout != expected():
            return "stdout differs from the in-process result: %r" % stdout[:200]
        if not first:
            first.append(stdout)
        elif stdout != first[0]:
            return "stdout differs between two invocations"
        return None

    desc = {"kind": "cli", "verb": verb, "argv": [os.path.basename(a) for a in argv]}
    return Slot(desc, run, check, smoke=True, inproc=inproc)
