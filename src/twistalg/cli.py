"""Batch command line front end.

One verb per invocation, all inputs and outputs in the text formats of
fileio, whose readers check every input file as they read it.  Exit
codes: 0 success, 1 an input that breaks its axioms (one `violation:`
line per violation on stdout) or any other error (one `error:` line on
stderr), 2 usage error (argparse).  Each `twist`, `ideal` and `catalog`
sub-verb reads exactly the files or names it lists in _FILES (build:
groupoid, cocycle; iso: two twists; section, induced: one twist; gen:
groupoid, generators; member: groupoid, ideal, element; list: none; emit:
at most one catalog name, all when none), flags before, between or after
them; an extra or a missing one is a usage error too.  Output is
deterministic byte for byte: artifact files have fixed names inside
--out, and everything printed is derived from sorted structures.  Integers
are read and printed in full, past Python's default 4,300-digit limit on
int-string conversion, which main lifts for its run and then restores.

A run is one short process, so its fixed costs count.  A run that names a
verb builds only that verb's parser: building all sixteen takes a few
milliseconds, a sizeable share of a short run.  Top-level --help, a
missing or unknown verb and unrecognized arguments build the full parser,
whose usage lists every verb.  console() freezes the garbage collector
once main returns, so the full collections of interpreter teardown skip
the objects the run made; sys.exit still flushes, runs atexit handlers
and sets the exit code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import fileio
from .algebra import (
    Context,
    EquivContext,
    EquivariantElement,
    convolve,
    disjoint_decomposition,
    graded_components,
    involute,
    psi,
)
from .catalog import CATALOG, emit_fixtures
from .cocycle import brute_force_cohomologous, check_cohomologous, trivial_cocycle
from .groupoid import AxiomError, is_effective, is_minimal, orbits
from .rings import parse_involution, parse_ring, unit_subgroup
from .structure import Ideal, ck_witness, graded_ck_witness, ideal_generated, is_simple
from .twist import build_twist, find_section, induced_cocycle, twists_isomorphic


def _involution(args, ring):
    name = getattr(args, "involution", "none")
    return None if name == "none" else parse_involution(ring, name)


def _context(args, gpd=None):
    """Assemble the algebra context from --ring/--cocycle/--groupoid and
    an optional positional groupoid (Context cross-checks it against the
    cocycle)."""
    ring = parse_ring(args.ring)
    coc_path = getattr(args, "cocycle", None)
    gpd_path = getattr(args, "groupoid", None)
    if gpd is None and gpd_path:
        gpd = fileio.read_groupoid(gpd_path)
    if coc_path:
        coc = fileio.read_cocycle(coc_path)
    elif gpd is None:
        raise ValueError("need a groupoid file or --cocycle/--groupoid")
    else:
        coc = trivial_cocycle(gpd, 1)
    tgrp = unit_subgroup(ring, coc.n)
    return Context(coc.gpd if gpd is None else gpd, ring, tgrp, coc, _involution(args, ring))


def _artifact(args, fname: str, lines) -> None:
    text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        os.makedirs(out, exist_ok=True)
        fileio.write_text(os.path.join(out, fname), text)
        print("wrote %s" % fname)
    else:
        sys.stdout.write(text)


def _bool(x) -> str:
    return "true" if x else "false"


# --- verb handlers ------------------------------------------------------------

# kind -> the fileio reader that checks it, by name: looked up on the module
# at call time, so a reader rebound there (say, wrapped to time it) is used
_READERS = {"groupoid": "read_groupoid", "cocycle": "read_cocycle",
            "twist": "read_twist", "grading": "read_grading"}


def _cmd_validate(args) -> int:
    getattr(fileio, _READERS[args.what])(args.file)
    print("ok")
    return 0


def _cmd_orbits(args) -> int:
    g = fileio.read_groupoid(args.file)
    for i, orb in enumerate(orbits(g)):
        print("orbit %d: %s" % (i, " ".join(str(u) for u in orb)))
    return 0


def _cmd_effective(args) -> int:
    print("effective: %s" % _bool(is_effective(fileio.read_groupoid(args.file))))
    return 0


def _cmd_minimal(args) -> int:
    print("minimal: %s" % _bool(is_minimal(fileio.read_groupoid(args.file))))
    return 0


def _cmd_mul(args) -> int:
    ctx = _context(args)
    f = fileio.read_element(args.left, ctx)
    g = fileio.read_element(args.right, ctx)
    _artifact(args, "product.elt", fileio.serialize_element(convolve(f, g)))
    return 0


def _cmd_star(args) -> int:
    ctx = _context(args)
    f = fileio.read_element(args.file, ctx)
    _artifact(args, "star.elt", fileio.serialize_element(involute(f)))
    return 0


def _cmd_decompose(args) -> int:
    ctx = _context(args)
    f = fileio.read_element(args.file, ctx)
    parts = disjoint_decomposition(f)
    print("parts: %d" % len(parts))
    _artifact(args, "parts.dec", fileio.serialize_decomposition(ctx.ring, parts))
    return 0


def _cmd_cohomologous(args) -> int:
    target = fileio.read_cocycle(args.target)
    base = fileio.read_cocycle(args.base)
    if args.method == "brute":
        b = brute_force_cohomologous(target, base, cap=args.cap)
    else:
        b = check_cohomologous(target, base)
    print("cohomologous: %s" % _bool(b is not None))
    _artifact(args, "coboundary.cob", fileio.serialize_coboundary(target.n, target.gpd.m, b))
    return 0


def _cmd_twist(args) -> int:
    if args.what == "build":
        tw = build_twist(fileio.read_groupoid(args.file), fileio.read_cocycle(args.files[0]))
        _artifact(args, "twist.twi", fileio.serialize_twist(tw))
        return 0
    if args.what == "iso":
        t1 = fileio.read_twist(args.file)
        t2 = fileio.read_twist(args.files[0])
        mor = twists_isomorphic(t1, t2)
        print("isomorphic: %s" % _bool(mor is not None))
        _artifact(args, "morphism.mor", fileio.serialize_morphism(None if mor is None else mor.mapping))
        return 0
    tw = fileio.read_twist(args.file)
    sec = find_section(tw)
    if args.what == "section":
        _artifact(args, "section.sec", fileio.serialize_section(sec))
        return 0
    # induced
    _artifact(args, "induced.coc", fileio.serialize_cocycle(induced_cocycle(tw, sec)))
    return 0


def _cmd_psi(args) -> int:
    tw = fileio.read_twist(args.file)
    ring = parse_ring(args.ring)
    tgrp = unit_subgroup(ring, tw.n)
    conj = _involution(args, ring)
    ectx = EquivContext(tw, find_section(tw), ring, tgrp, conj)
    h = fileio.read_element(args.elt, ectx.ctx)
    out = psi(EquivariantElement(ectx, h.coeffs), ectx.ctx)
    _artifact(args, "psi.elt", fileio.serialize_element(out))
    return 0


def _cmd_grade(args) -> int:
    grading = fileio.read_grading(args.file)
    ctx = _context(args, gpd=grading.gpd)
    f = fileio.read_element(args.elt, ctx)
    comps = graded_components(f, grading)
    print("components: %d" % len(comps))
    for label in sorted(comps):
        _artifact(args, "component_%d.elt" % label, fileio.serialize_element(comps[label]))
    return 0


def _cmd_ideal(args) -> int:
    g = fileio.read_groupoid(args.file)
    ctx = _context(args, gpd=g)
    if args.what == "gen":
        gens = [fileio.read_element(p, ctx) for p in args.files]
        ideal = ideal_generated(ctx, gens)
        print("dim: %d" % ideal.dim)
        _artifact(args, "ideal.idl", fileio.serialize_ideal(ideal))
        return 0
    ideal = fileio.read_ideal(args.files[0], ctx)
    f = fileio.read_element(args.files[1], ctx)
    print("member: %s" % _bool(ideal.member(f)))
    return 0


def _cmd_ck_witness(args) -> int:
    g = fileio.read_groupoid(args.file)
    ctx = _context(args, gpd=g)
    ideal = fileio.read_ideal(args.idl, ctx)
    w = ck_witness(ctx, ideal)
    print("witness: %s" % " ".join(str(u) for u in sorted(w)))
    return 0


def _cmd_graded_witness(args) -> int:
    grading = fileio.read_grading(args.file)
    ctx = _context(args, gpd=grading.gpd)
    ideal = fileio.read_ideal(args.idl, ctx)
    w = graded_ck_witness(ctx, grading, ideal)
    print("witness: %s" % " ".join(str(u) for u in sorted(w)))
    return 0


def _cmd_simple(args) -> int:
    g = fileio.read_groupoid(args.file)
    ctx = _context(args, gpd=g)
    res = is_simple(ctx, mode=args.mode, cap=args.cap)
    verdict = "unknown" if res.simple is None else _bool(res.simple)
    print("simple: %s" % verdict)
    print("reason: %s" % res.reason)
    if isinstance(res.certificate, Ideal):
        _artifact(args, "certificate.idl", fileio.serialize_ideal(res.certificate))
    elif res.certificate is not None:
        _artifact(args, "certificate.elt", fileio.serialize_element(res.certificate))
    return 0


def _cmd_catalog(args) -> int:
    if args.what == "list":
        for entry in CATALOG.values():
            print("%-12s %s" % (entry.name, entry.summary))
        return 0
    written = emit_fixtures(args.out or ".", args.files[0] if args.files else "all")
    for fname in written:
        print("wrote %s" % fname)
    return 0


# --- parser -------------------------------------------------------------------

def _add_ring(p, involution_default="none"):
    p.add_argument("--ring", default="Q", help="coefficient ring: Z, Q, GF(p), GF(p^2), Q(zeta_n)")
    p.add_argument(
        "--involution",
        default=involution_default,
        choices=["none", "auto", "id", "conj", "frobenius"],
        help="ring involution (auto picks by ring kind)",
    )


def _add_ctx(p, involution_default="none"):
    _add_ring(p, involution_default)
    p.add_argument("--cocycle", help="cocycle file fixing the twist (default: untwisted)")


def _args_validate(p):
    p.add_argument("what", choices=list(_READERS))
    p.add_argument("file")


def _args_query(p):
    p.add_argument("file", help="groupoid file")


def _args_mul(p):
    _add_ctx(p)
    p.add_argument("--groupoid", help="groupoid file when no cocycle is given")
    p.add_argument("--out")
    p.add_argument("left")
    p.add_argument("right")


def _args_star(p):
    _add_ctx(p, involution_default="auto")
    p.add_argument("--groupoid")
    p.add_argument("--out")
    p.add_argument("file")


def _args_decompose(p):
    _add_ctx(p)
    p.add_argument("--groupoid")
    p.add_argument("--out")
    p.add_argument("file")


def _args_cohomologous(p):
    p.add_argument("--method", default="solve", choices=["solve", "brute"])
    p.add_argument("--cap", type=int, default=200000)
    p.add_argument("--out")
    p.add_argument("target")
    p.add_argument("base")


def _args_twist(p):
    p.add_argument("what", choices=["build", "iso", "section", "induced"])
    p.add_argument("file", help="groupoid file for build, twist file otherwise")
    p.add_argument("files", nargs="*", help="cocycle file (build), second twist file (iso)")
    p.add_argument("--out")


def _args_psi(p):
    _add_ring(p)
    p.add_argument("--out")
    p.add_argument("file", help="twist file")
    p.add_argument("elt", help="element file over the base")


def _args_grade(p):
    _add_ctx(p)
    p.add_argument("--out")
    p.add_argument("file", help="grading file")
    p.add_argument("elt")


def _args_ideal(p):
    p.add_argument("what", choices=["gen", "member"])
    p.add_argument("file", help="groupoid file")
    _add_ctx(p)
    p.add_argument("--out")
    p.add_argument("files", nargs="*", help="generator files (gen), ideal and element file (member)")


def _args_ck_witness(p):
    _add_ctx(p)
    p.add_argument("file", help="groupoid file")
    p.add_argument("idl", help="ideal file")


def _args_graded_witness(p):
    _add_ctx(p)
    p.add_argument("file", help="grading file")
    p.add_argument("idl", help="ideal file")


def _args_simple(p):
    _add_ctx(p)
    p.add_argument("--mode", default="structural", choices=["structural", "exhaustive"])
    p.add_argument("--cap", type=int, default=2 ** 20)
    p.add_argument("--out")
    p.add_argument("file", help="groupoid file")


def _args_catalog(p):
    p.add_argument("what", choices=["list", "emit"])
    p.add_argument("files", nargs="*", metavar="name", help="catalog name or 'all' (emit)")
    p.add_argument("--out")


# verb -> (its help line, its handler, the function that adds its
# arguments), in the order `twistalg --help` lists them
_VERBS = {
    "validate": ("check an object file against its axioms", _cmd_validate, _args_validate),
    "orbits": ("unit-space orbits query", _cmd_orbits, _args_query),
    "effective": ("unit-space effective query", _cmd_effective, _args_query),
    "minimal": ("unit-space minimal query", _cmd_minimal, _args_query),
    "mul": ("twisted convolution of two element files", _cmd_mul, _args_mul),
    "star": ("involution of an element file", _cmd_star, _args_star),
    "decompose": ("split an element along disjoint bisections", _cmd_decompose, _args_decompose),
    "cohomologous": ("solve target = base * coboundary", _cmd_cohomologous, _args_cohomologous),
    "twist": ("central extension commands", _cmd_twist, _args_twist),
    "psi": ("equivariant-function picture of an element", _cmd_psi, _args_psi),
    "grade": ("split an element into homogeneous components", _cmd_grade, _args_grade),
    "ideal": ("two-sided ideal commands", _cmd_ideal, _args_ideal),
    "ck-witness": ("unit-set witness inside a nonzero ideal", _cmd_ck_witness, _args_ck_witness),
    "graded-witness": ("witness for a graded ideal", _cmd_graded_witness, _args_graded_witness),
    "simple": ("simplicity of the twisted algebra", _cmd_simple, _args_simple),
    "catalog": ("stock groupoids and fixtures", _cmd_catalog, _args_catalog),
}


def build_parser(verb=None) -> argparse.ArgumentParser:
    """The argument parser of every verb, or of verb alone when it names
    one.  A one-verb parser reads that verb's arguments as the full one
    does, but its top-level usage lists only that verb."""
    ap = argparse.ArgumentParser(
        prog="twistalg",
        description="exact twisted convolution algebras over finite discrete groupoids",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for name in [verb] if verb in _VERBS else _VERBS:
        help_, fn, add_arguments = _VERBS[name]
        p = sub.add_parser(name, help=help_)
        add_arguments(p)
        p.set_defaults(fn=fn)
    return ap


# (verb, what) -> the least and most of args.files, the files after the
# first or a catalog name (None: no bound), and how a wrong count names them
_FILES = {
    ("catalog", "list"): (0, 0, "no catalog name"),
    ("catalog", "emit"): (0, 1, "at most one catalog name"),
    ("twist", "build"): (1, 1, "a groupoid file and a cocycle file"),
    ("twist", "iso"): (1, 1, "two twist files"),
    ("twist", "section"): (0, 0, "one twist file"),
    ("twist", "induced"): (0, 0, "one twist file"),
    ("ideal", "gen"): (1, None, "at least one element file"),
    ("ideal", "member"): (2, 2, "an ideal file and an element file"),
}


def main(argv=None) -> int:
    # Python caps int-string conversion at 4,300 digits by default, a guard
    # for services that parse sizes from untrusted input; the files here are
    # the user's, and an exact product may pass the cap
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    # a run that names a verb builds only that verb's parser; the full one
    # prints the top-level usage
    args, rest = build_parser(argv[0] if argv else None).parse_known_args(argv)
    key = args.verb, getattr(args, "what", None)
    # argparse fills files from one run of positionals; the files after a
    # flag come back left over
    if key in _FILES and not any(r.startswith("-") for r in rest):
        args.files += rest
    elif rest:
        build_parser().error("unrecognized arguments: %s" % " ".join(rest))
    if key in _FILES:
        least, most, files = _FILES[key]
        if len(args.files) < least or most is not None and len(args.files) > most:
            print("error: %s %s needs %s" % (args.verb, args.what, files), file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except AxiomError as exc:
        for v in exc.violations:
            print("violation: %s" % v)
        return 1
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def console() -> None:
    code = main()
    # teardown's full collections skip frozen objects, which is nearly
    # every object of the run; flushing, atexit and the exit code are
    # those of sys.exit
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
