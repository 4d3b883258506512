"""Spans and counters around twistalg's public functions, installed from outside.

A Tracer replaces each wrapped function in every twistalg module namespace
that binds it (``convolve`` lives in algebra, structure, cli and the package
itself) and each wrapped method on its class (``Ideal.member``,
``Context.__init__``, the arithmetic of every Ring subclass).  restore()
puts the originals back and then checks that every patched attribute is its
original again, so a traced run cannot leak wrappers into the next phase.

Spans carry a name, start, end, parent span and job id.  They are kept in
memory and written out once, by dump().  A span's self time is its duration
minus the time its child spans cover.  Ring arithmetic and
``reduce_against`` are counted but not timed: wrapping microsecond-scale
calls in spans would swamp what they measure, and leaving them untimed keeps
their cost in their caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _non_units(gpd) -> int:
    return gpd.m - len(gpd.units)


def _free_pairs(gpd) -> int:
    """Composable pairs with both factors non-units, counted from the tables."""
    units = gpd.unit_set
    by_rng = {}
    for b in range(gpd.m):
        if b not in units:
            by_rng[gpd.rng[b]] = by_rng.get(gpd.rng[b], 0) + 1
    return sum(by_rng.get(gpd.src[a], 0) for a in range(gpd.m) if a not in units)


def _candidates(args, kwargs, result) -> int:
    """Candidates an exhaustive is_simple scanned: all (q^m - 1)/(q - 1) of
    them for a True verdict, else the 1-based lexicographic rank of the
    certificate in the scan order (highest leading position first, leading
    coefficient fixed, tail in ring.elements() order)."""
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "structural")
    if mode != "exhaustive":
        return 0
    ctx = args[0]
    q, m = ctx.ring.size, ctx.gpd.m
    if result.simple:
        return (q ** m - 1) // (q - 1)
    digit = {e: i for i, e in enumerate(ctx.ring.elements())}
    vec = [digit[result.certificate.coeffs[a]] if a in result.certificate.coeffs else 0 for a in range(m)]
    pos = next(i for i, d in enumerate(vec) if d)
    before = sum(q ** j for j in range(m - 1 - pos))
    index = 0
    for d in vec[pos + 1:]:
        index = index * q + d
    return before + index + 1


# (module, attribute or Class.method, span name, work).  Each span name S
# yields the metrics S_calls and S_s; work, when given, is a counter and a
# function of (args, kwargs, result) that adds to it on every traced call.
SPANS = [
    ("groupoid", "validate_groupoid", "groupoid.validate_groupoid", None),
    ("catalog", "build", "catalog.build", None),
    ("catalog", "enumerate_cocycles", "catalog.enumerate_cocycles",
     ("catalog.enumerate_candidates", lambda a, k, r: a[1] ** _free_pairs(a[0]))),
    ("cocycle", "validate_cocycle", "cocycle.validate_cocycle", None),
    ("cocycle", "check_cohomologous", "cocycle.check_cohomologous",
     ("cocycle.solver_cells", lambda a, k, r: len(a[0].table) * _non_units(a[0].gpd))),
    ("twist", "build_twist", "twist.build_twist", None),
    ("twist", "validate_twist", "twist.validate_twist", None),
    ("twist", "induced_cocycle", "twist.induced_cocycle", None),
    ("twist", "twists_isomorphic", "twist.twists_isomorphic", None),
    ("algebra", "Context.__init__", "algebra.context", None),
    ("algebra", "convolve", "algebra.convolve",
     ("algebra.convolve_pairs", lambda a, k, r: len(a[0].coeffs) * len(a[1].coeffs))),
    ("algebra", "involute", "algebra.involute", None),
    ("algebra", "equiv_convolve", "algebra.equiv_convolve", None),
    ("algebra", "psi", "algebra.psi", None),
    ("structure", "ideal_generated", "structure.ideal_generated", None),
    ("structure", "rref", "structure.rref", ("structure.rref_rows_in", lambda a, k, r: len(a[1]))),
    ("structure", "Ideal.__init__", "structure.ideal_verify", None),
    ("structure", "Ideal.member", "structure.member", None),
    ("structure", "ck_witness", "structure.ck_witness", None),
    ("structure", "is_simple", "structure.is_simple", ("structure.candidates", _candidates)),
    ("cli", "main", "cli.main", None),
]

# fileio: every read_* function is a "fileio.read" span and every write_* a
# "fileio.write" span; the raw text calls also count bytes.
FILEIO_WORK = {
    "read_text": ("fileio.bytes_read", lambda a, k, r: len(r.encode("utf-8"))),
    "write_text": ("fileio.bytes_written", lambda a, k, r: len(a[1].encode("utf-8"))),
}

# (module, attribute, counter name): counted, never timed.
COUNTS = [
    ("structure", "reduce_against", "structure.reduce_against_calls"),
]

# Ring method -> counter; sub and neg count with add.  Every call counts,
# nested ones included (Ring.sub calls add and neg, is_zero calls zero).
RING_COUNTS = {
    "add": "rings.add_calls",
    "sub": "rings.add_calls",
    "neg": "rings.add_calls",
    "mul": "rings.mul_calls",
    "inv": "rings.inv_calls",
    "is_zero": "rings.is_zero_calls",
    "zero": "rings.zero_calls",
}


class Tracer:
    """Records spans and counts while installed; inert once restored."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.counts = {}
        self.job = None
        self.paused = False
        self._stack = []
        self._patched = []  # (namespace dict or class, attribute, original)

    # --- recording -----------------------------------------------------------

    def _add(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def _span(self, name, module, fn, work):
        spans, stack, errors = self.spans, self._stack, module + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._add(errors)
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                self._add(work[0], work[1](args, kwargs, result))
            return result

        return wrapper

    def _counter(self, key, module, fn):
        counts, errors = self.counts, module + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            counts[key] = counts.get(key, 0) + 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._add(errors)
                raise

        return wrapper

    # --- installing ----------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        """Rebind every twistalg namespace entry that is `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "twistalg" or modname.startswith("twistalg.")):
                continue
            ns = vars(mod)
            for attr, val in list(ns.items()):
                if val is original:
                    self._patched.append((ns, attr, original))
                    ns[attr] = wrapper

    def _patch_method(self, cls, meth, wrapper):
        self._patched.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, wrapper)

    def install(self):
        import twistalg.cli  # noqa: F401  (bind every submodule before patching)

        if self._patched:
            raise RuntimeError("tracer is already installed")
        pkg = sys.modules["twistalg"]
        targets = list(SPANS)
        for attr in sorted(vars(pkg.fileio)):
            if attr.startswith(("read_", "write_")):
                span = "fileio.read" if attr.startswith("read_") else "fileio.write"
                targets.append(("fileio", attr, span, FILEIO_WORK.get(attr)))
        for module, target, name, work in targets:
            mod = getattr(pkg, module)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                self._patch_method(cls, meth, self._span(name, module, cls.__dict__[meth], work))
            else:
                fn = getattr(mod, target)
                self._patch_everywhere(fn, self._span(name, module, fn, work))
        for module, target, key in COUNTS:
            fn = getattr(getattr(pkg, module), target)
            self._patch_everywhere(fn, self._counter(key, module, fn))
        for cls in _subclasses(pkg.rings.Ring):
            for meth, key in RING_COUNTS.items():
                if meth in cls.__dict__:
                    self._patch_method(cls, meth, self._counter(key, "rings", cls.__dict__[meth]))

    def restore(self) -> int:
        """Undo every patch, newest first, then check each attribute is its
        original again; returns how many attributes were checked."""
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        for owner, attr, original in self._patched:
            now = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
            if now is not original:
                raise RuntimeError("restore left %r patched" % attr)
        checked = len(self._patched)
        self._patched = []
        return checked

    # --- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """span name -> [calls, summed self time in s]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent, job) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (t1 - t0) - child[i]
        return out

    def outer_time(self, name) -> float:
        """Summed duration of the `name` spans not nested in another one."""
        total = 0.0
        for span_name, t0, t1, parent, job in self.spans:
            if span_name == name and not self._inside(parent, name):
                total += t1 - t0
        return total

    def _inside(self, idx, name) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
