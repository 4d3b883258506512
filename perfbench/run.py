#!/usr/bin/env python3
"""The twistalg benchmark: seeded batch jobs on the library, one command.

    python3 perfbench/run.py --workload ideals --seed 1 --seconds 15 --trace 0

Run it from the repository root.  One process, one thread, one client in a
closed loop: each workload is a fixed cycle of jobs built from the seed, and
the loop runs whole cycles until --seconds of job time and at least
MIN_JOBS jobs are done.  Job times are CPU times scaled to reference speed
(see Reference), which keeps them steady on a shared machine.  Every job's answer is checked against an
independent oracle outside the timed region; a wrong answer or an exception
fails the job and makes the command exit 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced set-up
and one traced cycle (after untraced cycles for comparison) and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("ideals", "simple_scan", "twist_roundtrip", "cli_batch")
SETUP_REPS = 5
MIN_JOBS = 100  # so that at least ten samples lie beyond p90
PROBE_REPS = 5
SAMPLE_S = 0.01  # CPU time between speed samples of in-process jobs
LOOP_NOMINAL_S = 0.0005  # the reference loop's CPU time at reference speed
INTERP_NOMINAL_S = 0.075  # a bare interpreter start's CPU time at reference speed

END_TO_END = [
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Verb keys of the cli_batch mix, one cli.verb_ms.<key> metric each.
CLI_VERBS = (
    "catalog_list", "validate", "orbits", "effective", "minimal",
    "twist_build", "twist_section", "twist_induced", "twist_iso",
    "mul", "star", "decompose", "psi", "ideal_gen", "ideal_member",
    "ck-witness", "simple_structural", "simple_exhaustive", "cohomologous",
)

PER_LAYER = (
    [(k, "count") for k in (
        "rings.mul_calls", "rings.add_calls", "rings.inv_calls",
        "rings.is_zero_calls", "rings.zero_calls")]
    + [("groupoid.validate_groupoid_calls", "count"), ("groupoid.validate_groupoid_s", "s")]
    + [("catalog.build_s", "s"), ("catalog.enumerate_cocycles_s", "s"),
       ("catalog.enumerate_candidates", "count")]
    + [("cocycle.validate_cocycle_calls", "count"), ("cocycle.validate_cocycle_s", "s"),
       ("cocycle.check_cohomologous_calls", "count"), ("cocycle.check_cohomologous_s", "s"),
       ("cocycle.solver_cells", "count")]
    + [("twist.build_twist_s", "s"), ("twist.validate_twist_s", "s"),
       ("twist.induced_cocycle_s", "s"), ("twist.twists_isomorphic_s", "s")]
    + [("algebra.context_calls", "count"), ("algebra.context_s", "s"),
       ("algebra.convolve_calls", "count"), ("algebra.convolve_s", "s"),
       ("algebra.convolve_pairs", "count"), ("algebra.involute_s", "s"),
       ("algebra.equiv_convolve_s", "s"), ("algebra.psi_s", "s")]
    + [("structure.ideal_generated_s", "s"), ("structure.rref_s", "s"),
       ("structure.rref_rows_in", "count"), ("structure.ideal_verify_s", "s"),
       ("structure.member_calls", "count"), ("structure.member_s", "s"),
       ("structure.reduce_against_calls", "count"), ("structure.ck_witness_s", "s"),
       ("structure.is_simple_s", "s"), ("structure.candidates", "count"),
       ("structure.candidates_per_s", "1/s")]
    + [("fileio.read_s", "s"), ("fileio.write_s", "s"),
       ("fileio.bytes_read", "bytes"), ("fileio.bytes_written", "bytes")]
    + [("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_self_s", "s")]
    + [("cli.verb_ms." + v, "ms") for v in CLI_VERBS]
    + [(m + ".errors", "count") for m in (
        "rings", "groupoid", "catalog", "cocycle", "twist", "algebra",
        "structure", "fileio", "cli")]
    + [("trace.overhead_frac", "frac")]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test size: the tiny slots only, one set-up, one cycle")
    return ap.parse_args(argv)


# --- set-up and the closed loop ------------------------------------------------

def setup(module, name, seed, workdir, smoke):
    """Generate the seeded inputs, then build the job slots from them."""
    specs = module.make_specs(random.Random("%s:%d" % (name, seed)))
    slots = module.build(specs, workdir)
    return specs, [s for s in slots if s.smoke] if smoke else slots


def cpu_s():
    """CPU time of this (single-threaded) process plus that of its reaped
    children: cli_batch jobs are subprocesses, counted once waited for.  The
    thread clock stays exact while the SIGPROF sampler is armed; the
    process clock then only advances at scheduler ticks."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + ch.ru_utime + ch.ru_stime


class Reference:
    """Fixed work whose CPU time measures the speed the machine gives us.

    The benchmark runs on shared machines, where that speed drifts by tens
    of percent over tens of milliseconds to minutes, in CPU time as much as
    in wall time.  So each job's CPU time is scaled to reference speed:
    multiplied by nominal_s times the mean of 1 / (reference time) over
    reference runs taken around and during the job.  A change to twistalg
    moves the jobs and not the reference.

    In-process workloads use a pure-Python loop, run every SAMPLE_S of CPU
    time by a SIGPROF handler (so long jobs are sampled all along), its
    time taken out of the job it interrupted.  cli_batch jobs are
    subprocesses, which the parent's timer cannot sample; their reference is
    a bare interpreter start timed between jobs, because process start and
    imports do not track the loop's speed.
    """

    def __init__(self, nominal_s, work, sampled):
        self.nominal_s = nominal_s
        self.sampled = sampled
        self.samples = []  # (thread time at start, reference CPU s), in order
        self._last = None  # unsampled: the reference time after the last job
        self._work = work
        self._work()  # warm caches once, untimed

    def __call__(self) -> float:
        c0 = cpu_s()
        self._work()
        return cpu_s() - c0

    def _on_signal(self, signum, frame):
        self.samples.append((time.thread_time(), self()))

    def __enter__(self):
        if self.sampled:
            self.samples.append((time.thread_time(), self()))
            signal.signal(signal.SIGPROF, self._on_signal)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        if self.sampled:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def timed(self, fn):
        """Run fn.  Returns (its result, or the exception it raised; CPU s
        without the sampler's share; wall s; the reference times to scale by)."""
        if not self.sampled and self._last is None:
            self._last = self()
        i0, th0, t0, c0 = len(self.samples), time.thread_time(), time.perf_counter(), cpu_s()
        try:
            out = fn()
        except Exception as exc:  # a raising job is a failed job, not a crash
            out = exc
        cpu, wall = cpu_s() - c0, time.perf_counter() - t0
        if not self.sampled:
            before, self._last = self._last, self()
            self.samples.append((time.thread_time(), self._last))
            return out, cpu, wall, [before, self._last]
        # the samples taken during fn, and the last one before it, which is
        # at most one period earlier
        lo = max(0, bisect.bisect_left(self.samples, (th0,)) - 1)
        near = [dt for _, dt in self.samples[lo:]]
        return out, cpu - sum(dt for _, dt in self.samples[i0:]), wall, near

    def scale(self, cpu, points) -> float:
        return cpu * self.nominal_s * statistics.fmean(1.0 / p for p in points)


def _reference_loop():
    """Pure-Python work in the library's style: elimination mod 7 on small
    lists, Fraction arithmetic, tuple-keyed dict updates."""
    oracles.rank_mod_p([[(i * j + i + 3) % 7 for j in range(14)] for i in range(16)], 7)
    acc = Fraction(0)
    for i in range(1, 41):
        acc += Fraction(i, i + 7) * Fraction(i + 1, 3)
    table = {}
    for i in range(300):
        table[(i % 17, i % 5)] = table.get((i % 17, i % 5), 0) + i
    return acc


def make_reference(kind, rundir):
    if kind == "loop":
        return Reference(LOOP_NOMINAL_S, _reference_loop, sampled=True)
    import cli_batch

    cmd = [sys.executable, "-c", "pass"]
    env = cli_batch.child_env(os.path.join(rundir, "ref"))
    return Reference(INTERP_NOMINAL_S, lambda: subprocess.run(cmd, env=env, check=True, timeout=60),
                     sampled=False)


def run_job(slot, call, reference):
    """Time one job, then check it.  Returns (scaled s, cpu s, wall s, error)."""
    out, cpu, wall, points = reference.timed(call)
    if isinstance(out, Exception):
        err = "raised %s: %s" % (type(out).__name__, out)
    else:
        try:
            err = slot.check(out)
        except Exception as exc:
            err = "check raised %s: %s" % (type(exc).__name__, exc)
    return reference.scale(cpu, points), cpu, wall, err


class Loop:
    """Per-job times and failures of whole cycles over the slots."""

    def __init__(self, reference):
        self.reference = reference
        self.times = []  # CPU s per job, scaled to reference speed
        self.raw = []  # CPU s per job
        self.wall = []
        self.by_slot = []
        self.failures = []
        self.cycles = 0

    def cycle(self, slots, call=lambda i, s: s.run):
        with self.reference:
            for i, slot in enumerate(slots):
                scaled, cpu, wall, err = run_job(slot, call(i, slot), self.reference)
                self.times.append(scaled)
                self.raw.append(cpu)
                self.wall.append(wall)
                self.by_slot.append(i)
                if err is not None:
                    self.failures.append({"slot": i, "desc": slot.desc, "error": err})
        self.cycles += 1

    def until(self, slots, seconds, min_jobs):
        while not self.cycles or sum(self.raw) < seconds or len(self.raw) < min_jobs:
            self.cycle(slots)
        return self


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- tracing ---------------------------------------------------------------------

def probe_ms(code, env):
    """Median CPU time of `python -c code` in a fresh interpreter."""
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # warm the bytecode cache
    ts = []
    for _ in range(PROBE_REPS):
        c0 = cpu_s()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        ts.append(cpu_s() - c0)
    return 1000.0 * statistics.median(ts)


def per_layer(tracer, base, base_cycle_s, traced_cycle_s, slots, workdir):
    import cli_batch

    st = tracer.self_times()
    counts = tracer.counts
    values = {}
    for name, unit in PER_LAYER:
        if name == "cli.main_self_s":
            values[name] = st.get("cli.main", (0, 0.0))[1]
        elif name.endswith("_calls") and name[:-6] in st:
            values[name] = st[name[:-6]][0]
        elif name.endswith("_s") and name[:-2] in st:
            values[name] = st[name[:-2]][1]
        else:
            values[name] = counts.get(name, 0)
    simple_s = tracer.outer_time("structure.is_simple")
    values["structure.candidates_per_s"] = values["structure.candidates"] / simple_s if simple_s else 0.0
    env = cli_batch.child_env(workdir)
    values["cli.interp_ms"] = probe_ms("pass", env)
    values["cli.import_ms"] = probe_ms("import twistalg.cli", env)
    for verb, ms in cli_batch.verb_ms(slots, base).items():
        values["cli.verb_ms." + verb] = ms
    values["trace.overhead_frac"] = traced_cycle_s / base_cycle_s - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def traced_run(module, args, rundir, reference):
    """One traced set-up; untraced cycles for --seconds / 2; then one traced
    cycle, so that every count covers exactly set-up plus one cycle."""
    from tracing import Tracer

    workdir = os.path.join(rundir, "job")
    tracer = Tracer()
    tracer.job = "setup"
    tracer.install()
    try:
        specs, slots = setup(module, args.workload, args.seed, workdir, args.smoke)
    finally:
        patched = tracer.restore()
    # the untraced cycles warm every cache and are the overhead baseline;
    # cli_batch jobs are subprocesses there, so it also times one untraced
    # in-process cycle to compare the traced in-process cycle with
    base = Loop(reference).until(slots, args.seconds / 2, 0)
    loops = [base]
    inproc = lambda i, s: s.inproc or s.run
    if any(s.inproc for s in slots):
        loop_ref = make_reference("loop", rundir)
        untraced = Loop(loop_ref)
        untraced.cycle(slots, inproc)
        loops.append(untraced)
        base_cycle_s = sum(untraced.times)
    else:
        loop_ref = reference
        base_cycle_s = sum(base.times) / base.cycles

    def traced_call(i, slot):
        fn = inproc(i, slot)

        def call():
            tracer.job = i
            tracer.paused = False
            try:
                return fn()
            finally:
                tracer.paused = True  # the untimed oracle check stays out of the trace

        return call

    traced = Loop(loop_ref)
    tracer.install()
    try:
        traced.cycle(slots, traced_call)
    finally:
        tracer.restore()
    loops.append(traced)
    metrics = per_layer(tracer, base, base_cycle_s, sum(traced.times), slots, workdir)
    extra = {"patched_attributes": patched, "spans": len(tracer.spans)}
    return specs, slots, loops, metrics, extra, tracer


def measured_run(module, args, rundir, reference):
    """SETUP_REPS set-ups, then whole cycles; the end-to-end metrics."""
    workdir = os.path.join(rundir, "job")
    setup_times, raw_setup = [], []
    with reference:
        for _ in range(1 if args.smoke else SETUP_REPS):
            (specs, slots), cpu, _, points = reference.timed(
                lambda: setup(module, args.workload, args.seed, workdir, args.smoke))
            raw_setup.append(cpu)
            setup_times.append(reference.scale(cpu, points))
    loop = Loop(reference).until(slots, 0 if args.smoke else args.seconds, 0 if args.smoke else MIN_JOBS)
    ts, raw = sorted(loop.times), sorted(loop.raw)
    metrics = {
        "jobs_per_s": len(ts) / sum(ts),
        "job_p50_ms": 1000.0 * nearest_rank(ts, 0.5),
        "job_p90_ms": 1000.0 * nearest_rank(ts, 0.9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(children=args.workload == "cli_batch"),
    }
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    extra = {
        "samples": len(ts),
        "beyond_p90": sum(1 for t in ts if t > nearest_rank(ts, 0.9)),
        "cycles": loop.cycles,
        "setup_runs": len(setup_times),
        "reference_ms": 1000.0 * statistics.median(dt for _, dt in reference.samples),
        "reference_nominal_ms": 1000.0 * reference.nominal_s,
        "unscaled": {
            "jobs_per_s_cpu": len(raw) / sum(raw),
            "jobs_per_s_wall": len(raw) / sum(loop.wall),
            "job_p50_ms_cpu": 1000.0 * nearest_rank(raw, 0.5),
            "job_p90_ms_cpu": 1000.0 * nearest_rank(raw, 0.9),
            "setup_s_cpu": statistics.median(raw_setup),
        },
    }
    return specs, slots, [loop], metrics, extra


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twistalg", "__init__.py")):
        print("error: no twistalg sources under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    sys.pycache_prefix = os.path.join(WORK, "pycache")  # keep bytecode out of src/
    sys.path.insert(0, SRC)
    module = importlib.import_module(args.workload)
    rundir = os.path.join(WORK, "run-%s-%d" % (args.workload, os.getpid()))
    try:
        reference = make_reference(module.REFERENCE, rundir)
        if args.trace:
            specs, slots, loops, metrics, extra, tracer = traced_run(module, args, rundir, reference)
            spans_path = os.path.join(WORK, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
            tracer.dump(spans_path)
            extra["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            specs, slots, loops, metrics, extra = measured_run(module, args, rundir, reference)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(len(lp.times) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs_sha256": hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest(),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "jobs": [dict(s.desc, slot=i) for i, s in enumerate(slots)],
    }
    record.update(extra)
    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-34s %14.6g %s  (%d of %d jobs)" % ("failed_frac", record["failed_frac"], "frac",
                                                len(failures), attempted))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
