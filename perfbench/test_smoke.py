"""Self-test of the benchmark at tiny size; not a performance gate.

    python3 -m pytest perfbench

Runs every workload traced and untraced with --smoke, checks the result
line against BENCHMARK.json, that traced counts repeat exactly for a seed,
that tracing restores every patched attribute, and that the command fails
without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ideals", "simple_scan", "twist_roundtrip", "cli_batch")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads(proc.stdout.splitlines()[0][len("record "):])
    assert record["seed"] == 1 and record["jobs"] and len(record["inputs_sha256"]) == 64


def test_traced_counts_repeat_for_a_seed():
    runs = [json.loads(_run("ideals", 1, seed=7).stdout.strip().splitlines()[-1]) for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "bytes")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["structure.member_calls"] > 0 and counts[0]["rings.mul_calls"] > 0


def test_tracer_restores_every_patched_attribute():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # like the benchmark, write nothing under src/
    try:
        import twistalg as T
        import twistalg.cli  # noqa: F401
        from tracing import Tracer

        before = (T.convolve, T.structure.convolve, T.cli.convolve, T.Ideal.member,
                  T.rings.PrimeField.mul, T.rings.Ring.is_zero)
        tracer = Tracer()
        tracer.install()
        assert T.structure.convolve is not before[1] and T.cli.convolve is not before[2]
        ctx = T.Context(T.pair_groupoid(2), T.parse_ring("GF(3)"),
                        T.unit_subgroup(T.parse_ring("GF(3)"), 1), T.trivial_cocycle(T.pair_groupoid(2), 1))
        assert T.ideal_generated(ctx, [T.delta(ctx, 1)]).dim == 4
        assert tracer.restore() > 0
        after = (T.convolve, T.structure.convolve, T.cli.convolve, T.Ideal.member,
                 T.rings.PrimeField.mul, T.rings.Ring.is_zero)
        assert all(a is b for a, b in zip(before, after))
        calls = tracer.self_times()
        assert calls["structure.ideal_generated"][0] == 1 and tracer.counts["rings.mul_calls"] > 0
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(HERE)
        sys.path.remove(os.path.join(ROOT, "src"))


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ideals", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
