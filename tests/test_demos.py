"""The demo scripts run to completion against the package under test."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import twistalg as T

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def demo_env():
    """The environment with the package under test first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(T.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("script", ["cohomology_tour.py", "simplicity_flip.py"])
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, env=demo_env(), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip()


def test_cli_tour_runs(tmp_path):
    """The shell tour, with `twistalg` a shim that runs the CLI module of
    the package under test."""
    sh = shutil.which("sh")
    if sh is None:
        pytest.skip("no sh on PATH")
    shim = tmp_path / "twistalg"
    shim.write_text("#!/bin/sh\nexec '%s' -m twistalg.cli \"$@\"\n" % sys.executable)
    shim.chmod(0o755)
    env = demo_env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    proc = subprocess.run([sh, str(DEMOS / "cli_tour.sh")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    # printed once cmp finds induced.coc equal to z2_neg.coc
    assert "identical" in proc.stdout.splitlines()
