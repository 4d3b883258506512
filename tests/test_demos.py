"""The demo scripts run to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistalg as T

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["cohomology_tour.py", "simplicity_flip.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    src = str(Path(T.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip()
