"""The benchmark's tracer (perfbench/tracer.py) wraps engine functions by
name from outside src/.  Installing it here turns the deletion or renaming of
a wrapped name (radial.shoot, ParamScalar.subs_param, calculus.grad, ...)
into a failing test instead of a broken ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_wrapped_name():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -B: write no bytecode into perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
