"""The radial batch carries its own Dormand-Prince tableau and Brent solver
so that a scan never loads scipy.  These tests hold them to the scipy code
they replace (scipy.integrate.RK45 and scipy.optimize.brentq), and guard that
a scan stays free of scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45
from scipy.optimize import brentq

from bhverify import radial
from bhverify.cli import run_radial
from bhverify.radial import default_grids, scan_shooting

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE_CONFIGS = [(5, 2.0), (6, 2.0), (6, 3.0), (8, 2.0)]


def _scipy_root(f, a, b):
    return brentq(f, a, b, xtol=radial.EVENT_TOL, rtol=radial.EVENT_TOL,
                  maxiter=radial.EVENT_MAXITER)


def test_tableau_equals_scipy_rk45():
    for name in ("A", "B", "C", "E", "P"):
        ours, theirs = getattr(radial, name), getattr(RK45, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert radial.N_STAGES == RK45.n_stages
    assert radial.ERROR_ESTIMATOR_ORDER == RK45.error_estimator_order


def test_brentq_equals_scipy_on_the_acceptance_event_brackets(monkeypatch):
    """Every event bracket the acceptance scans refine, solved by both at
    once (the batch then steps the state the event function reads)."""
    roots = []
    brent = radial._brentq

    def compared(f, a, b):
        root = brent(f, a, b)
        roots.append((float(root).hex(), float(_scipy_root(f, a, b)).hex()))
        return root

    monkeypatch.setattr(radial, "_brentq", compared)
    u0s, v0s = default_grids(10)
    scan_shooting(ACCEPTANCE_CONFIGS, u0s, v0s)
    assert len(roots) >= 360
    assert [ours for ours, _ in roots] == [theirs for _, theirs in roots]


def _outcome(solver, f, a, b):
    """The root as float.hex, or the exception's type and text."""
    try:
        return float(solver(f, a, b)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


_coefficients = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@settings(max_examples=400, deadline=None)
@given(st.lists(_coefficients, min_size=1, max_size=6),
       st.floats(-10, 10), st.floats(1e-12, 20), st.floats(0, 1))
@example([1.0, 0.0, -2.0], 0.0, 2.0, None)          # x^2 - 2
@example([1.0, 0.0, -2.0], 2.0, 1.0, None)          # no sign change on [2, 3]
@example([1.0, -1.0], 1.0, 1.0, None)               # a root at an endpoint
@example([1e-200, 1e-200], 0.0, 1.0, None)          # f(a) f(b) underflows to 0
@example([0.0], 0.0, 1.0, None)                     # f == 0
def test_brentq_equals_scipy_on_polynomial_brackets(coefficients, a, width, at):
    """A polynomial shifted to vanish at a + at * width, so that most
    brackets hold a sign change."""
    b = a + width
    if at is not None:
        coefficients[-1] -= np.polyval(coefficients, a + at * width)

    def f(x):
        return float(np.polyval(coefficients, x))

    ours, theirs = _outcome(radial._brentq, f, a, b), _outcome(_scipy_root, f, a, b)
    if theirs[0] == "RuntimeError":     # brentq's non-convergence is our named ValueError
        assert ours[0] == "ValueError" and "did not converge" in ours[1]
    else:
        assert ours == theirs


def test_brentq_raises_scipys_errors():
    assert _outcome(radial._brentq, lambda x: x * x + 1, -1.0, 1.0) \
        == _outcome(_scipy_root, lambda x: x * x + 1, -1.0, 1.0) \
        == ("ValueError", "f(a) and f(b) must have different signs")

    def nan_above_one(x):
        return np.nan if x > 1 else x - 1.5

    assert _outcome(radial._brentq, nan_above_one, 0.0, 2.0) \
        == _outcome(_scipy_root, nan_above_one, 0.0, 2.0) \
        == ("ValueError", "The function value at x=2.0 is NaN; solver cannot continue.")


def test_event_non_convergence_is_a_per_cell_error(monkeypatch):
    """brentq raises RuntimeError after maxiter iterations; here the cell
    lands in the scan's errors with a named message, and the radial section
    fails (exit 1) instead of escaping as a traceback."""
    monkeypatch.setattr(radial, "EVENT_MAXITER", 1)
    [(summary, results)] = scan_shooting([(6, 2.0)], [1.0, 2.0], [-1.0, -3.0])
    assert summary.cells == 4 and results == [] and len(summary.errors) == 4
    for error in summary.errors:
        assert error["error"].startswith(
            "event location did not converge after 1 iterations at r = ")
        float(error["error"].rpartition(" ")[2])    # the last radius, as a float
    sections, ok = run_radial([(6, 2.0)], grid_size=2)
    assert not ok and sections[0]["errors"]


def test_a_scan_loads_no_scipy():
    """Importing the oracles' modules and running a scan load no scipy
    module; shoot, the single-trajectory reference, loads it."""
    code = (
        "import sys\n"
        "import bhverify.cli, bhverify.jetoracle, bhverify.radial as radial\n"
        "[(summary, _)] = radial.scan_shooting([(6, 2.0)], *radial.default_grids(4))\n"
        "assert summary.cells == 16, summary\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "radial.shoot(6, 2.0, 1.0, -1.0)\n"
        "print('scipy.integrate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
