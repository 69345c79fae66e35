"""Radial shooting: starts, verdicts, scans, estimate monitor."""

import math
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import scipy_shoot
from bhverify import radial
from bhverify.cli import run_radial
from bhverify.radial import (ATOL, DEFAULT_R0, ERROR_ESTIMATOR_ORDER, ERROR_EXPONENT,
                             EVENT_COMPONENTS, MAX_FACTOR, MIN_FACTOR, N_STAGES, RTOL,
                             SAFETY, VERDICTS, A, B, BatchRun, C, E, P, RadialState,
                             _brentq, _first_event, _underflow_message, default_grids,
                             dump_trajectory_csv, monitor_z, scan_shooting, series_start,
                             shoot)

ROOT = Path(__file__).resolve().parents[1]


class TestSeriesStart:
    def test_center_slope_limit(self):
        """p(r0)/r0 -> v0/n as r0 -> 0."""
        s = series_start(6, 2.0, 1.0, -1.0)
        assert s.r == radial.DEFAULT_R0 == 1e-6
        assert abs(s.p / 1e-6 - (-1.0 / 6)) < 1e-8

    def test_constant_data_cannot_persist(self):
        """u == c has Bilap 0 != c^alpha, so the series start already forces
        nonzero q at any positive radius."""
        s = series_start(6, 2.0, 1.0, 0.0)
        assert s.q > 0


class TestVerdicts:
    def test_v0_zero_fails_subharmonicity_immediately(self):
        r = shoot(6, 2.0, 1.0, 0.0)
        assert r.verdict == "subharmonicity-violated"
        assert r.termination_radius <= 1e-5

    def test_reference_cell_terminates(self):
        r = shoot(6, 2.0, 1.0, -1.0, rmax=50.0)
        assert r.verdict in radial.VERDICTS

    def test_positive_v0_rejected(self):
        with pytest.raises(ValueError, match="center hypothesis"):
            shoot(6, 2.0, 1.0, 0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shoot(4, 2.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            shoot(6, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            shoot(6, 2.0, -1.0, -1.0)

    @pytest.mark.parametrize("rmax", [math.inf, math.nan, radial.DEFAULT_R0, -1.0])
    def test_rmax_outside_the_forward_range_rejected(self, rmax):
        """The batch checks rmax, so a shot that integrates raises as a scan
        does; a start already past a threshold needs no rmax."""
        with pytest.raises(ValueError, match="rmax must be finite"):
            shoot(6, 2.0, 1.0, -1.0, rmax=rmax)
        assert shoot(6, 2.0, 1.0, 0.0, rmax=rmax).termination_radius == radial.DEFAULT_R0

    def test_a_path_follows_one_cell(self):
        start = series_start(6, 2.0, 1.0, -1.0)
        with pytest.raises(ValueError, match="a path follows one cell, not 2"):
            radial.shoot_batch(6, 2.0, [(start.u, start.p, start.v, start.q)] * 2,
                               path=[])

    def test_non_finite_alpha_is_rejected(self):
        """A NaN alpha once sent shoot into an endless loop and gave a scan
        a step-size underflow, and an infinite alpha got verdicts.  Both
        are a ValueError that names alpha, from shoot and per cell from the
        scan; a child process with a timeout keeps a regression from
        hanging the suite."""
        code = (
            "import math\n"
            "from bhverify import radial\n"
            "for alpha in (math.nan, math.inf, -math.inf):\n"
            "    try:\n"
            "        radial.shoot(6, alpha, 1.0, -1.0, rmax=1.0)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "    [(summary, cells)] = radial.scan_shooting(\n"
            "        [(6, alpha)], [1.0, 2.0], [-1.0, 0.0], rmax=1.0)\n"
            "    assert cells == [] and summary.cells == 4, summary\n"
            "    print(sorted({e['error'] for e in summary.errors}))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        want = []
        for alpha in ("nan", "inf", "-inf"):
            message = f"need a finite alpha > 1, got alpha = {alpha}"
            want += [message, repr([message])]
        assert proc.stdout.splitlines() == want

    def test_integrator_convergence(self):
        """Halving the tolerance moves the termination radius by < 1e-6
        relative on the reference cell."""
        r1 = shoot(6, 2.0, 1.0, -1.0)
        _, _, r2 = _ref_shoot_checkpoints(6, 2.0, 1.0, -1.0, rtol=5e-11, atol=5e-11)
        rel = abs(r1.termination_radius - r2) / r1.termination_radius
        assert rel < 1e-6

    def test_verdict_stability_under_tiny_perturbation(self):
        base = shoot(6, 2.0, 1.0, -1.0)
        for eps in (1e-9, -1e-9):
            assert shoot(6, 2.0, 1.0 + eps, -1.0 + eps).verdict == base.verdict


class TestScan:
    def test_empty_grid(self):
        [(summary, results)] = scan_shooting([(6, 2.0)], [], [])
        assert summary.cells == 0 and results == []

    def test_small_grid_no_survivors(self):
        u0s, v0s = np.logspace(-1, 1, 4), np.linspace(-10, 0, 4)
        [(summary, results)] = scan_shooting([(6, 2.0)], u0s, v0s, rmax=50.0)
        assert summary.cells == 16
        assert summary.survival_fraction == 0.0
        assert not summary.errors

    def test_positive_v0_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_shooting([(6, 2.0)], [1.0], [0.5])

    @pytest.mark.parametrize("rmax", [math.inf, math.nan, radial.DEFAULT_R0, -1.0])
    def test_rmax_outside_the_forward_range_rejected(self, rmax):
        with pytest.raises(ValueError, match="rmax must be finite"):
            scan_shooting([(6, 2.0)], [1.0], [-1.0], rmax=rmax)

    def test_default_grids_shape(self):
        u0s, v0s = default_grids(10)
        assert len(u0s) == len(v0s) == 10
        assert u0s[0] == pytest.approx(0.1) and u0s[-1] == pytest.approx(10.0)
        assert v0s[0] == -10.0 and v0s[-1] == 0.0


class TestMonitor:
    def test_zero_gradient_is_nonpositive(self):
        """With p == 0 and v < 0 the monitor is negative."""
        assert monitor_z(6, 1.0, 0.0, -0.5) < 0

    def test_window_definition_keeps_v_nonpositive(self):
        """The a = 0 specialization v/u is <= 0 on the window by construction."""
        r = shoot(6, 2.0, 1.0, -1.0)
        u, v = r.y[0], r.y[2]
        window = (u > 0) & (v <= 0)
        assert window.any() and (v[window] / u[window] <= 0).all()


def test_trajectory_dump(tmp_path):
    r = shoot(6, 2.0, 1.0, -1.0)
    path = tmp_path / "traj.csv"
    dump_trajectory_csv(r, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,u,p,v,q,Z"
    assert len(lines) == len(r.r) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == r.y[0, 0]


# -- differential test against the per-RadialState code the arrays replaced -----


def _ref_shoot_checkpoints(n, alpha, u0, v0, rmax=50.0, rtol=1e-10, atol=1e-10):
    """The checkpoints, verdict and termination radius of the previous shoot,
    one RadialState per step, from the same solve_ivp call with its
    blow-up event at |u| = 1e12."""
    def rhs(r, y):
        u, p, v, q = y
        ua = max(u, 0.0) ** alpha
        return [p, v - (n - 1) * p / r, q, ua - (n - 1) * q / r]

    def ev_positivity(r, y):
        return y[0]
    ev_positivity.terminal = True
    ev_positivity.direction = -1

    def ev_subharmonicity(r, y):
        return y[2]
    ev_subharmonicity.terminal = True
    ev_subharmonicity.direction = 1

    def ev_blowup(r, y):
        return abs(y[0]) - 1e12
    ev_blowup.terminal = True
    ev_blowup.direction = 1

    start = series_start(n, alpha, u0, v0)
    y0 = [start.u, start.p, start.v, start.q]

    if start.v > 0:
        return [start], "subharmonicity-violated", start.r

    sol = solve_ivp(rhs, (start.r, rmax), y0, rtol=rtol, atol=atol,
                    events=[ev_positivity, ev_subharmonicity, ev_blowup],
                    dense_output=False)

    if sol.status == 1:
        if len(sol.t_events[0]):
            verdict, r_end = "positivity-violated", float(sol.t_events[0][0])
        elif len(sol.t_events[1]):
            verdict, r_end = "subharmonicity-violated", float(sol.t_events[1][0])
        else:
            verdict, r_end = "blow-up", float(sol.t_events[2][0])
    elif sol.status == 0:
        verdict, r_end = "reached-max-radius", float(sol.t[-1])
    else:
        verdict, r_end = "blow-up", float(sol.t[-1])

    rs, ys = sol.t, sol.y
    checkpoints = [RadialState(float(r), *map(float, ys[:, i]))
                   for i, r in enumerate(rs)]
    return checkpoints, verdict, r_end


def _ref_dump_trajectory_csv(n, checkpoints, verdict, path):
    """The per-RadialState dump, which since writes Z as nan on the root row
    of a positivity-violated path too."""
    root = checkpoints[-1] if verdict == "positivity-violated" else None
    with open(path, "w") as fh:
        fh.write("r,u,p,v,q,Z\n")
        for s in checkpoints:
            z = monitor_z(n, s.u, s.p, s.v) if s.u > 0 and s is not root else math.nan
            fh.write(f"{s.r!r},{s.u!r},{s.p!r},{s.v!r},{s.q!r},{z!r}\n")


@pytest.mark.parametrize("n, alpha, u0, v0, rmax", [
    (6, 2.0, 1.0, -1.0, 50.0),      # reference cell
    (6, 2.0, 1.0, 0.0, 50.0),       # v0 = 0: the series-start early return
    (5, 2.0, 0.1, -10.0, 50.0),
    (6, 3.0, 10.0, -10.0, 50.0),
    (8, 2.0, 0.5, -2.0, 50.0),
    (6, 2.0, 1.0, -1.0, 0.5),       # stops at rmax before any event
])
def test_arrays_equal_per_state_reference(n, alpha, u0, v0, rmax, tmp_path):
    """The verdict, the termination radius and the CSV dump from the scipy
    shooter's checkpoint arrays equal, bit for bit, those of the previous
    per-RadialState code; shoot has the scipy shooter's verdict and
    checkpoint count, and its radius to 1e-9 relative."""
    want = scipy_shoot.shoot(n, alpha, u0, v0, rmax)
    _assert_shoot_equals_reference([want], tmp_path)
    _assert_shoot_near_scipy(shoot(n, alpha, u0, v0, rmax), want)


def _assert_shoot_near_scipy(got, want):
    """shoot's result has the scipy shooter's verdict and checkpoint count,
    and its termination radius to 1e-9 relative."""
    assert (got.verdict, got.r.shape, got.y.shape) \
        == (want.verdict, want.r.shape, want.y.shape)
    assert got.termination_radius == pytest.approx(want.termination_radius, rel=1e-9)


def _assert_shoot_equals_reference(shots, tmp_path):
    """Each scipy shooter's result has the reference's verdict, termination
    radius and CSV bytes, and the reference's blow-up event never decides."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for s in shots:
        checkpoints, verdict, r_end = _ref_shoot_checkpoints(
            s.n, s.alpha, s.u0, s.v0, s.rmax)
        assert verdict != "blow-up"
        assert (s.verdict, s.termination_radius) == (verdict, r_end)
        dump_trajectory_csv(s, str(got))
        _ref_dump_trajectory_csv(s.n, checkpoints, verdict, str(want))
        assert got.read_bytes() == want.read_bytes()


# -- differential test: the batched scan and shoot against the scipy shooter -------

ACCEPTANCE_CONFIGS = [(5, 2.0), (6, 2.0), (6, 3.0), (8, 2.0)]


def _perfbench_cells(seed):
    """The radial cells perfbench's `oracles` workload draws from a seed."""
    rng = random.Random(seed)
    rng.randrange(2**31)     # the jet seed, drawn first
    return ([10.0 ** rng.uniform(-1.0, 1.0) for _ in range(10)],
            [rng.uniform(-10.0, 0.0) for _ in range(10)])


def _shoot_or_error(shoot, *cell):
    """shoot's result for a cell, or the text of its ValueError."""
    try:
        return shoot(*cell)
    except ValueError as exc:
        return str(exc)


def _assert_scan_equals_shoot(n, alpha, u0s, v0s, rmax=50.0):
    """Each cell of the scan has the scipy shooter's verdict, its termination
    radius to 1e-9 relative, or its error; shoot gives each cell the scan's
    verdict and radius bit for bit, or the scan's error, and is near the
    scipy shooter.  Returns the summary and the scipy shooter's results."""
    [(summary, results)] = scan_shooting([(n, alpha)], u0s, v0s, rmax)
    cells = [(float(u0), float(v0)) for u0 in u0s for v0 in v0s]
    want = [_shoot_or_error(scipy_shoot.shoot, n, alpha, *cell, rmax) for cell in cells]
    got = [_shoot_or_error(shoot, n, alpha, *cell, rmax) for cell in cells]

    def errors(shots):
        return [(repr(u0), repr(v0), s) for (u0, v0), s in zip(cells, shots)
                if isinstance(s, str)]
    assert errors(want) == errors(got) \
        == [(repr(e["u0"]), repr(e["v0"]), e["error"]) for e in summary.errors]
    want = [w for w in want if not isinstance(w, str)]
    got = [g for g in got if not isinstance(g, str)]
    assert [(c.u0, c.v0, c.verdict) for c in results] \
        == [(w.u0, w.v0, w.verdict) for w in want]
    for c, w, g in zip(results, want, got):
        assert c.termination_radius == pytest.approx(w.termination_radius, rel=1e-9), c
        assert (g.u0, g.v0, g.verdict, float(g.termination_radius).hex()) \
            == (c.u0, c.v0, c.verdict, float(c.termination_radius).hex())
        assert g.r[-1] == g.termination_radius
        if g.verdict in VERDICTS and len(g.r) > 1:  # the path ends on the event's root
            component = EVENT_COMPONENTS[VERDICTS.index(g.verdict)]
            assert abs(g.y[component, -1]) <= 1e-12 * np.abs(g.y[:, -1]).max(), g
        _assert_shoot_near_scipy(g, w)
    return summary, want


@pytest.mark.parametrize("n, alpha", ACCEPTANCE_CONFIGS)
def test_batch_equals_shoot_on_acceptance_grid(n, alpha, tmp_path):
    """Includes the v0 = 0 column, whose cells need no integration; the
    scipy shooter also equals the reference that had a blow-up event."""
    u0s, v0s = default_grids(10)
    summary, shots = _assert_scan_equals_shoot(n, alpha, u0s, v0s)
    assert summary.cells == 100 and summary.survivors == 0
    _assert_shoot_equals_reference(shots, tmp_path)


@pytest.mark.parametrize("seed, n, alpha", [(0, 5, 2.0), (7, 6, 3.0), (123, 8, 2.0)])
def test_batch_equals_shoot_on_perfbench_cells(seed, n, alpha, tmp_path):
    u0s, v0s = _perfbench_cells(seed)
    _, shots = _assert_scan_equals_shoot(n, alpha, u0s, v0s + [0.0])
    _assert_shoot_equals_reference(shots, tmp_path)


def test_a_start_already_below_zero_violates_positivity():
    """u(r0) = u0 + v0 r0^2/(2n) < 0 for a tiny u0: no crossing is left for
    the event to find, so the start itself is the verdict."""
    summary, _ = _assert_scan_equals_shoot(6, 2.0, [1e-14, 1e-13, 1e-12], [-10.0, -1.0])
    assert summary.survivors == 0
    assert summary.verdict_counts == {"positivity-violated": 6}
    [(summary, (cell,))] = scan_shooting([(6, 2.0)], [1e-14], [-10.0])
    assert (summary.survivors, cell.verdict, cell.termination_radius) \
        == (0, "positivity-violated", radial.DEFAULT_R0)


def test_batch_equals_shoot_across_the_verdict_boundary():
    """Near v0 = -0.84535654842700 (u0 = 1) u and v both cross 0 in one
    step, and the earlier root decides."""
    v0s = [-0.8453575 + 2e-7 * k for k in range(10)]
    summary, _ = _assert_scan_equals_shoot(6, 2.0, [1.0], v0s)
    assert summary.verdict_counts == {"positivity-violated": 5,
                                      "subharmonicity-violated": 5}


def test_batch_equals_shoot_to_a_small_rmax():
    u0s, v0s = default_grids(4)
    summary, _ = _assert_scan_equals_shoot(6, 2.0, u0s, v0s, rmax=1e-3)
    assert summary.verdict_counts == {"reached-max-radius": 12,
                                      "subharmonicity-violated": 4}


def test_bad_cells_stay_out_of_the_batch(monkeypatch):
    """NaN, infinite or non-positive u0 and non-finite v0 are per-cell
    errors, and only finite start states reach the integrator: the scan's
    batch and shoot's one-cell batches alike."""
    seen = []

    def checked(n, alpha, starts, *args):
        seen.append(np.asarray(starts, dtype=float).reshape(-1, 4))
        return batch(n, alpha, starts, *args)
    batch = radial.shoot_batch
    monkeypatch.setattr(radial, "shoot_batch", checked)
    u0s = [math.nan, math.inf, -1.0, 0.0, 0.5, 2.0]
    v0s = [-math.inf, math.nan, -3.0, 0.0]
    summary, _ = _assert_scan_equals_shoot(6, 2.0, u0s, v0s)
    assert len(summary.errors) == 4 * 4 + 2 * 2 and summary.cells == 24
    assert [len(starts) for starts in seen] == [2, 1, 1]
    assert all(np.isfinite(starts).all() for starts in seen)


def test_an_overflowing_power_of_u0_is_a_named_error():
    """u0**alpha overflows a float at u0 = 1e200, alpha = 2: shoot raises a
    ValueError that names u0, and the scan reports it as that cell's error."""
    for shooter in (shoot, scipy_shoot.shoot):
        with pytest.raises(ValueError, match=r"u0\*\*alpha overflows at u0 = 1e\+200"):
            shooter(6, 2.0, 1e200, -1.0)
    summary, shots = _assert_scan_equals_shoot(6, 2.0, [1e200, 1.0], [-1.0])
    assert [e["u0"] for e in summary.errors] == [1e200]
    assert summary.cells == 2 and len(shots) == 1


def test_batch_counts_equal_solve_ivp(monkeypatch):
    """The batch takes the steps and right-hand-side evaluations solve_ivp
    takes, cell by cell: the same method, controller and initial step."""
    calls = []

    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        calls.append((len(sol.t) - 1, sol.nfev))
        return sol
    monkeypatch.setattr(scipy_shoot, "solve_ivp", counted)
    u0s, v0s = _perfbench_cells(7)
    n, alpha = 6, 2.0
    starts = [series_start(n, alpha, u0, v0) for u0 in u0s for v0 in v0s]
    run = radial.shoot_batch(n, alpha, [(s.u, s.p, s.v, s.q) for s in starts])
    for u0 in u0s:
        for v0 in v0s:
            scipy_shoot.shoot(n, alpha, u0, v0)
    assert list(zip(run.steps.tolist(), run.nfev.tolist())) == calls


def test_step_underflow_is_a_per_cell_error_at_the_last_radius(monkeypatch):
    """A right side that overflows rejects every step until the step falls
    below 10 ulp(r): solve_ivp fails there, and the batch records the cell
    as a step-size underflow at the last radius, after solve_ivp's steps and
    evaluations.  shoot and the scipy shooter raise the same message, and the
    scan reports it as that cell's error."""
    start = (1e200, -1.0, -1.0, 0.0)

    def rhs(r, y):
        u, p, v, q = y
        return [p, v - 5 * p / r, q, max(u, 0.0) ** 2.0 - 5 * q / r]
    with np.errstate(all="ignore"):
        sol = solve_ivp(rhs, (radial.DEFAULT_R0, 50.0), start, rtol=1e-10, atol=1e-10)
    run = radial.shoot_batch(6, 2.0, [start])
    assert sol.status == -1
    message = f"step size underflow at r = {float(sol.t[-1])!r}"
    assert (run.verdicts, run.errors, run.nfev.tolist(), run.steps.tolist()) \
        == ([None], {0: message}, [sol.nfev], [len(sol.t) - 1])

    # no valid (u0, v0) reaches this start: u0 must be near 1e154 for u^2
    # to overflow, and then v(r0) <= 0 needs u(r0) < 0; inject it instead
    for module in (radial, scipy_shoot):
        monkeypatch.setattr(module, "series_start",
                            lambda *_: RadialState(radial.DEFAULT_R0, *start))
    with np.errstate(all="ignore"):
        summary, _ = _assert_scan_equals_shoot(6, 2.0, [1.0], [-1.0])
    assert summary.errors == [{"u0": 1.0, "v0": -1.0, "error": message}]


# -- differential test: the component-major batch against the row-major batch ------
# The row-major batch, copied from the code the component-major one replaced;
# its helpers keep their names, so that _ref_shoot_batch below reads them.

EVENT_RISES = np.array([False, True])


def _rowmajor_rhs_batch(nm1: np.ndarray, alpha: np.ndarray, exponents, r: np.ndarray,
                        y: np.ndarray) -> np.ndarray:
    """The radial system at radii r (cells,) and states y (cells, 4), with
    n - 1 and alpha per cell.

    u^alpha is taken one distinct alpha of ``exponents`` at a time, each a
    Python float: ``x ** 2.0`` is numpy's square, and a power against an
    array of exponents would not give the same bits.
    """
    f = np.empty_like(y)
    f[:, 0] = y[:, 1]
    f[:, 1] = y[:, 2] - nm1 * y[:, 1] / r
    f[:, 2] = y[:, 3]
    u = np.maximum(y[:, 0], 0.0)
    ua = np.empty_like(u)
    for a in exponents:
        cells = alpha == a
        ua[cells] = u[cells] ** a
    f[:, 3] = ua - nm1 * y[:, 3] / r
    return f


def _event_values(y: np.ndarray) -> np.ndarray:
    """The event functions u and v, in VERDICTS order, at states y (..., 4)."""
    return y[..., EVENT_COMPONENTS]


def _rms(x: np.ndarray) -> np.ndarray:
    """scipy's RMS norm, per row."""
    return np.linalg.norm(x, axis=1) / math.sqrt(x.shape[1])


def _initial_steps(rhs, r, y, f, rmax) -> np.ndarray:
    """scipy's ``select_initial_step`` (Hairer-Norsett-Wanner II.4), per cell."""
    length = rmax - r
    scale = ATOL + np.abs(y) * RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), length)
    d2 = _rms((rhs(r + h0, y + h0[:, None] * f) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.fmax(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1)))
    return np.minimum(np.minimum(100 * h0, h1), length)


def _rowmajor_shoot_batch(n, alpha, starts, rmax: float = 50.0) -> BatchRun:
    """``shoot_batch`` as it was before it went component-major: states as
    (cells, 4), u^alpha taken one distinct alpha at a time by a mask over
    every cell."""
    y = np.array(starts, dtype=float).reshape(-1, 4)
    cells = len(y)
    nm1 = np.broadcast_to(np.asarray(n, dtype=float), (cells,)) - 1.0
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (cells,))
    exponents = sorted(set(alpha.tolist()))
    verdicts: list = [None] * cells
    radii = np.full(cells, np.nan)
    nfev = np.full(cells, 2)       # the start's f and the initial-step probe
    steps = np.zeros(cells, dtype=int)
    errors: dict = {}
    live = np.arange(cells)
    r = np.full(cells, DEFAULT_R0)
    stages = N_STAGES
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rhs = partial(_rowmajor_rhs_batch, nm1, alpha, exponents)
        f = rhs(r, y)
        h = _initial_steps(rhs, r, y, f, rmax)
        g = _event_values(y)
        retry = np.zeros(cells, dtype=bool)    # the last attempt was rejected
        while live.size:
            min_step = 10 * np.abs(np.nextafter(r, np.inf) - r)
            h = np.where(retry, h, np.maximum(h, min_step))
            r_new = np.minimum(r + h, rmax)
            h = r_new - r
            K = np.empty((stages + 1,) + y.shape)
            flat = K.reshape(stages + 1, -1)
            K[0] = f
            for s in range(1, stages):
                dy = (A[s, :s] @ flat[:s]).reshape(y.shape) * h[:, None]
                K[s] = rhs(r + C[s] * h, y + dy)
            y_new = y + h[:, None] * (B @ flat[:stages]).reshape(y.shape)
            K[stages] = f_new = rhs(r_new, y_new)
            nfev[live] += stages
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            err = _rms((E @ flat).reshape(y.shape) * h[:, None] / scale)

            # err == 0 gives MAX_FACTOR through err ** ERROR_EXPONENT = inf;
            # fmax keeps Python's max(MIN_FACTOR, nan) == MIN_FACTOR
            accepted = err < 1
            grow = np.minimum(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            grow = np.where(retry, np.minimum(1.0, grow), grow)
            shrink = np.fmax(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            h = h * np.where(accepted, grow, shrink)
            retry = ~accepted

            # a retry below 10 ulp(r) fails at the last radius (so does a
            # NaN step, which would otherwise be retried forever)
            done = retry & ~(h >= min_step)
            for k in np.nonzero(done)[0]:
                errors[int(live[k])] = _underflow_message(r[k])
            acc = np.nonzero(accepted)[0]
            steps[live[acc]] += 1
            g_new = _event_values(y_new[acc])
            g_old = g[acc]
            crossed = np.where(EVENT_RISES, (g_old <= 0) & (g_new >= 0),
                               (g_old >= 0) & (g_new <= 0))
            for j in np.nonzero(crossed.any(axis=1))[0]:
                k = acc[j]
                try:
                    root, e = _first_event(K[:, k], r[k], r_new[k], y[k], crossed[j])
                except ValueError as exc:   # no sign change, NaN or no convergence
                    errors[int(live[k])] = str(exc)
                else:
                    verdicts[live[k]], radii[live[k]] = VERDICTS[e], root
                done[k] = True
            for k in acc[(r_new[acc] == rmax) & ~done[acc]]:
                verdicts[live[k]], radii[live[k]] = "reached-max-radius", rmax
                done[k] = True
            r[acc], y[acc], f[acc], g[acc] = r_new[acc], y_new[acc], f_new[acc], g_new
            if done.any():
                keep = ~done
                live, r, y, f, h, g, retry, nm1, alpha = (
                    a[keep] for a in (live, r, y, f, h, g, retry, nm1, alpha))
                rhs = partial(_rowmajor_rhs_batch, nm1, alpha, exponents)
    return BatchRun(verdicts, radii, nfev, steps, errors)


# -- differential test: one batch over every config against the batch it replaced --


def _ref_rhs_batch(n: int, alpha: float, r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The radial system at radii r (cells,) and states y (cells, 4)."""
    f = np.empty_like(y)
    f[:, 0] = y[:, 1]
    f[:, 1] = y[:, 2] - (n - 1) * y[:, 1] / r
    f[:, 2] = y[:, 3]
    f[:, 3] = np.maximum(y[:, 0], 0.0) ** alpha - (n - 1) * y[:, 3] / r
    return f


def _ref_first_event(K, r_old, r_new, y_old, crossed):
    """(root, event) of the earliest crossed event on one accepted step.

    Each crossing is refined by ``_brentq`` on RK45's dense interpolant, as
    solve_ivp does; K holds the step's stages, (stages + 1, 4).
    """
    h = r_new - r_old
    Q = K.T.dot(P)

    def event(r, e):
        x = (r - r_old) / h
        return _event_values(h * Q.dot(np.cumprod(np.full(Q.shape[1], x))) + y_old)[e]

    return min((_brentq(partial(event, e=e), r_old, r_new), e)
               for e in np.nonzero(crossed)[0])


def _ref_shoot_batch(n: int, alpha: float, starts, rmax: float = 50.0) -> BatchRun:
    """The one-config batch, with scalar n and alpha, that the batch over
    all configs replaced."""
    rhs = partial(_ref_rhs_batch, n, alpha)
    y = np.array(starts, dtype=float).reshape(-1, 4)
    cells = len(y)
    verdicts: list = [None] * cells
    radii = np.full(cells, np.nan)
    nfev = np.full(cells, 2)       # the start's f and the initial-step probe
    steps = np.zeros(cells, dtype=int)
    errors: dict = {}
    live = np.arange(cells)
    r = np.full(cells, DEFAULT_R0)
    stages = N_STAGES
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = rhs(r, y)
        h = _initial_steps(rhs, r, y, f, rmax)
        g = _event_values(y)
        retry = np.zeros(cells, dtype=bool)    # the last attempt was rejected
        while live.size:
            min_step = 10 * np.abs(np.nextafter(r, np.inf) - r)
            h = np.where(retry, h, np.maximum(h, min_step))
            r_new = np.minimum(r + h, rmax)
            h = r_new - r
            K = np.empty((stages + 1,) + y.shape)
            flat = K.reshape(stages + 1, -1)
            K[0] = f
            for s in range(1, stages):
                dy = (A[s, :s] @ flat[:s]).reshape(y.shape) * h[:, None]
                K[s] = rhs(r + C[s] * h, y + dy)
            y_new = y + h[:, None] * (B @ flat[:stages]).reshape(y.shape)
            K[stages] = f_new = rhs(r_new, y_new)
            nfev[live] += stages
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            err = _rms((E @ flat).reshape(y.shape) * h[:, None] / scale)

            # err == 0 gives MAX_FACTOR through err ** ERROR_EXPONENT = inf;
            # fmax keeps Python's max(MIN_FACTOR, nan) == MIN_FACTOR
            accepted = err < 1
            grow = np.minimum(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            grow = np.where(retry, np.minimum(1.0, grow), grow)
            shrink = np.fmax(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            h = h * np.where(accepted, grow, shrink)
            retry = ~accepted

            # a retry below 10 ulp(r) fails at the last radius (so does a
            # NaN step, which would otherwise be retried forever)
            done = retry & ~(h >= min_step)
            for k in np.nonzero(done)[0]:
                errors[int(live[k])] = _underflow_message(r[k])
            acc = np.nonzero(accepted)[0]
            steps[live[acc]] += 1
            g_new = _event_values(y_new[acc])
            g_old = g[acc]
            crossed = np.where(EVENT_RISES, (g_old <= 0) & (g_new >= 0),
                               (g_old >= 0) & (g_new <= 0))
            for j in np.nonzero(crossed.any(axis=1))[0]:
                k = acc[j]
                try:
                    root, e = _ref_first_event(K[:, k], r[k], r_new[k], y[k], crossed[j])
                except ValueError as exc:   # no sign change, NaN or no convergence
                    errors[int(live[k])] = str(exc)
                else:
                    verdicts[live[k]], radii[live[k]] = VERDICTS[e], root
                done[k] = True
            for k in acc[(r_new[acc] == rmax) & ~done[acc]]:
                verdicts[live[k]], radii[live[k]] = "reached-max-radius", rmax
                done[k] = True
            r[acc], y[acc], f[acc], g[acc] = r_new[acc], y_new[acc], f_new[acc], g_new
            if done.any():
                keep = ~done
                live, r, y, f, h, g, retry = (a[keep] for a in (live, r, y, f, h, g, retry))
    return BatchRun(verdicts, radii, nfev, steps, errors)


def _batch_rows(configs, u0s, v0s):
    """(n, alpha, start) of every cell of every config that needs
    integration, config by config."""
    rows = []
    for n, alpha in configs:
        for u0 in u0s:
            for v0 in v0s:
                s = series_start(n, alpha, float(u0), float(v0))
                if radial._start_verdict(s) is None:
                    rows.append((n, alpha, (s.u, s.p, s.v, s.q)))
    return rows


def _outcomes(run: BatchRun):
    """Per cell: verdict, radius as float.hex, nfev, steps and error."""
    return [(v, float(r).hex(), nf, st, run.errors.get(i))
            for i, (v, r, nf, st) in enumerate(zip(
                run.verdicts, run.radii.tolist(), run.nfev.tolist(), run.steps.tolist()))]


def _assert_one_batch_equals_per_config(rows):
    """One shoot_batch over ``rows`` gives, cell for cell and bit for bit,
    what a one-config batch of the replaced code gives each config's cells,
    and what the batch itself gives each config alone."""
    one = _outcomes(radial.shoot_batch([r[0] for r in rows], [r[1] for r in rows],
                                       [r[2] for r in rows]))
    want, alone = [None] * len(rows), [None] * len(rows)
    for config in dict.fromkeys(r[:2] for r in rows):
        idx = [i for i, r in enumerate(rows) if r[:2] == config]
        starts = [rows[i][2] for i in idx]
        for i, w, a in zip(idx, _outcomes(_ref_shoot_batch(*config, starts)),
                           _outcomes(radial.shoot_batch(*config, starts))):
            want[i], alone[i] = w, a
    assert one == want == alone


@pytest.mark.parametrize("cells", ["default", 0, 7, 123])
def test_one_batch_over_all_configs_equals_one_batch_per_config(cells):
    """The acceptance configs' cells in one batch, on the default grids and
    on perfbench's cells of three seeds."""
    u0s, v0s = default_grids(10) if cells == "default" else _perfbench_cells(cells)
    rows = _batch_rows(ACCEPTANCE_CONFIGS, u0s, v0s)
    assert len({r[:2] for r in rows}) == 4
    _assert_one_batch_equals_per_config(rows)


def _interleaved_rows():
    """Perfbench's seed-7 cells at n = 6, alpha 2.0 and 3.0 rows alternating."""
    u0s, v0s = _perfbench_cells(7)
    by_alpha = [_batch_rows([(6, alpha)], u0s, v0s) for alpha in (2.0, 3.0)]
    return [row for pair in zip(*by_alpha) for row in pair]


def test_interleaved_alphas_equal_one_batch_per_config():
    """alpha 2.0 and 3.0 rows alternate through the batch.  u^2.0 must stay
    numpy's square, row by row wherever the row sits: a power against an
    array of exponents differs from it in the last bit."""
    rows = _interleaved_rows()
    assert [r[1] for r in rows[:4]] == [2.0, 3.0, 2.0, 3.0]
    _assert_one_batch_equals_per_config(rows)


# -- the component-major batch: the row-major batch's bits, in the rows' order ------

# four alphas in descending order, so the sort by alpha moves the rows, and
# the generic powers 1.5, 2.5 and 3.0 run beside numpy's square
MIXED_CONFIGS = [(n, alpha) for alpha in (3.0, 2.5, 2.0, 1.5) for n in (5, 6, 8, 12)]
# a pool of rows to draw from: 16 configs, 4 cells each
MIXED_POOL = _batch_rows(MIXED_CONFIGS, [0.3, 3.0], [-5.0, -0.5])
# configs whose alphas are out of order
UNSORTED_CONFIGS = [(6, 3.0), (8, 2.0), (5, 2.5), (6, 2.0)]


def _shoot_rows(shoot_batch, rows) -> BatchRun:
    return shoot_batch([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


def _differential_rows(cells):
    if cells == "interleaved":
        return _interleaved_rows()
    if cells == "mixed":
        return _batch_rows(MIXED_CONFIGS, *default_grids(5))
    u0s, v0s = default_grids(10) if cells == "default" else _perfbench_cells(cells)
    return _batch_rows(ACCEPTANCE_CONFIGS, u0s, v0s)


@pytest.mark.parametrize("cells", ["default", 0, 7, 123, "interleaved", "mixed"])
def test_component_major_batch_equals_the_row_major_batch(cells):
    """Verdict, radius, nfev, steps and error of every cell, bit for bit, on
    the acceptance configs' cells (the default grids and perfbench's cells
    of three seeds), the interleaved rows and the mixed alphas; and the
    passes are the most any cell took."""
    rows = _differential_rows(cells)
    run = _shoot_rows(radial.shoot_batch, rows)
    assert _outcomes(run) == _outcomes(_shoot_rows(_rowmajor_shoot_batch, rows))
    assert run.passes == max((run.nfev - 2) // N_STAGES)


def test_passes_on_the_default_acceptance_grids():
    """226 RK45 passes over the 360 cells that need integration: 1,358
    right-hand-side calls, 2 before the first pass and 6 per pass, which
    evaluate the right-hand side 199,500 times."""
    run = _shoot_rows(radial.shoot_batch, _differential_rows("default"))
    assert (run.passes, 2 + N_STAGES * run.passes) == (226, 1358)
    assert (len(run.nfev), int(run.nfev.sum())) == (360, 199_500)


def test_an_empty_batch_takes_no_pass():
    run = radial.shoot_batch([], [], [])
    assert (run.verdicts, run.radii.size, run.errors, run.passes) == ([], 0, {}, 0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, len(MIXED_POOL) - 1), min_size=1, max_size=12), st.data())
def test_row_order_survives_the_sort(picks, data):
    """Rows in any order come back in that order, bit for bit: the batch of
    permuted rows gives the permuted outcomes."""
    rows = [MIXED_POOL[i] for i in picks]
    order = data.draw(st.permutations(range(len(rows))))
    want = _outcomes(_shoot_rows(radial.shoot_batch, rows))
    got = _outcomes(_shoot_rows(radial.shoot_batch, [rows[i] for i in order]))
    assert got == [want[i] for i in order]


def _assert_rows_as_alone(rows) -> BatchRun:
    """Each row of one batch over ``rows`` has the outcome of a batch of
    that row alone, its error under its own index."""
    run = _shoot_rows(radial.shoot_batch, rows)
    assert _outcomes(run) == [_outcomes(_shoot_rows(radial.shoot_batch, [row]))[0]
                              for row in rows]
    return run


def test_a_step_underflow_is_reported_at_the_input_row():
    """A start whose u^3 overflows rejects every step until the step
    underflows; among rows of unsorted alphas, the error is that row's."""
    rows = _batch_rows(UNSORTED_CONFIGS, [1.0], [-1.0])
    rows.insert(2, (6, 3.0, (1e200, -1.0, -1.0, 0.0)))
    run = _assert_rows_as_alone(rows)
    assert list(run.errors) == [2]
    assert run.errors[2].startswith("step size underflow at r = ")


def test_an_event_that_does_not_converge_is_reported_at_the_input_row(monkeypatch):
    """With Brent's method cut to 5 iterations, half the crossings among
    rows of unsorted alphas fail to converge, each under its own row."""
    monkeypatch.setattr(radial, "EVENT_MAXITER", 5)
    rows = _batch_rows(UNSORTED_CONFIGS, [0.5, 2.0], [-3.0, -0.3])
    run = _assert_rows_as_alone(rows)
    assert sorted(run.errors) == [0, 1, 3, 7, 8, 11, 13, 15]
    assert all("did not converge after 5 iterations" in e for e in run.errors.values())
    assert [rows[i][1] for i in sorted(run.errors)] \
        == [3.0, 3.0, 3.0, 2.0, 2.5, 2.5, 2.0, 2.0]


def test_run_radial_makes_one_batch_and_one_grid_call(monkeypatch):
    """The four acceptance configs take one default_grids call (perfbench
    hands in its cells through it) and one shoot_batch call."""
    calls = {"default_grids": 0, "shoot_batch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(radial, name, counted(name, getattr(radial, name)))
    sections, ok = run_radial(ACCEPTANCE_CONFIGS)
    assert ok and len(sections) == 4
    assert calls == {"default_grids": 1, "shoot_batch": 1}


def test_dump_reshoots_the_middle_cell(tmp_path):
    """run_radial writes, per config, the checkpoints of shoot on the
    len(results) // 2-th cell without an error, early returns included; the
    CSV's last radius is the one the scan judged, to the bit."""
    u0s, v0s = default_grids(10)
    run_radial(ACCEPTANCE_CONFIGS, 10, 50.0, str(tmp_path))
    scans = scan_shooting(ACCEPTANCE_CONFIGS, u0s, v0s)
    for (n, alpha), (_, results) in zip(ACCEPTANCE_CONFIGS, scans):
        cells = [(float(u0), float(v0)) for u0 in u0s for v0 in v0s]
        u0, v0 = cells[len(cells) // 2]
        mid = results[len(results) // 2]
        assert (mid.u0, mid.v0) == (u0, v0)
        dump_trajectory_csv(shoot(n, alpha, u0, v0), str(tmp_path / "want.csv"))
        got = tmp_path / f"trajectory_n{n}_a{alpha}.csv"
        assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()
        last_r = got.read_text().splitlines()[-1].split(",")[0]
        assert last_r == repr(mid.termination_radius)


def test_dump_writes_no_z_on_the_root_row(tmp_path):
    """The cell that `bhverify radial --dump-trajectories` dumps by default
    (n = 6, alpha = 2, the middle of the 10x10 grid) ends where u falls
    through 0, and there u (about 1.9e-16) is only the root's rounding noise:
    its Z is nan, not about 1e32.  Every earlier row has u > 0 and the Z of
    its state."""
    run_radial([(6, 2.0)], 10, 50.0, str(tmp_path))
    text = (tmp_path / "trajectory_n6_a2.0.csv").read_text()
    *earlier, last = [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
    assert 0 < last[1] < 1e-15 and math.isnan(last[5])
    assert earlier
    for r, u, p, v, q, z in earlier:
        assert u > 0 and z == monitor_z(6, u, p, v)
