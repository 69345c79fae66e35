"""Radial shooting laboratory for the fourth-order equation on flat space.

Writing v = Lap(u), a radial solution solves the first-order system

    u' = p,  p' = v - (n-1) p / r,  v' = q,  q' = u^alpha - (n-1) q / r,

started from a series expansion at a small r0 to clear the coordinate
singularity: u ~ u0 + v0 r^2/(2n), v ~ v0 + u0^alpha r^2/(2n).

A trajectory is classified by the first threshold it crosses: positivity of
u fails (u < 0) or subharmonicity fails (v > 0); otherwise it survives to the
maximum radius.  A series start already past a threshold is classified at
r0.  Unbounded growth needs no verdict of its own: while v <= 0, u is
non-increasing, so |u| can only grow without bound after u has crossed 0.
The nonexistence theorem predicts that no trajectory with u0 > 0, v0 <= 0
survives with u > 0 and v <= 0; the scan reports the survival fraction,
which is consistency evidence only (finite grids prove nothing).

A scan classifies the cells of all its (n, alpha) configs in one batch:
``shoot_batch`` steps every live cell together with the Dormand-Prince 5(4)
pair (Hairer, Norsett and Wanner, Solving ODEs I, II.4-II.6), with the
constants and step-size controller of scipy's RK45, each cell with its own
step size, n and alpha, and locates the events as ``solve_ivp`` does, by
Brent's method in the step order of scipy's ``brentq`` (the same root of
the same function, to the bit), stepped on Python floats, on the one state
component the event reads from the dense interpolant.  The batch holds its
arrays component-major, (4, cells), with the cells sorted by alpha, so
u^alpha is one power with a scalar exponent per run of equal alpha; the
cells do not mix, and each cell's floats are those of a batch of its
config alone.  ``shoot`` is a batch of one cell that keeps its path, so it
inspects the very trajectory a scan judged (the CSV dump).  Nothing the
lab runs loads scipy.

The dump writes the second-order estimate monitor Z = v/u + (2/(n-4))
p^2/u^2 at each checkpoint; the estimate's hypotheses are global (complete
manifold, entire solution), so a positive Z on a local trajectory is not a
refutation.  The batch integrates with fixed tolerances RTOL and ATOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

DEFAULT_R0 = 1e-6
RTOL = ATOL = 1e-10

# the Dormand-Prince 5(4) tableau with its dense output, literally as
# scipy.integrate.RK45 writes it, so every float is the same
N_STAGES = 6
ERROR_ESTIMATOR_ORDER = 4
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# scipy's RK45 step-size controller, which shoot_batch applies per cell
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / (ERROR_ESTIMATOR_ORDER + 1)
# brentq's xtol and rtol, and its iteration limit, in solve_ivp's event
# location
EVENT_TOL = 4 * float(np.finfo(float).eps)
EVENT_MAXITER = 100

# the terminal events in solve_ivp's order: u falls through 0, v rises
# through 0
VERDICTS = ("positivity-violated", "subharmonicity-violated")
EVENT_COMPONENTS = [0, 2]      # u and v in the state (u, p, v, q)


@dataclass
class RadialState:
    r: float
    u: float
    p: float   # u'
    v: float   # Lap u
    q: float   # v'


@dataclass
class ShootingResult:
    n: int
    alpha: float
    u0: float
    v0: float
    rmax: float
    verdict: str                     # a VERDICTS entry or reached-max-radius
    termination_radius: float
    r: np.ndarray                    # checkpoint radii
    y: np.ndarray                    # (4, len(r)): u, p, v, q at each radius


def series_start(n: int, alpha: float, u0: float, v0: float) -> RadialState:
    """Second-order series expansion around the regular center at DEFAULT_R0."""
    r0 = DEFAULT_R0
    ua = u0**alpha
    return RadialState(
        r=r0,
        u=u0 + v0 * r0**2 / (2 * n),
        p=v0 * r0 / n,
        v=v0 + ua * r0**2 / (2 * n),
        q=ua * r0 / n,
    )


def _start_verdict(start: RadialState) -> str | None:
    """The verdict of a series start already past a threshold, else None.

    v0 = 0 forces v > 0 (v ~ u0^alpha r^2/(2n)); a tiny u0 with v0 < 0 can
    give u < 0.  Neither is a crossing, so no event would fire on it.
    """
    if start.v > 0:
        return "subharmonicity-violated"
    if start.u < 0:
        return "positivity-violated"
    return None


def monitor_z(n: int, u, p, v):
    """Second-order estimate monitor Z = v/u + (2/(n-4)) p^2/u^2 (floats or
    arrays, elementwise)."""
    return v / u + 2.0 / (n - 4) * p * p / (u * u)


def _check_cell(n: int, alpha: float, u0: float, v0: float):
    """Raise ValueError unless (n, alpha, u0, v0) is a shot the lab takes."""
    if n < 5:
        raise ValueError("need n >= 5")
    if not (math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"need a finite alpha > 1, got alpha = {alpha}")
    if u0 <= 0:
        raise ValueError("need u0 > 0")
    if v0 > 0:
        raise ValueError("v0 > 0 violates the center hypothesis")
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise ValueError(f"need finite u0 and v0, got u0 = {u0}, v0 = {v0}")
    try:
        u0**alpha
    except OverflowError:
        raise ValueError(f"u0**alpha overflows at u0 = {u0}, alpha = {alpha}") from None


def _underflow_message(r) -> str:
    """The error of a trajectory whose step fell below 10 ulp(r) at r."""
    return f"step size underflow at r = {float(r)!r}"


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on the first call.  No code here
    calls it: it keeps its name only for perfbench's tracer, which wraps it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def shoot(n: int, alpha: float, u0: float, v0: float, rmax: float = 50.0) -> ShootingResult:
    """One radial trajectory as a one-cell ``shoot_batch``: the scan's verdict
    and termination radius to the bit, and the path kept as the start and
    the state after each accepted step, the last at the termination radius.

    v0 <= 0 is the subharmonicity hypothesis at the center.  A step-size
    underflow or a failed event location raises ValueError.
    """
    _check_cell(n, alpha, u0, v0)
    start = series_start(n, alpha, u0, v0)
    path = [(start.r, (start.u, start.p, start.v, start.q))]
    verdict = _start_verdict(start)
    if verdict is None:     # the start is not a verdict: integrate
        run = shoot_batch(n, alpha, [path[0][1]], rmax, path)
        if run.errors:
            raise ValueError(run.errors[0])
        verdict = run.verdicts[0]
    r, y = zip(*path)
    return ShootingResult(n, alpha, u0, v0, rmax, verdict, r[-1],
                          np.array(r), np.array(y).T)


# -- batched integration -------------------------------------------------------------


def _rhs_batch(nm1, runs, r, y, out: np.ndarray) -> np.ndarray:
    """The radial system at radii r (cells,) and states y (4, cells), with
    n - 1 per cell, written into out (4, cells).

    ``runs`` holds (alpha, first, end) of each run of cells sharing alpha:
    u^alpha is one in-place power per run with a Python float exponent, as
    ``x ** 2.0`` is numpy's square and a power against an array of
    exponents would not give the same bits.
    """
    out[0::2] = y[1::2]                 # u' = p, v' = q
    damping = nm1 * y[1::2]             # (n - 1) p / r and (n - 1) q / r
    damping /= r
    np.subtract(y[2], damping[0], out=out[1])
    ua = np.maximum(y[0], 0.0, out=out[3])
    for a, first, end in runs:
        ua[first:end] **= a
    ua -= damping[1]
    return out


def _alpha_runs(alpha: np.ndarray, exponents: list) -> list:
    """(a, first, end) of each a of ``exponents`` (sorted) in sorted alpha."""
    firsts = np.searchsorted(alpha, exponents).tolist()
    return list(zip(exponents, firsts, firsts[1:] + [len(alpha)]))


def _rms(x: np.ndarray) -> np.ndarray:
    """scipy's RMS norm, per column."""
    return np.linalg.norm(x, axis=0) / math.sqrt(len(x))


def _initial_steps(rhs, r, y, f, rmax) -> np.ndarray:
    """scipy's ``select_initial_step`` (Hairer-Norsett-Wanner II.4), per cell."""
    length = rmax - r
    scale = ATOL + np.abs(y) * RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), length)
    d2 = _rms((rhs(r + h0, y + h0 * f, np.empty_like(f)) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.fmax(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1)))
    return np.minimum(np.minimum(100 * h0, h1), length)


def _divide(x: float, y: float) -> float:
    """x / y in Python floats, with C's result for a zero divisor: an inf
    signed by both operands, or nan for 0/0 and nan/0."""
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0 or math.isnan(x):
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _brentq(f, a, b):
    """A root of f in [a, b] by Brent's method, in the step order of scipy's
    ``brentq`` (its brentq.c) with xtol = rtol = EVENT_TOL, so the root is
    the same float.

    Raises ValueError, as ``brentq`` does, when f is NaN at a point or has
    no sign change on [a, b], and also when EVENT_MAXITER iterations do not
    converge (``brentq`` raises RuntimeError there).  The steps run on
    Python floats, which round as C doubles do; ``_divide`` gives C's inf
    or nan where Python would raise on a zero divisor.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(EVENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (EVENT_TOL + EVENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = _divide(-fcur * (xcur - xpre), fcur - fpre)
            else:               # extrapolate
                dpre = _divide(fpre - fcur, xpre - xcur)
                dblk = _divide(fblk - fcur, xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre),
                               dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):   # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise ValueError(f"event location did not converge after {EVENT_MAXITER} "
                     f"iterations at r = {xcur!r}")


def _first_event(K, r_old, r_new, y_old, crossed):
    """(root, event) of the earliest crossed event on one accepted step.

    Each crossing is refined by ``_brentq`` on RK45's dense interpolant, as
    solve_ivp does; K holds the step's stages, (stages + 1, 4).  A value of
    the interpolant is one matrix-vector product, of which only the event's
    state component is kept, in Python floats: the arithmetic after the
    product is elementwise, so the bits are those of the whole state.
    """
    r_old, r_new = float(r_old), float(r_new)
    h = r_new - r_old
    Q = K.T.dot(P)
    y0 = y_old.tolist()

    def event(r, i):
        x = (r - r_old) / h
        x2 = x * x
        x3 = x2 * x
        return h * Q.dot(np.array([x, x2, x3, x3 * x])).item(i) + y0[i]

    return min((_brentq(partial(event, i=EVENT_COMPONENTS[e]), r_old, r_new), e)
               for e in range(len(VERDICTS)) if crossed[e])


def _dense_state(K, r_old, r_new, y_old, r) -> list:
    """The state at r on RK45's dense interpolant of one accepted step, as
    solve_ivp's dense output evaluates it; K holds the step's stages."""
    h = float(r_new) - float(r_old)
    x = np.cumprod(np.full(P.shape[1], (r - r_old) / h))     # x, x^2, x^3, x^4
    return (h * K.T.dot(P).dot(x) + y_old).tolist()


class BatchRun(NamedTuple):
    """Per-cell outcome of ``shoot_batch``, in the order of its start states."""
    verdicts: list             # a verdict, or None for a cell in errors
    radii: np.ndarray          # termination radius
    nfev: np.ndarray           # right-hand-side evaluations
    steps: np.ndarray          # accepted steps
    errors: dict               # cell -> step-size underflow or event-location message
    passes: int = 0            # RK45 passes over the live cells


def shoot_batch(n, alpha, starts, rmax: float = 50.0, path: list | None = None) -> BatchRun:
    """Integrate many trajectories at once and classify each.

    ``starts`` holds one series-start state (u, p, v, q) at r = DEFAULT_R0
    per row, each finite with u >= 0 and v <= 0; rmax must be finite and
    exceed DEFAULT_R0.  ``n`` and ``alpha`` are given per row, or once for
    every row.  The cells are sorted by alpha once, stably, so each u^alpha
    is one power on a run; ``live`` maps the live cells to their rows, and
    the outcomes come in the order of ``starts``.  The live cells are
    stepped together, component-major (states (4, cells), stages
    (stages + 1, 4, cells)), with the Dormand-Prince tableau and scipy's
    RK45 controller, each with its own step size, and drop out when done.
    After each accepted step the events are found from sign changes with
    solve_ivp's direction rules and refined on the dense interpolant; the
    earliest root decides the verdict.  A step below 10 ulp(r) fails, as in
    solve_ivp, and the cell goes into ``errors`` as a step-size underflow at
    its last radius; so does a crossing whose event location fails, with
    ``_brentq``'s message.  Given ``path``, the batch must hold one cell,
    and (r, state) is appended to it after each accepted step; an event's
    step ends instead at the root, with the interpolant's state there, as
    solve_ivp records it.
    """
    y = np.array(starts, dtype=float).reshape(-1, 4)
    cells = len(y)
    if not (math.isfinite(rmax) and rmax > DEFAULT_R0):
        raise ValueError(f"rmax must be finite and exceed r0 = {DEFAULT_R0}, got {rmax}")
    if path is not None and cells != 1:
        raise ValueError(f"a path follows one cell, not {cells}")
    nm1 = np.broadcast_to(np.asarray(n, dtype=float), (cells,)) - 1.0
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (cells,))
    live = np.argsort(alpha, kind="stable")        # cell -> row of starts
    y, nm1, alpha = y[live].T.copy(), nm1[live], alpha[live]
    exponents = sorted(set(alpha.tolist()))
    rhs = partial(_rhs_batch, nm1, _alpha_runs(alpha, exponents))
    verdicts: list = [None] * cells
    radii = np.full(cells, np.nan)
    nfev = np.full(cells, 2)       # the start's f and the initial-step probe
    steps = np.zeros(cells, dtype=int)
    errors: dict = {}
    r = np.full(cells, DEFAULT_R0)
    stages, passes = N_STAGES, 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        K = np.empty((stages + 1,) + y.shape)
        h = _initial_steps(rhs, r, y, rhs(r, y, K[0]), rmax)
        retry = np.zeros(cells, dtype=bool)    # the last attempt was rejected
        while live.size:
            passes += 1
            min_step = 10 * np.spacing(r)
            h = np.where(retry, h, np.maximum(h, min_step))
            r_new = np.minimum(r + h, rmax)
            h = r_new - r
            stage_r = r + C[1:stages, None] * h
            flat = K.reshape(stages + 1, -1)
            for s in range(1, stages):
                rhs(stage_r[s - 1], y + h * (A[s, :s] @ flat[:s]).reshape(y.shape), K[s])
            y_new = y + h * (B @ flat[:stages]).reshape(y.shape)
            rhs(r_new, y_new, K[stages])
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            err = _rms(h * (E @ flat).reshape(y.shape) / scale)

            # err == 0 gives MAX_FACTOR through err ** ERROR_EXPONENT = inf, fmax
            # keeps Python's max(MIN_FACTOR, nan), and a retry does not grow
            accepted = err < 1
            factor = SAFETY * err ** ERROR_EXPONENT
            h *= np.where(accepted, np.minimum(np.where(retry, 1.0, MAX_FACTOR), factor),
                          np.fmax(MIN_FACTOR, factor))
            retry = ~accepted

            # a retry below 10 ulp(r) fails at the last radius (so does a
            # NaN step, which would otherwise be retried forever)
            done = retry & ~(h >= min_step)
            for k in np.nonzero(done)[0]:
                errors[int(live[k])] = _underflow_message(r[k])
            steps[live] += accepted
            fell = accepted & (y[0] >= 0) & (y_new[0] <= 0)    # u falls through 0
            rose = accepted & (y[2] <= 0) & (y_new[2] >= 0)    # v rises through 0
            for k in np.nonzero(fell | rose)[0]:
                try:
                    root, e = _first_event(K[:, :, k], r[k], r_new[k], y[:, k],
                                           (fell[k], rose[k]))
                except ValueError as exc:   # no sign change, NaN or no convergence
                    errors[int(live[k])] = str(exc)
                else:
                    verdicts[live[k]], radii[live[k]] = VERDICTS[e], root
                    if path is not None:
                        path.append((root, _dense_state(K[:, :, k], r[k], r_new[k],
                                                        y[:, k], root)))
                done[k] = True
            if path is not None and accepted[0] and not done[0]:
                path.append((float(r_new[0]), y_new[:, 0].tolist()))
            for k in np.nonzero(accepted & (r_new == rmax) & ~done)[0]:
                verdicts[live[k]], radii[live[k]] = "reached-max-radius", rmax
                done[k] = True
            np.copyto(r, r_new, where=accepted)
            np.copyto(y, y_new, where=accepted)
            np.copyto(K[0], K[stages], where=accepted)
            if done.any():
                nfev[live[done]] += stages * passes
                keep = ~done
                live, r, h, retry, nm1, alpha = (
                    a[keep] for a in (live, r, h, retry, nm1, alpha))
                y, K = y.compress(keep, axis=1), K.compress(keep, axis=2)
                rhs = partial(_rhs_batch, nm1, _alpha_runs(alpha, exponents))
    return BatchRun(verdicts, radii, nfev, steps, errors, passes)


# -- scans ---------------------------------------------------------------------------


class ScanCell(NamedTuple):
    """One classified cell of a scan."""
    u0: float
    v0: float
    verdict: str
    termination_radius: float


@dataclass
class ScanSummary:
    n: int
    alpha: float
    rmax: float
    cells: int
    survivors: int
    survival_fraction: float
    verdict_counts: dict
    errors: list


def default_grids(size: int = 10):
    """u0 log-spaced in [0.1, 10], v0 linear in [-10, 0]."""
    u0s = np.logspace(-1, 1, size)
    v0s = np.linspace(-10.0, 0.0, size)
    return u0s, v0s


def scan_shooting(configs, u0_grid, v0_grid,
                  rmax: float = 50.0) -> list[tuple[ScanSummary, list[ScanCell]]]:
    """Classify every grid cell of every (n, alpha) config as ``shoot``
    does, the cells of all configs in one ``shoot_batch``; survivors keep
    u > 0 and v <= 0 to rmax.  Returns (summary, cells) per config, in
    config order.

    Per-cell failures are collected, not fatal: a cell with invalid
    parameters or start values never enters the batch.  Cells whose series
    start is already past a threshold need no integration.  An empty grid
    gives empty tables.  A grid value that is not finite, or a v0 > 0,
    raises ValueError before any cell runs: a per-cell error keeps its
    values, and a report holds finite numbers only.
    """
    u0_grid = [float(u0) for u0 in u0_grid]
    v0_grid = [float(v0) for v0 in v0_grid]
    bad = next((x for x in u0_grid + v0_grid if not math.isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"scan grids must hold finite u0 and v0, got {bad}")
    if any(v > 0 for v in v0_grid):
        raise ValueError("scan grids must keep v0 <= 0")
    tables = []     # per config: a ScanCell, an error, or a row of the batch
    rows, ns, alphas = [], [], []
    for n, alpha in configs:
        cells = []
        for u0 in u0_grid:
            for v0 in v0_grid:
                try:
                    _check_cell(n, alpha, u0, v0)
                    start = series_start(n, alpha, u0, v0)
                except ValueError as exc:  # per-cell, non-fatal
                    cells.append({"u0": u0, "v0": v0, "error": str(exc)})
                    continue
                verdict = _start_verdict(start)
                if verdict:
                    cells.append(ScanCell(u0, v0, verdict, start.r))
                else:
                    cells.append(len(rows))
                    rows.append((u0, v0, (start.u, start.p, start.v, start.q)))
                    ns.append(n)
                    alphas.append(alpha)
        tables.append(cells)
    run = shoot_batch(ns, alphas, [row[2] for row in rows], rmax)
    return [_summarize(n, alpha, rmax, cells, rows, run)
            for (n, alpha), cells in zip(configs, tables)]


def _summarize(n, alpha, rmax, cells, rows, run: BatchRun):
    """(summary, cells) of one config's scan table, its batch rows read
    from ``run``."""
    results, errors = [], []
    for cell in cells:
        if isinstance(cell, int):
            u0, v0, _ = rows[cell]
            if cell in run.errors:
                cell = {"u0": u0, "v0": v0, "error": run.errors[cell]}
            else:
                cell = ScanCell(u0, v0, run.verdicts[cell], float(run.radii[cell]))
        (errors if isinstance(cell, dict) else results).append(cell)
    counts: dict[str, int] = {}
    for cell in results:
        counts[cell.verdict] = counts.get(cell.verdict, 0) + 1
    survivors = counts.get("reached-max-radius", 0)
    total = len(results) + len(errors)
    frac = survivors / total if total else 0.0
    return (ScanSummary(n, alpha, rmax, total, survivors, frac, counts, errors),
            results)


def dump_trajectory_csv(result: ShootingResult, path: str):
    """Checkpoint dump: r, u, p, v, q, Z per line.  Z is nan where u <= 0,
    and on the last row of a positivity-violated path, the root of u, where
    u is only the root's rounding noise."""
    rows = list(zip(result.r.tolist(), *result.y.tolist()))
    root = len(rows) - 1 if result.verdict == "positivity-violated" else None
    with open(path, "w") as fh:
        fh.write("r,u,p,v,q,Z\n")
        for i, (r, u, p, v, q) in enumerate(rows):
            z = monitor_z(result.n, u, p, v) if u > 0 and i != root else math.nan
            fh.write(f"{r!r},{u!r},{p!r},{v!r},{q!r},{z!r}\n")
