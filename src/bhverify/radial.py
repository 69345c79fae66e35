"""Radial shooting laboratory for the fourth-order equation on flat space.

Writing v = Lap(u), a radial solution solves the first-order system

    u' = p,  p' = v - (n-1) p / r,  v' = q,  q' = u^alpha - (n-1) q / r,

started from a series expansion at a small r0 to clear the coordinate
singularity: u ~ u0 + v0 r^2/(2n), v ~ v0 + u0^alpha r^2/(2n).

A trajectory is classified by the first threshold it crosses: positivity of
u fails, subharmonicity fails (v > 0), the solution blows up, or it survives
to the maximum radius.  The nonexistence theorem predicts that no trajectory
with u0 > 0, v0 <= 0 survives with u > 0 and v <= 0; the scan reports the
survival fraction, which is consistency evidence only (finite grids prove
nothing).  Along the valid window (u > 0, v <= 0) the maximum of the
second-order estimate monitor Z = v/u + (2/(n-4)) p^2/u^2 is recorded; the
estimate's hypotheses are global (complete manifold, entire solution), so a
positive maximum on a local trajectory is not a refutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

BLOWUP_THRESHOLD = 1e12
DEFAULT_R0 = 1e-6


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
    verdict: str                     # positivity-violated | subharmonicity-violated
    #                                # | blow-up | reached-max-radius
    termination_radius: float
    r: np.ndarray                    # checkpoint radii
    y: np.ndarray                    # (4, len(r)): u, p, v, q at each radius
    max_z: float | None              # max of v/u + (2/(n-4)) p^2/u^2 on the window

    def survived(self) -> bool:
        return self.verdict == "reached-max-radius"


def series_start(n: int, alpha: float, u0: float, v0: float,
                 r0: float = DEFAULT_R0) -> RadialState:
    """Second-order series expansion around the regular center."""
    ua = u0**alpha
    return RadialState(
        r=r0,
        u=u0 + v0 * r0**2 / (2 * n),
        p=v0 * r0 / n,
        v=v0 + ua * r0**2 / (2 * n),
        q=ua * r0 / n,
    )


def monitor_z(n: int, u, p, v):
    """Second-order estimate monitor Z = v/u + (2/(n-4)) p^2/u^2 (floats or
    arrays, elementwise)."""
    return v / u + 2.0 / (n - 4) * p * p / (u * u)


def shoot(n: int, alpha: float, u0: float, v0: float, rmax: float = 50.0,
          rtol: float = 1e-10, atol: float = 1e-10) -> ShootingResult:
    """Integrate one radial trajectory and classify its termination.

    v0 <= 0 is the subharmonicity hypothesis at the center.  The trajectory
    is kept as the checkpoint arrays of the integrator.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    if alpha <= 1:
        raise ValueError("need alpha > 1")
    if u0 <= 0:
        raise ValueError("need u0 > 0")
    if v0 > 0:
        raise ValueError("v0 > 0 violates the center hypothesis")

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
        return abs(y[0]) - BLOWUP_THRESHOLD
    ev_blowup.terminal = True
    ev_blowup.direction = 1

    start = series_start(n, alpha, u0, v0)
    y0 = [start.u, start.p, start.v, start.q]

    if start.v > 0:
        # v is already positive at the series start (v0 = 0 forces this:
        # v ~ u0^alpha r^2/(2n) > 0); no integration needed
        return ShootingResult(n, alpha, u0, v0, rmax, "subharmonicity-violated",
                              start.r, np.array([start.r]), np.array(y0)[:, None],
                              None)

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
        # step-size underflow near blow-up: report with the last finite state
        verdict, r_end = "blow-up", float(sol.t[-1])

    u, p, v = sol.y[0], sol.y[1], sol.y[2]
    window = (u > 0) & (v <= 0)
    max_z = (float(monitor_z(n, u[window], p[window], v[window]).max())
             if window.any() else None)
    return ShootingResult(n, alpha, u0, v0, rmax, verdict, r_end, sol.t, sol.y, max_z)


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

    def to_dict(self) -> dict:
        return {
            "n": self.n, "alpha": self.alpha, "rmax": self.rmax,
            "cells": self.cells, "survivors": self.survivors,
            "survival_fraction": self.survival_fraction,
            "verdict_counts": self.verdict_counts, "errors": self.errors,
        }


def default_grids(size: int = 10):
    """u0 log-spaced in [0.1, 10], v0 linear in [-10, 0]."""
    u0s = np.logspace(-1, 1, size)
    v0s = np.linspace(-10.0, 0.0, size)
    return u0s, v0s


def scan_shooting(n: int, alpha: float, u0_grid=None, v0_grid=None,
                  rmax: float = 50.0, rtol: float = 1e-10,
                  atol: float = 1e-10) -> tuple[ScanSummary, list[ShootingResult]]:
    """Run shoot on every grid cell; survivors keep u > 0 and v <= 0 to rmax.

    Per-cell failures are collected, not fatal.  An empty grid gives an
    empty table.
    """
    if u0_grid is None or v0_grid is None:
        d_u, d_v = default_grids()
        u0_grid = d_u if u0_grid is None else u0_grid
        v0_grid = d_v if v0_grid is None else v0_grid
    if any(v > 0 for v in v0_grid):
        raise ValueError("scan grids must keep v0 <= 0")
    results, errors = [], []
    counts: dict[str, int] = {}
    for u0 in u0_grid:
        for v0 in v0_grid:
            try:
                res = shoot(n, alpha, float(u0), float(v0), rmax, rtol, atol)
                results.append(res)
                counts[res.verdict] = counts.get(res.verdict, 0) + 1
            except Exception as exc:  # per-cell, non-fatal
                errors.append({"u0": float(u0), "v0": float(v0), "error": str(exc)})
    survivors = sum(1 for r in results if r.survived())
    cells = len(results) + len(errors)
    frac = survivors / cells if cells else 0.0
    return (ScanSummary(n, alpha, rmax, cells, survivors, frac, counts, errors),
            results)


def dump_trajectory_csv(result: ShootingResult, path: str):
    """Checkpoint dump: r, u, p, v, q, Z per line."""
    with open(path, "w") as fh:
        fh.write("r,u,p,v,q,Z\n")
        for r, u, p, v, q in zip(result.r.tolist(), *result.y.tolist()):
            z = monitor_z(result.n, u, p, v) if u > 0 else math.nan
            fh.write(f"{r!r},{u!r},{p!r},{v!r},{q!r},{z!r}\n")
