"""The single-trajectory shooter that integrated with scipy's ``solve_ivp``,
copied verbatim from ``bhverify.radial`` when ``radial.shoot`` became one
cell of ``shoot_batch``.  It is the scipy reference that the differential
tests in test_radial.py hold the batch and ``radial.shoot`` to."""

import numpy as np
from scipy.integrate import solve_ivp

from bhverify.radial import (ATOL, RTOL, ShootingResult, _check_cell, _start_verdict,
                             _underflow_message, series_start)


def shoot(n: int, alpha: float, u0: float, v0: float,
          rmax: float = 50.0) -> ShootingResult:
    """Integrate one radial trajectory with solve_ivp and classify its
    termination.

    v0 <= 0 is the subharmonicity hypothesis at the center.  The trajectory
    is kept as the checkpoint arrays of the integrator.  A step-size
    underflow raises ValueError.
    """
    _check_cell(n, alpha, u0, v0)

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

    start = series_start(n, alpha, u0, v0)
    y0 = [start.u, start.p, start.v, start.q]

    verdict = _start_verdict(start)
    if verdict:     # no integration needed
        return ShootingResult(n, alpha, u0, v0, rmax, verdict, start.r,
                              np.array([start.r]), np.array(y0)[:, None])

    sol = solve_ivp(rhs, (start.r, rmax), y0, rtol=RTOL, atol=ATOL,
                    events=[ev_positivity, ev_subharmonicity], dense_output=False)

    if sol.status == -1:
        raise ValueError(_underflow_message(sol.t[-1]))
    if sol.status == 0:
        verdict, r_end = "reached-max-radius", float(sol.t[-1])
    elif len(sol.t_events[0]):
        verdict, r_end = "positivity-violated", float(sol.t_events[0][0])
    else:
        verdict, r_end = "subharmonicity-violated", float(sol.t_events[1][0])
    return ShootingResult(n, alpha, u0, v0, rmax, verdict, r_end, sol.t, sol.y)
