"""The replaced record conversion, eigenvalue scan, exponent check,
coefficient equality, estimate grid and report rendering, kept as the tests'
reference.

``bhverify.report.jsonable`` now dispatches on the exact type of a value
alone and refuses subclasses, ``paramcheck.numeric_pd_scan`` evaluates a
block of n at once, ``paramcheck.exponent_check`` decides its verdicts on
integer cross-products, ``ParamScalar.__eq__`` compares two constants by
their ground values, ``paramcheck.est1_grid_check`` decides on integer
numerators, ``paramcheck.at_n`` evaluates its n-tables by a plain Horner
loop and ``report.render_json`` writes the exact types ``jsonable`` returns
in one recursive pass and refuses a non-finite float.  Up to that change
they were the functions below, unchanged; the helpers they share
with the package (``PDReport``, ``ExponentCheck``, ``_eigmin_sym3``,
``est1_coefficient``, ``_horner``, ``_n_tables``, the cached matrix and
certificates) are imported from it.
"""

import json
import math
from dataclasses import is_dataclass
from fractions import Fraction

import numpy as np

from bhverify.coeffs import ParamScalar
from bhverify.errors import EngineInconsistencyError, PoleError
from bhverify.paramcheck import (EST1_GRID_POINTS, ExponentCheck, PDReport, _eigmin_sym3,
                                 _horner, _n_tables, build_matrix_A, est1_coefficient,
                                 sylvester_certificates)


def jsonable(x):
    """JSON data of a result record: a dataclass becomes the dict of its
    fields, a tuple or list a list and a dict a dict, recursively; exact
    numbers (``Fraction``, ``ParamScalar``) become their ``str``; ``str``,
    ``int``, ``float``, ``bool`` and ``None`` pass unchanged.  Any other type
    raises ``TypeError``."""
    if x is None or isinstance(x, (str, int, float)):
        return x
    if isinstance(x, (Fraction, ParamScalar)):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if is_dataclass(x):
        return jsonable(vars(x))
    raise TypeError(f"no JSON form for {type(x).__name__}: {x!r}")


def numeric_pd_scan(n_values, grid: int = 1000) -> PDReport:
    """Minimal eigenvalue of A on a strictly interior alpha grid per n.

    The entries at n come from entry_polys_in_alpha, and each integer
    coefficient c over the denominator d is floated as c / d, one correctly
    rounded division.  The sign at every point must agree with the
    Sylvester certificates (which assert positivity on the whole open
    interval); disagreement is an engine inconsistency and is fatal.
    """
    per_n_min: dict[str, float] = {}
    best = {"n": None, "alpha": None}
    min_lambda = math.inf
    mat = build_matrix_A()
    for n in n_values:
        entries = mat.entry_polys_in_alpha(int(n))
        upper = (n + 4) / (n - 4)
        alphas = np.linspace(0.0, upper, grid + 2)[1:-1]
        vals = [np.polyval([c / d for c in coeffs], alphas) for coeffs, d in entries.values()]
        lam = _eigmin_sym3(*vals)
        i = int(np.argmin(lam))
        per_n_min[str(int(n))] = float(lam[i])
        if lam[i] < min_lambda:
            min_lambda = float(lam[i])
            best = {"n": int(n), "alpha": float(alphas[i])}
    all_positive = min_lambda > 0.0
    cert_positive = all(c.verdict == "positive" for n in n_values
                        for c in sylvester_certificates(int(n)))
    if cert_positive != all_positive:
        raise EngineInconsistencyError(
            "numeric eigenvalue sign disagrees with the Sylvester certificates")
    return PDReport(list(int(v) for v in n_values), grid, min_lambda, best,
                    per_n_min, all_positive, True)


def exponent_check(n: int, alpha: Fraction) -> ExponentCheck:
    """The exponent arithmetic at alpha = p/q: gamma, the final exponent and
    the bound each come from one integer numerator over one integer
    denominator, with alpha - 1 = (p - q)/q cleared."""
    alpha = Fraction(alpha)
    if n < 5:
        raise ValueError("need n >= 5")
    if not (1 < alpha < Fraction(n + 4, n - 4)):
        raise ValueError("alpha outside the subcritical range")
    p, q = alpha.numerator, alpha.denominator
    gamma = max(Fraction(6), Fraction((6 * n + 16) * p - 2 * (n + 4) * q, (n + 4) * (p - q)))
    x = Fraction((n * n - 2 * n - 16) * p - (n + 2) * (n + 4) * q, (n + 4) * (p - q))
    bound = Fraction(-8 * q, (n - 4) * (p - q))
    return ExponentCheck(
        n=n, alpha=alpha, gamma=gamma,
        final_exponent=x, bound=bound,
        gamma_at_least_six=(gamma >= 6),
        chain_holds=(x < bound < 0),
        exponent_negative=(x < 0),
    )


def scalar_eq(self, other) -> bool:
    """ParamScalar.__eq__: both sides' normalized polynomials compared."""
    if isinstance(other, (int, Fraction)):
        other = ParamScalar.coerce(other)
    if not isinstance(other, ParamScalar):
        return NotImplemented
    return self.num == other.num and self.den == other.den


def est1_grid_check(n: int) -> dict:
    """Exact positivity of the cubic coefficient on the EST1_GRID_POINTS
    interior points a = 2k / ((EST1_GRID_POINTS + 1)(n - 4)) of (0, 2/(n-4))."""
    upper = Fraction(2, n - 4)
    count = EST1_GRID_POINTS
    values = [est1_coefficient(n, Fraction(2 * k, (count + 1) * (n - 4)))
              for k in range(1, count + 1)]
    return {
        "n": n,
        "count": count,
        "all_positive": all(v > 0 for v in values),
        "min_value": str(min(values)),
        "endpoint_value": str(est1_coefficient(n, upper)),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def at_n(x: ParamScalar, n: int) -> tuple[list[int], int]:
    """x at integer n as (coeffs, d): x = (sum coeffs[k] alpha^(deg - k)) / d.

    coeffs are the integer alpha-coefficients, highest degree first, with
    leading zeros stripped ([] for zero), and d is the value of x's
    denominator, which lies in Z[n].  Each is evaluated at n by Horner's
    rule on Python ints from x's tables (_n_tables).  The denominator must
    not vanish, and neither a nor b may survive.
    """
    den, num_table = _n_tables(x)
    d = _horner(den, n, 1)
    if not d:
        raise PoleError(f"n = {n} is a denominator root of {x}")
    by_degree = {}
    for (k, a, b), cs in num_table.items():
        if v := _horner(cs, n, 1):
            if a or b:
                raise ValueError(f"{x} is not univariate in alpha")
            by_degree[k] = v
    return [by_degree.get(k, 0) for k in range(max(by_degree, default=-1), -1, -1)], d
