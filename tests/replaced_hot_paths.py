"""The replaced record conversion, eigenvalue scan, exponent check and
coefficient equality, kept as the tests' reference.

``bhverify.report.jsonable`` now dispatches on the exact type of a value
before its ``isinstance`` chain, ``paramcheck.numeric_pd_scan`` evaluates a
block of n at once, ``paramcheck.exponent_check`` decides its verdicts on
integer cross-products, and ``ParamScalar.__eq__`` compares two constants by
their ground values.  Up to that change they were the functions below,
unchanged; the helpers they share with the package (``PDReport``,
``ExponentCheck``, ``_eigmin_sym3``, the cached matrix and certificates) are
imported from it.
"""

import math
from dataclasses import is_dataclass
from fractions import Fraction

import numpy as np

from bhverify.coeffs import ParamScalar
from bhverify.errors import EngineInconsistencyError
from bhverify.paramcheck import (ExponentCheck, PDReport, _eigmin_sym3, build_matrix_A,
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
