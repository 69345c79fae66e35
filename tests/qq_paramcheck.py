"""The replaced certificate path and grids, kept as the tests' reference.

``bhverify.paramcheck`` fixes n in a body as a pair (integer
alpha-coefficients, integer denominator), certifies that pair on Python
ints, maps the interval for Descartes' rule by integer Taylor shifts, and
forms the exponent and estimate grids as integer fractions.  Up to their
replacement, at_n returned a polynomial in QALPHA = Q[alpha], certify_sign
cleared its denominators again (_integer_multiple), _descartes_no_root
mapped the interval with one dup_transform, and the grids were built by
Fraction operations.  The functions below are that code, unchanged; the
helpers they share with the package (_horner, _n_tables, exponent_check,
SignCertificate and the grid constants) are imported from it.
"""

import math
from fractions import Fraction

from sympy import QQ, ZZ
from sympy.polys.densetools import dup_transform
from sympy.polys.rings import PolyElement, ring
from sympy.polys.rootisolation import dup_count_real_roots

from bhverify.coeffs import ParamScalar
from bhverify.errors import DegenerateCertificateError, PoleError
from bhverify.paramcheck import (EST1_GRID_POINTS, EXPONENT_GRID_ALPHAS, EXPONENT_GRID_N,
                                 SignCertificate, _horner, _n_tables, exponent_check)


QALPHA, _ = ring("alpha", QQ)


def _integer_multiple(lists: list[list]) -> tuple[list[list[int]], int]:
    """(s * each list on Python ints, s) for the least s > 0 that clears the
    denominator of every coefficient in the lists (QQ's rationals, or
    ints)."""
    s = math.lcm(*(c.denominator for cs in lists for c in cs))
    return [[c.numerator * (s // c.denominator) for c in cs] for cs in lists], s


def at_n(x: ParamScalar, n: int) -> PolyElement:
    """x at integer n as a polynomial in QALPHA.

    Each (alpha, a, b) coefficient of the numerator, and the denominator,
    which lies in Z[n], are evaluated at n by Horner's rule on Python ints
    from x's tables (_n_tables); only their quotients are formed in QQ.  The
    denominator must not vanish, and neither a nor b may survive.
    """
    den, num_table = _n_tables(x)
    d = _horner(den, n, 1)
    if not d:
        raise PoleError(f"n = {n} is a denominator root of {x}")
    num = {rest: _horner(cs, n, 1) for rest, cs in num_table.items()}
    if any(v for (_, a, b), v in num.items() if a or b):
        raise ValueError(f"{x} is not univariate in alpha")
    return QALPHA.from_dict({(k,): QQ(v, d) for (k, _, _), v in num.items() if v})


def _value(ints: list[int], scale: int, x: Fraction) -> Fraction:
    """Exact value at a rational point of the polynomial ints / scale."""
    return Fraction(_horner(ints, x.numerator, x.denominator),
                    scale * x.denominator ** (len(ints) - 1))


def _descartes_no_root(dense: list, a: Fraction, b: Fraction) -> bool:
    """True when Descartes' rule proves that p has no root in (a, b).

    x = (a + b t)/(1 + t) maps (0, inf) onto (a, b).  With a = A/W and
    b = B/W over one denominator W > 0, and p cleared of denominators,
    q(t) = (W + W t)^d p((A + B t)/(W + W t)) is a positive multiple of
    (1+t)^d p((a + b t)/(1 + t)) with integer coefficients, formed over ZZ
    by sympy's dup_transform.  If q's nonzero coefficients share one sign,
    q has no positive root.  False proves nothing.  dense holds ints or
    QQ's rationals.
    """
    (p,), _ = _integer_multiple([dense])
    w = math.lcm(a.denominator, b.denominator)
    q = dup_transform(p, [b.numerator * (w // b.denominator), a.numerator * (w // a.denominator)],
                      [w, w], ZZ)
    return all(c >= 0 for c in q) or all(c <= 0 for c in q)


def certify_sign(name: str, poly: PolyElement, n: int,
                 interval: tuple[Fraction, Fraction]) -> SignCertificate:
    """Exact one-signedness verdict on a nonempty open interval (a, b).

    The polynomial's denominators are cleared once: the values at a, b and
    the midpoint come from homogeneous Horner on its integer multiple
    (_value), and the root count is 0 when Descartes' rule proves it after
    the interval is mapped onto (0, inf) (_descartes_no_root, over ZZ).
    Otherwise sympy's Sturm-sequence count covers the closed interval
    [a, b], and roots sitting exactly at the endpoints are taken off, so the
    recorded count refers to the interior only.
    """
    a, b = Fraction(interval[0]), Fraction(interval[1])
    if not a < b:
        raise DegenerateCertificateError(f"{name}: empty interval ({a}, {b})")
    if not poly:
        raise DegenerateCertificateError(f"{name}: zero polynomial on [{a}, {b}]")
    dense = poly.to_dense()
    (ints,), scale = _integer_multiple([dense])
    ends = (_value(ints, scale, a), _value(ints, scale, b))
    if _descartes_no_root(ints, a, b):
        roots = 0
    else:
        closed = dup_count_real_roots(dense, QQ, inf=QQ.convert(a), sup=QQ.convert(b))
        roots = closed - sum(1 for v in ends if not v)
    mid = (a + b) / 2
    sample = _value(ints, scale, mid)
    if roots == 0 and sample > 0:
        verdict = "positive"
    elif roots == 0 and sample < 0:
        verdict = "negative"
    else:
        verdict = "not-one-signed"
    return SignCertificate(name, n, (a, b), roots, ends,
                           {"point": mid, "value": sample}, verdict)


def est1_coefficient(n: int, a: Fraction) -> Fraction:
    """Cubic coefficient (a/n)(1+2a)(2-(n-4)a) of the Bernstein estimate."""
    a = Fraction(a)
    return a / n * (1 + 2 * a) * (2 - (n - 4) * a)


def est1_grid_check(n: int) -> dict:
    """Exact positivity of the cubic coefficient on an interior a-grid of
    EST1_GRID_POINTS points."""
    upper = Fraction(2, n - 4)
    count = EST1_GRID_POINTS
    points = [Fraction(k, count + 1) * upper for k in range(1, count + 1)]
    values = [est1_coefficient(n, a) for a in points]
    return {
        "n": n,
        "count": count,
        "all_positive": all(v > 0 for v in values),
        "min_value": str(min(values)),
        "endpoint_value": str(est1_coefficient(n, upper)),
    }


def exponent_grid_check() -> dict:
    """Exact exponent checks on the rational grid of EXPONENT_GRID_ALPHAS
    interior alphas for each n in EXPONENT_GRID_N; returns per-point records
    plus summary flags (the chain fails at n = 5, the exponent never does)."""
    records = []
    for n in EXPONENT_GRID_N:
        upper = Fraction(n + 4, n - 4)
        for k in range(1, EXPONENT_GRID_ALPHAS + 1):
            alpha = 1 + Fraction(k, EXPONENT_GRID_ALPHAS + 1) * (upper - 1)
            records.append(exponent_check(n, alpha))
    return {
        "points": len(records),
        "gamma_always_at_least_six": all(r.gamma_at_least_six for r in records),
        "chain_holds_everywhere": all(r.chain_holds for r in records),
        "chain_failures": [(r.n, str(r.alpha)) for r in records if not r.chain_holds],
        "exponent_negative_everywhere": all(r.exponent_negative for r in records),
        "records": records,
    }
