"""Exact analysis of the coefficient matrix and every parameter-range claim.

The 3x3 symmetric coefficient matrix A of the master identity's quadratic
form is positive definite for 0 < alpha < (n+4)/(n-4); this module certifies
that with exact arithmetic: the minor/determinant factorizations through the
auxiliary polynomials f1, f2, f3 are checked as polynomial identities in
formal (n, alpha), and positivity on the stated open intervals is certified
per integer n on Python ints (a root count plus an interior sample).

The five certified polynomials (f1, f3 and the leading principal minors of
A) are formed once in formal (n, alpha).  at_n fixes n in a body, and in
the upper end of its interval, by Horner's rule on Python ints over the
body's integer numerator and denominator, tabled once as dense polynomials
in n; every denominator lies in Z[n], so the result is a pair (integer
alpha-coefficients, integer denominator), and no rational number is formed.
A certificate reads that pair as it is: its values at rational points are
homogeneous Horner sums, and its root count is Descartes' rule of signs
after a Moebius map of the interval onto (0, inf) (Vincent;
Collins-Akritas), the map made of sympy's Taylor shifts over ZZ.  A Sturm
count, sympy's, runs only when sign changes remain.  A floating-point
minimal-eigenvalue scan reads the entries of A specialized the same way,
each coefficient one correctly rounded integer division, evaluates a block
of n at once, cross-checks the certificates and reports the positivity
margin.

The module also carries the small exact checks used by the blow-down
argument: the cubic coefficient of the Bernstein estimate, the exponent
gamma, and the final exponent inequality chain (which fails for n = 5 even
though the exponent itself stays negative; see linear_reduction_certificate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from sympy import QQ, ZZ
from sympy.polys.densetools import dup_scale, dup_shift
from sympy.polys.rootisolation import dup_count_real_roots

from .coeffs import ALPHA, A, N, ParamScalar, _dense_in_n, ps
from .errors import DegenerateCertificateError, EngineInconsistencyError, PoleError
from .registry import F1_COEFFS, F2_COEFFS, F3_COEFFS, build_named, poly_apply

# -- univariate integer polynomials in alpha at fixed n -------------------------


def _horner(coeffs: list[int], u: int, w: int) -> int:
    """w^d p(u/w) for the integer polynomial p = coeffs of degree d (highest
    degree first), by homogeneous Horner: exact, with no fraction formed."""
    v, w_pow = 0, 1
    for c in coeffs:
        v = v * u + c * w_pow
        w_pow *= w
    return v


@lru_cache(maxsize=64)
def _n_tables(x: ParamScalar) -> tuple[list[int], dict[tuple, list[int]]]:
    """x's denominator, which lies in Z[n], as a dense list, and the
    ``_dense_in_n`` table of its numerator, both on Python ints as x stores
    them; formed once per body."""
    (den,) = _dense_in_n(x.den).values()
    return den, _dense_in_n(x.num)


def at_n(x: ParamScalar, n: int) -> tuple[list[int], int]:
    """x at integer n as (coeffs, d): x = (sum coeffs[k] alpha^(deg - k)) / d.

    coeffs are the integer alpha-coefficients, highest degree first, with
    leading zeros stripped ([] for zero), and d is the value of x's
    denominator, which lies in Z[n].  Each is evaluated at n by Horner's
    rule on Python ints from x's tables (_n_tables).  The denominator must
    not vanish, and neither a nor b may survive.
    """
    den, num_table = _n_tables(x)
    d = 0
    for c in den:
        d = d * n + c
    if not d:
        raise PoleError(f"n = {n} is a denominator root of {x}")
    by_degree = {}
    for (k, a, b), cs in num_table.items():
        v = 0
        for c in cs:
            v = v * n + c
        if v:
            if a or b:
                raise ValueError(f"{x} is not univariate in alpha")
            by_degree[k] = v
    return [by_degree.get(k, 0) for k in range(max(by_degree, default=-1), -1, -1)], d


def _value(coeffs: list[int], d: int, x: Fraction) -> Fraction:
    """Exact value at a rational point of the polynomial coeffs / d."""
    return Fraction(_horner(coeffs, x.numerator, x.denominator),
                    d * x.denominator ** (len(coeffs) - 1))


@dataclass(frozen=True)
class SignCertificate:
    poly: str
    n: int
    interval: tuple[Fraction, Fraction]
    # distinct roots in the open interval, whichever route counted them
    # (Descartes or Sturm); the name waits for the report's schema v3
    sturm_root_count: int
    endpoint_values: tuple[Fraction, Fraction]
    interior_sample: dict[str, Fraction]          # {"point", "value"}
    verdict: str                                  # "positive" | "negative" | "not-one-signed"


def _descartes_no_root(coeffs: list[int], a: Fraction, b: Fraction) -> bool:
    """True when Descartes' rule proves that the integer polynomial p =
    coeffs (highest degree first) has no root in (a, b).

    x = (a + b t)/(1 + t) maps (0, inf) onto (a, b).  With a = A/W and
    b = B/W over one denominator W > 0, q(t) = (W + W t)^d p((A + B t)/(W + W t))
    is a positive multiple of (1+t)^d p((a + b t)/(1 + t)) with integer
    coefficients, formed by Taylor shifts over ZZ: r(y) = W^d p(y/W) (each
    coefficient scaled by a power of W), shifted by A, scaled by B - A,
    reversed, shifted by 1 and reversed again.  If q's nonzero coefficients
    share one sign, q has no positive root.  False proves nothing.
    """
    w = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (w // a.denominator), b.numerator * (w // b.denominator)
    q = [c * w**k for k, c in enumerate(coeffs)]
    if lo:
        q = dup_shift(q, lo, ZZ)
    q = dup_shift(dup_scale(q, hi - lo, ZZ)[::-1], 1, ZZ)[::-1]
    return all(c >= 0 for c in q) or all(c <= 0 for c in q)


def certify_sign(name: str, poly: tuple[list[int], int], n: int,
                 interval: tuple[Fraction, Fraction]) -> SignCertificate:
    """Exact one-signedness verdict of poly = (coeffs, d), the polynomial
    coeffs / d as at_n returns it, on a nonempty open interval (a, b).

    The values at a, b and the midpoint come from homogeneous Horner on the
    integer coefficients (_value), and the root count is 0 when Descartes'
    rule proves it after the interval is mapped onto (0, inf)
    (_descartes_no_root, over ZZ).  Otherwise sympy's Sturm-sequence count
    of the integer coefficients covers the closed interval [a, b], and roots
    sitting exactly at the endpoints are taken off, so the recorded count
    refers to the interior only.
    """
    coeffs, d = poly
    a, b = interval
    if type(a) is not Fraction or type(b) is not Fraction:
        a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise DegenerateCertificateError(f"{name}: empty interval ({a}, {b})")
    if not coeffs:
        raise DegenerateCertificateError(f"{name}: zero polynomial on [{a}, {b}]")
    ends = (_value(coeffs, d, a), _value(coeffs, d, b))
    if _descartes_no_root(coeffs, a, b):
        roots = 0
    else:
        closed = dup_count_real_roots(coeffs, ZZ, inf=QQ.convert(a), sup=QQ.convert(b))
        roots = closed - sum(1 for v in ends if not v)
    mid = Fraction(a.numerator * b.denominator + b.numerator * a.denominator,
                   2 * a.denominator * b.denominator)
    sample = _value(coeffs, d, mid)
    if roots == 0 and sample.numerator > 0:
        verdict = "positive"
    elif roots == 0 and sample.numerator < 0:
        verdict = "negative"
    else:
        verdict = "not-one-signed"
    return SignCertificate(name, n, (a, b), roots, ends,
                           {"point": mid, "value": sample}, verdict)


# -- the coefficient matrix ----------------------------------------------------


_ENTRIES = ("A11", "A12", "A13", "A22", "A23", "A33")


@dataclass(frozen=True)
class MatrixA:
    """Symmetric 3x3 coefficient matrix of the master quadratic form.

    The entries are exact rational functions in (n, alpha); minor2 and det
    need only ring operations.  entry_polys_in_alpha fixes n in each entry
    by at_n, as an integer coefficient list over an integer denominator.
    Fixing an integer n >= 5 is a ring homomorphism on the entries (their
    denominators are products of n - 1, n - 4 and n + 4), so the minors of
    the specialized entries are the specialized minors.
    """
    A11: ParamScalar
    A12: ParamScalar
    A13: ParamScalar
    A22: ParamScalar
    A23: ParamScalar
    A33: ParamScalar

    def minor2(self):
        return self.A11 * self.A22 - self.A12 * self.A12

    def det(self):
        return (self.A11 * (self.A22 * self.A33 - self.A23 * self.A23)
                - self.A12 * (self.A12 * self.A33 - self.A23 * self.A13)
                + self.A13 * (self.A12 * self.A23 - self.A22 * self.A13))

    def entry_polys_in_alpha(self, n: int) -> dict[str, tuple[list[int], int]]:
        return {name: at_n(getattr(self, name), n) for name in _ENTRIES}


@lru_cache(maxsize=None)
def build_matrix_A() -> MatrixA:
    """Entries from the catalog; the quartic display route for A11 is checked
    against the c1/c2 construction and any mismatch is fatal."""
    a11 = build_named("A11")
    if not (a11 == build_named("A11_display")):
        raise EngineInconsistencyError("the two constructions of A11 disagree")
    return MatrixA(**{k: build_named(k) for k in _ENTRIES})


@lru_cache(maxsize=None)
def certified_polys() -> dict[str, tuple[ParamScalar, ParamScalar]]:
    """The five certified polynomials in formal (n, alpha), each with the
    upper end of the open interval (0, upper) it is positive on.

    f1 and f3 carry their variable x in the alpha slot; A11, minor2 and detA
    are the leading principal minors of A.  Formed once per process.
    """
    mat = build_matrix_A()
    critical = (N + 4) / (N - 4)
    return {"f1": (poly_apply(F1_COEFFS, ALPHA), 1 / (N - 2)),
            "f3": (poly_apply(F3_COEFFS, ALPHA), 1 / (N - 4)),
            "A11": (mat.A11, critical),
            "minor2": (mat.minor2(), critical),
            "detA": (mat.det(), critical)}


# -- factorization identities ---------------------------------------------------


@dataclass
class MinorFormulaReport:
    minor2_vs_f1: bool
    det_vs_f2: bool
    f2_reduction_to_f3: bool
    f1_at_zero: bool
    f1_at_upper: bool
    f3_at_zero: bool
    f3_upper_computed: str
    f3_upper_printed: str
    f3_upper_matches_printed: bool
    f3_upper_corrected: str
    f3_upper_matches_corrected: bool

    def all_core_identities_hold(self) -> bool:
        return (self.minor2_vs_f1 and self.det_vs_f2 and self.f2_reduction_to_f3
                and self.f1_at_zero and self.f1_at_upper and self.f3_at_zero)


def check_minor_formulas() -> MinorFormulaReport:
    """Verify the minor/determinant factorizations as exact identities in
    formal (n, alpha), plus the endpoint formulas of f1 and f3.

    The upper endpoint of f3 is compared against both the printed display
    (with its (n-2)^2 factor) and the corrected one (single factor n-2);
    the printed one fails, which the report records.
    """
    polys = certified_polys()
    x13 = (N - 4) * ALPHA / ((N - 2) * (N + 4))
    minor_claim = ((N - 2) ** 2 / (2 * (N - 1) ** 2 * (N - 4) ** 2)
                   * poly_apply(F1_COEFFS, x13))
    det_claim = (N * ALPHA**2 / (64 * (N - 1) ** 2 * (N + 4) ** 2)
                 * (1 / (N - 4) - ALPHA / (N + 4))
                 * poly_apply(F2_COEFFS, ALPHA / (N + 4)))

    # cubic-to-quadratic reduction pattern: f2(x) = C3*(x^3 - x^2/(n-4)) + (n-2)*f3(x)
    x = A  # spare formal variable standing for the argument x
    c3 = F2_COEFFS[3]
    reduction = (poly_apply(F2_COEFFS, x) - (N - 2) * poly_apply(F3_COEFFS, x)
                 - c3 * (x**3 - x**2 / (N - 4)))

    f1_zero = poly_apply(F1_COEFFS, ps(0))
    f1_upper = poly_apply(F1_COEFFS, 1 / (N - 2))
    f3_zero = poly_apply(F3_COEFFS, ps(0))
    f3_upper = poly_apply(F3_COEFFS, 1 / (N - 4))
    printed = 64 * (N - 2) ** 2 * (4 * N**3 - 13 * N**2 + 24 * N - 16) / (N - 4) ** 2
    corrected = 64 * (N - 2) * (4 * N**3 - 13 * N**2 + 24 * N - 16) / (N - 4) ** 2

    return MinorFormulaReport(
        minor2_vs_f1=(polys["minor2"][0] == minor_claim),
        det_vs_f2=(polys["detA"][0] == det_claim),
        f2_reduction_to_f3=reduction.is_zero,
        f1_at_zero=(f1_zero == 4 * (N + 2) * (N - 4)),
        f1_at_upper=(f1_upper == (8 * N**3 - 26 * N**2 + 48 * N - 32) / (N - 2) ** 2),
        f3_at_zero=(f3_zero == (N - 2) * (N - 4) * (7 * N + 32)),
        f3_upper_computed=str(f3_upper),
        f3_upper_printed=str(printed),
        f3_upper_matches_printed=(f3_upper == printed),
        f3_upper_corrected=str(corrected),
        f3_upper_matches_corrected=(f3_upper == corrected),
    )


# -- per-n positivity certificates ----------------------------------------------


_SYLVESTER = ("A11", "minor2", "detA")


def positivity_certificate(poly_id: str, n: int) -> SignCertificate:
    """Certified sign of one of the named polynomials at integer n >= 5
    (certify_sign: Descartes after the interval map, Sturm as the fallback).

    Known ids: f1 on (0, 1/(n-2)); f3 on (0, 1/(n-4)); A11, minor2, detA in
    alpha on (0, (n+4)/(n-4)).  The body and the upper end are both fixed
    at n by at_n; the end is the one coefficient of its result over its
    denominator.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 5:
        raise ValueError(f"certificates require an integer n >= 5, got n = {n!r}")
    table = certified_polys()
    if poly_id not in table:
        raise KeyError(f"unknown certificate polynomial {poly_id!r}")
    body, upper = table[poly_id]
    (end,), d = at_n(upper, n)
    return certify_sign(poly_id, at_n(body, n), n, (Fraction(0), Fraction(end, d)))


@lru_cache(maxsize=None)
def sylvester_certificates(n: int) -> tuple[SignCertificate, ...]:
    """The leading-principal-minor triple of A on the subcritical range.

    Cached: params and the eigenvalue scan of one run share the triples.
    """
    return tuple(positivity_certificate(p, n) for p in _SYLVESTER)


def all_certificates(n: int) -> list[SignCertificate]:
    return [positivity_certificate("f1", n), positivity_certificate("f3", n),
            *sylvester_certificates(n)]


# -- numeric minimal-eigenvalue scan ---------------------------------------------


@dataclass
class PDReport:
    n_values: list[int]
    grid: int
    min_lambda: float
    argmin: dict[str, int | float]      # {"n", "alpha"}
    per_n_min: dict[str, float]         # keyed by str(n)
    all_positive: bool
    agrees_with_certificates: bool


def _eigmin_sym3(a11, a12, a13, a22, a23, a33):
    """Smallest root of the characteristic cubic of a symmetric 3x3 matrix,
    vectorized over numpy arrays (trigonometric solution)."""
    q = (a11 + a22 + a33) / 3.0
    p1 = a12**2 + a13**2 + a23**2
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    b11, b22, b33 = a11 - q, a22 - q, a33 - q
    detb = (b11 * (b22 * b33 - a23**2) - a12 * (a12 * b33 - a23 * a13)
            + a13 * (a12 * a23 - b22 * a13))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0, detb / (2.0 * p**3), 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    return np.where(p > 0, q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), q)


# alpha points per block of the eigenvalue scan: a block holds
# max(1, _SCAN_BLOCK_POINTS // grid) values of n, so its arrays stay small
_SCAN_BLOCK_POINTS = 8000


def _entry_values(mat: MatrixA, block: list[int], alphas: np.ndarray) -> list[np.ndarray]:
    """The six entries of A at each n of block on its row of alphas, each a
    (len(block), grid) array.

    For each entry, every coefficient c over the denominator d is floated
    as c / d and put right-aligned into a table zero-padded to the entry's
    longest row, which is evaluated by Horner's rule in place.  Every point
    sees the operations of ``np.polyval`` on its own coefficients (the
    padding contributes exact zeros before the leading coefficient), so the
    values are the same to the bit.
    """
    polys = [mat.entry_polys_in_alpha(n) for n in block]
    vals = []
    for name in _ENTRIES:
        rows = [p[name] for p in polys]
        width = max(1, *(len(cs) for cs, _ in rows))
        table = np.array([[0.0] * (width - len(cs)) + [c / d for c in cs] for cs, d in rows])
        y = np.empty(alphas.shape)
        y[...] = table[:, :1]
        for k in range(1, width):
            y *= alphas
            y += table[:, k:k + 1]
        vals.append(y)
    return vals


def numeric_pd_scan(n_values, grid: int = 1000) -> PDReport:
    """Minimal eigenvalue of A on a strictly interior alpha grid per n.

    The entries at n come from entry_polys_in_alpha, and each integer
    coefficient c over the denominator d is floated as c / d, one correctly
    rounded division.  The values of n are read once; each must be an int
    n >= 5, and there must be at least one.  They are scanned in blocks of
    max(1, _SCAN_BLOCK_POINTS // grid) rows (_entry_values), with the same
    floats as one n at a time.  A non-finite eigenvalue is an engine
    inconsistency.  The sign at every point must agree with the Sylvester
    certificates (which assert positivity on the whole open interval);
    disagreement is an engine inconsistency and is fatal.
    """
    n_values = list(n_values)
    if not n_values:
        raise ValueError("the eigenvalue scan needs at least one n")
    for n in n_values:
        if isinstance(n, bool) or not isinstance(n, int) or n < 5:
            raise ValueError(f"the eigenvalue scan requires integers n >= 5, got n = {n!r}")
    if grid < 1:
        raise ValueError(f"the eigenvalue scan needs grid >= 1, got {grid!r}")
    n_values = [int(n) for n in n_values]
    per_n_min: dict[str, float] = {}
    best = {"n": None, "alpha": None}
    min_lambda = math.inf
    mat = build_matrix_A()
    rows = max(1, _SCAN_BLOCK_POINTS // grid)
    for start in range(0, len(n_values), rows):
        block = n_values[start:start + rows]
        uppers = [(n + 4) / (n - 4) for n in block]
        alphas = np.ascontiguousarray(np.linspace(0.0, uppers, grid + 2, axis=1)[:, 1:-1])
        lam = _eigmin_sym3(*_entry_values(mat, block, alphas))
        if not np.isfinite(lam).all():
            raise EngineInconsistencyError(
                f"non-finite minimal eigenvalue in the scan of n = {block[0]}..{block[-1]}")
        for r, i in enumerate(np.argmin(lam, axis=1).tolist()):
            low = float(lam[r, i])
            per_n_min[str(block[r])] = low
            if low < min_lambda:
                min_lambda = low
                best = {"n": block[r], "alpha": float(alphas[r, i])}
    all_positive = min_lambda > 0.0
    cert_positive = all(c.verdict == "positive" for n in n_values
                        for c in sylvester_certificates(n))
    if cert_positive != all_positive:
        raise EngineInconsistencyError(
            "numeric eigenvalue sign disagrees with the Sylvester certificates")
    return PDReport(n_values, grid, min_lambda, best, per_n_min, all_positive, True)


# -- auxiliary coefficient and exponent checks ------------------------------------

EST1_GRID_POINTS = 20           # interior a-points per n
EXPONENT_GRID_N = range(5, 25)
EXPONENT_GRID_ALPHAS = 20       # interior alphas per n


def est1_coefficient(n: int, a: Fraction) -> Fraction:
    """Cubic coefficient (a/n)(1+2a)(2-(n-4)a) of the Bernstein estimate, at
    a = p/q one integer fraction p(q+2p)(2q-(n-4)p) / (n q^3)."""
    if n < 5:
        raise ValueError("need n >= 5")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction(p * (q + 2 * p) * (2 * q - (n - 4) * p), n * q**3)


def est1_grid_check(n: int) -> dict:
    """Exact positivity of the cubic coefficient on the EST1_GRID_POINTS
    interior points a = 2k / ((EST1_GRID_POINTS + 1)(n - 4)) of (0, 2/(n-4)).

    At a = p/q with p = 2k, q = (EST1_GRID_POINTS + 1)(n - 4), unreduced,
    the coefficient is est1_coefficient's p(q+2p)(2q-(n-4)p) over the
    positive n q^3, the same denominator at every point: the sign and the
    minimum are read from the numerators, and the minimum's Fraction is
    formed once.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    count = EST1_GRID_POINTS
    q = (count + 1) * (n - 4)
    nums = [p * (q + 2 * p) * (2 * q - (n - 4) * p) for p in range(2, 2 * count + 1, 2)]
    return {
        "n": n,
        "count": count,
        "all_positive": min(nums) > 0,
        "min_value": str(Fraction(min(nums), n * q**3)),
        "endpoint_value": str(est1_coefficient(n, Fraction(2, n - 4))),
    }


@dataclass
class ExponentCheck:
    """Exact verdicts of the blow-down exponent arithmetic at one (n, alpha)."""
    n: int
    alpha: Fraction
    gamma: Fraction
    final_exponent: Fraction      # ((n^2-2n-16)a - (n+2)(n+4)) / ((n+4)(a-1))
    bound: Fraction               # -8 / ((n-4)(a-1))
    gamma_at_least_six: bool
    chain_holds: bool             # final_exponent < bound < 0
    exponent_negative: bool       # final_exponent < 0


def exponent_check(n: int, alpha: Fraction) -> ExponentCheck:
    """The exponent arithmetic at alpha = p/q, decided on integers.

    With den = (n+4)(p-q), positive on the range, gamma's raw value is
    g / den with g = (6n+16)p - 2(n+4)q, the final exponent is x / den with
    x = (n^2-2n-16)p - (n+2)(n+4)q, and the bound is -8q / ((n-4)(p-q)).
    The range test 1 < alpha < (n+4)/(n-4), gamma = max(6, g / den) and the
    chain x / den < bound (the bound is negative on the range) are integer
    cross-products; each Fraction is formed once, for the record.
    """
    if type(alpha) is not Fraction:
        alpha = Fraction(alpha)
    if n < 5:
        raise ValueError("need n >= 5")
    p, q = alpha.numerator, alpha.denominator
    if not (q < p and (n - 4) * p < (n + 4) * q):
        raise ValueError("alpha outside the subcritical range")
    den = (n + 4) * (p - q)
    g = (6 * n + 16) * p - 2 * (n + 4) * q
    x = (n * n - 2 * n - 16) * p - (n + 2) * (n + 4) * q
    gamma = Fraction(g, den) if g > 6 * den else Fraction(6)
    return ExponentCheck(
        n=n, alpha=alpha, gamma=gamma,
        final_exponent=Fraction(x, den), bound=Fraction(-8 * q, (n - 4) * (p - q)),
        gamma_at_least_six=(gamma >= 6),
        chain_holds=((n - 4) * x < -8 * q * (n + 4)),
        exponent_negative=(x < 0),
    )


def linear_reduction_certificate(n: int) -> dict:
    """Clearing denominators, the chain final_exponent < bound reduces to
    L(alpha) = (n-4)(n^2-2n-16) alpha - (n-4)(n+2)(n+4) + 8(n+4) < 0.

    L vanishes at the critical exponent, so the chain holds on the whole
    range exactly when L(1) < 0, i.e. n^2 - 2n - 16 > 0, i.e. n >= 6.  For
    n = 5 the printed middle bound fails even though the exponent itself is
    negative on the whole range.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    l1 = Fraction(-8 * (n * n - 2 * n - 16))
    le = (Fraction((n - 4) * (n * n - 2 * n - 16)) * Fraction(n + 4, n - 4)
          - (n - 4) * (n + 2) * (n + 4) + 8 * (n + 4))
    return {
        "n": n,
        "L_at_one": str(l1),
        "L_at_critical": str(le),
        "vanishes_at_critical": le == 0,
        "chain_holds_on_range": l1 < 0,
    }


def exponent_grid_check() -> dict:
    """Exact exponent checks on the rational grid of EXPONENT_GRID_ALPHAS
    interior alphas for each n in EXPONENT_GRID_N; returns per-point records
    plus summary flags (the chain fails at n = 5, the exponent never does)."""
    records = []
    for n in EXPONENT_GRID_N:
        # alpha = 1 + k/(EXPONENT_GRID_ALPHAS + 1) * ((n+4)/(n-4) - 1) = (m + 8k)/m
        m = (EXPONENT_GRID_ALPHAS + 1) * (n - 4)
        for k in range(1, EXPONENT_GRID_ALPHAS + 1):
            records.append(exponent_check(n, Fraction(m + 8 * k, m)))
    return {
        "points": len(records),
        "gamma_always_at_least_six": all(r.gamma_at_least_six for r in records),
        "chain_holds_everywhere": all(r.chain_holds for r in records),
        "chain_failures": [(r.n, str(r.alpha)) for r in records if not r.chain_holds],
        "exponent_negative_everywhere": all(r.exponent_negative for r in records),
        "records": records,
    }
