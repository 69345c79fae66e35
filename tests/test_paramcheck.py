"""Matrix positivity certificates, factorization identities, exponent checks."""

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.densetools import dup_eval, dup_scale, dup_shift

import qq_coeffs as ref
import qq_paramcheck as old
import replaced_hot_paths as replaced
from bhverify import cli, paramcheck
from bhverify.coeffs import ALPHA, A, B, N, ps
from bhverify.errors import (DegenerateCertificateError, EngineInconsistencyError,
                             MalformedCoefficientError,
                             PoleError)
from bhverify.paramcheck import (SignCertificate, at_n,
                                 build_matrix_A, certify_sign, check_minor_formulas,
                                 ExponentCheck, est1_coefficient, est1_grid_check,
                                 exponent_check, exponent_grid_check,
                                 linear_reduction_certificate,
                                 numeric_pd_scan, positivity_certificate,
                                 sylvester_certificates)
from bhverify.registry import F1_COEFFS, F3_COEFFS, poly_apply
from bhverify.report import jsonable
from qq_paramcheck import QALPHA
from test_coeffs import _horner, _in_qalpha, _ref_univariate, _to_ref


class TestMatrix:
    def test_a22_is_one(self):
        assert build_matrix_A().A22 == ps(1)

    def test_a12_hand_value(self):
        assert build_matrix_A().A12.evaluate(n=5, alpha=2) == Fraction(-29, 72)

    def test_a33_vanishes_at_critical_exponent(self):
        a33 = build_matrix_A().A33
        assert a33.subs_param("alpha", (N + 4) / (N - 4)).is_zero

    def test_det_hand_value(self):
        det = build_matrix_A().det().evaluate(n=5, alpha=2)
        assert det == Fraction(20 * 7 * 13771609, 82944 * 9 * 729)


class TestFactorizations:
    def test_formal_identities(self):
        rep = check_minor_formulas()
        assert rep.minor2_vs_f1
        assert rep.det_vs_f2
        assert rep.f2_reduction_to_f3

    def test_f1_endpoints(self):
        rep = check_minor_formulas()
        assert rep.f1_at_zero and rep.f1_at_upper
        f1_5 = [c.evaluate(n=5) for c in F1_COEFFS]
        assert poly_apply(f1_5, Fraction(0)) == 28
        assert poly_apply(f1_5, Fraction(1, 3)) == 62  # = 558/9

    def test_det_factorization_at_rational_point(self):
        """Beyond the formal identity: both sides numerically equal at
        (n, alpha) = (7, 1)."""
        from bhverify.registry import F2_COEFFS
        lhs = build_matrix_A().det().evaluate(n=7, alpha=1)
        claim = (N * ALPHA**2 / (64 * (N - 1) ** 2 * (N + 4) ** 2)
                 * (1 / (N - 4) - ALPHA / (N + 4))
                 * poly_apply(F2_COEFFS, ALPHA / (N + 4)))
        assert lhs == claim.evaluate(n=7, alpha=1)

    def test_f3_endpoints_and_display_discrepancy(self):
        """f3(0) matches; the printed upper endpoint carries a spurious
        (n-2) factor, the corrected display matches exactly."""
        rep = check_minor_formulas()
        assert rep.f3_at_zero
        assert not rep.f3_upper_matches_printed
        assert rep.f3_upper_matches_corrected
        f3_5 = [c.evaluate(n=5) for c in F3_COEFFS]
        assert poly_apply(f3_5, Fraction(1, 1)) == 53568  # 64*(n-2)*279 at n=5

    def test_mutated_f1_breaks_minor_identity(self):
        mat = build_matrix_A()
        bad = (F1_COEFFS[0], F1_COEFFS[1] + 1, F1_COEFFS[2])
        x13 = (N - 4) * ALPHA / ((N - 2) * (N + 4))
        claim = ((N - 2) ** 2 / (2 * (N - 1) ** 2 * (N - 4) ** 2)
                 * poly_apply(bad, x13))
        assert not (mat.minor2() == claim)


class TestAtN:
    def test_specializes_to_integer_pairs(self):
        assert at_n(N**2 * ALPHA**2 + 3 * ALPHA - 7, 5) == ([25, 3, -7], 1)
        assert at_n((N + 4) * ALPHA / (N - 4), 6) == ([10, 0], 2)
        # a or b in the numerator, with a coefficient that vanishes at this n
        assert at_n((N - 5) * A + ALPHA, 5) == ([1, 0], 1)
        # leading coefficients that vanish at this n are stripped
        assert at_n(((N - 5) * ALPHA**2 - 3) / (N - 7), 5) == ([-3], -2)
        assert at_n(ps(0), 5) == ([], 1)

    def test_rejects_what_is_not_a_polynomial_in_alpha(self):
        with pytest.raises(ValueError, match="not univariate"):
            at_n(N * A + ALPHA, 5)
        # a denominator outside Q[n] cannot reach at_n: the coefficient
        # domain refuses it
        with pytest.raises(MalformedCoefficientError, match="outside Q"):
            at_n(N / (ALPHA + 1), 5)
        with pytest.raises(MalformedCoefficientError, match="outside Q"):
            at_n(2 * ALPHA / ((N - 5) * A + 2), 5)
        with pytest.raises(PoleError):
            at_n(ALPHA / (N - 4), 4)


class TestSturm:
    def test_root_counts(self):
        # (x-1)(x-2)(x-3)
        p = ([1, -6, 11, -6], 1)

        def count(a, b):
            return certify_sign("custom", p, 5, (a, b)).sturm_root_count
        assert count(Fraction(0), Fraction(4)) == 3
        assert count(Fraction(0), Fraction(5, 2)) == 2
        # endpoint roots are deflated away
        assert count(Fraction(1), Fraction(3)) == 1

    def test_certify_planted_root(self):
        c = certify_sign("custom", ([-1, 1, 0], 1), 5,
                         (Fraction(0), Fraction(2)))
        assert c.verdict == "not-one-signed"
        assert c.sturm_root_count == 1

    def test_certify_negative(self):
        c = certify_sign("custom", ([-1, 0, -1], 1), 5,
                         (Fraction(0), Fraction(1)))
        assert c.verdict == "negative"

    def test_degenerate_certificate(self):
        with pytest.raises(DegenerateCertificateError):
            certify_sign("zero", ([], 1), 5, (Fraction(0), Fraction(1)))

    @pytest.mark.parametrize("interval", [(Fraction(1), Fraction(1)),
                                          (Fraction(3), Fraction(0))])
    def test_empty_or_reversed_interval_is_degenerate(self, interval):
        with pytest.raises(DegenerateCertificateError, match="empty interval"):
            certify_sign("custom", ([1, 0, 1], 1), 5, interval)

    @pytest.mark.parametrize("n", [6.0, 5.5, True, Fraction(6)])
    def test_positivity_certificate_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n = "):
            positivity_certificate("f1", n)

    def test_f1_certificate_n5(self):
        c = positivity_certificate("f1", 5)
        assert c.verdict == "positive"
        assert c.endpoint_values == (Fraction(28), Fraction(62))
        assert c.sturm_root_count == 0

    def test_detA_certificate_n5(self):
        c = positivity_certificate("detA", 5)
        assert c.verdict == "positive"
        # both endpoints are genuine zeros of det A, deflated before counting
        assert c.endpoint_values == (Fraction(0), Fraction(0))
        assert c.interval == (Fraction(0), Fraction(9))

    def test_sylvester_triples_sample(self):
        for n in (5, 6, 13, 40, 100):
            assert all(c.verdict == "positive" for c in sylvester_certificates(n))

    def test_all_480_certificates_take_the_descartes_route(self, monkeypatch):
        """Every certified polynomial at n = 5..100 is proved root-free by
        Descartes' rule after the interval map: no Sturm sequence is built."""
        def no_sturm(*args, **kwargs):
            raise AssertionError("Sturm fallback taken")
        monkeypatch.setattr(paramcheck, "dup_count_real_roots", no_sturm)
        for n in range(5, 101):
            for poly_id in ("f1", "f3", "A11", "minor2", "detA"):
                assert positivity_certificate(poly_id, n).verdict == "positive"


class TestNumericScan:
    def test_scan_agrees_and_positive(self):
        rep = numeric_pd_scan(range(5, 9), grid=200)
        assert rep.all_positive and rep.agrees_with_certificates
        assert rep.min_lambda > 0

    def test_lambda_min_decays_toward_critical_endpoint(self):
        """det A vanishes at the critical exponent, so the minimal eigenvalue
        must decay monotonically to zero approaching it."""
        import numpy as np
        mat = build_matrix_A()
        polys = mat.entry_polys_in_alpha(5)
        from bhverify.paramcheck import _eigmin_sym3
        alphas = np.array([9 - 10.0**-k for k in range(1, 7)])
        vals = {k: np.polyval([c / d for c in cs], alphas) for k, (cs, d) in polys.items()}
        lam = _eigmin_sym3(vals["A11"], vals["A12"], vals["A13"],
                           vals["A22"], vals["A23"], vals["A33"])
        assert all(lam > 0)
        assert all(lam[i + 1] < lam[i] for i in range(len(lam) - 1))
        assert lam[-1] < 1e-5

    def test_alpha_zero_semidefinite(self):
        """At alpha = 0 the determinant vanishes (alpha^2 factor): A is only
        positive semidefinite there."""
        det = build_matrix_A().det()
        assert det.evaluate(n=5, alpha=0) == 0
        a11 = build_matrix_A().A11.evaluate(n=7, alpha=0)
        minor2 = build_matrix_A().minor2().evaluate(n=7, alpha=0)
        assert a11 > 0 and minor2 > 0


class TestExponents:
    def test_est1_hand_values(self):
        assert est1_coefficient(5, Fraction(1)) == Fraction(3, 5)
        assert est1_coefficient(5, Fraction(2, 1)) == 0  # a = 2/(n-4) endpoint

    def test_est1_grid(self):
        for n in (5, 9, 24):
            rep = est1_grid_check(n)
            assert rep["all_positive"]
            assert Fraction(rep["endpoint_value"]) == 0

    def test_exponent_example_n6(self):
        ec = exponent_check(6, Fraction(2))
        assert ec.gamma == Fraction(42, 5)
        assert ec.final_exponent == Fraction(-32, 5)
        assert ec.bound == Fraction(-4)
        assert ec.chain_holds and ec.exponent_negative

    def test_exponent_chain_fails_only_at_n5(self):
        ec = exponent_check(5, Fraction(2))
        assert not ec.chain_holds
        assert ec.exponent_negative
        assert exponent_check(6, Fraction(3)).chain_holds
        cert5 = linear_reduction_certificate(5)
        cert6 = linear_reduction_certificate(6)
        assert cert5["vanishes_at_critical"] and cert6["vanishes_at_critical"]
        assert not cert5["chain_holds_on_range"]
        assert cert6["chain_holds_on_range"]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            exponent_check(5, Fraction(10))
        with pytest.raises(ValueError):
            exponent_check(4, Fraction(2))
        with pytest.raises(ValueError):
            exponent_check(6, Fraction(1))

    def test_grid_summary(self):
        rep = exponent_grid_check()
        assert rep["points"] == 20 * 20
        assert rep["gamma_always_at_least_six"]
        assert rep["exponent_negative_everywhere"]
        assert not rep["chain_holds_everywhere"]
        assert all(n == 5 for n, _ in rep["chain_failures"])


# -- differential tests: the closed-form exponents against the Fraction chain ------


def _ref_exponent_check(n: int, alpha: Fraction) -> ExponentCheck:
    """The replaced exponent_check: gamma, the final exponent and the bound
    each built from Fraction operations on alpha."""
    alpha = Fraction(alpha)
    if n < 5:
        raise ValueError("need n >= 5")
    if not (1 < alpha < Fraction(n + 4, n - 4)):
        raise ValueError("alpha outside the subcritical range")
    gamma = max(Fraction(6),
                Fraction(1) / (alpha - 1) * (Fraction(6 * n + 16, n + 4) * alpha - 2))
    x = ((n * n - 2 * n - 16) * alpha - (n + 2) * (n + 4)) / ((n + 4) * (alpha - 1))
    bound = Fraction(-8, n - 4) / (alpha - 1)
    return ExponentCheck(
        n=n, alpha=alpha, gamma=gamma,
        final_exponent=x, bound=bound,
        gamma_at_least_six=(gamma >= 6),
        chain_holds=(x < bound < 0),
        exponent_negative=(x < 0),
    )


def _assert_same_exponents(n, alpha):
    """The same record as the Fraction chain and as the integer-fraction
    code that replaced it, itself replaced by integer cross-products."""
    got = exponent_check(n, alpha)
    for want in (_ref_exponent_check(n, alpha), replaced.exponent_check(n, alpha)):
        assert got == want
        assert jsonable(got) == jsonable(want)
    assert all(type(v) is Fraction for v in (got.gamma, got.final_exponent, got.bound))


def test_exponents_match_the_fraction_chain_on_the_grid():
    """All 400 grid points of exponent_grid_check."""
    records = exponent_grid_check()["records"]
    assert len(records) == 400
    for r in records:
        _assert_same_exponents(r.n, r.alpha)


@st.composite
def _subcritical_points(draw):
    """n >= 5 and alpha = 1 + t ((n+4)/(n-4) - 1) for a rational t in (0, 1)."""
    n = draw(st.integers(5, 500))
    m = draw(st.integers(2, 10**9))
    t = Fraction(draw(st.integers(1, m - 1)), m)
    return n, 1 + t * Fraction(8, n - 4)


@settings(max_examples=300, deadline=None)
@given(_subcritical_points())
@example((5, Fraction(9, 2)))        # gamma ties 6, alpha = (n + 4)/2
@example((6, Fraction(2)))
@example((5, Fraction(2)))           # the chain fails
def test_exponents_match_the_fraction_chain(point):
    _assert_same_exponents(*point)


# -- differential tests against the hand-rolled Sturm toolkit they replaced -----


def _ref_poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_poly_trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _ref_poly_deriv(coeffs: list[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)]


def _ref_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num, den = _ref_poly_trim(list(num)), _ref_poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    while len(rem) >= len(den) and _ref_poly_trim(rem):
        rem = _ref_poly_trim(rem)
        if len(rem) < len(den):
            break
        k = len(rem) - len(den)
        q = rem[-1] / den[-1]
        quot[k] = q
        for i, d in enumerate(den):
            rem[i + k] -= q * d
        rem = rem[:-1]
    return _ref_poly_trim(quot), _ref_poly_trim(rem)


def _ref_primitive(coeffs: list[Fraction]) -> list[Fraction]:
    """Scale by a positive rational so coefficients stay small; sign-safe."""
    nz = [c for c in coeffs if c]
    if not nz:
        return coeffs
    den_lcm = 1
    for c in nz:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [c * den_lcm for c in nz]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c.numerator))
    scale = Fraction(den_lcm, g)
    return [c * scale for c in coeffs]


def _ref_sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    p0 = _ref_primitive(_ref_poly_trim(list(coeffs)))
    if not p0:
        raise DegenerateCertificateError("Sturm chain of the zero polynomial")
    chain = [p0, _ref_primitive(_ref_poly_deriv(p0))]
    while True:
        _, rem = _ref_poly_divmod(chain[-2], chain[-1])
        if not _ref_poly_trim(rem):
            break
        chain.append(_ref_primitive([-c for c in rem]))
    return chain


def _ref_variations(values: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _ref_sturm_root_count(coeffs: list[Fraction], a: Fraction, b: Fraction) -> int:
    p = _ref_poly_trim(list(coeffs))
    if not p:
        raise DegenerateCertificateError("root count of the zero polynomial")
    for end in (a, b):
        while _ref_poly_eval(p, end) == 0:
            p, rem = _ref_poly_divmod(p, [-end, Fraction(1)])
            assert not rem
            if not p:
                raise DegenerateCertificateError("polynomial vanishes identically")
    if len(p) == 1:
        return 0
    chain = _ref_sturm_chain(p)
    va = _ref_variations([_ref_poly_eval(q, a) for q in chain])
    vb = _ref_variations([_ref_poly_eval(q, b) for q in chain])
    return va - vb


def _ref_certify_sign(name: str, coeffs: list[Fraction], n: int,
                      interval: tuple[Fraction, Fraction]) -> SignCertificate:
    a, b = Fraction(interval[0]), Fraction(interval[1])
    if not _ref_poly_trim(list(coeffs)):
        raise DegenerateCertificateError(f"{name}: zero polynomial on [{a}, {b}]")
    roots = _ref_sturm_root_count(coeffs, a, b)
    mid = (a + b) / 2
    sample = _ref_poly_eval(coeffs, mid)
    if roots == 0 and sample > 0:
        verdict = "positive"
    elif roots == 0 and sample < 0:
        verdict = "negative"
    else:
        verdict = "not-one-signed"
    return SignCertificate(name, n, (a, b), roots,
                           (_ref_poly_eval(coeffs, a), _ref_poly_eval(coeffs, b)),
                           {"point": mid, "value": sample}, verdict)


@lru_cache(maxsize=None)
def _ref_formal_bodies():
    mat = build_matrix_A()
    return {"A11": mat.A11, "minor2": mat.minor2(), "detA": mat.det()}


def _ref_certificate(poly_id: str, n: int) -> SignCertificate:
    """The replaced route: f1 and f3 coefficient by coefficient, the
    Sylvester minors by subs_param and the coefficient list of the replaced
    ParamScalar.univariate."""
    if poly_id in ("f1", "f3"):
        coeffs = F1_COEFFS if poly_id == "f1" else F3_COEFFS
        upper = Fraction(1, n - 2) if poly_id == "f1" else Fraction(1, n - 4)
        return _ref_certify_sign(poly_id, [c.evaluate(n=n) for c in coeffs], n,
                                 (Fraction(0), upper))
    cs = _ref_univariate(_ref_formal_bodies()[poly_id].subs_param("n", ps(n)), "alpha")
    return _ref_certify_sign(poly_id, cs, n, (Fraction(0), Fraction(n + 4, n - 4)))


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5))


@st.composite
def _planted_polys(draw):
    """(coeffs, a, b, interior roots): a product of rational linear factors
    and irreducible quadratics, with roots of any multiplicity planted at a,
    at b, inside (a, b) and elsewhere."""
    a = draw(_rationals)
    b = a + draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 5)))
    inside = draw(st.lists(st.builds(lambda k: a + (b - a) * Fraction(k, 7),
                                     st.integers(1, 6)), max_size=3))
    outside = draw(st.lists(_rationals.filter(lambda r: not a <= r <= b), max_size=2))
    roots = [(r, draw(st.integers(1, 3))) for r in inside + outside]
    for end in (a, b):
        m = draw(st.integers(0, 3))
        if m:
            roots.append((end, m))
    p = [draw(_rationals.filter(bool))]
    for r, m in roots:
        for _ in range(m):
            p = _poly_mul(p, [-r, Fraction(1)])
    for _ in range(draw(st.integers(0, 2))):
        # (x - c)^2 + s with s > 0 has no real root
        c = draw(_rationals)
        s = draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 5)))
        p = _poly_mul(p, [c * c + s, -2 * c, Fraction(1)])
    return p, a, b, set(inside)


def _pair(coeffs: list[Fraction], sign: int = 1) -> tuple[list[int], int]:
    """The rational polynomial coeffs (lowest degree first, nonzero leading
    coefficient) as certify_sign takes it: integer coefficients, highest
    first, over one integer denominator, both multiplied by sign."""
    (ints,), d = old._integer_multiple([coeffs[::-1]])
    return [sign * c for c in ints], sign * d


def _sturm_only(name, poly, n, interval, module=paramcheck) -> SignCertificate:
    """module.certify_sign with the Descartes route switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_descartes_no_root", lambda *args: False)
        return module.certify_sign(name, poly, n, interval)


class TestAgainstReplacedCode:
    @settings(max_examples=300, deadline=None)
    @given(_planted_polys())
    def test_root_count_matches_reference(self, case):
        coeffs, a, b, inside = case
        poly = _pair(coeffs)
        cert = certify_sign("custom", poly, 5, (a, b))
        assert cert.sturm_root_count == _ref_sturm_root_count(coeffs, a, b) == len(inside)
        assert cert == _ref_certify_sign("custom", coeffs, 5, (a, b))
        assert cert == _sturm_only("custom", poly, 5, (a, b))

    def test_sign_changes_left_fall_back_to_sturm(self):
        """(x - 1/2)^2 + 1/100 has no real root, but on (0, 1) its q is
        0.26 t^2 - 0.48 t + 0.26: two sign changes, so Sturm decides."""
        coeffs = [Fraction(26, 100), Fraction(-1), Fraction(1)]
        a, b = Fraction(0), Fraction(1)
        poly = _pair(coeffs)
        assert not paramcheck._descartes_no_root(poly[0], a, b)
        cert = certify_sign("custom", poly, 5, (a, b))
        assert cert.verdict == "positive"
        assert cert.sturm_root_count == _ref_sturm_root_count(coeffs, a, b) == 0
        assert cert == _ref_certify_sign("custom", coeffs, 5, (a, b))

    @pytest.mark.parametrize("coeffs, count, verdict", [
        # x (x^2 + 1): a root at a only
        ([0, 1, 0, 1], 0, "positive"),
        # (x - 2)(x^2 + 1): a root at b only
        ([-2, 1, -2, 1], 0, "negative"),
        # x^2 (x - 2): a double root at a and a root at b
        ([0, 0, -2, 1], 0, "negative"),
        # x (x - 1)(x - 2): roots at both ends and one inside
        ([0, 2, -3, 1], 1, "not-one-signed"),
    ])
    def test_planted_endpoint_roots(self, coeffs, count, verdict):
        coeffs = [Fraction(c) for c in coeffs]
        a, b = Fraction(0), Fraction(2)
        poly = _pair(coeffs)
        cert = certify_sign("custom", poly, 5, (a, b))
        assert cert.sturm_root_count == _ref_sturm_root_count(coeffs, a, b) == count
        assert cert.verdict == verdict
        assert cert == _ref_certify_sign("custom", coeffs, 5, (a, b))
        assert cert == _sturm_only("custom", poly, 5, (a, b))

    def test_all_480_certificates_match_reference(self):
        for n in range(5, 101):
            for poly_id in ("f1", "f3", "A11", "minor2", "detA"):
                assert (jsonable(positivity_certificate(poly_id, n))
                        == jsonable(_ref_certificate(poly_id, n))), (poly_id, n)


# -- differential tests: the integer kernels against the QQ code they replaced ----


def _ref_n_tables(x):
    """The replaced tables: x's QQ numerator and integer-primitive
    denominator, from the QQ representation."""
    x = _to_ref(x)
    return ref._dense_in_n(x.den), ref._dense_in_n(x.num)


def _ref_at_n(x, n: int):
    """The replaced at_n: Horner's rule in QQ on the QQ tables."""
    den_table, num_table = _ref_n_tables(x)
    d = _horner(den_table, n)[(0, 0, 0)]
    if not d:
        raise PoleError(f"n = {n} is a denominator root of {x}")
    num = _horner(num_table, n)
    if any(v for (_, a, b), v in num.items() if a or b):
        raise ValueError(f"{x} is not univariate in alpha")
    return QALPHA.from_dict({(k,): v / d for (k, _, _), v in num.items() if v})


def _ref_qq(x: Fraction):
    return QQ(x.numerator, x.denominator)


def _ref_value(dense: list, x: Fraction) -> Fraction:
    """The replaced _value: sympy's dup_eval over QQ."""
    v = dup_eval(dense, _ref_qq(x), QQ)
    return Fraction(int(v.numerator), int(v.denominator))


def _ref_descartes_no_root(dense: list, a: Fraction, b: Fraction) -> bool:
    """The replaced _descartes_no_root: three Taylor shifts over QQ."""
    q = dup_shift(dup_scale(dup_shift(dense, _ref_qq(a), QQ), _ref_qq(b - a), QQ)[::-1],
                  QQ.one, QQ)[::-1]
    return all(c >= 0 for c in q) or all(c <= 0 for c in q)


def _tabled_bodies(monkeypatch) -> set:
    """Every body that at_n tabulates during run_params(100) plus
    run_scan_pd(5, 100, 1000), from cold caches."""
    bodies, n_tables = set(), paramcheck._n_tables

    def recorded(x):
        bodies.add(x)
        return n_tables(x)

    for cached in (paramcheck.build_matrix_A, paramcheck.certified_polys,
                   paramcheck.sylvester_certificates, n_tables):
        cached.cache_clear()
    monkeypatch.setattr(paramcheck, "_n_tables", recorded)
    assert cli.run_params(100)[1] and cli.run_scan_pd(5, 100, 1000)[1]
    return bodies


# a pole at n = 7, a numerator that leaves Q[alpha] except at n = 5,
# rational coefficients over a non-monic denominator, and zero
_EDGE_BODIES = (ALPHA / (N - 7), (N - 5) * A + ALPHA, N * B - ALPHA**2,
                (ALPHA**3 / 7 - N * ALPHA / 3 + ps(Fraction(5, 6))) / (3 * N - 2), ps(0))


def test_at_n_matches_the_qq_horner(monkeypatch):
    """Every body the certificates and the scan tabulate (the five certified
    polynomials, the six entries of A, A11 among both, and the interval
    ends 1/(n-2), 1/(n-4) and (n+4)/(n-4): all 4,992 n-tables of the 1,536
    at_n calls of run_params(100) plus run_scan_pd(5, 100, 1000)), and
    bodies that hit a pole or leave Q[alpha], give at n = 5..100 what the
    QQ Horner gave and what the replaced at_n (a polynomial in QALPHA)
    gave: the same polynomial and text, or the same error and message.
    The integer coefficients come with no leading zero and the denominator
    is the denominator's value; the pair is the one the replaced integer
    at_n gave through the homogeneous _horner(cs, n, 1)."""
    bodies = _tabled_bodies(monkeypatch)
    assert len(bodies) == 13
    for x in (*bodies, *_EDGE_BODIES):
        for n in range(5, 101):
            try:
                want = _ref_at_n(x, n)
            except (PoleError, ValueError) as exc:
                for route in (at_n, old.at_n, replaced.at_n):
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        route(x, n)
                continue
            coeffs, d = at_n(x, n)
            assert (coeffs, d) == replaced.at_n(x, n), (str(x), n)
            assert not coeffs or coeffs[0], (str(x), n)
            assert all(type(c) is int for c in (*coeffs, d))
            assert d == _horner({(): paramcheck._n_tables(x)[0]}, n)[()]
            got = _in_qalpha((coeffs, d))
            assert got == want == old.at_n(x, n) and str(got) == str(want), (str(x), n)


# rationals with zero, negative values and large denominators
_points = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)),
                    st.builds(Fraction, st.integers(-10**15, 10**15), st.integers(1, 10**12)))
_dense_polys = st.lists(_points, min_size=1, max_size=7).filter(lambda cs: cs[0]).map(
    lambda cs: QALPHA.from_list(cs).to_dense())


@settings(max_examples=400, deadline=None)
@given(_dense_polys, _points, _points.filter(bool))
@example([QQ(-3, 7)], Fraction(-2), Fraction(5))                        # degree 0
@example([QQ(2), QQ(-3)], Fraction(0), Fraction(3, 2))                  # degree 1, root at b
@example([QQ(1, 10**12), QQ(-1, 3)], Fraction(-1, 10**12 + 1), Fraction(7))
@example([QQ(26, 100), QQ(-1), QQ(1)][::-1], Fraction(0), Fraction(1))  # Sturm decides
def test_value_and_descartes_match_the_qq_kernels(dense, a, width):
    """Exact values at both ends and the midpoint, and the Descartes
    verdict on (a, a + |width|), of the integer multiple of a QQ list equal
    the QQ kernels' and, for the verdict, the replaced dup_transform
    route's."""
    b = a + abs(width)
    (ints,), scale = old._integer_multiple([dense])
    for x in (a, b, (a + b) / 2):
        assert paramcheck._value(ints, scale, x) == _ref_value(dense, x)
    want = _ref_descartes_no_root(dense, a, b)
    assert old._descartes_no_root(dense, a, b) == want
    assert paramcheck._descartes_no_root(ints, a, b) == want


@settings(max_examples=200, deadline=None)
@given(_planted_polys())
def test_descartes_matches_the_qq_kernel_on_planted_roots(case):
    """Roots planted at the ends, inside and outside the interval."""
    coeffs, a, b, _ = case
    dense = QALPHA.from_list(coeffs[::-1]).to_dense()
    want = _ref_descartes_no_root(dense, a, b)
    assert old._descartes_no_root(dense, a, b) == want
    assert paramcheck._descartes_no_root(_pair(coeffs)[0], a, b) == want


@settings(max_examples=300, deadline=None)
@given(_planted_polys(), st.sampled_from([1, -1]))
def test_certify_sign_matches_the_replaced_code_on_both_routes(case, sign):
    """certify_sign on the integer pair, over a positive or a negative
    denominator, gives the certificate the replaced certify_sign gave on
    the polynomial in QALPHA, by the Descartes route and with the Sturm
    fallback forced on both; roots sit at the ends, inside and outside the
    interval, whose left end a is mostly nonzero."""
    coeffs, a, b, _ = case
    pair, poly = _pair(coeffs, sign), QALPHA.from_list(coeffs[::-1])
    assert certify_sign("custom", pair, 5, (a, b)) == old.certify_sign("custom", poly, 5, (a, b))
    assert (_sturm_only("custom", pair, 5, (a, b))
            == _sturm_only("custom", poly, 5, (a, b), module=old))


def test_descartes_matches_the_replaced_transform_on_the_480_certificates():
    """On each certified body at n = 5..100 and its interval (0, end), the
    integer Taylor shifts and the replaced dup_transform prove the same."""
    for n in range(5, 101):
        for poly_id, (body, upper) in paramcheck.certified_polys().items():
            (end,), d = at_n(upper, n)
            coeffs, _ = at_n(body, n)
            interval = (Fraction(0), Fraction(end, d))
            assert paramcheck._descartes_no_root(coeffs, *interval), (poly_id, n)
            assert old._descartes_no_root(coeffs, *interval), (poly_id, n)


# -- differential tests: the integer grids against the Fraction code they replaced --


def test_est1_grids_match_the_fraction_code():
    """The integer-numerator decisions give the record of the QQ code and,
    byte for byte, of the replaced Fraction comparisons."""
    for n in range(5, 61):
        got = est1_grid_check(n)
        assert got == old.est1_grid_check(n), n
        assert json.dumps(got) == json.dumps(replaced.est1_grid_check(n)), n


@pytest.mark.parametrize("n", [4, 3, 0, -2])
def test_est1_grid_rejects_n_below_5(n):
    with pytest.raises(ValueError, match="need n >= 5"):
        est1_grid_check(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(5, 200), _rationals)
def test_est1_coefficient_matches_the_fraction_code(n, a):
    got = est1_coefficient(n, a)
    assert got == old.est1_coefficient(n, a) and type(got) is Fraction


def test_exponent_grid_matches_the_fraction_code():
    """All 400 grid points: the same alphas, records and summary."""
    got, want = exponent_grid_check(), old.exponent_grid_check()
    assert len(got["records"]) == 400
    assert [(r.n, r.alpha) for r in got["records"]] == [(r.n, r.alpha) for r in want["records"]]
    assert got == want and jsonable(got) == jsonable(want)


def _raised(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


@pytest.mark.parametrize("n, alpha", [
    (4, Fraction(2)), (-3, Fraction(2)), (5, Fraction(1)), (5, Fraction(1, 2)), (5, 0),
    (5, Fraction(9)), (5, Fraction(10)), (6, Fraction(5)), (6, Fraction(11, 2)),
    (100, Fraction(104, 96)), (7, Fraction(-3))])
def test_exponent_check_raises_as_the_replaced_code(n, alpha):
    """Both ValueErrors, n < 5 and alpha outside (1, (n+4)/(n-4)), the
    endpoints included, with the same messages."""
    assert _raised(exponent_check, n, alpha) == _raised(replaced.exponent_check, n, alpha)


def test_gamma_ties_six_at_n5_alpha_nine_halves():
    """At n = 5, alpha = 9/2 the raw gamma (6n+16)p - 2(n+4)q over
    (n+4)(p-q) is exactly 6: the record's gamma is Fraction(6)."""
    p, q, n = 9, 2, 5
    assert Fraction((6 * n + 16) * p - 2 * (n + 4) * q, (n + 4) * (p - q)) == 6
    ec = exponent_check(5, Fraction(9, 2))
    assert ec.gamma == 6 and type(ec.gamma) is Fraction and ec.gamma_at_least_six
    assert ec == replaced.exponent_check(5, Fraction(9, 2))


# -- the eigenvalue scan in blocks of n, against the per-n scan it replaced --------


def _hex_view(rep):
    return ({k: v.hex() for k, v in rep.per_n_min.items()}, rep.min_lambda.hex(),
            rep.argmin["n"], rep.argmin["alpha"].hex())


@pytest.mark.parametrize("grid", [1, 2, 999, 1000, 1001, 9000])
@pytest.mark.parametrize("lo, hi", [(5, 5), (5, 13), (7, 100), (5, 120)])
def test_block_scan_is_the_per_n_scan_to_the_bit(lo, hi, grid):
    got = numeric_pd_scan(range(lo, hi + 1), grid)
    want = replaced.numeric_pd_scan(range(lo, hi + 1), grid)
    assert _hex_view(got) == _hex_view(want)
    assert got == want and jsonable(got) == jsonable(want)


@pytest.mark.parametrize("lo, hi, grid, shapes", [
    (5, 100, 1000, [(8, 1000)] * 12), (5, 12, 3000, [(2, 3000)] * 4),
    (5, 14, 2000, [(4, 2000)] * 2 + [(2, 2000)]), (5, 7, 8000, [(1, 8000)] * 3),
    (5, 6, 9000, [(1, 9000)] * 2), (5, 6, 1, [(2, 1)])])
def test_a_block_holds_at_most_8000_points_or_one_n(monkeypatch, lo, hi, grid, shapes):
    seen = []
    eigmin = paramcheck._eigmin_sym3

    def recorded(*entries):
        seen.append(entries[0].shape)
        return eigmin(*entries)

    monkeypatch.setattr(paramcheck, "_eigmin_sym3", recorded)
    numeric_pd_scan(range(lo, hi + 1), grid)
    assert seen == shapes


def test_the_scan_reads_its_n_values_once():
    """A generator gives the report of the list it yields: the replaced
    scan read it twice, reported n_values [] and checked no certificate."""
    got = numeric_pd_scan((n for n in range(5, 8)), 50)
    assert got == numeric_pd_scan([5, 6, 7], 50)
    assert got.n_values == [5, 6, 7] and list(got.per_n_min) == ["5", "6", "7"]


@pytest.mark.parametrize("n_values", [[], range(5, 5), [4], [5, 4], [5.0], [True],
                                      ["5"], [Fraction(5)]])
def test_the_scan_rejects_what_is_not_a_nonempty_list_of_ints_from_5(n_values):
    with pytest.raises(ValueError, match="eigenvalue scan"):
        numeric_pd_scan(n_values, 10)


def test_the_scan_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="grid >= 1"):
        numeric_pd_scan([5], 0)


def _nan_in_one_row(monkeypatch):
    eigmin = paramcheck._eigmin_sym3

    def planted(*entries):
        lam = eigmin(*entries)
        lam[-1, lam.shape[1] // 2] = math.nan
        return lam

    monkeypatch.setattr(paramcheck, "_eigmin_sym3", planted)


def test_a_nan_eigenvalue_is_an_engine_inconsistency(monkeypatch):
    """argmin picks a NaN and NaN < min_lambda is False, so the replaced
    scan passed over it; now it is fatal."""
    _nan_in_one_row(monkeypatch)
    with pytest.raises(EngineInconsistencyError, match="non-finite minimal eigenvalue"):
        numeric_pd_scan(range(5, 14), 100)


def test_a_nan_eigenvalue_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("BHVERIFY_CONFIG", raising=False)
    _nan_in_one_row(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.run(["--out", str(out), "scan-pd", "--n", "5..12", "--grid", "50"]) == 3
    assert capsys.readouterr().err.startswith(
        "engine error: EngineInconsistencyError: non-finite minimal eigenvalue")
    assert not out.exists()
