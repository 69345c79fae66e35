"""Exact coefficients: the domain, normalization, equality, evaluation.

The code under test stores integer polynomials; ``qq_coeffs`` is the QQ
representation it replaced, and _qq_form maps the one onto the other.
"""

import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.external.pythonmpq import PythonMPQ
from sympy.polys.rings import PolyElement

import qq_coeffs as ref
import replaced_hot_paths as replaced
from qq_paramcheck import QALPHA
from bhverify import calculus, cli, coeffs, paramcheck, registry, tensor
from bhverify.coeffs import (_RING, ALPHA, A, B, N, ONE, VAR_NAMES, ParamScalar, ZERO,
                             _dense_in_n, _divide_root, _from_dense, _linear_roots, _primitive,
                             cofactors, frac, ps)
from bhverify.errors import MalformedCoefficientError, PoleError

# the replaced QQ ring: hypothesis draws rational polynomials there, and
# _zz carries them to the integer ring
_Q_RING = ref._RING
_qn, _qalpha, _qa, _qb = _Q_RING.gens


def _zz(*polys):
    """Rational polynomials times the least positive integer that makes all
    of them integral, in the integer ring: a pair keeps its quotient."""
    s = math.lcm(*(int(c.denominator) for p in polys for c in p.values()))
    return tuple(_RING.from_dict({m: int(c.numerator) * (s // int(c.denominator))
                                  for m, c in p.items()}) for p in polys)


def _as_q(poly):
    """An integer polynomial as an element of the QQ ring."""
    return poly.set_ring(_Q_RING)


def _qq_form(num, den):
    """(num / c, den / c) in the QQ ring, c the content of den: the replaced
    representation of the integer pair (num, den)."""
    c = math.gcd(*den.values())
    return _as_q(num).quo_ground(c), _as_q(den).quo_ground(c)


def _to_ref(x: ParamScalar) -> ref.ParamScalar:
    return ref.ParamScalar(*_qq_form(x.num, x.den), _normalized=True)


def _assert_canonical(num, den):
    """The gcd of all coefficients of num and den is 1, den's leading
    coefficient is positive."""
    assert math.gcd(*num.values(), *den.values()) == 1 and den.LC > 0


def test_gcd_reduction_trivial():
    assert (ALPHA * 2) / 2 == ALPHA
    assert (N**2 - 16) / (N - 4) == N + 4


def test_c2_hand_substitution():
    c2 = (N**2 + 2 * N + 4) * ALPHA / ((N - 1) * (N + 4)) + (N + 2) / (N - 1)
    assert c2.evaluate(n=5, alpha=2) == Fraction(47, 12)


def test_normalize_param_idempotent_and_unique():
    n = _RING.gens[0]
    p = ParamScalar(n**2 - 16, 2 * n - 8)
    assert p == (N + 4) / 2
    again = ParamScalar(p.num, p.den)
    assert (again.num, again.den) == (p.num, p.den)
    scaled = ParamScalar(-3 * p.num, -3 * p.den)
    assert (scaled.num, scaled.den) == (p.num, p.den)


def test_zero_denominator_rejected():
    with pytest.raises(MalformedCoefficientError):
        ParamScalar(_RING.one, _RING.zero)
    with pytest.raises(MalformedCoefficientError):
        ONE / ZERO


def test_sign_convention_deterministic():
    # denominator always primitive with positive leading coefficient
    x = ONE / (ps(4) - N)
    y = -(ONE / (N - 4))
    assert x == y
    assert str(x) == str(y)


def test_field_axioms_spot():
    x = (N + 2) / (N - 1)
    y = ALPHA * A - B
    z = frac(3, 7) * N
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x - x).is_zero
    assert (x / x) == ONE


def _random_rational(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def test_equality_agrees_with_evaluation():
    """Normalized equality iff equal values at 1000 random rational points
    (avoiding denominator roots)."""
    rng = random.Random(20240811)
    u = (N**2 - 16) * (ALPHA + 1) / ((N - 4) * (N + 1))
    v = (N + 4) * (ALPHA + 1) / (N + 1)
    w = v + ALPHA * frac(1, 1000)
    hits = 0
    for _ in range(1000):
        pt = {k: _random_rational(rng) for k in ("n", "alpha", "a", "b")}
        try:
            lhs, rhs, other = u.evaluate(**pt), v.evaluate(**pt), w.evaluate(**pt)
        except PoleError:
            continue
        hits += 1
        assert lhs == rhs
        if pt["alpha"] != 0:
            assert lhs != other
    assert hits > 900


def test_evaluate_pole_raises():
    with pytest.raises(PoleError):
        (ONE / (N - 4)).evaluate(n=4)


def test_evaluate_unbound_parameter_raises():
    with pytest.raises(ValueError, match=r"^unbound parameter in n\*alpha$"):
        (N * ALPHA).evaluate(n=5)


def test_subs_param_composition():
    bstar = frac(-1, 2) * (1 + N * ALPHA / (N + 4))
    e = B**2 + B
    got = e.subs_param("b", bstar).evaluate(n=5, alpha=2)
    bb = Fraction(-1, 2) * (1 + Fraction(10, 9))
    assert got == bb**2 + bb


def test_subs_param_at_a_denominator_root_raises():
    root = "^division by zero coefficient$"
    for value in (4, Fraction(4), ps(4)):
        with pytest.raises(MalformedCoefficientError, match=root):
            ((ALPHA + 1) / (N - 4)).subs_param("n", value)
    with pytest.raises(MalformedCoefficientError, match=root):
        (B / (N * (2 * N - 3))).subs_param("n", frac(3, 2))


def test_pow_including_negative():
    x = (N - 1) / (N + 4)
    assert x**3 * x**-3 == ONE
    assert x**0 == ONE


def test_zero_to_the_zero_is_one():
    """ZERO ** 0 is ONE, as for int and Fraction; ZERO to a negative power
    is still a division by zero."""
    assert ZERO**0 == ONE and 0**0 == Fraction(0)**0 == 1
    assert (ONE - ONE)**0 == ONE
    with pytest.raises(MalformedCoefficientError, match="division by zero"):
        ZERO**-1


# -- the term-by-term composition, the reference for at_n ----------------------


def _reference_subs_param(x, name, value):
    """Rebuild each term with ParamScalar arithmetic, normalizing after
    every +, * and ** (subs_param does the same)."""
    gen_index = VAR_NAMES.index(name)

    def sub_poly(poly):
        out = ParamScalar.from_int(0)
        for monom, coeff in poly.terms():
            term = ParamScalar(_RING.ground_new(coeff))
            for i, e in enumerate(monom):
                if e == 0:
                    continue
                base = value if i == gen_index else ParamScalar(_RING.gens[i])
                term = term * base**e
            out = out + term
        return out

    return sub_poly(x.num) / sub_poly(x.den)


_small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), _small_fractions,
                         max_size=4)
_n, _alpha, _a, _b = _RING.gens


def _ring_poly(terms):
    """sum c * n^e_n * alpha^e_alpha * a^e_a * b^e_b as a raw QQ-ring element."""
    return _Q_RING.from_dict({e: QQ(c.numerator, c.denominator) for e, c in terms.items()})


_constants = _small_fractions.map(lambda c: _ring_poly({(0, 0, 0, 0): c}))
# the domain's denominators: products of linear factors in Q[n], repeated
# and non-monic roots included
_N_FACTORS = (_qn, _qn + 4, _qn - 1, _qn - 2, _qn - 4, 2 * _qn - 3, 3 * _qn + 1)
_factored_n_polys = st.builds(
    lambda c, powers: math.prod((f**e for f, e in powers), start=c),
    _constants.filter(bool),
    st.lists(st.tuples(st.sampled_from(_N_FACTORS), st.integers(1, 3)), max_size=3))


def _ref_univariate(self, name: str) -> list[Fraction]:
    """Coefficient list [c0, c1, ...] in one variable.

    Requires every other variable to have been specialized away; the
    denominator must be a ground constant.
    """
    i = VAR_NAMES.index(name)
    if not self.den.is_ground:
        raise ValueError(f"denominator {self.den} not constant")
    den = ref._qq_to_fraction(self.den.coeff(1)) if self.den else Fraction(1)
    deg = self.num.degrees()[i] if self.num else 0
    coeffs = [Fraction(0)] * (max(deg, 0) + 1)
    for monom, coeff in self.num.terms():
        if any(e for j, e in enumerate(monom) if j != i):
            raise ValueError(f"{self} is not univariate in {name}")
        coeffs[monom[i]] += ref._qq_to_fraction(coeff)
    return [c / den for c in coeffs]


def _in_qalpha(pair):
    """at_n's (integer coefficients, denominator) pair as a polynomial in
    QALPHA."""
    coeffs, d = pair
    return QALPHA.from_list([QQ(c, d) for c in coeffs])


def _ref_in_alpha(x, n: int):
    """x at integer n in QALPHA by the replaced route: the reference
    subs_param, then the coefficient list of the replaced univariate."""
    return QALPHA.from_list(_ref_univariate(_reference_subs_param(x, "n", ps(n)),
                                            "alpha")[::-1])


def test_subs_param_alpha_polys_match_reference():
    """The 480 certified polynomials at n = 5..100, as the certificates use
    them (formed in formal (n, alpha), then evaluated at n), equal the
    formal bodies specialized by the reference.  The Sylvester minors of
    the matrix of specialized entries (entry_polys_in_alpha(n), formed in
    QALPHA) equal them too."""
    from bhverify.paramcheck import MatrixA, at_n, build_matrix_A, certified_polys
    for n in range(5, 101):
        at_n_mat = MatrixA(**{name: _in_qalpha(pair) for name, pair
                              in build_matrix_A().entry_polys_in_alpha(n).items()})
        minors = {"A11": at_n_mat.A11, "minor2": at_n_mat.minor2(), "detA": at_n_mat.det()}
        for poly_id, (body, _) in certified_polys().items():
            want = _ref_in_alpha(body, n)
            assert _in_qalpha(at_n(body, n)) == want, (poly_id, n)
            assert minors.get(poly_id, want) == want, (poly_id, n)


def test_entry_polys_in_alpha_match_reference():
    """All six entries of entry_polys_in_alpha(n), n = 5..100, equal the
    reference specialization of the formal entries."""
    from bhverify.paramcheck import build_matrix_A
    mat = build_matrix_A()
    for n in range(5, 101):
        entries = mat.entry_polys_in_alpha(n)
        assert list(entries) == ["A11", "A12", "A13", "A22", "A23", "A33"]
        for name, pair in entries.items():
            assert _in_qalpha(pair) == _ref_in_alpha(getattr(mat, name), n), (name, n)


# -- differential test: _normalize against the multivariate cancel it replaced ---


def _ref_normalize(num, den):
    if not den:
        raise MalformedCoefficientError("zero denominator in coefficient")
    if not num:
        return _RING.zero, _RING.one
    num, den = num.cancel(den)
    # Make the denominator integer-primitive with positive leading
    # coefficient; the numerator absorbs the rational content.
    content, prim = den.primitive()
    num = num.quo_ground(content)
    if prim.LC < 0:
        prim = -prim
        num = -num
    return num, prim


@st.composite
def _num_den_pairs(draw):
    """num = f g, den = h g: f multivariate, g and h products of linear
    factors in Q[n] or constant (h possibly zero)."""
    f = _ring_poly(draw(_polys))
    g = draw(st.one_of(_constants, _factored_n_polys).filter(bool))
    h = draw(st.one_of(_constants, _factored_n_polys))
    return f * g, h * g


@settings(max_examples=400, deadline=None)
@given(_num_den_pairs())
@example((_qn**2 - 16, 2 * _qn - 8))                    # shared factor n - 4
@example(((_qalpha - _qn) * (_qn + 4) / 3, -(_qn + 4) * (_qn - 1) / 2))
@example((-_qalpha * _qa / 6, _Q_RING(QQ(-4, 9))))      # constant denominator
# a repeated non-monic root: 2n - 3 divides den twice and num once; n - 1 only den
@example(((_qalpha * _qn - 3) * (2 * _qn - 3) * (_qn + 4),
          (2 * _qn - 3)**2 * (_qn + 4) * (_qn - 1)))
@example((_Q_RING.zero, _qn + 4))
@example((_qalpha, _Q_RING.zero))
def test_normalize_matches_multivariate_cancel(pair):
    """The integer normalization of a pair with its denominators cleared is,
    through _qq_form, the multivariate cancel of the rational pair, and the
    replaced QQ normalization agrees."""
    num, den = pair
    try:
        want = _ref_normalize(num, den)
    except MalformedCoefficientError as exc:
        with pytest.raises(MalformedCoefficientError, match=f"^{re.escape(str(exc))}$"):
            ParamScalar._normalize(*_zz(num, den))
        return
    got = ParamScalar._normalize(*_zz(num, den))
    _assert_canonical(*got)
    assert _qq_form(*got) == want == ref.ParamScalar._normalize(num, den)
    x, y = ParamScalar(*got, _normalized=True), ref.ParamScalar(*want, _normalized=True)
    assert str(x) == str(y)
    assert hash(x) == hash(ParamScalar(*_zz(*want)))


def test_linear_roots_of_cached_factorization():
    """Roots -4, 0 and 3/2, each as (p, q) for the factor q n - p."""
    roots = _linear_roots(_n**2 * (_n + 4) * (2 * _n - 3)**3)
    assert sorted(roots) == [((-4, 1), 1), ((0, 1), 2), ((3, 2), 3)]
    with pytest.raises(MalformedCoefficientError, match=r"split over Q: n\*\*2 \+ 1 has"):
        _linear_roots(_n**2 + 1)
    with pytest.raises(MalformedCoefficientError, match=r"has the factor n\*\*2 - 2$"):
        _linear_roots((_n**2 - 2) * (_n - 1))


# -- differential test: the root search against the factorization it replaced -----


def _ref_linear_roots(den):
    """The replaced _linear_roots body: sympy's factor_list on every
    denominator, in Q[n]."""
    _, factors = den.set_ring(ref._N_RING).factor_list()
    roots = []
    for f, m in factors:
        if f.degree() != 1:
            raise MalformedCoefficientError(
                f"denominator does not split over Q: {den} has the factor {f}")
        roots.append((-f.coeff(1) / f.LC, m))
    return tuple(roots)


# q n - p with multiplicity m: p = 0 gives the root 0, q > 1 a leading
# coefficient other than 1, and the same root can come twice
_linear_factors = st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 5), st.integers(1, 3)),
                           max_size=4)
# constants up to about 10^30, so no search may walk the divisors of the
# constant term
_huge_constants = st.builds(Fraction, st.integers(-10**30, 10**30).filter(bool),
                            st.integers(1, 10**6))


def _den_of(c: Fraction, factors):
    """c * prod (q n - p)^m over the (p, q, m) in factors, in the QQ ring."""
    return math.prod(((q * _qn - p)**m for p, q, m in factors),
                     start=_Q_RING(QQ(c.numerator, c.denominator)))


def _qq_roots(roots):
    """The ((p, q), m) of _linear_roots as the (p/q, m) of the replaced one."""
    return sorted((QQ(p, q), m) for (p, q), m in roots)


@settings(max_examples=300, deadline=5000)
@given(_huge_constants, _linear_factors)
@example(Fraction(1), [(0, 1, 3)])                      # n^3
@example(Fraction(-7, 3), [(4, 1, 2), (8, 2, 1), (3, 2, 3), (0, 5, 1)])
@example(Fraction(10**30 - 57), [(-4, 1, 1), (1, 1, 2)])
@example(Fraction(5), [])
def test_linear_roots_match_the_factorization(c, factors):
    """The same roots and multiplicities as factor_list, with no root known
    (every root from the factorization), with every root known (none), and
    with the roots of the first factor known."""
    den = _den_of(c, factors)
    want = sorted(_ref_linear_roots(den))
    (zden,) = _zz(den)
    coeffs._known_roots.clear()
    roots = _linear_roots.__wrapped__(zden)
    assert _qq_roots(roots) == want
    assert all(q > 0 and math.gcd(p, q) == 1 for (p, q), _ in roots)
    assert _qq_roots(_linear_roots.__wrapped__(zden)) == want
    coeffs._known_roots.clear()
    _linear_roots.__wrapped__(*_zz(_den_of(Fraction(1), factors[:1])))
    assert _qq_roots(_linear_roots.__wrapped__(zden)) == want


@pytest.mark.parametrize("linear, rest", [
    (_qn - 4, _qn**2 + 1),
    (3 * _qn**2 * (2 * _qn - 3), (_qn**2 - 2)**2),
    ((_qn + 4) * (_qn - 1)**2, (_qn**2 + 1) * (_qn**3 - 2)),
    (_Q_RING(QQ(-2, 5)), 7 * _qn**2 - 3),
])
def test_the_remainder_after_known_roots_is_factored(monkeypatch, linear, rest):
    """With the roots of the linear part known, only the rest goes to
    factor_list, and its irreducible factor raises the replaced message,
    which names the whole (integer) denominator."""
    (den,), (linear,) = _zz(linear * rest), _zz(linear)
    with pytest.raises(MalformedCoefficientError) as want:
        _ref_linear_roots(_as_q(den))
    coeffs._known_roots.clear()
    _linear_roots.__wrapped__(linear)
    factored = _counted(monkeypatch, "factor_list")
    with pytest.raises(MalformedCoefficientError, match=f"^{re.escape(str(want.value))}$"):
        _linear_roots.__wrapped__(den)
    assert [f.degree() for f in factored] == [rest.degree()]


def _ref_primitive(num, den):
    """The replaced _primitive: sympy's content over QQ."""
    content, prim = den.primitive()
    num = num.quo_ground(content)
    if prim.LC < 0:
        prim = -prim
        num = -num
    return num, prim


@settings(max_examples=300, deadline=None)
@given(_num_den_pairs().filter(lambda pair: pair[1]))
@example((_qalpha, _Q_RING(QQ(-4, 9))))
@example((_qalpha - _qn, 2 * _qn - 6))
@example((_qa, -(2 * _qn - 3) * _qn))
@example((_qb / 3, _qn**2 / 6 - _qn / 4))
def test_primitive_matches_the_qq_content(pair):
    """Integer content 1 (the sign step only), integer and rational
    content, negative leading coefficients: the integer pair, through
    _qq_form, is sympy's QQ content step and the replaced _primitive."""
    got = _primitive(*_zz(*pair))
    _assert_canonical(*got)
    assert _qq_form(*got) == _ref_primitive(*pair) == ref._primitive(*pair)


_split = ParamScalar((_alpha - 1) * (_n + 4), (2 * _n - 3) * _n**2)


@pytest.mark.parametrize("build, message", [
    # construction
    (lambda: ONE / (ALPHA + 1), "denominator outside Q[n]: alpha + 1"),
    (lambda: ParamScalar(_n, _n**2 + 1),
     "denominator does not split over Q: n**2 + 1 has the factor n**2 + 1"),
    (lambda: ParamScalar((_alpha * _a - _b) * _n, (_alpha * _a - _b) * (_n - 1)),
     "denominator outside Q[n]: n*alpha*a - n*b - alpha*a + b"),
    (lambda: ParamScalar(_alpha * (_n**2 + 1), 3 * (_n**2 + 1)),
     "denominator does not split over Q: 3*n**2 + 3 has the factor n**2 + 1"),
    (lambda: ParamScalar(_a * (_n**2 - 2) * (_n - 1), (_n**2 - 2) * (_n - 1)**2),
     "denominator does not split over Q: n**4 - 2*n**3 - n**2 + 4*n - 2 has the factor n**2 - 2"),
    (lambda: ParamScalar(_n * _b - 1, _alpha * _a - _b), "denominator outside Q[n]: alpha*a - b"),
    # arithmetic
    (lambda: (N + 1) / (N * A + 1), "denominator outside Q[n]: n*a + 1"),
    (lambda: ALPHA**-2, "denominator outside Q[n]: alpha"),
    (lambda: 3 / (N**2 - 2), "denominator does not split over Q: n**2 - 2 has the factor n**2 - 2"),
    (lambda: _split / (ALPHA * A - B),
     "denominator outside Q[n]: 2*n**3*alpha*a - 2*n**3*b - 3*n**2*alpha*a + 3*n**2*b"),
    # subs_param
    (lambda: (ONE / (N - 4)).subs_param("n", ALPHA), "denominator outside Q[n]: alpha - 4"),
    (lambda: (ALPHA / (N - 1)).subs_param("n", N**2 + 2),
     "denominator does not split over Q: n**2 + 1 has the factor n**2 + 1"),
    (lambda: (ALPHA / N).subs_param("n", A / (N - 1)), "denominator outside Q[n]: a"),
], ids=["construct-alpha", "construct-quadratic", "construct-shared-outside",
        "construct-shared-quadratic", "construct-repeated-quadratic", "construct-outside",
        "quotient-outside", "power-outside", "quotient-quadratic", "quotient-product",
        "subs-outside", "subs-quadratic", "subs-rational-outside"])
def test_denominators_outside_the_domain_raise(build, message):
    """A denominator outside Q[n], or with an irreducible factor of degree 2
    or more, raises MalformedCoefficientError naming it, whether it comes
    from construction, arithmetic or subs_param."""
    with pytest.raises(MalformedCoefficientError, match=f"^{re.escape(message)}$"):
        build()


def _count_cancels(monkeypatch) -> list:
    calls = []
    cancel = PolyElement.cancel

    def counted(self, other):
        calls.append(other)
        return cancel(self, other)

    monkeypatch.setattr(PolyElement, "cancel", counted)
    return calls


def test_normalize_route_follows_denominator_factors(monkeypatch):
    """Root tests for denominators that split into linear factors over Q; an
    irreducible quadratic factor raises instead of taking the multivariate
    cancel."""
    calls = _count_cancels(monkeypatch)
    x = ParamScalar((_alpha - 1) * (2 * _n - 3) * _n, (2 * _n - 3)**2 * _n**2 * (_n + 4))
    assert (x.num, x.den) == (_alpha - 1, (2 * _n - 3) * _n * (_n + 4))
    with pytest.raises(MalformedCoefficientError, match="has the factor n\\*\\*2 \\+ 1$"):
        ParamScalar(_alpha * (_n**2 + 1), (_n**2 + 1) * (_n - 1))
    assert not calls


def _verify():
    records, ok = cli.run_verify()
    assert ok and len(records) == 15


def _params_and_scan_pd(n_max=8, grid=50):
    for cached in (paramcheck.build_matrix_A, paramcheck.certified_polys,
                   paramcheck.sylvester_certificates, paramcheck._n_tables):
        cached.cache_clear()
    _, ok = cli.run_params(n_max)
    assert ok
    _, ok = cli.run_scan_pd(5, n_max, grid)
    assert ok


@pytest.mark.parametrize("run", [_verify, _params_and_scan_pd], ids=["verify", "params"])
def test_verify_never_calls_the_multivariate_cancel(monkeypatch, run):
    """Every denominator of the identities splits into linear factors in
    Q[n], so verify, params and scan-pd decide every cancellation by root
    tests, from cold caches."""
    _clear_caches()
    calls = _count_cancels(monkeypatch)
    run()
    assert len(calls) == 0


def _verify_and_combination():
    assert cli.run_verify()[1] and cli.run_combination()[1]


def _must_not_run(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"ParamScalar.{name} was called")
    return refuse


def test_no_section_substitutes_a_parameter(monkeypatch):
    """From cold caches, no section calls subs_param: paramcheck fixes n
    through at_n, and the oracles read coefficients as they are."""
    _clear_caches()
    monkeypatch.setattr(ParamScalar, "subs_param", _must_not_run("subs_param"))
    _verify_and_combination()
    _params_and_scan_pd()
    assert cli.run_oracle(0, 20, (5,))[1]
    assert cli.run_radial([(6, 2.0)], 2)[1]


def test_certificates_and_scan_never_evaluate(monkeypatch):
    """params and scan-pd fix n only through at_n, interval ends included;
    ParamScalar.evaluate serves the float oracle alone."""
    monkeypatch.setattr(ParamScalar, "evaluate", _must_not_run("evaluate"))
    _params_and_scan_pd()


def _counted(monkeypatch, method) -> list:
    calls = []
    original = getattr(PolyElement, method)

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PolyElement, method, counted)
    return calls


@pytest.mark.parametrize("run, is_paramcheck", [
    (_verify_and_combination, False), (lambda: _params_and_scan_pd(100, 1000), True)],
    ids=["verify", "params"])
def test_few_denominators_are_factored(monkeypatch, run, is_paramcheck):
    """From cold caches and with no root known, the identities benchmark
    pair (run_verify plus run_combination) and the certificates pair
    (run_params(100) plus run_scan_pd(5, 100, 1000)) each factor at most 8
    denominators (47 and 41 in a fresh process when every denominator was
    factored): the known roots divide the rest.  paramcheck takes no
    content with sympy (the combination solve does, inside sympy's
    heuristic gcd)."""
    _clear_caches()
    factored = _counted(monkeypatch, "factor_list")
    primitive = _counted(monkeypatch, "primitive")
    run()
    assert len(factored) <= 8
    if is_paramcheck:
        assert not primitive


# -- differential test: memoized kernels against the operators they replaced ------


def _ref_add(self, other):
    o = ParamScalar.coerce(other)
    return ParamScalar(self.num * o.den + o.num * self.den, self.den * o.den)


def _ref_sub(self, other):
    o = ParamScalar.coerce(other)
    return ParamScalar(self.num * o.den - o.num * self.den, self.den * o.den)


def _ref_mul(self, other):
    o = ParamScalar.coerce(other)
    return ParamScalar(self.num * o.num, self.den * o.den)


def _ref_truediv(self, other):
    o = ParamScalar.coerce(other)
    if not o.num:
        raise MalformedCoefficientError("division by zero coefficient")
    return ParamScalar(self.num * o.den, self.den * o.num)


_OPERATIONS = ((_ref_add, lambda x, y: x + y), (_ref_sub, lambda x, y: x - y),
               (_ref_mul, lambda x, y: x * y), (_ref_truediv, lambda x, y: x / y))


def _scalars(pair):
    """The normalized ParamScalar of a drawn rational (num, den) pair; a zero
    denominator gives the zero coefficient."""
    num, den = pair
    return ParamScalar(*_zz(num, den)) if den else ZERO


_operands = st.one_of(_num_den_pairs().map(_scalars), st.integers(-3, 3), _small_fractions)


@st.composite
def _operand_pairs(draw):
    """A drawn coefficient and an operand, or two coefficients that share
    factors crosswise, x = f1 g1 / (h1 g2) and y = f2 g2 / (h2 g1), with
    (f, h) drawn as num/den pairs and g1, g2 factored in Q[n]."""
    if draw(st.booleans()):
        return _scalars(draw(_num_den_pairs())), draw(_operands)
    g1, g2 = draw(_factored_n_polys), draw(_factored_n_polys)
    (f1, h1), (f2, h2) = draw(_num_den_pairs()), draw(_num_den_pairs())
    return _scalars((f1 * g1, h1 * g2)), _scalars((f2 * g2, h2 * g1))


def _assert_same_arithmetic(x, y):
    """Both operand orders; an int or Fraction first takes the reflected
    operator."""
    for ref, op in _OPERATIONS:
        for a, b in ((x, y), (y, x)):
            try:
                want = ref(ParamScalar.coerce(a), b)
            except MalformedCoefficientError as exc:
                with pytest.raises(MalformedCoefficientError,
                                   match=f"^{re.escape(str(exc))}$"):
                    op(a, b)
                continue
            got = op(a, b)
            assert (got.num, got.den) == (want.num, want.den)
            assert str(got) == str(want)


_repeated = ParamScalar(_alpha * (_n - 1), 3 * (_n + 4)**2)
# a quotient by it leaves Q[n]: MalformedCoefficientError from both
_multivariate = ParamScalar(_n * _b - 1, _n - 4)


@settings(max_examples=400, deadline=None)
@given(_operand_pairs())
@example((_split, ParamScalar(_alpha * (_n - 1) * (2 * _n - 3) * _n, 5 * (_n + 4))))  # crosswise
@example((_split, _repeated))
@example((_split, _multivariate))
@example((_repeated, _multivariate))
@example((_split, ZERO))                                # product and quotient by zero
@example((ZERO, _multivariate))
@example((_split, -7))
@example((-_split, Fraction(-3, 4)))                    # negative leading coefficients
@example((ParamScalar(-_alpha, -2 * _n + 3), ParamScalar(_n, -_n - 4)))
def test_kernels_match_replaced_operators(pair):
    """+, -, * and / give the num, den and text of the replaced operators,
    with either operand first: split denominators, quotients that leave
    Q[n], zero, constants, negative leading coefficients, division by
    zero."""
    _assert_same_arithmetic(*pair)


def test_repeated_operation_returns_the_cached_object():
    x = ALPHA * (N - 1) / (N + 4)
    y = (N + 4) / (2 * N - 3)
    assert x * y is x * y
    assert x + y is x + y
    assert x - y is x - y
    assert x / y is x / y
    assert ParamScalar.from_int(7) is ParamScalar.from_int(7)
    assert 2 * x is 2 * x


# -- differential test: the Horner kernels against sympy's division and gcd ------


def _horner(table: dict[tuple, list], n) -> dict[tuple, object]:
    """Every coefficient list of a table at n, by Horner's rule in QQ."""
    out = {}
    for rest, coeffs in table.items():
        v = coeffs[0]
        for c in coeffs[1:]:
            v = v * n + c
        out[rest] = v
    return out


def _ref_vanishes_at(num, r) -> bool:
    """Whether num(n = r, alpha, a, b) is exactly 0, for num in the QQ ring."""
    return not any(_horner(ref._dense_in_n(num), r).values())


def _qq(r: Fraction):
    return QQ(r.numerator, r.denominator)


# rational roots with multiplicities, under a nonzero (possibly negative)
# constant
_roots = st.lists(st.tuples(_small_fractions, st.integers(1, 3)), max_size=3)


def _split_poly(c, roots):
    """c * prod (n - r)^m over the (r, m) in roots, in the QQ ring."""
    return math.prod(((_qn - _qq(r))**m for r, m in roots), start=c)


@st.composite
def _polys_and_points(draw):
    """A numerator in (n, alpha, a, b) times a polynomial in Q[n] that splits
    over Q, plus half the time any other polynomial, and a point: one of
    the roots, or any small fraction."""
    roots = draw(_roots)
    poly = (_ring_poly(draw(_polys)) * _split_poly(draw(_constants.filter(bool)), roots)
            + _ring_poly(draw(st.just({}) | _polys)))
    points = st.sampled_from([r for r, _ in roots]) | _small_fractions if roots \
        else _small_fractions
    return poly, _qq(draw(points))


@settings(max_examples=400, deadline=None)
@given(_polys_and_points())
@example((_Q_RING.zero, QQ(2)))
@example((_Q_RING(QQ(-4, 9)), QQ(0)))
@example(((_qalpha * _qn - _qb) * (2 * _qn - 3)**2 * _qn, QQ(3, 2)))   # repeated root
@example(((_qalpha - 1) * _qa * (_qn + 4), QQ(-4)))                    # constant quotient in n
@example(((_qalpha - 1) * _qa * (_qn + 4) + _qb, QQ(-4)))              # one coefficient vanishes
def test_divide_root_matches_exquo(pair):
    """poly / (q n - p) exactly when poly vanishes at r = p/q, else None,
    for poly with its denominators cleared: the multivariate exquo, the
    replaced evaluation and the replaced QQ Horner decide the same, and the
    QQ quotient by n - r is q times the integer one."""
    poly, r = pair
    (zpoly,), p, q = _zz(poly), int(r.numerator), int(r.denominator)
    got = _divide_root(_dense_in_n(zpoly), (p, q))
    want = ref._divide_root(ref._dense_in_n(_as_q(zpoly)), r)
    if not _ref_vanishes_at(poly, r):
        assert got is None and want is None
        return
    quotient = _from_dense(got)
    assert quotient == zpoly.exquo(q * _n - p)
    assert got == _dense_in_n(quotient)
    assert want == {rest: [q * c for c in cs] for rest, cs in got.items()}
    assert quotient.ring is _RING and all(quotient.values())
    assert hash(quotient) == hash(_RING.from_dict(dict(quotient)))


# The cofactors are compared with the QQ ring's.  sympy's gcd over QQ is
# monic, except where an input is a single term: there it takes the ground
# gcd over QQ of the coefficients, so a constant such as -4/9 gives the unit
# multiple 1/9 of the monic gcd.  The pairs below never meet that case: a
# single-term one is +-n^k.


def _cofactor_triple(f, g):
    """(h, f/h, g/h) in the QQ ring, h monic, from the pair cofactors(f, g)
    returns: it divides by a gcd up to a constant factor, the product of the
    q n - p it cancels, so h = f / (f/h) made monic scales both cofactors by
    that gcd's leading coefficient."""
    cf, cg = cofactors(f, g)
    h = f.exquo(cf)
    return _as_q(h).monic(), _as_q(cf) * h.LC, _as_q(cg) * h.LC


def _qq_cofactors(f, g):
    """sympy's (h, f/h, g/h) for the QQ images of f and g."""
    return _as_q(f).cofactors(_as_q(g))


@st.composite
def _split_pairs(draw):
    """Two polynomials in Q[n] with integer coefficients that split over Q
    and share some roots: +-c * prod (q n - p)^m over roots p/q, with
    integer content c = 1 for a single term."""
    shared = draw(_roots)

    def one():
        roots = shared + draw(_roots)
        poly = math.prod(((r.denominator * _n - r.numerator)**m for r, m in roots),
                         start=_RING(draw(st.sampled_from([-1, 1]))))
        return poly * draw(st.integers(1, 6)) if len(poly) > 1 else poly

    return one(), one()


@settings(max_examples=400, deadline=None)
@given(_split_pairs())
@example((_RING.one, _RING(-1)))
@example((_n**2, -2 * _n * (2 * _n - 3)))
@example((-(2 * _n - 3)**2 * _n, 3 * _n * (2 * _n - 3)**3))
def test_cofactors_match_sympy_gcd(pair):
    f, g = pair
    assert _cofactor_triple(f, g) == _qq_cofactors(f, g)


def test_cofactors_match_the_multivariate_ring():
    """The root tests give the 4-variable QQ ring's gcd and cofactors, up to
    the constant factor, for every pair whose second entry splits over Q;
    one that does not split is outside the domain."""
    dens = [(2 * _n - 3)**2 * (_n + 4), 3 * _n * (2 * _n - 3), _n**2 + 1, _RING.one, _n**2,
            _n * (_n - 2) * (_n + 4)]
    for f in dens:
        for g in dens:
            if g == _n**2 + 1:
                with pytest.raises(MalformedCoefficientError,
                                   match=r"split over Q: n\*\*2 \+ 1 has"):
                    cofactors(f, g)
                continue
            assert _cofactor_triple(f, g) == _qq_cofactors(f, g)


def _kernels():
    return {name: getattr(coeffs, name)
            for name in ("_from_int", "_sum", "_difference", "_product", "_quotient")}


def _clear_caches():
    """Cold kernels, no denominator's roots known, and identities built
    anew, as in a fresh process."""
    for cached in (*_kernels().values(), _linear_roots, registry.all_identities,
                   registry._coeff_catalog, calculus._definitions, calculus._expansion):
        cached.cache_clear()
    coeffs._known_roots.clear()


def test_verify_cofactors_match_the_multivariate_ring(monkeypatch):
    """Every gcd that run_verify plus run_combination take, from cold
    caches, equals the 4-variable QQ ring's up to the constant factor.

    from_terms adds numerators over equal denominators, meets denominators
    that differ only by an integer factor with integer cofactors, and takes
    a gcd otherwise: all 218 pairs it hands to cofactors differ in Q[n]
    beyond a constant factor.  (There were 187 while each side of a
    residual was collected on its own and the two sides subtracted as
    normalized coefficients, and 214 while ``+`` summed the catalog's
    coefficients as normalized ParamScalars.)"""
    calls = []

    def recorded(f, g):
        calls.append((f, g))
        return cofactors(f, g)

    _clear_caches()
    monkeypatch.setattr(tensor, "cofactors", recorded)
    assert cli.run_verify()[1] and cli.run_combination()[1]
    assert len(calls) == 218
    assert all(_as_q(f).monic() != _as_q(g).monic() for f, g in calls)
    for f, g in calls:
        assert _cofactor_triple(f, g) == _qq_cofactors(f, g), (f, g)


def test_verify_leaves_every_cached_coefficient_unchanged(monkeypatch):
    """Every coefficient a kernel hands out during run_verify, all 495 of
    them, keeps the num and den it had when it was returned, until the run
    is over."""
    seen = {}

    def snapshot(kernel):
        def recorded(*args):
            out = kernel(*args)
            if id(out) not in seen:
                seen[id(out)] = (out, dict(out.num), dict(out.den))
            return out
        return recorded

    _clear_caches()
    for name, kernel in _kernels().items():
        monkeypatch.setattr(coeffs, name, snapshot(kernel))
    records, ok = cli.run_verify()
    assert ok and len(seen) == 495
    changed = [str(x) for x, num, den in seen.values()
               if dict(x.num) != num or dict(x.den) != den]
    assert not changed


def test_verify_reuses_coefficient_arithmetic(monkeypatch):
    """From cold caches, run_verify normalizes at most 600 times (3,832
    before the kernels were memoized), and run_verify plus run_combination,
    the identities benchmark workload, make exactly 1,199 canonical_form
    calls: 1,095, the benchmark's reference count, before each composite
    monomial was expanded once and each residual collected once, then 765
    until ``+`` and ``expr`` collected through from_terms, which hands it
    every term of both summands."""
    normalize, canonical_form = ParamScalar._normalize, tensor.canonical_form
    counts = {"normalize": 0, "canonical_form": 0}

    def counted_normalize(num, den):
        counts["normalize"] += 1
        return normalize(num, den)

    def counted_canonical_form(m):
        counts["canonical_form"] += 1
        return canonical_form(m)

    monkeypatch.setattr(ParamScalar, "_normalize", staticmethod(counted_normalize))
    for name, mod in list(sys.modules.items()):
        if name.startswith("bhverify") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is canonical_form:
                    monkeypatch.setattr(mod, attr, counted_canonical_form)
    _clear_caches()
    records, ok = cli.run_verify()
    assert ok and len(records) == 15
    assert counts["normalize"] <= 600
    _, ok = cli.run_combination()
    assert ok
    assert counts["canonical_form"] == 1199


# -- equal values hash equal ------------------------------------------------------


@pytest.mark.parametrize("scalar, value", [
    (ONE, 1), (ZERO, 0), (ps(-7), -7), (frac(3, 2), Fraction(3, 2)), (frac(-4, 9), Fraction(-4, 9)),
    (frac(6, 3), 2), (ps(Fraction(0)), Fraction(0))])
def test_a_constant_hashes_as_its_value(scalar, value):
    """A constant equals its int or Fraction value and hashes like it, so
    dict and set lookups find it from either side."""
    assert scalar == value and value == scalar
    assert hash(scalar) == hash(value)
    assert {value: "x"}.get(scalar) == "x" and {scalar: "x"}.get(value) == "x"
    assert scalar in {value} and value in {scalar}
    assert len({scalar, value}) == 1


def test_a_nonconstant_is_not_found_by_a_constant():
    assert {N: "x"}.get(1) is None and 1 not in {N, ALPHA / (N - 4)}
    assert {1: "x"}.get(N / N) == "x"


def test_distinct_nonconstants_compared_in_verify_hash_apart(monkeypatch):
    """From cold caches, no two distinct non-constant coefficients that
    run_verify plus run_combination compare share a hash.  With each integer
    coefficient hashed as itself, hash(-1) == hash(-2) made n - 1 and n - 2
    collide, and -1/n and -2/n: 95 of the 826 comparisons."""
    compared = []
    eq = ParamScalar.__eq__

    def recorded(self, other):
        compared.append((self, other))
        return eq(self, other)

    def constant(x):
        return x.num.is_ground and x.den.is_ground

    _clear_caches()
    monkeypatch.setattr(ParamScalar, "__eq__", recorded)
    _verify_and_combination()
    monkeypatch.undo()
    nonconstant = [(x, y) for x, y in compared if isinstance(y, ParamScalar)
                   and not (constant(x) or constant(y))]
    assert len(nonconstant) > 100
    assert [(str(x), str(y)) for x, y in nonconstant if x != y and hash(x) == hash(y)] == []
    for x, y in [(N - 1, N - 2), (-1 / N, -2 / N), (ALPHA - 1, ALPHA - 2)]:
        assert hash(x) != hash(y)


# -- differential test: integer arithmetic against the QQ representation ----------


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_GEN_NAMES = {"n": "N", "alpha": "ALPHA", "a": "A", "b": "B"}
_leaf_constants = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


def _ring_operations(kids):
    return st.tuples(st.sampled_from("+-*"), kids, kids)


def _field_operations(kids):
    """+ - * and **, and / whose divisor is often in Q[n], so that most
    quotients stay in the domain."""
    return st.one_of(_ring_operations(kids),
                     st.tuples(st.just("/"), kids, kids | _n_trees),
                     st.tuples(st.just("**"), kids, st.integers(-2, 3)))


_n_trees = st.recursive(st.just("n") | _leaf_constants, _ring_operations, max_leaves=4)
_trees = st.recursive(st.sampled_from(list(_GEN_NAMES)) | _leaf_constants, _field_operations,
                      max_leaves=8)


def _build(tree, module):
    """The value of an expression tree with module's ParamScalar, or the
    class of the error it raises."""
    try:
        if isinstance(tree, str):
            return getattr(module, _GEN_NAMES[tree])
        if isinstance(tree, Fraction):
            return module.frac(tree.numerator, tree.denominator)
        op, x, y = tree
        x = _build(x, module)
        if op == "**":
            if module is ref and y == 0 and not isinstance(x, type) and x.is_zero:
                return ref.ONE      # the QQ code raised sympy's ValueError("0**0")
            return x if isinstance(x, type) else x**y
        y = _build(y, module)
        if isinstance(x, type) or isinstance(y, type):
            return x if isinstance(x, type) else y
        return _OPERATORS[op](x, y)
    except (MalformedCoefficientError, PoleError) as exc:
        return type(exc)


def _evaluated(x, point):
    try:
        return x.evaluate(**point)
    except PoleError:
        return PoleError


_rational_points = st.fixed_dictionaries(
    {name: st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)) for name in _GEN_NAMES})
_REPEATED_ROOT = ("/", ("*", "alpha", ("-", ("*", Fraction(2), "n"), Fraction(3))),
                  ("**", ("-", ("*", Fraction(2), "n"), Fraction(3)), 2))


@settings(max_examples=400, deadline=None)
@given(_trees, _trees, st.lists(_rational_points, min_size=3, max_size=3))
@example(_REPEATED_ROOT, ("/", "a", ("**", ("-", ("*", Fraction(2), "n"), Fraction(3)), 2)),
         [{"n": Fraction(3, 2), "alpha": Fraction(1), "a": Fraction(2), "b": Fraction(0)},
          {"n": Fraction(1), "alpha": Fraction(-1), "a": Fraction(1, 2), "b": Fraction(3)},
          {"n": Fraction(0), "alpha": Fraction(0), "a": Fraction(0), "b": Fraction(0)}])
@example(("*", Fraction(-4, 9), ("/", "alpha", Fraction(-4, 9))), ("/", "alpha", Fraction(-4, 9)),
         [{"n": Fraction(1), "alpha": Fraction(2), "a": Fraction(0), "b": Fraction(1)}] * 3)
@example(("*", Fraction(0), ("/", "b", "n")), ("-", "alpha", "alpha"),
         [{"n": Fraction(0), "alpha": Fraction(2), "a": Fraction(0), "b": Fraction(1)}] * 3)
@example(("**", Fraction(0), 0), ("**", ("-", "alpha", "alpha"), 0),
         [{"n": Fraction(1), "alpha": Fraction(2), "a": Fraction(0), "b": Fraction(1)}] * 3)
@example(("/", "n", ("-", "alpha", "alpha")), ("**", Fraction(0), -1),
         [{"n": Fraction(1), "alpha": Fraction(2), "a": Fraction(0), "b": Fraction(1)}] * 3)
def test_arithmetic_matches_the_qq_representation(tree, other, points):
    """Random expressions in N, ALPHA, A, B and frac constants under
    + - * / and **: the same text, internal form through _qq_form, outcome
    of ==, values at rational points, and error class (a pole, a
    denominator outside the domain, division by zero) as the QQ code.
    Explicit examples: a repeated non-monic root (2n - 3)^2, a constant
    denominator -4/9, a zero numerator, 0**0 (ONE here, where the QQ code
    raised sympy's ValueError), division by zero."""
    got = [_build(t, coeffs) for t in (tree, other)]
    want = [_build(t, ref) for t in (tree, other)]
    for x, y in zip(got, want):
        if isinstance(y, type):
            assert x is y
            continue
        _assert_canonical(x.num, x.den)
        assert _qq_form(x.num, x.den) == (y.num, y.den)
        assert str(x) == str(y)
        assert [_evaluated(x, pt) for pt in points] == [_evaluated(y, pt) for pt in points]
    (x, x2), (y, y2) = got, want
    if not isinstance(x, type):
        assert (x == x) and (x == _build(tree, coeffs))
        if not isinstance(x2, type):
            assert (x == x2) == (y == y2)
        for c in (0, 1, Fraction(-4, 9)):
            assert (x == c) == (y == c)


def test_divide_root_matches_the_qq_horner_on_the_catalog_roots(monkeypatch):
    """Every (table, root) that run_verify, run_combination, run_params and
    run_scan_pd divide, from cold caches: the replaced QQ Horner on the same
    table at p/q divides exactly when the integer division does, and its
    quotient by n - p/q is q times the quotient by q n - p."""
    calls = []

    def recorded(table, root):
        out = _divide_root(table, root)
        calls.append((table, root, out))
        return out

    _clear_caches()
    monkeypatch.setattr(coeffs, "_divide_root", recorded)
    _verify_and_combination()
    _params_and_scan_pd()
    assert len(calls) > 1000
    assert {root for _, root, _ in calls} >= {(0, 1), (1, 1), (2, 1), (4, 1), (-4, 1)}
    for table, (p, q), out in calls:
        want = ref._divide_root({rest: [QQ(c) for c in cs] for rest, cs in table.items()},
                                QQ(p, q))
        if out is None:
            assert want is None
        else:
            assert want == {rest: [q * c for c in cs] for rest, cs in out.items()}


# -- no rational ground arithmetic in the identities -----------------------------


def _count_rationals(monkeypatch) -> list:
    """A live record of every PythonMPQ, sympy's pure-Python rational,
    constructed from now on, by either constructor."""
    made = []
    new, raw_new = PythonMPQ.__new__, PythonMPQ._new.__func__

    def counted_new(cls, *args):
        made.append(args)
        return new(cls, *args)

    def counted_raw_new(cls, *args):
        made.append(args)
        return raw_new(cls, *args)

    monkeypatch.setattr(PythonMPQ, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(PythonMPQ, "_new", classmethod(counted_raw_new))
    return made


def test_verify_all_forms_no_rational_number(monkeypatch):
    """From cold caches, registry.verify_all() constructs no PythonMPQ, sympy's
    pure-Python rational (tens of thousands when the coefficients were
    polynomials over QQ).  The count is live: one QQ(1, 3) afterwards counts."""
    _clear_caches()
    made = _count_rationals(monkeypatch)
    reports = registry.verify_all()
    assert len(reports) == 15
    assert made == []
    QQ(1, 3)
    assert made


def test_certificates_and_scan_form_no_rational_number(monkeypatch):
    """From cold caches, run_params(100) plus run_scan_pd(5, 100, 1000)
    construct no PythonMPQ (about 6,900 when at_n returned polynomials over
    QQ: 4,222 in the 480 certificates and 2,688 in the scan).  The count is
    live: one QQ(1, 3) afterwards counts."""
    _clear_caches()
    made = _count_rationals(monkeypatch)
    _params_and_scan_pd(100, 1000)
    assert made == []
    QQ(1, 3)
    assert made


# -- two constants compare by their ground values ---------------------------------


def _count_poly_eq(monkeypatch) -> list:
    calls = []
    eq = PolyElement.__eq__

    def counted(p1, p2):
        calls.append((p1, p2))
        return eq(p1, p2)

    monkeypatch.setattr(PolyElement, "__eq__", counted)
    return calls


def test_constants_compare_without_polynomial_equality(monkeypatch):
    """-1 against -2, a constant against an equal int or Fraction, zero
    against one: the ground values decide, and no PolyElement.__eq__ runs.
    A non-constant operand still compares polynomials."""
    pairs = [(ps(-1), ps(-2)), (ps(-1), -1), (ps(-2), -1), (ZERO, 0), (ZERO, ONE),
             (frac(3, 2), Fraction(3, 2)), (frac(-4, 9), frac(4, 9)), (frac(6, 3), 2)]
    calls = _count_poly_eq(monkeypatch)
    assert [x == y for x, y in pairs] == [False, True, False, True, False, True, False, True]
    assert calls == []
    assert not (N - 1 == ps(-1)) and calls


def test_constant_comparisons_in_verify_compare_no_polynomials(monkeypatch):
    """From cold caches, run_verify plus run_combination compare constants
    (-1 against -2 among them: 41 of the 731 comparisons compared sympy
    polynomials), and none of those comparisons calls PolyElement.__eq__."""
    constant_pairs, inside = [], []
    scalar_eq, poly_eq = ParamScalar.__eq__, PolyElement.__eq__

    def constant(x):
        return isinstance(x, ParamScalar) and x.num.is_ground and x.den.is_ground

    def recorded(self, other):
        both = constant(self) and constant(other)
        if both:
            constant_pairs.append((self, other))
        inside.append(both)
        try:
            return scalar_eq(self, other)
        finally:
            inside.pop()

    def guarded(p1, p2):
        assert not (inside and inside[-1]), "PolyElement.__eq__ ran for two constants"
        return poly_eq(p1, p2)

    _clear_caches()
    monkeypatch.setattr(ParamScalar, "__eq__", recorded)
    monkeypatch.setattr(PolyElement, "__eq__", guarded)
    _verify_and_combination()
    monkeypatch.undo()
    assert len(constant_pairs) > 10
    assert any(x != y and hash(x) == hash(y) for x, y in constant_pairs)


_constant_trees = st.recursive(_leaf_constants, _ring_operations, max_leaves=5)
_eq_operands = st.one_of(_operands, _trees.map(lambda t: _build(t, coeffs)),
                         _constant_trees.map(lambda t: _build(t, coeffs)))


@settings(max_examples=400, deadline=None)
@given(_eq_operands, _eq_operands)
def test_equality_matches_the_replaced_eq(x, y):
    """Random pairs, constants most often: the same outcome as comparing the
    normalized polynomials, from either side and against ints."""
    if isinstance(x, type) or isinstance(y, type):
        return      # an expression that raised while it was built
    for a, b in ((x, y), (y, x), (x, 0), (y, -1)):
        if isinstance(a, ParamScalar):
            assert (a == b) is replaced.scalar_eq(a, b)
