"""Gradient, weighted divergence, commutation corrections, substitutions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhverify.calculus import (SubstitutionMode, WeightedVectorField, bstar,
                               divergence, grad, substitute_defs)
from bhverify.coeffs import ALPHA, A, B, N, ONE, ParamScalar, frac, ps
from bhverify.errors import (CompositeDerivativeError, OrderOverflowError,
                             UnsupportedCurvatureError, ValenceError)
from bhverify.registry import build_z
from bhverify.tensor import (TensorMonomial, TExpr, expand_factors, expr, mono,
                             tensor_vec, to_labeled, upow)

FREE = SubstitutionMode.FREE
ON_SHELL = SubstitutionMode.ON_SHELL


def du_vec():
    return expr(1, mono(0, ("Du", "x"), free=("x",)))


def forward_defs(e: TExpr, b: ParamScalar = B) -> TExpr:
    """Rewrite D2u, DLap and Bilap into the composite symbols: each jet
    symbol is solved from the definition of the composite that isolates it
    (the inverse of substitute_defs, which the engine never needs)."""
    table = {}
    for jet, comp in (
            (mono(0, ("D2u", "x", "y"), free=("x", "y")),
             mono(0, ("Etf", "x", "y"), free=("x", "y"))),
            (mono(0, ("DLap", "x"), free=("x",)), mono(0, ("Fvec", "x"), free=("x",))),
            (mono(0, ("Bilap",)), mono(0, ("Gscal",)))):
        sym = expr(1, comp)
        table[jet.symbols[0]] = sym - (substitute_defs(sym, b) - expr(1, jet))
    return TExpr.from_terms(e.valence, [(c * rc, rm) for m, c in e.terms.items()
                                        for rc, rm in expand_factors(m, table)])


def test_grad_gradsq():
    e = expr(1, mono(0, ("Du", "k"), ("Du", "k")))
    assert grad(e) == expr(2, mono(0, ("D2u", "k", "x"), ("Du", "k"), free=("x",)))


def test_grad_product_rule():
    e = expr(1, mono(1, ("Lap",)))
    expected = (expr(1, mono(0, ("Lap",), ("Du", "x"), free=("x",)))
                + expr(1, mono(1, ("DLap", "x"), free=("x",))))
    assert grad(e) == expected


def test_grad_bernstein_quantity_four_terms():
    got = grad(build_z())
    expected = (expr(-1, mono(-2, ("Lap",), ("Du", "x"), free=("x",)))
                + expr(1, mono(-1, ("DLap", "x"), free=("x",)))
                + expr(-2 * A, mono(-3, ("Du", "k"), ("Du", "k"), ("Du", "x"),
                                    free=("x",)))
                + expr(2 * A, mono(-2, ("D2u", "x", "j"), ("Du", "j"), free=("x",))))
    assert got == expected


def test_grad_order_overflow():
    with pytest.raises(OrderOverflowError):
        grad(expr(1, mono(0, ("DLap", "k"), ("Du", "k"))))
    with pytest.raises(OrderOverflowError):
        grad(expr(1, mono(0, ("Bilap",))), FREE)


def test_grad_onshell_bilap():
    got = grad(expr(1, mono(0, ("Bilap",))), ON_SHELL)
    assert got == expr(ALPHA, mono(-1, ("Bilap",), ("Du", "x"), free=("x",)))


def test_ric_has_no_derivative():
    with pytest.raises(UnsupportedCurvatureError):
        grad(expr(1, mono(0, ("Ric", "i", "j"), ("Du", "i"), ("Du", "j"))))


def test_composite_symbols_must_be_expanded():
    with pytest.raises(CompositeDerivativeError):
        grad(expr(1, mono(0, ("Gscal",))))


def test_divergence_of_gradient_is_laplacian():
    assert divergence(WeightedVectorField(ps(0), du_vec())) == \
        expr(1, mono(0, ("Lap",)))


def test_divergence_hessian_ricci_correction():
    """div of D2u . Du picks up <DLap, Du> + |D2u|^2 + Ric(Du, Du)."""
    v = expr(1, mono(0, ("D2u", "x", "j"), ("Du", "j"), free=("x",)))
    got = divergence(WeightedVectorField(ps(0), v))
    expected = (expr(1, mono(0, ("DLap", "j"), ("Du", "j")))
                + expr(1, mono(0, ("Ric", "j", "k"), ("Du", "j"), ("Du", "k")))
                + expr(1, mono(0, ("D2u", "i", "j"), ("D2u", "i", "j"))))
    assert got == expected


def test_divergence_weight_leibniz():
    """u^-w div(u^w Du) = Lap + w |Du|^2 / u."""
    got = divergence(WeightedVectorField(B, du_vec()))
    expected = (expr(1, mono(0, ("Lap",)))
                + expr(B, mono(-1, ("Du", "k"), ("Du", "k"))))
    assert got == expected


def test_divergence_linearity_and_weight_consistency():
    """divergence(w, c*V) = c*divergence(w, V) and splitting the weight into
    an explicit u-power gives the same expansion (100 random cases)."""
    rng = random.Random(11)
    pool = [
        expr(1, mono(-1, ("Lap",), ("Du", "x"), free=("x",))),
        expr(1, mono(0, ("D2u", "x", "j"), ("Du", "j"), free=("x",))),
        expr(1, mono(-2, ("Du", "k"), ("Du", "k"), ("Du", "x"), free=("x",))),
        expr(1, mono(1, ("DLap", "x"), free=("x",))),
    ]
    weights = [ps(0), ONE, 2 - 2 * A, -2 * ALPHA / (N + 4), B]
    for _ in range(100):
        v = pool[rng.randrange(len(pool))].scale(
            frac(rng.randint(-3, 3) or 1, rng.randint(1, 4)))
        w = weights[rng.randrange(len(weights))]
        c = frac(rng.randint(-5, 5) or 2, rng.randint(1, 3))
        lhs = divergence(WeightedVectorField(w, v.scale(c)))
        rhs = divergence(WeightedVectorField(w, v)).scale(c)
        assert (lhs - rhs).is_zero
        # u^-(w+1) div(u^(w+1) V) == u^-w div(u^w (u V)) / u
        lhs2 = divergence(WeightedVectorField(w + 1, v))
        rhs2 = upow(divergence(WeightedVectorField(w, upow(v, 1))), -1)
        assert (lhs2 - rhs2).is_zero


def test_dlap_differentiated_off_slot_overflows():
    v = expr(1, mono(0, ("DLap", "j"), ("Du", "j"), ("Du", "x"), free=("x",)))
    with pytest.raises(OrderOverflowError):
        divergence(WeightedVectorField(ps(0), v))


def test_bilap_in_divergence_needs_equation():
    v = expr(1, mono(0, ("Bilap",), ("Du", "x"), free=("x",)))
    with pytest.raises(OrderOverflowError):
        divergence(WeightedVectorField(ps(0), v), FREE)
    got = divergence(WeightedVectorField(ps(0), v), ON_SHELL)
    expected = (expr(1, mono(0, ("Bilap",), ("Lap",)))
                + expr(ALPHA, mono(-1, ("Bilap",), ("Du", "k"), ("Du", "k"))))
    assert got == expected


# -- substitution between jet variables and composite symbols --------------------


def test_roundtrip_forward_backward():
    e = (expr(1, mono(-1, ("D2u", "i", "j"), ("Du", "i"), ("Du", "j")))
         + expr(frac(3, 2), mono(0, ("DLap", "k"), ("Du", "k")))
         + expr(N, mono(1, ("Bilap",))))
    for b in (B, bstar()):
        rt = substitute_defs(forward_defs(e, b), b)
        assert (rt - e).is_zero


def test_trace_of_forward_hessian_is_lap():
    from bhverify.tensor import frob
    t = expr(1, mono(0, ("D2u", "x", "y"), free=("x", "y")))
    metric = expr(1, mono(0, ("g", "x", "y"), free=("x", "y")))
    assert frob(forward_defs(t), metric) == expr(1, mono(0, ("Lap",)))


def test_forward_image_of_raw_divergence_display():
    """The raw divergence display of the trace-free tensor, pushed forward
    into composite symbols with formal b, collapses to
    (n-2)/n b E_j + (n-1)/n F_j + Ric(., Du)."""
    raw = (expr((N - 1) / N, mono(0, ("DLap", "x"), free=("x",)))
           + expr(1, mono(0, ("Ric", "x", "j"), ("Du", "j"), free=("x",)))
           + expr(B, mono(-1, ("Lap",), ("Du", "x"), free=("x",)))
           + expr((N - 2) / N * B,
                  mono(-1, ("D2u", "x", "j"), ("Du", "j"), free=("x",)))
           + expr(-(N - 1) / N * B,
                  mono(-2, ("Du", "k"), ("Du", "k"), ("Du", "x"), free=("x",))))
    got = forward_defs(raw, B)
    e_j = upow(tensor_vec(expr(1, mono(0, ("Etf", "x", "y"), free=("x", "y"))),
                          du_vec()), -1)
    f_j = expr(1, mono(0, ("Fvec", "x"), free=("x",)))
    ric = expr(1, mono(0, ("Ric", "x", "j"), ("Du", "j"), free=("x",)))
    expected = e_j.scale((N - 2) / N * B) + f_j.scale((N - 1) / N) + ric
    assert (got - expected).is_zero
    # and the engine rederives the raw display itself: expanding d/dx^i of
    # the trace-free tensor's jet form contracted suitably gives the same
    # composite relation (checked through the registered identity for E_i)


def test_bstar_kills_lap_squared_gradient_term():
    """In composite symbols the gradient of the zeroth-order invariant has
    (Lap/u)^2 Du coefficient -(n+2)/n b ((n+4)/n (1+2b) + alpha) for formal
    b; it vanishes exactly at b = bstar (that is how bstar is chosen)."""
    from bhverify.tensor import canonical_form
    target = canonical_form(mono(-2, ("Lap",), ("Lap",), ("Du", "x"),
                                 free=("x",)))[1]
    claimed = -(N + 2) / N * B * ((N + 4) / N * (1 + 2 * B) + ALPHA)
    assert claimed.subs_param("b", bstar()).is_zero

    def lap2_coeff(b):
        gscal = substitute_defs(expr(1, mono(0, ("Gscal",))), b)
        fwd = forward_defs(grad(gscal, ON_SHELL), b)
        return fwd.terms.get(target)

    assert lap2_coeff(B) == claimed
    assert lap2_coeff(bstar()) is None


def test_flat_reduction_matches_naive_leibniz():
    """With Ric formally zero the covariant divergence reduces to the naive
    flat expansion (numeric agreement is checked in the oracle tests)."""
    v = expr(1, mono(0, ("D2u", "x", "j"), ("Du", "j"), free=("x",)))
    got = divergence(WeightedVectorField(ps(0), v))
    flat_part = TExpr(0, {m: c for m, c in got.terms.items()
                          if "Ric" not in m.symbols})
    expected_flat = (expr(1, mono(0, ("DLap", "j"), ("Du", "j")))
                     + expr(1, mono(0, ("D2u", "i", "j"), ("D2u", "i", "j"))))
    assert flat_part == expected_flat


# -- differential test against the two Leibniz loops _leibniz replaced ----------
# Verbatim copies of grad, _derived_factor, _div_terms and divergence as they
# were before one routine served both operators.


def _ref_derived_factor(fac, d, mode):
    """Derivative of one factor, as (coeff multiplier, u shift, new factors).

    ``d`` is the label of the derivative slot.  Returns None for factors with
    vanishing derivative (the metric).
    """
    sym = fac[0]
    if sym == "Du":
        return ONE, 0, [("D2u", fac[1], d)]
    if sym == "D2u":
        return ONE, 0, [("D3u", d, fac[1], fac[2])]
    if sym == "Lap":
        return ONE, 0, [("DLap", d)]
    if sym == "g":
        return None
    if sym == "Bilap":
        if mode is SubstitutionMode.ON_SHELL:
            return ALPHA, -1, [("Bilap",), ("Du", d)]
        raise OrderOverflowError(
            "gradient of Bilap needs the equation; use ON_SHELL mode")
    if sym in ("DLap", "D3u"):
        raise OrderOverflowError(f"derivative of {sym} exceeds the supported jet order")
    if sym == "Ric":
        raise UnsupportedCurvatureError("the Ricci tensor carries no differentiation rule")
    if sym in ("Etf", "Fvec", "Gscal"):
        raise CompositeDerivativeError(
            f"expand the composite symbol {sym} before differentiating")
    raise ValueError(f"unknown factor {sym!r}")


def _ref_grad(e: TExpr, mode: SubstitutionMode = SubstitutionMode.FREE) -> TExpr:
    """Leibniz-expanded covariant gradient of a scalar expression."""
    if e.valence != 0:
        raise ValenceError("grad acts on scalar expressions")
    raw = []
    for m, c in e.terms.items():
        u, facs, frees = to_labeled(m)
        if m.u_power:
            raw.append((c * m.u_power,
                        mono(u - 1, *facs, ("Du", "d"), free=frees + ["d"])))
        for idx, fac in enumerate(facs):
            der = _ref_derived_factor(fac, "d", mode)
            if der is None:
                continue
            mult, du, newfacs = der
            nf = facs[:idx] + list(newfacs) + facs[idx + 1:]
            raw.append((c * mult, mono(u + du, *nf, free=frees + ["d"])))
    return TExpr.from_terms(1, raw)


def _ref_div_terms(m: TensorMonomial, c: ParamScalar, mode: SubstitutionMode):
    """Raw Leibniz terms of div(V) for one vector monomial, with the
    contracted commutation rewrites applied in place."""
    u, facs, frees = to_labeled(m)
    f = frees[0]
    out = []
    if m.u_power:
        out.append((c * m.u_power, mono(u - 1, *facs, ("Du", f))))
    for idx, fac in enumerate(facs):
        sym = fac[0]
        rest = facs[:idx] + facs[idx + 1:]
        if sym == "D2u" and f in fac[1:]:
            # divergence of the Hessian: DLap + Ricci correction
            other = fac[2] if fac[1] == f else fac[1]
            out.append((c, mono(u, *rest, ("DLap", other))))
            out.append((c, mono(u, *rest, ("Ric", other, "t"), ("Du", "t"))))
            continue
        if sym == "DLap":
            if fac[1] == f:
                out.append((c, mono(u, *rest, ("Bilap",))))
                continue
            raise OrderOverflowError(
                "derivative of DLap contracted off its own slot exceeds the jet order")
        der = _ref_derived_factor(fac, f, mode)
        if der is None:
            continue
        mult, du, newfacs = der
        nf = facs[:idx] + list(newfacs) + facs[idx + 1:]
        out.append((c * mult, mono(u + du, *nf)))
    return out


def _ref_divergence(field: WeightedVectorField,
               mode: SubstitutionMode = SubstitutionMode.FREE) -> TExpr:
    """u^{-w} div(u^w V), fully expanded and canonicalized.

    The weight contributes w * <Du/u, V>; the divergence of V expands by
    Leibniz with the contracted commutation corrections.
    """
    raw = []
    for m, c in field.vector.terms.items():
        raw.extend(_ref_div_terms(m, c, mode))
        if not field.weight.is_zero:
            u, facs, frees = to_labeled(m)
            raw.append((c * field.weight,
                        mono(u - 1, *facs, ("Du", frees[0]))))
    return TExpr.from_terms(0, raw)


# Pieces of monomials with their own labels; a piece with label "x" carries
# the free slot.  g and self-traces survive because the expressions below are
# built from raw monomials, not canonical forms.  Pieces that make the
# derivative raise are drawn a quarter as often as the others.
SCALAR_PIECES = 4 * (
    [("Lap",)],
    [("Bilap",)],                            # raises unless ON_SHELL
    [("Du", "k"), ("Du", "k")],
    [("D2u", "i", "j"), ("D2u", "i", "j")],
    [("D2u", "i", "j"), ("Du", "i"), ("Du", "j")],
    [("g", "i", "j"), ("Du", "i"), ("Du", "j")],
) + (
    [("Ric", "i", "j"), ("Du", "i"), ("Du", "j")],
    [("D3u", "i", "j", "k"), ("Du", "i"), ("Du", "j"), ("Du", "k")],
    [("DLap", "k"), ("Du", "k")],
    [("Etf", "i", "j"), ("Du", "i"), ("Du", "j")],
    [("Fvec", "k"), ("Du", "k")],
    [("Gscal",)],
)
VECTOR_PIECES = 4 * (
    [("Du", "x")],
    [("D2u", "x", "j"), ("Du", "j")],        # Hessian on the free slot
    [("D2u", "j", "x"), ("Du", "j")],
    [("DLap", "x")],                         # DLap on the free slot
    [("Lap",), ("Du", "x")],
    [("Bilap",), ("Du", "x")],
    [("g", "x", "j"), ("Du", "j")],
) + (
    [("DLap", "j"), ("Du", "j"), ("Du", "x")],
    [("Ric", "x", "j"), ("Du", "j")],
    [("D3u", "x", "j", "k"), ("D2u", "j", "k")],
    [("Etf", "x", "j"), ("Du", "j")],
    [("Fvec", "x")],
)
COEFFS = (ONE, frac(-3, 2), N, ALPHA, 2 - 2 * A, -B / N)


@st.composite
def monomials(draw, vector: bool):
    pieces = draw(st.lists(st.sampled_from(SCALAR_PIECES), max_size=2))
    if vector:
        pieces.append(draw(st.sampled_from(VECTOR_PIECES)))
    factors = []
    for k, piece in enumerate(pieces):
        factors.extend((f[0],) + tuple(lab if lab == "x" else f"{lab}{k}" for lab in f[1:])
                       for f in piece)
    return mono(draw(st.integers(-3, 2)), *factors, free=("x",) if vector else ())


@st.composite
def raw_exprs(draw, vector: bool):
    terms = draw(st.lists(st.tuples(monomials(vector), st.sampled_from(COEFFS)),
                          min_size=1, max_size=3, unique_by=lambda t: t[0]))
    return TExpr(1 if vector else 0, dict(terms))


MODES = st.sampled_from((FREE, ON_SHELL))


def _same_outcome(new, ref):
    try:
        want = ref()
    except (OrderOverflowError, UnsupportedCurvatureError, CompositeDerivativeError,
            ValenceError, ValueError) as exc:
        with pytest.raises(type(exc)):
            new()
        return
    got = new()
    assert got == want
    assert list(got.terms) == list(want.terms)


@settings(max_examples=300, deadline=None)
@given(raw_exprs(vector=False), MODES)
def test_grad_matches_the_replaced_loop(e, mode):
    _same_outcome(lambda: grad(e, mode), lambda: _ref_grad(e, mode))


@settings(max_examples=300, deadline=None)
@given(raw_exprs(vector=True), MODES,
       st.sampled_from((ps(0), ps(0), ONE, B, 2 - 2 * A, -2 * ALPHA / (N + 4))))
def test_divergence_matches_the_replaced_loop(v, mode, weight):
    field = WeightedVectorField(weight, v)
    _same_outcome(lambda: divergence(field, mode),
                  lambda: _ref_divergence(field, mode))


def test_grad_of_the_bernstein_quantity_keeps_its_term_order():
    """The oracle sums grad(build_z())'s terms in this order."""
    got, want = grad(build_z()), _ref_grad(build_z())
    assert list(got.terms.items()) == list(want.terms.items())
