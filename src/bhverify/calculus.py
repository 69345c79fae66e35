"""Covariant differential operators on tensor expressions.

Gradient and weighted divergence expand by the Leibniz rule; the only
commutation facts used are the contracted ones that close in Ricci terms:

  * the divergence of the Hessian:  (D2u)_{ij,}{}^i = (DLap)_j + Ric_{jk} u^k
  * contracted derivatives of DLap: (DLap)_{i,}{}^i = Bilap

The metric is parallel, Ricci carries no differentiation rule, and any
pattern that would require the full Riemann tensor or a jet order beyond
Bilap/D3u raises.  Fractional powers of u live only in the weight of a
WeightedVectorField: the divergence of u^w V is expanded as
u^w (div V + w <Du/u, V>), so stored expressions stay polynomial in the jet
variables with integer u-powers.

In ON_SHELL mode the fourth-order equation is used through its differentiated
form: the gradient of Bilap is replaced by alpha * (Bilap/u) * Du.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .coeffs import ALPHA, B, ONE, ParamScalar, frac, N
from .errors import (CompositeDerivativeError, OrderOverflowError,
                     UnsupportedCurvatureError, ValenceError)
from .tensor import (TExpr, TensorMonomial, expr, mono,
                     substitute_factors, to_labeled)


class SubstitutionMode(Enum):
    FREE = "free"          # no equation assumed
    ON_SHELL = "onshell"   # grad(Bilap) -> alpha * (Bilap/u) * Du


@dataclass(frozen=True)
class WeightedVectorField:
    """A vector field u^weight * V with V polynomial in the jet variables."""
    weight: ParamScalar
    vector: TExpr

    def __post_init__(self):
        if self.vector.valence != 1:
            raise ValenceError("WeightedVectorField requires a vector expression")


def _derived_factor(fac, d, mode):
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


def grad(e: TExpr, mode: SubstitutionMode = SubstitutionMode.FREE) -> TExpr:
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
            der = _derived_factor(fac, "d", mode)
            if der is None:
                continue
            mult, du, newfacs = der
            nf = facs[:idx] + list(newfacs) + facs[idx + 1:]
            raw.append((c * mult, mono(u + du, *nf, free=frees + ["d"])))
    return TExpr.from_terms(1, raw)


def _div_terms(m: TensorMonomial, c: ParamScalar, mode: SubstitutionMode):
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
        der = _derived_factor(fac, f, mode)
        if der is None:
            continue
        mult, du, newfacs = der
        nf = facs[:idx] + list(newfacs) + facs[idx + 1:]
        out.append((c * mult, mono(u + du, *nf)))
    return out


def divergence(field: WeightedVectorField,
               mode: SubstitutionMode = SubstitutionMode.FREE) -> TExpr:
    """u^{-w} div(u^w V), fully expanded and canonicalized.

    The weight contributes w * <Du/u, V>; the divergence of V expands by
    Leibniz with the contracted commutation corrections.
    """
    raw = []
    for m, c in field.vector.terms.items():
        raw.extend(_div_terms(m, c, mode))
        if not field.weight.is_zero:
            u, facs, frees = to_labeled(m)
            raw.append((c * field.weight,
                        mono(u - 1, *facs, ("Du", frees[0]))))
    return TExpr.from_terms(0, raw)


# -- invariant-tensor substitution -------------------------------------------


def bstar() -> ParamScalar:
    """The tensor-weight parameter choice that kills the (Lap/u)^2 gradient
    term: b = -(1 + n*alpha/(n+4))/2."""
    return frac(-1, 2) * (1 + N * ALPHA / (N + 4))


def _tracefree_tensor_form(b: ParamScalar) -> TExpr:
    """The trace-free combination written in jet variables (what Etf stands for)."""
    return (expr(1, mono(0, ("D2u", "x", "y"), free=("x", "y")))
            + expr(b, mono(-1, ("Du", "x"), ("Du", "y"), free=("x", "y")))
            + expr(-1 / N, mono(0, ("Lap",), ("g", "x", "y"), free=("x", "y")))
            + expr(-b / N, mono(-1, ("Du", "k"), ("Du", "k"), ("g", "x", "y"),
                                free=("x", "y"))))


def _fvec_form(b: ParamScalar) -> TExpr:
    return (expr(1, mono(0, ("DLap", "x"), free=("x",)))
            + expr((N + 2) / N * b, mono(-1, ("Lap",), ("Du", "x"), free=("x",)))
            + expr(-b * (1 + (N - 2) / N * b),
                   mono(-2, ("Du", "k"), ("Du", "k"), ("Du", "x"), free=("x",))))


def _gscal_form(b: ParamScalar) -> TExpr:
    return (expr(1, mono(0, ("Bilap",)))
            + expr((N + 2) / N * b, mono(-1, ("Lap",), ("Lap",)))
            + expr(-2 * (N + 2) / N * b * (1 + b),
                   mono(-2, ("Lap",), ("Du", "k"), ("Du", "k")))
            + expr(b * (3 * b + 2) * (1 + (N - 2) / N * b),
                   mono(-3, ("Du", "k"), ("Du", "k"), ("Du", "l"), ("Du", "l"))))


def substitute_defs(e: TExpr, direction: str, b: ParamScalar | None = None) -> TExpr:
    """Rewrite between jet variables and the composite symbols.

    direction="forward":  D2u -> Etf-form, DLap -> Fvec-form, Bilap -> Gscal-form
    direction="backward": Etf/Fvec/Gscal replaced by their jet definitions

    The round trip forward then backward is the identity on canonical forms.
    ``b`` defaults to the formal parameter; pass ``bstar()`` for the
    specialized tensors.
    """
    if b is None:
        b = B
    etf = _tracefree_tensor_form(b)
    fv = _fvec_form(b)
    gs = _gscal_form(b)

    if direction == "backward":
        table = {
            "Etf": etf,
            "Fvec": fv,
            "Gscal": gs,
        }
    elif direction == "forward":
        # solve each definition for the jet symbol it isolates
        etf_sym = expr(1, mono(0, ("Etf", "x", "y"), free=("x", "y")))
        fv_sym = expr(1, mono(0, ("Fvec", "x"), free=("x",)))
        gs_sym = expr(1, mono(0, ("Gscal",)))
        d2u = expr(1, mono(0, ("D2u", "x", "y"), free=("x", "y")))
        dlap = expr(1, mono(0, ("DLap", "x"), free=("x",)))
        bilap = expr(1, mono(0, ("Bilap",)))
        table = {
            "D2u": etf_sym - (etf - d2u),
            "DLap": fv_sym - (fv - dlap),
            "Bilap": gs_sym - (gs - bilap),
        }
    else:
        raise ValueError("direction must be 'forward' or 'backward'")
    return substitute_factors(e, table)
