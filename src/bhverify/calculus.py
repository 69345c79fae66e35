"""Covariant differential operators on tensor expressions.

Gradient and weighted divergence share one Leibniz routine, which
differentiates a monomial along one labelled slot: a new free slot for the
gradient, the monomial's own free slot (contracted) for the divergence.
Only a contracted derivative uses commutation facts, and only the
contracted ones that close in Ricci terms:

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

substitute_defs expands the composite symbols Etf, Fvec and Gscal into jet
variables before anything is differentiated or compared.

Expanded once per process, collected once per residual: the definitions
are built once per tensor weight b, and each composite monomial's raw
expansion is kept per (monomial, b).  ``substitution_terms`` concatenates
them, the last term of an expression first, which is the order the terms
of ``substitute_defs`` come in and the order the flat oracle sums them.
grad and divergence collect a residual's negated right side (``rest``,
raw terms from ``substitution_terms``) with their own terms, so LHS - RHS
is one ``TExpr.from_terms`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

from .coeffs import ALPHA, ParamScalar, frac, N
from .errors import (CompositeDerivativeError, OrderOverflowError,
                     UnsupportedCurvatureError, ValenceError)
from .tensor import TExpr, TensorMonomial, expand_factors, expr, mono, to_labeled


# the composite symbols, which substitute_defs expands and nothing differentiates
COMPOSITES = frozenset(("Etf", "Fvec", "Gscal"))


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


def _leibniz(m: TensorMonomial, c: ParamScalar, d: str, kept: list,
             mode: SubstitutionMode):
    """Raw Leibniz terms of the derivative of c * m along the slot labelled d.

    The output monomials carry the free labels ``kept``.  For the gradient,
    d is a new label and the last of them; for the divergence, d is m's own
    free slot f0, so the derivative is contracted with it and the contracted
    commutation rewrites apply: D2u on slot d gives DLap plus the Ricci
    correction, and DLap on slot d gives Bilap.
    """
    u, facs, _ = to_labeled(m)
    out = []
    if m.u_power:
        out.append((c * m.u_power, mono(u - 1, *facs, ("Du", d), free=kept)))
    for idx, fac in enumerate(facs):
        sym = fac[0]
        rest = facs[:idx] + facs[idx + 1:]
        if sym == "D2u" and d in fac[1:]:
            # divergence of the Hessian: DLap + Ricci correction
            other = fac[2] if fac[1] == d else fac[1]
            out.append((c, mono(u, *rest, ("DLap", other), free=kept)))
            out.append((c, mono(u, *rest, ("Ric", other, "t"), ("Du", "t"), free=kept)))
            continue
        if sym == "DLap" and fac[1] == d:
            out.append((c, mono(u, *rest, ("Bilap",), free=kept)))
            continue
        if sym == "g":
            continue
        coeff, shift = c, 0
        if sym == "Du":
            new = [("D2u", fac[1], d)]
        elif sym == "D2u":
            new = [("D3u", d, fac[1], fac[2])]
        elif sym == "Lap":
            new = [("DLap", d)]
        elif sym == "Bilap":
            if mode is not SubstitutionMode.ON_SHELL:
                raise OrderOverflowError(
                    "gradient of Bilap needs the equation; use ON_SHELL mode")
            # the differentiated equation: D Bilap = alpha * (Bilap/u) * Du
            coeff, shift, new = c * ALPHA, -1, [("Bilap",), ("Du", d)]
        elif sym in ("DLap", "D3u"):
            raise OrderOverflowError(f"derivative of {sym} exceeds the supported jet order")
        elif sym == "Ric":
            raise UnsupportedCurvatureError("the Ricci tensor carries no differentiation rule")
        elif sym in COMPOSITES:
            raise CompositeDerivativeError(
                f"expand the composite symbol {sym} before differentiating")
        else:
            raise ValueError(f"unknown factor {sym!r}")
        out.append((coeff, mono(u + shift, *facs[:idx], *new, *facs[idx + 1:], free=kept)))
    return out


def grad(e: TExpr, mode: SubstitutionMode = SubstitutionMode.FREE, *,
         rest=()) -> TExpr:
    """Leibniz-expanded covariant gradient of a scalar expression.

    ``rest``: raw (coeff, monomial) terms collected with the gradient's
    own, the negated right side of a residual.
    """
    if e.valence != 0:
        raise ValenceError("grad acts on scalar expressions")
    raw = []
    for m, c in e.terms.items():
        raw.extend(_leibniz(m, c, "d", ["d"], mode))
    raw.extend(rest)
    return TExpr.from_terms(1, raw)


def divergence(field: WeightedVectorField,
               mode: SubstitutionMode = SubstitutionMode.FREE, *, rest=()) -> TExpr:
    """u^{-w} div(u^w V), fully expanded and canonicalized.

    The weight contributes w * <Du/u, V>; the divergence of V expands by
    Leibniz with the contracted commutation corrections.  ``rest`` as for
    grad.
    """
    raw = []
    for m, c in field.vector.terms.items():
        raw.extend(_leibniz(m, c, "f0", [], mode))
        if not field.weight.is_zero:
            u, facs, frees = to_labeled(m)
            raw.append((c * field.weight,
                        mono(u - 1, *facs, ("Du", frees[0]))))
    raw.extend(rest)
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


@lru_cache(maxsize=None)
def _definitions(b: ParamScalar) -> MappingProxyType:
    """The composite symbols' jet-variable forms at tensor weight b."""
    return MappingProxyType({"Etf": _tracefree_tensor_form(b), "Fvec": _fvec_form(b),
                             "Gscal": _gscal_form(b)})


@lru_cache(maxsize=None)
def _expansion(m: TensorMonomial, b: ParamScalar) -> tuple:
    """The raw expansion of a composite monomial at tensor weight b, in
    expand_factors' order.  Kept for the process: the engine expands the
    composite monomials of the catalog, at b = B and b = bstar() alone."""
    return tuple(expand_factors(m, _definitions(b)))


def substitution_terms(e: TExpr, b: ParamScalar) -> list:
    """The raw (coeff, monomial) terms of e with the composite symbols
    expanded at tensor weight b, not yet collected: the last term of e
    first, a monomial without composites as it stands."""
    raw = []
    for m, c in reversed(e.terms.items()):
        if not COMPOSITES.isdisjoint(m.symbols):
            raw.extend([(c * rc, rm) for rc, rm in _expansion(m, b)])
        else:
            raw.append((c, m))
    return raw


def substitute_defs(e: TExpr, b: ParamScalar) -> TExpr:
    """Replace the composite symbols Etf, Fvec and Gscal by their definitions
    in jet variables, with tensor weight ``b`` (the formal parameter B, or
    ``bstar()`` for the specialized tensors)."""
    return TExpr.from_terms(e.valence, substitution_terms(e, b))
