"""Catalog of named coefficients and the fifteen verified divergence identities.

Every identity is stored as data: a bracket (vector expression in the
composite symbols Etf/Fvec/Gscal where the derivation uses them), the weight
of the surrounding u-power, the claimed right-hand side, and a substitution
mode.  Verification expands the bracket back to jet variables, applies the
weighted divergence (or gradient), expands the right side the same way, and
reduces the difference to canonical form in one collection of both sides'
raw terms: the identity holds iff the difference is the empty expression.

An exact row reduction over the coefficient field (sympy's DomainMatrix)
recovers the combination weights that assemble the master identity from the
six auxiliary flux identities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from sympy.polys.matrices import DomainMatrix

from .calculus import (SubstitutionMode, WeightedVectorField, bstar,
                       divergence, grad, substitute_defs, substitution_terms)
from .coeffs import ALPHA, A, B, COEFF_FIELD, N, ONE, ZERO, ParamScalar, frac, ps
from .errors import NoCombinationError, SingularSystemError
from .tensor import (TExpr, dot, emul, expr, frob, mono,
                     tensor_vec, upow)

# -- building blocks ----------------------------------------------------------


def _du() -> TExpr:
    return expr(1, mono(0, ("Du", "x"), free=("x",)))


def _gradsq() -> TExpr:
    return expr(1, mono(0, ("Du", "k"), ("Du", "k")))


def _lap() -> TExpr:
    return expr(1, mono(0, ("Lap",)))


def _etf_sym() -> TExpr:
    return expr(1, mono(0, ("Etf", "x", "y"), free=("x", "y")))


def _fvec_sym() -> TExpr:
    return expr(1, mono(0, ("Fvec", "x"), free=("x",)))


def _gscal_sym() -> TExpr:
    return expr(1, mono(0, ("Gscal",)))


def _e_i() -> TExpr:
    """E_i = Etf_{ij} u^j / u as a symbol-space vector."""
    return upow(tensor_vec(_etf_sym(), _du()), -1)


def _e_scalar() -> TExpr:
    """E = E_i u^i / u."""
    return upow(dot(_e_i(), _du()), -1)


def _f_scalar() -> TExpr:
    """F = F_i u^i / u."""
    return upow(dot(_fvec_sym(), _du()), -1)


def _etf_square_plus_ric() -> TExpr:
    """Etf_{ij}Etf^{ij} + Ric_{ij} u^i u^j."""
    return frob(_etf_sym(), _etf_sym()) + expr(
        1, mono(0, ("Ric", "i", "j"), ("Du", "i"), ("Du", "j")))


def build_z() -> TExpr:
    """Z_a = Lap/u + a |Du|^2 / u^2."""
    return expr(1, mono(-1, ("Lap",))) + expr(A, mono(-2, ("Du", "k"), ("Du", "k")))


# -- named catalog -------------------------------------------------------------


def _k() -> ParamScalar:
    """K = 1 + n*alpha/(n+4) = -2*bstar."""
    return -2 * bstar()


def _c1() -> ParamScalar:
    return (-(N**2) * (3 * N - 10) * ALPHA**2 / (4 * (N - 1) * (N + 4) ** 2)
            + 2 * (N + 2) * ALPHA / ((N - 1) * (N + 4))
            + 3 * (N + 2) / (4 * (N - 1)))


def _c2() -> ParamScalar:
    return (N**2 + 2 * N + 4) * ALPHA / ((N - 1) * (N + 4)) + (N + 2) / (N - 1)


def _vanishing_factor() -> ParamScalar:
    """1 - (n-4)*alpha/(n+4); vanishes at the critical exponent."""
    return 1 - (N - 4) * ALPHA / (N + 4)


@lru_cache(maxsize=None)
def _coeff_catalog() -> dict[str, ParamScalar]:
    c1, c2 = _c1(), _c2()
    return {
        "b_star": bstar(),
        "c1": c1,
        "c2": c2,
        "A11": N / (N - 1) * (c1 + 2 * c2 / (N - 4)) + 2 * c1,
        "A11_display": (
            -(N**2) * (3 * N - 2) * (3 * N - 10) * ALPHA**2 / (4 * (N - 1) ** 2 * (N + 4) ** 2)
            + 4 * (2 * N**3 - 3 * N**2 - 8 * N + 8) * ALPHA / ((N - 1) ** 2 * (N - 4) * (N + 4))
            + (N + 2) * (9 * N**2 - 34 * N + 24) / (4 * (N - 1) ** 2 * (N - 4))),
        "A22": ONE,
        "A12": (N**2 - 8) * ALPHA / (2 * (N - 1) * (N + 4)) - (N + 2) / (2 * (N - 1)),
        "A13": ALPHA / (N + 4) * (N**2 * ALPHA / (N + 4) + N + 1) * _vanishing_factor(),
        "A23": -ALPHA / 4 * _vanishing_factor(),
        "A33": (N * (N - 2) / (2 * (N + 4) ** 2) * ALPHA**2 * _k() * _vanishing_factor()),
    }


# Univariate coefficient lists (constant term first) with entries rational in n.
F1_COEFFS = (4 * (N + 2) * (N - 4),
             N**3 + 16 * N**2 - 8 * N - 64,
             -(5 * N**4 - 18 * N**3 + 2 * N**2 + 32))
F2_COEFFS = ((N - 2) ** 2 * (N - 4) * (7 * N + 32),
             (N - 2) * (9 * N**4 + 118 * N**3 - 288 * N**2 + 96 * N + 512),
             -N * (7 * N**5 - 224 * N**4 + 972 * N**3 - 1936 * N**2 + 1088 * N + 256),
             -N * (N - 4) * (9 * N**5 - 48 * N**4 + 148 * N**3 - 112 * N**2 + 448 * N - 256))
F3_COEFFS = ((N - 2) * (N - 4) * (7 * N + 32),
             9 * N**4 + 118 * N**3 - 288 * N**2 + 96 * N + 512,
             -16 * N**2 * (N - 12) * (N**2 - 3 * N + 4))


def poly_apply(coeffs, x):
    """Evaluate a coefficient list (constant first) at x by Horner's rule.

    Serves Fraction and ParamScalar coefficients and arguments alike.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def build_named(name: str) -> ParamScalar:
    """The catalog coefficient of this name, built from the definitions,
    never re-entered by hand."""
    coeffs = _coeff_catalog()
    if name not in coeffs:
        raise KeyError(f"unknown catalog name {name!r}")
    return coeffs[name]


# -- identities ----------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """One verified relation: LHS is either a weighted divergence of a vector
    bracket or a gradient of a scalar; both sides may use composite symbols."""
    id: str
    anchor: str
    kind: str                      # "wdiv" | "grad"
    weight: ParamScalar
    lhs: TExpr
    rhs: TExpr
    mode: SubstitutionMode
    b: ParamScalar                 # parameter used when expanding composites


@dataclass
class VerificationReport:
    id: str
    anchor: str
    kind: str                      # "wdiv" | "grad"
    mode: str
    status: str                    # "verified-zero" | "residual"
    residual_count: int
    residual_terms: list[str]
    millis: float                  # rounded to 3 places


def _weight0() -> ParamScalar:
    """The u-weight -2*alpha/(n+4) carried by every flux identity."""
    return -2 * ALPHA / (N + 4)


@lru_cache(maxsize=None)
def all_identities() -> tuple[Identity, ...]:
    du, gradsq, lap = _du(), _gradsq(), _lap()
    e_i, f_i, g_sym = _e_i(), _fvec_sym(), _gscal_sym()
    e_sc, f_sc = _e_scalar(), _f_scalar()
    sq = _etf_square_plus_ric()
    K = _k()
    van = _vanishing_factor()
    coeff = _coeff_catalog()
    c1, c2 = coeff["c1"], coeff["c2"]
    w0 = _weight0()
    two = ps(2)

    def du4_vec(power: int) -> TExpr:
        return expr(1, mono(power, ("Du", "i"), ("Du", "i"),
                            ("Du", "j"), ("Du", "j"), ("Du", "x"), free=("x",)))

    ids = []

    # Bernstein quantity Z_a: weighted divergence, raw expansion.
    grad_z = grad(build_z())
    rhs1 = (expr(1, mono(-1, ("Bilap",)))
            + expr(-1, mono(-2, ("Lap",), ("Lap",)))
            + expr(2 * A * (1 + 2 * A),
                   mono(-4, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j")))
            + expr(2 * A, mono(-2, ("Ric", "i", "j"), ("Du", "i"), ("Du", "j")))
            + expr(-4 * A * (1 + A), mono(-3, ("D2u", "i", "j"), ("Du", "i"), ("Du", "j")))
            + expr(2 * A, mono(-2, ("D2u", "i", "j"), ("D2u", "i", "j"))))
    ids.append(Identity("I1", "weighted divergence of grad(Z_a), raw expansion",
                        "wdiv", 2 - 2 * A, grad_z, rhs1, SubstitutionMode.FREE, B))

    # Same left side, completed-square form.
    T = (expr(1, mono(-1, ("D2u", "x", "y"), free=("x", "y")))
         + expr(-(1 + A), mono(-2, ("Du", "x"), ("Du", "y"), free=("x", "y")))
         + expr(-1 / N, mono(-1, ("Lap",), ("g", "x", "y"), free=("x", "y")))
         + expr((1 + A) / N, mono(-2, ("Du", "k"), ("Du", "k"), ("g", "x", "y"),
                                  free=("x", "y"))))
    rhs2 = (frob(T, T).scale(2 * A)
            + expr(1, mono(-1, ("Bilap",)))
            + expr(2 * A, mono(-2, ("Ric", "i", "j"), ("Du", "i"), ("Du", "j")))
            + expr(2 * A / N - 1, mono(-2, ("Lap",), ("Lap",)))
            + expr(-4 * A / N * (1 + A), mono(-3, ("Lap",), ("Du", "k"), ("Du", "k")))
            + expr(2 * A / N * ((1 + A) ** 2 - N * A**2),
                   mono(-4, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"))))
    ids.append(Identity("I2", "weighted divergence of grad(Z_a), completed-square form",
                        "wdiv", 2 - 2 * A, grad_z, rhs2, SubstitutionMode.FREE, B))

    # Divergence relation for the trace-free vector.
    rhs3 = (upow(sq, -1)
            + e_sc.scale(-((N - 1) / N - ALPHA / (N + 4)))
            + f_sc.scale((N - 1) / N))
    ids.append(Identity("I3", "divergence relation for the trace-free vector",
                        "wdiv", ps(0), e_i, rhs3, SubstitutionMode.FREE, bstar()))

    # Divergence relation for the first-order invariant vector.
    rhs4 = (e_sc.scale(frac(1, 2) * K * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)))
            + f_sc.scale(-(N + 2) / (2 * N) * K)
            + g_sym)
    ids.append(Identity("I4", "divergence relation for the first-order invariant vector",
                        "wdiv", ps(0), f_i, rhs4, SubstitutionMode.FREE, bstar()))

    # Gradient relation for the zeroth-order invariant (uses the equation).
    rhs5 = (upow(emul(gradsq, e_i), -2)
            .scale(-frac(1, 2) * K * (1 - 3 * N * ALPHA / (N + 4))
                   * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)))
            + upow(emul(lap, e_i), -1).scale((N + 2) / N * K * (1 - N * ALPHA / (N + 4)))
            + upow(emul(gradsq, f_i), -2).scale((N + 2) / (2 * N) * K * (1 - N * ALPHA / (N + 4)))
            + upow(emul(lap, f_i), -1).scale(-(N + 2) / N * K)
            + upow(emul(g_sym, du), -1).scale(ALPHA)
            + du4_vec(-4).scale(-ALPHA / (2 * (N + 4)) * K * van
                                * (N + 2 - N * (N - 2) * ALPHA / (N + 4)))
            + upow(emul(emul(lap, gradsq), du), -3).scale(frac(1, 2) * ALPHA * K * van))
    ids.append(Identity("I5", "gradient relation for the zeroth-order invariant",
                        "grad", ps(0), g_sym, rhs5, SubstitutionMode.ON_SHELL, bstar()))

    # Auxiliary flux identity 1: |Du|^2 E_i / u.
    rhs6 = (upow(emul(gradsq, sq), -2)
            + dot(e_i, e_i).scale(two)
            + upow(emul(gradsq, e_sc), -1).scale((N - 2) * ALPHA / (N + 4) - 1)
            + emul(lap, e_sc).scale(frac(2, 1) / N)
            + upow(emul(gradsq, f_sc), -1).scale((N - 1) / N))
    ids.append(Identity("I6", "flux identity for |Du|^2 * tracefree-vector / u",
                        "wdiv", w0, upow(emul(gradsq, e_i), -1), rhs6,
                        SubstitutionMode.FREE, bstar()))

    # Auxiliary flux identity 2: Lap * E_i.
    rhs7 = (upow(emul(lap, sq), -1)
            + dot(e_i, f_i)
            + emul(lap, e_sc).scale(N * ALPHA / (2 * (N + 4)) - (N - 4) / (2 * N))
            + upow(emul(gradsq, e_sc), -1)
            .scale(-frac(1, 4) * K * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)))
            + emul(lap, f_sc).scale((N - 1) / N))
    ids.append(Identity("I7", "flux identity for Lap * tracefree-vector",
                        "wdiv", w0, emul(lap, e_i), rhs7, SubstitutionMode.FREE, bstar()))

    # Auxiliary flux identity 3: |Du|^2 F_i / u.
    rhs8 = (dot(e_i, f_i).scale(two)
            + upow(emul(gradsq, e_sc), -1)
            .scale(frac(1, 2) * K * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)))
            + upow(emul(gradsq, f_sc), -1)
            .scale((N - 8) * ALPHA / (2 * (N + 4)) - (N + 4) / (2 * N))
            + emul(lap, f_sc).scale(frac(2, 1) / N)
            + upow(emul(gradsq, g_sym), -1))
    ids.append(Identity("I8", "flux identity for |Du|^2 * first-order-vector / u",
                        "wdiv", w0, upow(emul(gradsq, f_i), -1), rhs8,
                        SubstitutionMode.FREE, bstar()))

    # Auxiliary flux identity 4: Lap * F_i.
    rhs9 = (dot(f_i, f_i)
            + emul(lap, f_sc).scale(-2 * ALPHA / (N + 4))
            + emul(lap, g_sym)
            + (emul(lap, e_sc).scale(two) - upow(emul(gradsq, f_sc), -1))
            .scale(frac(1, 4) * K * ((N + 2) / N - (N - 2) * ALPHA / (N + 4))))
    ids.append(Identity("I9", "flux identity for Lap * first-order-vector",
                        "wdiv", w0, emul(lap, f_i), rhs9, SubstitutionMode.FREE, bstar()))

    # Auxiliary flux identity 5: G * Du (uses the equation).
    rhs10 = (upow(emul(gradsq, e_sc), -1)
             .scale(-frac(1, 2) * K * (1 - 3 * N * ALPHA / (N + 4))
                    * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)))
             + emul(lap, e_sc).scale((N + 2) / N * K * (1 - N * ALPHA / (N + 4)))
             + upow(emul(gradsq, f_sc), -1)
             .scale((N + 2) / (2 * N) * K * (1 - N * ALPHA / (N + 4)))
             + emul(lap, f_sc).scale(-(N + 2) / N * K)
             + upow(emul(gradsq, g_sym), -1).scale((N + 2) * ALPHA / (N + 4))
             + emul(lap, g_sym)
             + expr(frac(1, 2) * ALPHA * K * van * (N * (N - 2) * ALPHA / (N + 4) ** 2
                                                    - (N + 2) / (N + 4)),
                    mono(-4, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"),
                         ("Du", "k"), ("Du", "k")))
             + expr(frac(1, 2) * ALPHA * K * van,
                    mono(-3, ("Lap",), ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"))))
    ids.append(Identity("I10", "flux identity for zeroth-order-invariant * Du",
                        "wdiv", w0, emul(g_sym, du), rhs10,
                        SubstitutionMode.ON_SHELL, bstar()))

    # Auxiliary flux identity 6: |Du|^4 Du / u^3.
    rhs11 = (upow(emul(gradsq, e_sc), -1).scale(ps(4))
             + expr(2 * (N - 2) * ALPHA / (N + 4) - (N + 2) / N,
                    mono(-4, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"),
                         ("Du", "k"), ("Du", "k")))
             + expr((N + 4) / N,
                    mono(-3, ("Lap",), ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"))))
    ids.append(Identity("I11", "flux identity for |Du|^4 * Du / u^3",
                        "wdiv", w0, du4_vec(-3), rhs11, SubstitutionMode.FREE, bstar()))

    # Master identity.
    bracket = (upow(emul(gradsq, e_i), -1).scale(c1)
               + emul(lap, e_i).scale(-c2)
               + upow(emul(gradsq, f_i), -1).scale((N + 2) * ALPHA / (N + 4))
               + emul(lap, f_i)
               + emul(g_sym, du).scale(-1)
               + du4_vec(-3).scale(N * ALPHA / (2 * (N + 4)) * K * van))
    A12, A13, A23, A33 = coeff["A12"], coeff["A13"], coeff["A23"], coeff["A33"]
    rhs12 = (upow(emul(gradsq, sq), -2).scale(c1)
             + upow(emul(lap, sq), -1).scale(-c2)
             + dot(e_i, e_i).scale(2 * c1)
             + dot(f_i, f_i)
             + dot(e_i, f_i).scale(2 * A12)
             + upow(emul(gradsq, e_sc), -1).scale(2 * A13)
             + upow(emul(gradsq, f_sc), -1).scale(2 * A23)
             + expr(A33, mono(-4, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"),
                              ("Du", "k"), ("Du", "k"))))
    ids.append(Identity("I12", "master divergence identity with quadratic-form right side",
                        "wdiv", w0, bracket, rhs12, SubstitutionMode.ON_SHELL, bstar()))

    # Flux identity for Lap * |Du|^2 * Du / u^2.
    rhs13 = (expr((N + 2) / N, mono(-2, ("Lap",), ("Lap",), ("Du", "i"), ("Du", "i")))
             + expr(frac(1, 2) * ((3 * N - 4) * ALPHA / (N + 4) - 1),
                    mono(-3, ("Lap",), ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j")))
             + expr(frac(1, 4) * K * ((N - 2) * ALPHA / (N + 4) - (N + 2) / N),
                    mono(-4, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"),
                         ("Du", "k"), ("Du", "k")))
             + emul(lap, e_sc).scale(two)
             + upow(emul(gradsq, f_sc), -1))
    lhs13 = expr(1, mono(-2, ("Lap",), ("Du", "k"), ("Du", "k"), ("Du", "x"), free=("x",)))
    ids.append(Identity("I13", "flux identity for Lap * |Du|^2 * Du / u^2",
                        "wdiv", w0, lhs13, rhs13, SubstitutionMode.FREE, bstar()))

    # Flux identity for u * F_i.  The uF coefficient carries the Leibniz term
    # (1 - 2*alpha/(n+4)) that the printed display omits (ERRATA).
    rhs14 = (upow(g_sym, 1)
             + upow(e_sc, 1).scale(frac(1, 2) * K * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)))
             + upow(f_sc, 1).scale(-(N + 2) / (2 * N) * K + 1 - 2 * ALPHA / (N + 4)))
    ids.append(Identity("I14", "flux identity for u * first-order-vector",
                        "wdiv", w0, upow(f_i, 1), rhs14, SubstitutionMode.FREE, bstar()))

    # Flux identity for Lap * Du.  The |Du|^4/u^2 coefficient is the derived
    # one, not the printed one (ERRATA); the Lap-term coefficient matches the
    # display exactly.
    rhs15 = (expr(1, mono(0, ("Lap",), ("Lap",)))
             + upow(f_sc, 1)
             + expr(frac(1, 2) * ((N - 2) * ALPHA / (N + 4) + (N + 2) / N),
                    mono(-1, ("Lap",), ("Du", "k"), ("Du", "k")))
             + expr(-frac(1, 4) * K * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)),
                    mono(-2, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j"))))
    lhs15 = expr(1, mono(0, ("Lap",), ("Du", "x"), free=("x",)))
    ids.append(Identity("I15", "flux identity for Lap * Du",
                        "wdiv", w0, lhs15, rhs15, SubstitutionMode.FREE, bstar()))

    return tuple(ids)


# Where a transcribed source display differs from the derived identity: id ->
# (right-side monomial, coefficient as printed).  Each registered identity
# carries the derived coefficient; printed_variant puts the printed one back,
# and its verification leaves exactly that residual, which the test suite
# asserts.
#   I14, uF: the display drops the Leibniz terms (1 - 2*alpha/(n+4)) of the
#     u-power and the weight; the inequality it feeds absorbs uF into its
#     generic constant, so the downstream estimate is unaffected.
#   I15, |Du|^4/u^2: the derived coefficient is
#     -(1/4) * K * ((n+2)/n - (n-2)*alpha/(n+4)); the estimate it feeds only
#     needs boundedness of this coefficient, so it is unaffected.
ERRATA: dict[str, tuple] = {
    "I14": (mono(0, ("Du", "i"), ("Fvec", "i")), -(N + 2) / (2 * N) * _k()),
    "I15": (mono(-2, ("Du", "i"), ("Du", "i"), ("Du", "j"), ("Du", "j")),
            frac(1, 6) * ((N - 2) * ALPHA / (N + 4) + (N + 2) / N) * _k()),
}


def _replace_coefficient(ident: Identity, m, coeff: ParamScalar, suffix: str,
                         note: str) -> Identity:
    """Copy of the identity with the right-side coefficient of m replaced;
    a zero coefficient drops m."""
    terms = dict(ident.rhs.terms)
    terms[m] = coeff
    rhs = TExpr.from_terms(ident.rhs.valence, [(c, k) for k, c in terms.items()])
    return Identity(ident.id + suffix, f"{ident.anchor} ({note})", ident.kind,
                    ident.weight, ident.lhs, rhs, ident.mode, ident.b)


def printed_variant(identity_id: str) -> Identity:
    """The identity with the right side as printed in the source display,
    for the entries of ERRATA; verification exhibits the residual."""
    if identity_id not in ERRATA:
        raise KeyError(f"no printed variant recorded for {identity_id!r}")
    m, printed = ERRATA[identity_id]
    return _replace_coefficient(get_identity(identity_id), m, printed,
                                "-printed", "as printed")


def perturb_identity(ident: Identity, term_index: int, delta=1) -> Identity:
    """Copy of the identity with one right-side coefficient shifted by delta.

    Used for mutation testing: any such perturbation must produce a residual,
    so an index outside ``0 .. len - 1`` of the sorted right side and a zero
    delta are refused.
    """
    terms = ident.rhs.sorted_terms()
    if not 0 <= term_index < len(terms):
        raise ValueError(f"term index {term_index} outside 0..{len(terms) - 1} "
                         f"for {ident.id}")
    delta = ps(delta)
    if delta.is_zero:
        raise ValueError(f"delta {delta} leaves {ident.id} unperturbed")
    m, c = terms[term_index]
    return _replace_coefficient(ident, m, c + delta, "*", "perturbed")


def get_identity(identity_id: str) -> Identity:
    for ident in all_identities():
        if ident.id == identity_id:
            return ident
    raise KeyError(f"unknown identity {identity_id!r}")


def residual(ident: Identity) -> TExpr:
    """LHS - RHS in jet variables, in one collection: the raw Leibniz terms
    of the substituted left side, in its mode, with the raw expansion of
    the negated right side."""
    lhs_jets = substitute_defs(ident.lhs, ident.b)
    minus_rhs = substitution_terms(-ident.rhs, ident.b)
    if ident.kind == "wdiv":
        return divergence(WeightedVectorField(ident.weight, lhs_jets), ident.mode,
                          rest=minus_rhs)
    if ident.kind == "grad":
        return grad(lhs_jets, ident.mode, rest=minus_rhs)
    raise ValueError(f"unknown identity kind {ident.kind!r}")


def verify_identity(ident: Identity) -> VerificationReport:
    """Reduce LHS - RHS to canonical form and report the residual."""
    t0 = time.perf_counter()
    diff = residual(ident)
    millis = round((time.perf_counter() - t0) * 1000.0, 3)
    terms = [f"({c}) {m.render()}" for m, c in diff.sorted_terms()]
    status = "verified-zero" if diff.is_zero else "residual"
    return VerificationReport(ident.id, ident.anchor, ident.kind, ident.mode.value,
                              status, len(terms), terms, millis)


def select_identities(ids: list[str] | None = None) -> tuple[Identity, ...]:
    """The registered identities named by ``ids``, in registry order; None
    names every one.  An empty list, an unknown id or an id listed more
    than once raises ValueError naming it."""
    idents = all_identities()
    if ids is None:
        return idents
    if not ids:
        raise ValueError("ids is empty: None selects every identity")
    known = [i.id for i in idents]
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ValueError(f"unknown identity {', '.join(unknown)}; known: {', '.join(known)}")
    repeated = [i for k, i in enumerate(ids) if i in ids[:k]]
    if repeated:
        raise ValueError(f"identity {', '.join(dict.fromkeys(repeated))} "
                         f"is listed more than once")
    return tuple(i for i in idents if i.id in ids)


def verify_all(ids: list[str] | None = None) -> list[VerificationReport]:
    """Verify the identities ``select_identities(ids)`` names."""
    return [verify_identity(ident) for ident in select_identities(ids)]


# -- combination solver --------------------------------------------------------


def solve_combination(target: Identity, basis: list[Identity]) -> list[ParamScalar]:
    """Exact weights writing the target bracket as a combination of basis
    brackets, certified by re-deriving the target's right side.

    Row-reduces the monomial-matching system [basis | target] over the
    coefficient field.  A basis bracket that is not a pivot column gives
    SingularSystemError; a pivot in the target column (naming a target
    monomial no basis bracket contains, if there is one) or a failed
    right-side certification gives NoCombinationError.
    """
    rows = sorted({m for b in basis for m in b.lhs.terms} | set(target.lhs.terms),
                  key=lambda m: m.key())
    brackets = [b.lhs for b in basis] + [target.lhs]
    entries = [[br.terms.get(m, ZERO) for br in brackets] for m in rows]
    system = DomainMatrix([[COEFF_FIELD.new(c.num, c.den) for c in row] for row in entries],
                          (len(rows), len(brackets)), COEFF_FIELD.to_domain())
    reduced, pivots = system.rref()
    for col, b in enumerate(basis):
        if col not in pivots:
            raise SingularSystemError(
                f"basis bracket {b.id} is linearly dependent on the others")
    if len(basis) in pivots:
        uncovered = [m for m in rows
                     if m in target.lhs.terms and not any(m in b.lhs.terms for b in basis)]
        if uncovered:
            raise NoCombinationError(
                f"monomial {uncovered[0].render()} cannot be matched by the basis")
        raise NoCombinationError(f"bracket of {target.id} is not in the span of the basis")
    # every basis column is a pivot, so row i holds the weight of basis[i]
    weights = [ParamScalar(row[-1].numer, row[-1].denom)
               for row in reduced.to_list()[:len(basis)]]

    # Certify the induced right side against the target's.
    combo_rhs = TExpr(target.rhs.valence)
    for w, b in zip(weights, basis):
        combo_rhs = combo_rhs + b.rhs.scale(w)
    diff = substitute_defs(combo_rhs - target.rhs, target.b)
    if not diff.is_zero:
        raise NoCombinationError(
            "weights solve the bracket system but the induced right side "
            f"differs: {diff.render()[:200]}")
    return weights
