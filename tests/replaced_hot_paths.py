"""The replaced record conversion, eigenvalue scan, exponent check,
coefficient equality, estimate grid, report rendering, composite substitution,
identity residual and expression sum, kept as the tests' reference.

``bhverify.report.jsonable`` now dispatches on the exact type of a value
alone and refuses subclasses, ``paramcheck.numeric_pd_scan`` evaluates a
block of n at once, ``paramcheck.exponent_check`` decides its verdicts on
integer cross-products, ``ParamScalar.__eq__`` compares two constants by
their ground values, ``paramcheck.est1_grid_check`` decides on integer
numerators, ``paramcheck.at_n`` evaluates its n-tables by a plain Horner
loop and ``report.render_json`` writes the exact types ``jsonable`` returns
in one recursive pass and refuses a non-finite float.
``calculus.substitute_defs`` expands each composite monomial once per
process and ``registry.verify_identity`` collects LHS - RHS in one pass;
they substituted a whole expression per call (``substitute_factors``, with
the definitions rebuilt for each call) and subtracted two collected sides.
Up to that change they were the functions below, unchanged; the helpers
they share with the package (``PDReport``, ``ExponentCheck``,
``_eigmin_sym3``, ``est1_coefficient``, ``_horner``, ``_n_tables``, the
cached matrix and certificates, the definition forms, ``replace_factor``,
``divergence`` and ``grad``) are imported from it.
``TExpr.__add__`` and ``tensor.expr`` now collect through
``TExpr.from_terms``; they summed per monomial with ``ParamScalar``
arithmetic and canonicalized one term themselves (``texpr_add``, ``expr``),
and ``residual`` and ``certificate_difference`` sum with that ``texpr_add``.
``tensor.canonical_form`` now keeps one result per contraction graph, enters
each canonical graph as its own fixed point and branches once on twin
one-slot factors; ``_canonical_cached`` and ``_least_relabeling`` below are
the per-monomial memo and the search without twins that it replaced
(``_structural_rewrites``, ``_leaf_key``, ``_ORDER`` and ``FACTORS`` are
the package's).
"""

import json
import math
from dataclasses import is_dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from bhverify.calculus import (WeightedVectorField, _fvec_form, _gscal_form,
                               _tracefree_tensor_form, divergence, grad)
from bhverify.coeffs import ParamScalar, ps
from bhverify.errors import EngineInconsistencyError, PoleError, ValenceError
from bhverify.paramcheck import (EST1_GRID_POINTS, ExponentCheck, PDReport, _eigmin_sym3,
                                 _horner, _n_tables, build_matrix_A, est1_coefficient,
                                 sylvester_certificates)
from bhverify.tensor import (_ORDER, FACTORS, TensorMonomial, TExpr, _leaf_key,
                             _structural_rewrites, canonical_form, replace_factor)


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


def texpr_add(self: TExpr, other: TExpr) -> TExpr:
    """TExpr.__add__: each coefficient of other added to self's as a
    ParamScalar, a key that sums to zero dropped."""
    if self.valence != other.valence:
        raise ValenceError(f"valence mismatch: {self.valence} vs {other.valence}")
    acc = dict(self.terms)
    for m, c in other.terms.items():
        tot = acc.get(m, None)
        tot = c if tot is None else tot + c
        if tot.is_zero:
            acc.pop(m, None)
        else:
            acc[m] = tot
    return TExpr(self.valence, acc)


def expr(coeff, m) -> TExpr:
    """Single-term expression."""
    c = coeff if isinstance(coeff, ParamScalar) else ps(coeff)
    mult, canon = canonical_form(m)
    if canon is None or c.is_zero:
        return TExpr(m.valence)
    return TExpr(canon.valence, {canon: c * mult})


def substitute_factors(e: TExpr, table: dict[str, TExpr]) -> TExpr:
    """Replace every occurrence of the factor kinds in ``table`` by the given
    expressions (whose free slots stand for the factor's slots)."""
    pending = [(c, m) for m, c in e.terms.items()]
    done = []
    while pending:
        c, m = pending.pop()
        idx = next((i for i, s in enumerate(m.symbols) if s in table), None)
        if idx is None:
            done.append((c, m))
            continue
        for rc, rm in replace_factor(m, idx, table[m.symbols[idx]]):
            pending.append((c * rc, rm))
    return TExpr.from_terms(e.valence, done)


def substitute_defs(e: TExpr, b: ParamScalar) -> TExpr:
    """Replace the composite symbols Etf, Fvec and Gscal by their definitions
    in jet variables, with tensor weight ``b`` (the formal parameter B, or
    ``bstar()`` for the specialized tensors)."""
    return substitute_factors(e, {"Etf": _tracefree_tensor_form(b),
                                  "Fvec": _fvec_form(b),
                                  "Gscal": _gscal_form(b)})


def expand_lhs(ident) -> TExpr:
    """Expand the identity's left side to jet variables, in its mode."""
    lhs_jets = substitute_defs(ident.lhs, ident.b)
    if ident.kind == "wdiv":
        return divergence(WeightedVectorField(ident.weight, lhs_jets), ident.mode)
    if ident.kind == "grad":
        return grad(lhs_jets, ident.mode)
    raise ValueError(f"unknown identity kind {ident.kind!r}")


def expand_rhs(ident) -> TExpr:
    return substitute_defs(ident.rhs, ident.b)


def residual(ident) -> TExpr:
    """expand_lhs(ident) - expand_rhs(ident), with TExpr subtraction as it
    was: the right side scaled by -1, then added."""
    return texpr_add(expand_lhs(ident), expand_rhs(ident).scale(-1))


def certificate_difference(target, basis, weights) -> TExpr:
    """The symbol-space difference solve_combination substitutes: the
    weighted basis right sides summed one by one, minus the target's."""
    combo_rhs = TExpr(target.rhs.valence)
    for w, b in zip(weights, basis):
        combo_rhs = texpr_add(combo_rhs, b.rhs.scale(w))
    return texpr_add(combo_rhs, target.rhs.scale(-1))


@lru_cache(maxsize=None)
def _canonical_cached(m: TensorMonomial):
    m.validate()
    mult, m = _structural_rewrites(m)
    if m is None:
        return mult, None
    symbols = tuple(sorted(m.symbols, key=_ORDER.__getitem__))
    pairs, free = _least_relabeling(m, symbols)
    return mult, TensorMonomial(m.u_power, symbols, pairs, free)


def _least_relabeling(m: TensorMonomial, symbols: tuple[str, ...]):
    """The least (pairs, free) key over the relabelings that list m's
    factors as ``symbols``, by branch and bound.

    Depth first over the positions of ``symbols`` that carry slots, each
    step places one unused factor of that symbol under one of its slot
    symmetries.  The new slots below ``frontier`` are then placed, and the
    pairs with a placed endpoint are exactly the first pairs of the final
    sorted key, in the order of their placed (smaller) endpoint.  An
    unplaced partner will get a slot of at least ``frontier``, so taking it
    as ``frontier`` bounds that prefix from below; a branch whose bound
    already exceeds the best key's prefix cannot improve on it.
    """
    old_offs = m.offsets()
    partner = [None] * m.slot_count
    for a, b in m.pairs:
        partner[a], partner[b] = b, a
    # per step: first new slot, frontier after it, candidate factor offsets, symmetries
    steps = []
    start = 0
    for sym in symbols:
        info = FACTORS[sym]
        if info.arity:
            bases = [old_offs[i] for i, s in enumerate(m.symbols) if s == sym]
            steps.append((start, start + info.arity, bases, info.sym))
        start += info.arity
    new_of = [None] * m.slot_count  # old slot -> new slot
    old_of = [None] * m.slot_count  # new slot -> old slot
    used = set()
    best = None

    def bound(frontier):
        out = []
        for x in range(frontier):
            t = partner[old_of[x]]
            if t is not None:
                y = new_of[t]
                if y is None:
                    out.append((x, frontier))
                elif y > x:
                    out.append((x, y))
        return tuple(out)

    def search(depth):
        nonlocal best
        if depth == len(steps):
            key = _leaf_key(m, new_of)
            if best is None or key < best:
                best = key
            return
        start, frontier, bases, perms = steps[depth]
        for base in bases:
            if base in used:
                continue
            used.add(base)
            for sigma in perms:
                for j, sj in enumerate(sigma):
                    new_of[base + sj] = start + j
                    old_of[start + j] = base + sj
                if best is not None:
                    prefix = bound(frontier)
                    if prefix > best[0][:len(prefix)]:
                        continue
                search(depth + 1)
            for j in range(frontier - start):
                new_of[base + j] = None
            used.discard(base)

    search(0)
    return best
