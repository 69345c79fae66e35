"""Exact rational-function coefficients in the formal parameters n, alpha, a, b.

Every coefficient appearing in the verified identities is an element of the
fraction field Q(n, alpha, a, b) whose denominator lies in Q[n] and splits
into linear factors over Q (products of n, n - 1, n - 2, n - 4 and n + 4).
That is the domain: any other denominator raises MalformedCoefficientError
naming it.  A ParamScalar stores a reduced pair of multivariate polynomials
with integer-primitive denominator and positive denominator leading
coefficient, so equal rational functions always have byte-identical
representations.

Multiplication is sympy's, in a sparse polynomial ring over QQ.  The roots
of each denominator are found once (cached per denominator) by dividing it
by the roots earlier denominators gave; the univariate ring Q[n]
(``_N_RING``) factors only what those leave, so a process factors a handful
of denominators.  Every division and gcd goes through root tests on those
roots: each root r of multiplicity m cancels at most m times, each time
only if num(r, alpha, a, b) vanishes exactly.  Horner's rule per
(alpha, a, b) coefficient decides that, and the same pass yields the
quotient by n - r, so no gcd and no multivariate division is computed.  The
content of a denominator is taken on Python ints, and dividing by it is
skipped when it is 1.

Sum, difference, product and quotient are module-level kernels with an LRU
cache keyed on the two normalized operands (ParamScalars are immutable and
hashable), and from_int is cached the same way: a repeated operation returns
the object built the first time.  On a miss, a product follows Henrici's
rule: both factors are reduced, so num1 cancels only against the roots of
den2 and num2 only against those of den1, and the product needs only the
primitive/sign step.  subs_param composes term by term with that same
arithmetic.  Fixing n at an integer needs no substitution: paramcheck
evaluates each coefficient of num and den in n directly, which lands in
Q[alpha].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from sympy import QQ
from sympy.polys.rings import ring

from .errors import MalformedCoefficientError, PoleError

_RING, _N, _ALPHA, _A, _B = ring("n,alpha,a,b", QQ)
_GENS = {"n": _N, "alpha": _ALPHA, "a": _A, "b": _B}
# Q(n, alpha, a, b) as a sympy field, for exact linear algebra over it.
COEFF_FIELD = _RING.to_field()
_N_RING = _RING.drop(_ALPHA, _A, _B)
VAR_NAMES = ("n", "alpha", "a", "b")

Rationalish = Union[int, Fraction, "ParamScalar"]


# Every root that a factorization has found so far, in the order found.  The
# denominators of the identities are products of a few linear factors that
# recur, so these roots usually divide a new denominator down to a constant,
# and only what they leave is factored.  The set affects speed only: a root
# that does not divide a denominator costs one Horner pass.
_known_roots: dict = {}


@lru_cache(maxsize=1024)
def _linear_roots(den):
    """((r, m), ...) for den in Q[n] = c * prod (n - r)^m over the rationals;
    an irreducible factor of degree 2 or more raises MalformedCoefficientError.

    den's table is divided by n - r for each known root r, as often as it
    divides (_divide_root); only a remainder that is not constant goes to
    sympy's factor_list, and its roots join the known ones.
    """
    table, roots = _dense_in_n(den), []
    for r in _known_roots:
        m = 0
        while (quotient := _divide_root(table, r)) is not None:
            table, m = quotient, m + 1
        if m:
            roots.append((r, m))
    (coeffs,) = table.values()
    if len(coeffs) > 1:
        _, factors = _N_RING.from_list(coeffs).factor_list()
        for f, m in factors:
            if f.degree() != 1:
                raise MalformedCoefficientError(
                    f"denominator does not split over Q: {den} has the factor {f}")
            r = -f.coeff(1) / f.LC
            roots.append((r, m))
            _known_roots[r] = None
    return tuple(roots)


def _split_roots(den):
    """_linear_roots(den), or () when den is constant; a denominator outside
    Q[n] raises MalformedCoefficientError."""
    if den.is_ground:
        return ()
    if any(den.degrees()[1:]):
        raise MalformedCoefficientError(f"denominator outside Q[n]: {den}")
    return _linear_roots(den)


def _dense_in_n(poly) -> dict[tuple, list]:
    """poly as {(alpha, a, b) exponents: its coefficient in Q[n] as a dense
    list, highest degree first}."""
    groups: dict[tuple, dict[int, object]] = {}
    for (e, *rest), c in poly.items():
        groups.setdefault(tuple(rest), {})[e] = c
    return {rest: [cs.get(e, QQ.zero) for e in range(max(cs), -1, -1)]
            for rest, cs in groups.items()}


def _divide_root(table, r):
    """A ``_dense_in_n`` table divided by n - r, or None when one of its
    coefficients does not vanish at r.

    Horner's rule is synthetic division: the pass that evaluates a
    coefficient at r yields its quotient by n - r on the way.
    """
    out = {}
    for rest, coeffs in table.items():
        v, quotient = coeffs[0], []
        for c in coeffs[1:]:
            quotient.append(v)
            v = v * r + c
        if v:
            return None
        out[rest] = quotient
    return out


def _from_dense(table):
    """The ring element of a ``_dense_in_n`` table."""
    return _RING.dtype({(e, *rest): c for rest, coeffs in table.items()
                        for e, c in enumerate(reversed(coeffs)) if c})


def _cancel_roots(num, den, roots):
    """Divide num and den by n - r while num vanishes at r, at most m times
    for each (r, m) in roots: a linear factor of den shares a factor with
    num exactly when num vanishes at its root, so no gcd is needed.  Each
    polynomial is tabulated once, den only when a root cancels."""
    num_table, den_table = _dense_in_n(num), None
    for r, m in roots:
        for _ in range(m):
            quotient = _divide_root(num_table, r)
            if quotient is None:
                break
            num_table = quotient
            den_table = _divide_root(den_table or _dense_in_n(den), r)
    if den_table is None:
        return num, den
    return _from_dense(num_table), _from_dense(den_table)


def cofactors(f, g):
    """(f/h, g/h) for h the monic gcd of f and a denominator g in Q[n].

    g splits into linear factors over Q, so h is the product of the n - r
    that ``_cancel_roots`` divides out over g's cached roots; a g that does
    not split raises MalformedCoefficientError."""
    return _cancel_roots(f, g, _split_roots(g))


def _primitive(num, den):
    """Make den integer-primitive with positive leading coefficient; num
    absorbs the rational content.

    The content, gcd of the numerators over lcm of the denominators of den's
    coefficients, is taken on Python ints.  When it is 1, the usual case
    (by Gauss's lemma a product of integer-primitive denominators is
    primitive), only the sign step is left.
    """
    num_gcd = math.gcd(*(c.numerator for c in den.values()))
    den_lcm = math.lcm(*(c.denominator for c in den.values()))
    if num_gcd != 1 or den_lcm != 1:
        content = QQ(num_gcd, den_lcm)
        num, den = num.quo_ground(content), den.quo_ground(content)
    if den.LC < 0:
        num, den = -num, -den
    return num, den


def _qq_to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


class ParamScalar:
    """A normalized rational function of (n, alpha, a, b) over the rationals.

    Instances are immutable; two ParamScalars compare equal iff their
    normalized (numerator, denominator) pairs are identical.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = _RING.one
        if not _normalized:
            num, den = self._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _normalize(num, den):
        if not den:
            raise MalformedCoefficientError("zero denominator in coefficient")
        if not num:
            return _RING.zero, _RING.one
        return _primitive(*_cancel_roots(num, den, _split_roots(den)))

    def __setattr__(self, *args):
        raise AttributeError("ParamScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, k: int) -> "ParamScalar":
        return _from_int(k)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "ParamScalar":
        return cls(_RING.ground_new(QQ(f.numerator, f.denominator)))

    @classmethod
    def var(cls, name: str) -> "ParamScalar":
        return cls(_GENS[name])

    @classmethod
    def coerce(cls, x: Rationalish) -> "ParamScalar":
        if isinstance(x, ParamScalar):
            return x
        if isinstance(x, int):
            return cls.from_int(x)
        if isinstance(x, Fraction):
            return cls.from_fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ParamScalar")

    # -- ring / field structure -------------------------------------------

    def __add__(self, other: Rationalish) -> "ParamScalar":
        return _sum(self, ParamScalar.coerce(other))

    __radd__ = __add__

    def __sub__(self, other: Rationalish) -> "ParamScalar":
        return _difference(self, ParamScalar.coerce(other))

    def __rsub__(self, other: Rationalish) -> "ParamScalar":
        return ParamScalar.coerce(other) - self

    def __mul__(self, other: Rationalish) -> "ParamScalar":
        return _product(self, ParamScalar.coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "ParamScalar":
        o = ParamScalar.coerce(other)
        if not o.num:
            raise MalformedCoefficientError("division by zero coefficient")
        return _quotient(self, o)

    def __rtruediv__(self, other: Rationalish) -> "ParamScalar":
        return ParamScalar.coerce(other) / self

    def __neg__(self) -> "ParamScalar":
        return ParamScalar(-self.num, self.den, _normalized=True)

    def __pow__(self, k: int) -> "ParamScalar":
        if k < 0:
            return (ParamScalar.from_int(1) / self) ** (-k)
        return ParamScalar(self.num**k, self.den**k)

    # -- predicates / comparison -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamScalar.coerce(other)
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((tuple(sorted(self.num.terms())), tuple(sorted(self.den.terms()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, n=None, alpha=None, a=None, b=None) -> Fraction:
        """Evaluate exactly at rational parameter values.

        All variables actually present must be given; hitting a denominator
        root raises PoleError.
        """
        vals = (n, alpha, a, b)

        def ev(poly) -> Fraction:
            total = Fraction(0)
            for monom, coeff in poly.terms():
                t = _qq_to_fraction(coeff)
                for val, e in zip(vals, monom):
                    if e:
                        if val is None:
                            raise ValueError(f"unbound parameter in {self}")
                        t *= Fraction(val) ** e
                total += t
            return total

        den_val = ev(self.den)
        if den_val == 0:
            raise PoleError(f"parameters hit denominator root of {self}")
        return ev(self.num) / den_val

    def subs_param(self, name: str, value: Rationalish) -> "ParamScalar":
        """Substitute a formal parameter by a rational function.

        Each term of num and den is rebuilt with ParamScalar arithmetic, the
        parameter replaced by value, and the two sums are divided.  Hitting a
        root of the denominator, or a result outside the domain, raises
        MalformedCoefficientError.
        """
        gens = [N, ALPHA, A, B]
        gens[VAR_NAMES.index(name)] = ParamScalar.coerce(value)

        def compose(poly) -> ParamScalar:
            return sum((math.prod((g**e for g, e in zip(gens, monom) if e),
                                  start=ParamScalar(_RING.ground_new(coeff)))
                        for monom, coeff in poly.terms()), ZERO)

        return compose(self.num) / compose(self.den)

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        num = str(self.num)
        if self.den == _RING.one:
            return num
        return f"({num})/({self.den})"

    def __repr__(self) -> str:
        return f"ParamScalar({self})"


# -- memoized arithmetic kernels -------------------------------------------------
# Keyed on the two normalized operands, which are immutable and hashable: a
# repeated operation returns the ParamScalar built the first time.

_KERNEL_CACHE = 4096


@lru_cache(maxsize=_KERNEL_CACHE)
def _from_int(k: int) -> ParamScalar:
    return ParamScalar(_RING.ground_new(QQ(k)))


@lru_cache(maxsize=_KERNEL_CACHE)
def _sum(x: ParamScalar, y: ParamScalar) -> ParamScalar:
    return ParamScalar(x.num * y.den + y.num * x.den, x.den * y.den)


@lru_cache(maxsize=_KERNEL_CACHE)
def _difference(x: ParamScalar, y: ParamScalar) -> ParamScalar:
    return ParamScalar(x.num * y.den - y.num * x.den, x.den * y.den)


@lru_cache(maxsize=_KERNEL_CACHE)
def _product(x: ParamScalar, y: ParamScalar) -> ParamScalar:
    """x * y by Henrici's rule.

    Both factors are reduced, so a root of x.den can only cancel against
    y.num and a root of y.den only against x.num; cancelling crosswise
    before multiplying leaves a reduced product that needs only the
    primitive/sign step.
    """
    x_num, y_den = _cancel_roots(x.num, y.den, _split_roots(y.den))
    y_num, x_den = _cancel_roots(y.num, x.den, _split_roots(x.den))
    return ParamScalar(*_primitive(x_num * y_num, x_den * y_den), _normalized=True)


@lru_cache(maxsize=_KERNEL_CACHE)
def _quotient(x: ParamScalar, y: ParamScalar) -> ParamScalar:
    return ParamScalar(x.num * y.den, x.den * y.num)


# Frequently used atoms.
ZERO = ParamScalar.from_int(0)
ONE = ParamScalar.from_int(1)
N = ParamScalar.var("n")
ALPHA = ParamScalar.var("alpha")
A = ParamScalar.var("a")
B = ParamScalar.var("b")


def ps(x: Rationalish) -> ParamScalar:
    return ParamScalar.coerce(x)


def frac(p: int, q: int) -> ParamScalar:
    return ParamScalar.from_fraction(Fraction(p, q))
