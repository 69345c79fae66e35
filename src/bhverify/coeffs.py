"""Exact rational-function coefficients in the formal parameters n, alpha, a, b.

Every coefficient appearing in the verified identities is an element of the
fraction field Q(n, alpha, a, b) whose denominator lies in Q[n] and splits
into linear factors over Q (products of n, n - 1, n - 2, n - 4 and n + 4).
That is the domain: any other denominator raises MalformedCoefficientError
naming it.  A ParamScalar stores a reduced pair of multivariate polynomials
with integer coefficients: the gcd of all coefficients of num and den
together is 1, den has a positive leading coefficient, and no root of den
is a root of num.  So equal rational functions always have byte-identical
representations.

Arithmetic is sympy's, in a sparse polynomial ring over ZZ, and forms no
rational number.  A root p/q of a denominator is kept as the integer pair
(p, q), q > 0 and coprime to p, for the primitive factor q n - p.  The roots
of each denominator are found once (cached per denominator) by dividing it
by the roots earlier denominators gave; the univariate ring Z[n]
(``_N_RING``) factors only what those leave, so a process factors a handful
of denominators.  Every division and gcd goes through tests on those roots:
each root of multiplicity m cancels at most m times, each time only if
q n - p divides num.  Synthetic division per (alpha, a, b) coefficient, on
Python ints, decides that and yields the quotient on the way, so no gcd and
no multivariate division is computed.  The content is one gcd of the
coefficients of num and den on Python ints, and dividing by it is skipped
when it is 1, the usual case: by Gauss's lemma a product of primitive
polynomials is primitive.

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

Printing divides num and den by the content of den, in a ring over QQ that
serves nothing else, so the text is that of a rational numerator over an
integer-primitive denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from sympy import QQ, ZZ
from sympy.polys.rings import ring

from .errors import MalformedCoefficientError, PoleError

_RING, _N, _ALPHA, _A, _B = ring("n,alpha,a,b", ZZ)
_GENS = {"n": _N, "alpha": _ALPHA, "a": _A, "b": _B}
# Q(n, alpha, a, b), the fraction field of Z[n, alpha, a, b], as a sympy
# field, for exact linear algebra over it.
COEFF_FIELD = _RING.to_field()
_N_RING = _RING.drop(_ALPHA, _A, _B)
# for __str__ only
_PRINT_RING = _RING.clone(domain=QQ)
VAR_NAMES = ("n", "alpha", "a", "b")

Rationalish = Union[int, Fraction, "ParamScalar"]


# Every root (p, q) that a factorization has found so far, in the order found.
# The denominators of the identities are products of a few linear factors
# that recur, so these roots usually divide a new denominator down to a
# constant, and only what they leave is factored.  The set affects speed
# only: a root that does not divide a denominator costs one division pass.
_known_roots: dict = {}


@lru_cache(maxsize=1024)
def _linear_roots(den):
    """(((p, q), m), ...) for den in Z[n] = c * prod (q n - p)^m over the
    integers, q > 0; an irreducible factor of degree 2 or more raises
    MalformedCoefficientError.

    den's table is divided by q n - p for each known root (p, q), as often
    as it divides (_divide_root); only a remainder that is not constant goes
    to sympy's factor_list, and its roots join the known ones.
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
            root = (-f.coeff(1), f.LC)
            roots.append((root, m))
            _known_roots[root] = None
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
    """poly as {(alpha, a, b) exponents: its coefficient in Z[n] as a dense
    list, highest degree first}."""
    groups: dict[tuple, dict[int, int]] = {}
    for (e, *rest), c in poly.items():
        groups.setdefault(tuple(rest), {})[e] = c
    return {rest: [cs.get(e, 0) for e in range(max(cs), -1, -1)]
            for rest, cs in groups.items()}


def _divide_root(table, root):
    """A ``_dense_in_n`` table divided by q n - p for root = (p, q), or None
    when q n - p does not divide one of its coefficients.

    Synthetic division: the quotient g of c by q n - p has the coefficients
    g_k = (c_k + p g_(k-1)) / q, highest first, and a zero remainder.  q n - p
    is primitive, so by Gauss's lemma a step that q does not divide proves
    that no quotient exists, in Z[n] or in Q[n].
    """
    p, q = root
    out = {}
    for rest, coeffs in table.items():
        v, quotient = 0, []
        for c in coeffs[:-1]:
            v, r = divmod(c + p * v, q)
            if r:
                return None
            quotient.append(v)
        if coeffs[-1] + p * v:
            return None
        out[rest] = quotient
    return out


def _from_dense(table):
    """The ring element of a ``_dense_in_n`` table."""
    return _RING.dtype({(e, *rest): c for rest, coeffs in table.items()
                        for e, c in enumerate(reversed(coeffs)) if c})


def _cancel_roots(num, den, roots):
    """Divide num and den by q n - p while it divides num, at most m times
    for each ((p, q), m) in roots: a linear factor of den shares a factor
    with num exactly when it divides num, so no gcd is needed.  Each
    polynomial is tabulated once, num only when den has a root, den only
    when a root cancels."""
    if not roots:
        return num, den
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
    """(f/h, g/h) for h a gcd of f and a denominator g in Z[n], up to a
    constant factor.

    g splits into linear factors over Q, so h is the product of the q n - p
    that ``_cancel_roots`` divides out over g's cached roots; a g that does
    not split raises MalformedCoefficientError."""
    return _cancel_roots(f, g, _split_roots(g))


def _primitive(num, den):
    """Divide num and den by the gcd of all their coefficients, and make den's
    leading coefficient positive.

    When the gcd is 1, the usual case (by Gauss's lemma a product of
    primitive polynomials is primitive), only the sign step is left.
    """
    content = math.gcd(*num.values(), *den.values())
    if content != 1:
        num, den = num.quo_ground(content), den.quo_ground(content)
    if den.LC < 0:
        num, den = -num, -den
    return num, den


class ParamScalar:
    """A normalized rational function of (n, alpha, a, b) over the rationals.

    Instances are immutable; two ParamScalars compare equal iff their
    normalized (numerator, denominator) pairs are identical.  A constant
    hashes as its Fraction value, so it finds and is found by equal ints and
    Fractions in dicts and sets.
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
        return cls(_RING(f.numerator), _RING(f.denominator), _normalized=True)

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
        if k == 0:      # ZERO ** 0 too, as for int and Fraction
            return ONE
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
            if self.num.is_ground and self.den.is_ground:
                h = hash(Fraction(self.num.LC, self.den.LC))
            else:
                h = hash((tuple(sorted(self.num.terms())), tuple(sorted(self.den.terms()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, n=None, alpha=None, a=None, b=None) -> Fraction:
        """Evaluate exactly at rational parameter values.

        All variables actually present must be given; hitting a denominator
        root raises PoleError.  Each of num and den is summed on Python
        ints, its denominators cleared once, by q^d for each value p/q, d the
        degree in that variable.  The one Fraction is formed at the end.
        """
        vals = [None if v is None else Fraction(v) for v in (n, alpha, a, b)]

        def ev(poly) -> tuple[int, int]:
            """(s, t) with poly = s / t at vals, t > 0."""
            if not poly:
                return 0, 1
            scale = 1
            # per variable present, powers[e] = p^e q^(d - e) for its value
            # p/q and its degree d
            present = []
            for i, (val, d) in enumerate(zip(vals, poly.degrees())):
                if d > 0:
                    if val is None:
                        raise ValueError(f"unbound parameter in {self}")
                    p, q = val.numerator, val.denominator
                    present.append((i, [p**e * q**(d - e) for e in range(d + 1)]))
                    scale *= q**d
            total = 0
            for monom, t in poly.terms():
                for i, powers in present:
                    t *= powers[monom[i]]
                total += t
            return total, scale

        den_s, den_t = ev(self.den)
        if den_s == 0:
            raise PoleError(f"parameters hit denominator root of {self}")
        num_s, num_t = ev(self.num)
        return Fraction(num_s * den_t, num_t * den_s)

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
                                  start=ParamScalar.from_int(coeff))
                        for monom, coeff in poly.terms()), ZERO)

        return compose(self.num) / compose(self.den)

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        num, den = self.num, self.den
        content = math.gcd(*den.values())
        if content != 1:
            num = num.set_ring(_PRINT_RING).quo_ground(content)
            den = den.quo_ground(content)
        if den == _RING.one:
            return str(num)
        return f"({num})/({den})"

    def __repr__(self) -> str:
        return f"ParamScalar({self})"


# -- memoized arithmetic kernels -------------------------------------------------
# Keyed on the two normalized operands, which are immutable and hashable: a
# repeated operation returns the ParamScalar built the first time.

_KERNEL_CACHE = 4096


@lru_cache(maxsize=_KERNEL_CACHE)
def _from_int(k: int) -> ParamScalar:
    return ParamScalar(_RING(k), _RING.one, _normalized=True)


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
