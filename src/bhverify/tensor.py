"""Canonical contraction-graph form for tensor monomials and expressions.

A monomial is an integer power of the positive function u times a product of
derivative/curvature factors whose index slots are either paired with each
other (contracted) or free.  Supported factors:

    Du      gradient of u                    1 slot
    D2u     Hessian of u                     2 slots, symmetric
    D3u     derivative of the Hessian        3 slots, symmetric in the last two
    Lap     trace of the Hessian             0 slots
    DLap    gradient of Lap                  1 slot
    Bilap   Laplacian of Lap                 0 slots
    Ric     Ricci tensor                     2 slots, symmetric
    g       metric                           2 slots, symmetric
    Etf     trace-free second-order tensor   2 slots, symmetric, traceless
    Fvec    first-order invariant vector     1 slot
    Gscal   zeroth-order invariant scalar    0 slots

Canonicalization first applies structural rewrites (metric elimination,
self-traces of D2u/D3u, vanishing traces of Etf) and then takes the least
explicit serialization (the sorted contraction pairs, then the free slots)
over all relabelings allowed by factor multiplicities and slot symmetries.
A branch-and-bound search finds it: placing the factors one position at a
time bounds a prefix of the sorted pairs from below, and a partial
relabeling whose bound already exceeds the best key is dropped.  At a step
that places a one-slot factor, factors whose partners are interchangeable
unplaced one-slot factors of one kind (twins: a Du-Du pair against another)
are branched on once, because swapping two twins with their partners is an
automorphism.  The least key is unique, so the result is the exhaustive
search's, fully deterministic.

Neither the rewrites nor the search read the u-power, so their result is
kept once per contraction graph (symbols, pairs, free) and a monomial that
differs from a solved one only in its u-power takes it at its own power.  A
canonical graph, once found, is kept as its own result with multiplier 1,
so a canonical key handed back runs no search.

Edits of factors (differentiation, substitution and the structural
rewrites) run on the labeled view (``to_labeled``, then ``mono``): a label
used twice is a contraction, and a label repeated inside one factor is a
self-trace.

Substitution works one monomial at a time (``expand_factors``, raw terms
not yet collected); ``TExpr.from_terms`` is the one collection of raw
terms into canonical monomials, ``+`` and ``expr`` included; it keeps a
coefficient that meets no other term and takes no multiplier as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .coeffs import ONE, ParamScalar, N, cofactors, ps
from .errors import MalformedMonomialError, UnsupportedCurvatureError, ValenceError


@dataclass(frozen=True)
class FactorInfo:
    arity: int
    # Permutations of local slot positions leaving the factor invariant.
    sym: tuple[tuple[int, ...], ...]
    traceless: bool = False


FACTORS: dict[str, FactorInfo] = {
    "Du": FactorInfo(1, ((0,),)),
    "D2u": FactorInfo(2, ((0, 1), (1, 0))),
    "D3u": FactorInfo(3, ((0, 1, 2), (0, 2, 1))),
    "Lap": FactorInfo(0, ((),)),
    "DLap": FactorInfo(1, ((0,),)),
    "Bilap": FactorInfo(0, ((),)),
    "Ric": FactorInfo(2, ((0, 1), (1, 0))),
    "g": FactorInfo(2, ((0, 1), (1, 0))),
    "Etf": FactorInfo(2, ((0, 1), (1, 0)), traceless=True),
    "Fvec": FactorInfo(1, ((0,),)),
    "Gscal": FactorInfo(0, ((),)),
}

_ORDER = {name: i for i, name in enumerate(FACTORS)}


class TensorMonomial:
    """Immutable product of a u-power and contracted derivative factors.

    ``symbols`` lists the factor kinds; factor k occupies the global slots
    ``offset(k) .. offset(k)+arity-1`` in listing order.  ``pairs`` is the
    contraction matching and ``free`` the ordered dangling slots (none for a
    scalar, one for a vector, two for a symmetric 2-tensor).
    """

    __slots__ = ("u_power", "symbols", "pairs", "free", "_hash")

    def __init__(self, u_power: int, symbols: Sequence[str],
                 pairs: Iterable[tuple[int, int]], free: Sequence[int]):
        if type(u_power) is not int:
            raise MalformedMonomialError(f"u-power {u_power!r} is not an int")
        object.__setattr__(self, "u_power", u_power)
        object.__setattr__(self, "symbols", tuple(symbols))
        object.__setattr__(self, "pairs",
                           tuple(sorted(tuple(sorted(p)) for p in pairs)))
        object.__setattr__(self, "free", tuple(free))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("TensorMonomial is immutable")

    # -- structure -----------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return sum(FACTORS[s].arity for s in self.symbols)

    @property
    def valence(self) -> int:
        return len(self.free)

    def offsets(self) -> list[int]:
        out, off = [], 0
        for s in self.symbols:
            out.append(off)
            off += FACTORS[s].arity
        return out

    def validate(self):
        total = self.slot_count
        seen = {}
        for p in self.pairs:
            for s in p:
                if not (0 <= s < total):
                    raise MalformedMonomialError(f"slot {s} out of range")
                if s in seen:
                    raise MalformedMonomialError(f"slot {s} used twice")
                seen[s] = "paired"
            if p[0] == p[1]:
                raise MalformedMonomialError("slot paired with itself")
        for s in self.free:
            if not (0 <= s < total):
                raise MalformedMonomialError(f"free slot {s} out of range")
            if s in seen:
                raise MalformedMonomialError(f"slot {s} both free and paired"
                                             if seen[s] == "paired" else
                                             f"free slot {s} listed twice")
            seen[s] = "free"
        if len(seen) != total:
            raise MalformedMonomialError("dangling slot: not paired and not declared free")
        if len(self.free) > 3:
            raise MalformedMonomialError(f"{len(self.free)} free slots unsupported")

    # -- identity ------------------------------------------------------------

    def key(self):
        return (self.u_power, self.symbols, self.pairs, self.free)

    def __eq__(self, other):
        return isinstance(other, TensorMonomial) and self.key() == other.key()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"TensorMonomial({self.render()})"

    def render(self) -> str:
        """Deterministic text form with named indices."""
        names = {}
        for i, p in enumerate(sorted(self.pairs)):
            names[p[0]] = names[p[1]] = f"i{i + 1}"
        for i, s in enumerate(self.free):
            names[s] = "xyz"[i]
        parts = []
        if self.u_power:
            parts.append(f"u^{self.u_power}")
        off = 0
        for sym in self.symbols:
            k = FACTORS[sym].arity
            idx = ",".join(names[off + j] for j in range(k))
            parts.append(f"{sym}({idx})" if k else sym)
            off += k
        return " ".join(parts) if parts else "1"


def mono(u: int, *factors, free: Sequence[str] = ()) -> TensorMonomial:
    """Build a monomial from factors with string index labels.

    Each factor is ``(name, label, ...)``; a label used twice is a
    contraction, a label used once must be listed (in order) in ``free``.
    """
    symbols, slots_by_label = [], {}
    slot = 0
    for fac in factors:
        name, labels = fac[0], fac[1:]
        if name not in FACTORS:
            raise MalformedMonomialError(f"unknown factor {name!r}")
        if len(labels) != FACTORS[name].arity:
            raise MalformedMonomialError(f"{name} takes {FACTORS[name].arity} indices")
        symbols.append(name)
        for lab in labels:
            slots_by_label.setdefault(lab, []).append(slot)
            slot += 1
    repeated = next((lab for k, lab in enumerate(free) if lab in free[:k]), None)
    if repeated is not None:
        raise MalformedMonomialError(f"free label {repeated!r} listed twice")
    pairs, free_slots = [], {}
    for lab, ss in slots_by_label.items():
        if len(ss) == 2:
            pairs.append((ss[0], ss[1]))
        elif len(ss) == 1:
            free_slots[lab] = ss[0]
        else:
            raise MalformedMonomialError(f"label {lab!r} used {len(ss)} times")
    if set(free_slots) != set(free):
        raise MalformedMonomialError(
            f"free labels {sorted(free_slots)} do not match declaration {list(free)}")
    m = TensorMonomial(u, symbols, pairs, [free_slots[lab] for lab in free])
    m.validate()
    return m


# -- canonicalization --------------------------------------------------------


def _structural_rewrites(m: TensorMonomial):
    """Apply metric elimination and self-trace rewrites until stable.

    Works on the labeled view, where a label repeated inside one factor is a
    self-trace.  Factors are scanned in listing order and the first rewrite
    found is applied.  Returns (multiplier, monomial) where monomial is None
    if the term vanishes identically (trace of a trace-free factor).
    """
    u, facs, free = to_labeled(m)
    mult = ONE
    idx = 0
    while idx < len(facs):
        sym, labels = facs[idx][0], facs[idx][1:]
        traced = len(labels) >= 2 and labels[-2] == labels[-1]
        if sym == "g" and not (labels[0] in free and labels[1] in free):
            rest = facs[:idx] + facs[idx + 1:]
            if traced:
                mult = mult * N
                facs = rest
            else:
                # rename the other label onto a free one, if there is one
                old, new = labels if labels[1] in free else labels[::-1]
                facs = [(f[0],) + tuple(new if lab == old else lab for lab in f[1:])
                        for f in rest]
            idx = 0  # renaming can close a self-trace in an earlier factor
            continue
        if sym == "D2u" and traced:
            facs[idx] = ("Lap",)
        elif sym == "D3u" and traced:
            facs[idx] = ("DLap", labels[0])
        elif sym == "D3u" and labels[0] in labels[1:]:
            raise MalformedMonomialError(
                "unreduced contraction of the derivative slot of D3u with its "
                "own Hessian slot; expand it through the divergence rules")
        elif FACTORS[sym].traceless and traced:
            return mult, None
        elif sym == "Ric" and traced:
            raise UnsupportedCurvatureError(
                "self-traced Ricci factor (scalar curvature) is unsupported")
        idx += 1
    return mult, mono(u, *facs, free=free)


# contraction graph (symbols, pairs, free) -> (multiplier, canonical graph,
# or None if the monomial vanishes), whatever the u-power
_GRAPHS: dict[tuple, tuple] = {}


@lru_cache(maxsize=None)
def _canonical_cached(m: TensorMonomial):
    m.validate()
    graph = m.symbols, m.pairs, m.free
    found = _GRAPHS.get(graph)
    if found is None:
        found = _GRAPHS[graph] = _canonical_graph(m)
        if found[1] is not None:
            _GRAPHS.setdefault(found[1], (ONE, found[1]))
    mult, canon = found
    return mult, None if canon is None else TensorMonomial(m.u_power, *canon)


def _canonical_graph(m: TensorMonomial):
    mult, m = _structural_rewrites(m)
    if m is None:
        return mult, None
    symbols = tuple(sorted(m.symbols, key=_ORDER.__getitem__))
    return mult, (symbols, *_least_relabeling(m, symbols))


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

    At a step of arity 1, two unused factors b1, b2 whose partners t1, t2
    are unused arity-1 factors of one symbol are twins: the swap
    (b1 b2)(t1 t2) is an automorphism that fixes every placed slot, so the
    leaves under b2 are the images of those under b1, with the same keys.
    Only the first factor of each such partner symbol is branched on.
    """
    old_offs = m.offsets()
    partner = [None] * m.slot_count
    for a, b in m.pairs:
        partner[a], partner[b] = b, a
    single = {old_offs[i]: s for i, s in enumerate(m.symbols) if FACTORS[s].arity == 1}
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
        twins = set() if frontier - start == 1 else None
        for base in bases:
            if base in used:
                continue
            if twins is not None:
                t = partner[base]
                kind = single.get(t)
                if kind is not None and t not in used:
                    if kind in twins:
                        continue
                    twins.add(kind)
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


def _leaf_key(m: TensorMonomial, new_of: list[int]):
    """The (pairs, free) key of m under a complete relabeling of its slots."""
    pairs = tuple(sorted(tuple(sorted((new_of[a], new_of[b]))) for a, b in m.pairs))
    return pairs, tuple(new_of[s] for s in m.free)


def canonical_form(m: TensorMonomial) -> tuple[ParamScalar, TensorMonomial | None]:
    """Canonical representative plus the scalar multiplier picked up by
    structural rewrites (metric self-traces contribute a factor n).  Returns
    ``(mult, None)`` when the monomial vanishes identically."""
    return _canonical_cached(m)


# -- expressions -------------------------------------------------------------


class TExpr:
    """Finite ParamScalar-linear combination of canonical monomials of one
    common valence.  The zero expression is the empty map."""

    __slots__ = ("valence", "terms")

    def __init__(self, valence: int, terms=None):
        object.__setattr__(self, "valence", valence)
        object.__setattr__(self, "terms", dict(terms or {}))

    def __setattr__(self, *args):
        raise AttributeError("TExpr is immutable")

    @classmethod
    def from_terms(cls, valence: int, raw: Iterable[tuple[ParamScalar, TensorMonomial]]) -> "TExpr":
        """Sum of coeff * m over raw, collected on canonical monomials.

        Each monomial's running sum is kept as a raw (num, den) pair of ring
        elements: equal denominators add numerators; den and d that differ
        only by a constant factor, d/den = l/k for their leading coefficients
        k and l, meet over den * l / gcd(k, l) with integer cofactors; others
        meet over den * d / gcd(den, d).  Each sum is normalized once, at the end;
        a coefficient that meets no other term and takes no multiplier is
        kept as given.  A monomial whose running sum cancels is dropped and
        re-enters at the end of the key order if it comes back.
        """
        acc: dict[TensorMonomial, tuple] = {}
        for coeff, m in raw:
            if coeff.is_zero:
                continue
            mult, canon = canonical_form(m)
            if canon is None:
                continue
            if canon.valence != valence:
                raise ValenceError(
                    f"monomial valence {canon.valence} != expression valence {valence}")
            num, den = coeff.num, coeff.den
            if mult is not ONE:
                num, den = num * mult.num, den * mult.den
            prev = acc.get(canon)
            if prev is not None:
                p_num, p_den, _ = prev
                if p_den == den:
                    num = p_num + num
                else:
                    k, l = p_den.LC, den.LC
                    if len(p_den) == len(den) and p_den.mul_ground(l) == den.mul_ground(k):
                        g = math.gcd(k, l)
                        p_cof, cof = k // g, l // g
                    else:
                        p_cof, cof = cofactors(p_den, den)
                    num, den = p_num * cof + num * p_cof, p_den * cof
                if not num:
                    del acc[canon]
                    continue
            acc[canon] = (num, den, coeff if prev is None and mult is ONE else None)
        return cls(valence, {m: ParamScalar(num, den) if c is None else c
                             for m, (num, den, c) in acc.items()})

    # -- linear structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c) -> "TExpr":
        c = ps(c) if not isinstance(c, ParamScalar) else c
        if c.is_zero:
            return TExpr(self.valence)
        return TExpr(self.valence, {m: k * c for m, k in self.terms.items()})

    def __add__(self, other: "TExpr") -> "TExpr":
        if self.valence != other.valence:
            raise ValenceError(f"valence mismatch: {self.valence} vs {other.valence}")
        return TExpr.from_terms(self.valence, [(c, m) for e in (self, other)
                                               for m, c in e.terms.items()])

    def __sub__(self, other: "TExpr") -> "TExpr":
        return self + -other

    def __neg__(self) -> "TExpr":
        return TExpr(self.valence, {m: -c for m, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, TExpr) and self.valence == other.valence
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.valence, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[TensorMonomial, ParamScalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].key())

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({c}) {m.render()}" for m, c in self.sorted_terms())

    def __repr__(self):
        return f"TExpr<{self.valence}>({self.render()})"


def expr(coeff, m: TensorMonomial) -> TExpr:
    """Single-term expression."""
    return TExpr.from_terms(m.valence, [(ps(coeff), m)])


def emul(e1: TExpr, e2: TExpr) -> TExpr:
    """Tensor product, keeping all free slots (e1's first)."""
    if e1.valence + e2.valence > 2:
        raise ValenceError("product valence exceeds 2")
    return econtract(e1, e2, ())


def econtract(e1: TExpr, e2: TExpr, joins: Sequence[tuple[int, int]]) -> TExpr:
    """Product contracting e1.free[i] with e2.free[j] for each (i, j)."""
    val = e1.valence + e2.valence - 2 * len(joins)
    if val < 0:
        raise ValenceError("too many contractions")
    raw = []
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            off = m1.slot_count
            pairs = list(m1.pairs) + [(a + off, b + off) for a, b in m2.pairs]
            f1, f2 = m1.free, [s + off for s in m2.free]
            used1, used2 = set(), set()
            for i, j in joins:
                pairs.append((f1[i], f2[j]))
                used1.add(i)
                used2.add(j)
            free = [s for i, s in enumerate(f1) if i not in used1] + \
                   [s for j, s in enumerate(f2) if j not in used2]
            raw.append((c1 * c2, TensorMonomial(m1.u_power + m2.u_power,
                                                m1.symbols + m2.symbols, pairs, free)))
    return TExpr.from_terms(val, raw)


def dot(v1: TExpr, v2: TExpr) -> TExpr:
    """Inner product of two vector expressions."""
    if v1.valence != 1 or v2.valence != 1:
        raise ValenceError("dot requires two vector expressions")
    return econtract(v1, v2, [(0, 0)])


def frob(t1: TExpr, t2: TExpr) -> TExpr:
    """Full contraction of two symmetric 2-tensor expressions."""
    if t1.valence != 2 or t2.valence != 2:
        raise ValenceError("frob requires two 2-tensor expressions")
    return econtract(t1, t2, [(0, 0), (1, 1)])


def tensor_vec(t: TExpr, v: TExpr) -> TExpr:
    """Contract the second free slot of a 2-tensor with a vector."""
    if t.valence != 2 or v.valence != 1:
        raise ValenceError("tensor_vec requires a 2-tensor and a vector")
    return econtract(t, v, [(1, 0)])


def upow(e: TExpr, k: int) -> TExpr:
    """Multiply by u**k."""
    return TExpr(e.valence, {TensorMonomial(m.u_power + k, m.symbols, m.pairs, m.free): c
                             for m, c in e.terms.items()})


def to_labeled(m: TensorMonomial):
    """Labeled view of a monomial: (u_power, [(sym, label, ...), ...],
    free_labels).  Contractions share a label; free slots get f0, f1, ..."""
    names = {}
    for k, (a, b) in enumerate(m.pairs):
        names[a] = names[b] = f"p{k}"
    free_labels = []
    for k, s in enumerate(m.free):
        names[s] = f"f{k}"
        free_labels.append(f"f{k}")
    factors = []
    off = 0
    for sym in m.symbols:
        k = FACTORS[sym].arity
        factors.append((sym,) + tuple(names[off + j] for j in range(k)))
        off += k
    return m.u_power, factors, free_labels


def replace_factor(m: TensorMonomial, idx: int, replacement: TExpr):
    """Substitute ``replacement`` for factor idx.

    The replacement has one free slot per slot of the factor, and each
    wires onto whatever that factor slot touched.  Returns raw (coeff,
    monomial) pairs, not yet canonicalized.
    """
    arity = FACTORS[m.symbols[idx]].arity
    if replacement.valence != arity:
        raise ValenceError("replacement valence must equal the factor arity")
    u, facs, frees = to_labeled(m)
    target_labels = facs[idx][1:]

    out = []
    for rm, rc in replacement.terms.items():
        ru, rfacs, rfrees = to_labeled(rm)
        rename = dict(zip(rfrees, target_labels))
        new_facs = [f for j, f in enumerate(facs) if j != idx]
        for rf in rfacs:
            new_facs.append((rf[0],) + tuple(rename.get(lab, f"r_{lab}") for lab in rf[1:]))
        out.append((rc, mono(u + ru, *new_facs, free=list(frees))))
    return out


def expand_factors(m: TensorMonomial, table: Mapping[str, TExpr]) -> list:
    """Raw (coeff, monomial) terms of m with every factor kind in ``table``
    replaced by the given expression (whose free slots stand for the
    factor's slots), not yet canonicalized.

    Depth first: the first such factor is replaced, and the replacements
    are expanded in turn, the last one first.
    """
    pending = [(ONE, m)]
    done = []
    while pending:
        c, m = pending.pop()
        idx = next((i for i, s in enumerate(m.symbols) if s in table), None)
        if idx is None:
            done.append((c, m))
            continue
        for rc, rm in replace_factor(m, idx, table[m.symbols[idx]]):
            pending.append((c * rc, rm))
    return done
