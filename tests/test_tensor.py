"""Canonical form of tensor monomials and expression arithmetic."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhverify import calculus, cli, registry, tensor
from bhverify.coeffs import ALPHA, A, B, N, ONE, ZERO, ParamScalar, frac, ps
from bhverify.errors import (MalformedMonomialError, UnsupportedCurvatureError,
                             ValenceError)
from bhverify.tensor import (FACTORS, TensorMonomial, TExpr, canonical_form, dot, emul,
                             expand_factors, expr, frob, mono, replace_factor,
                             tensor_vec, to_labeled, upow)


def canonicalize(m):
    """Canonical form of a monomial that neither vanishes nor picks up a
    metric self-trace factor."""
    mult, canon = canonical_form(m)
    assert mult == ONE and canon is not None
    return canon


METRIC = expr(1, mono(0, ("g", "x", "y"), free=("x", "y")))


def test_relabeling_invariance_basic():
    m1 = mono(0, ("D2u", "i", "j"), ("Du", "i"), ("Du", "j"))
    m2 = mono(0, ("D2u", "q", "p"), ("Du", "p"), ("Du", "q"))
    assert canonicalize(m1) == canonicalize(m2)


def test_commutativity_of_factor_order():
    m1 = mono(0, ("Lap",), ("Du", "k"), ("Du", "k"))
    m2 = mono(0, ("Du", "k"), ("Du", "k"), ("Lap",))
    assert canonicalize(m1) == canonicalize(m2)


def test_idempotent():
    m = mono(-2, ("D3u", "o", "i", "j"), ("Du", "o"), ("Du", "i"), ("Du", "j"))
    c = canonicalize(m)
    assert canonicalize(c) == c


def test_hessian_cycle_distinct_from_lap_square():
    """The cyclic Hessian contraction differs from Lap * |Hessian|^2; the
    independent oracle is numeric evaluation at a generic jet."""
    import numpy as np
    cyc = mono(0, ("D2u", "i", "j"), ("D2u", "j", "k"), ("D2u", "k", "i"))
    lap2 = mono(0, ("Lap",), ("D2u", "i", "j"), ("D2u", "i", "j"))
    rng = np.random.default_rng(7)
    h = rng.normal(size=(5, 5))
    h = h + h.T
    v_cyc = np.einsum("ij,jk,ki->", h, h, h)
    v_lap2 = np.trace(h) * (h * h).sum()
    assert abs(v_cyc - v_lap2) > 1e-6
    assert canonicalize(cyc) != canonicalize(lap2)


def test_metric_elimination_and_trace():
    mgd = mono(0, ("g", "i", "j"), ("Du", "i"), ("Du", "j"))
    dd = mono(0, ("Du", "i"), ("Du", "i"))
    assert canonicalize(mgd) == canonicalize(dd)
    mult, canon = canonical_form(mono(0, ("g", "i", "i")))
    assert mult == N and canon is not None and not canon.symbols


def test_self_traces_rewrite():
    mult, canon = canonical_form(mono(0, ("D2u", "i", "i")))
    assert canon.symbols == ("Lap",)
    mult, canon = canonical_form(mono(0, ("D3u", "o", "h", "h"), ("Du", "o")))
    assert "DLap" in canon.symbols
    mult, canon = canonical_form(mono(0, ("Etf", "i", "i")))
    assert canon is None  # trace-free


def test_unreduced_hessian_divergence_rejected():
    with pytest.raises(MalformedMonomialError):
        canonical_form(mono(0, ("D3u", "o", "o", "h"), ("Du", "h")))


def test_dangling_slots_rejected():
    with pytest.raises(MalformedMonomialError):
        TensorMonomial(0, ("Du", "Du"), [], [0]).validate()
    with pytest.raises(MalformedMonomialError):
        mono(0, ("Du", "i"), ("Du", "i"), ("Du", "j"))  # j not declared free


def test_combine_axioms():
    e = expr(1, mono(0, ("Du", "k"), ("Du", "k")))
    z = e + e.scale(-1)
    assert z.is_zero
    assert e.scale(0).is_zero
    f = expr(1, mono(0, ("Lap",)))
    assert e.scale(2) + f.scale(3) == f.scale(3) + e.scale(2)
    with pytest.raises(ValenceError):
        e + expr(1, mono(0, ("Du", "x"), free=("x",)))


def test_combine_reproduces_bernstein_quantity():
    from bhverify.registry import build_z
    lap = expr(1, mono(0, ("Lap",)))
    gradsq_over_u = expr(1, mono(-1, ("Du", "k"), ("Du", "k")))
    za = upow(lap + gradsq_over_u.scale(A), -1)
    assert za == build_z()


def test_products_and_contractions():
    v = expr(1, mono(0, ("Du", "x"), free=("x",)))
    t = expr(1, mono(0, ("D2u", "x", "y"), free=("x", "y")))
    assert dot(v, v) == expr(1, mono(0, ("Du", "k"), ("Du", "k")))
    assert frob(t, METRIC) == expr(1, mono(0, ("Lap",)))
    assert frob(t, t) == expr(1, mono(0, ("D2u", "i", "j"), ("D2u", "i", "j")))
    assert tensor_vec(t, v) == expr(1, mono(0, ("D2u", "x", "k"), ("Du", "k"),
                                            free=("x",)))
    g2 = expr(1, mono(0, ("g", "x", "y"), free=("x", "y")))
    assert frob(g2, METRIC) == expr(N, mono(0))
    assert emul(v, v) == expr(1, mono(0, ("Du", "x"), ("Du", "y"), free=("x", "y")))
    with pytest.raises(ValenceError):
        emul(t, v)


def test_expand_factors_roundtrip_simple():
    m = mono(-1, ("Lap",), ("Du", "k"), ("Du", "k"))
    [(c, fwd)] = expand_factors(m, {"Lap": expr(1, mono(0, ("Gscal",)))})
    [(c2, back)] = expand_factors(fwd, {"Gscal": expr(1, mono(0, ("Lap",)))})
    assert "Lap" not in fwd.symbols and c == c2 == ONE
    assert canonicalize(back) == canonicalize(m)


def test_expand_factors_is_depth_first():
    """The first replaced factor's last replacement is expanded first, and
    each term's coefficient is the product along its path."""
    table = {"Lap": expr(2, mono(0, ("Gscal",))) + expr(3, mono(0, ("Bilap",)))}
    got = expand_factors(mono(0, ("Lap",), ("Lap",)), table)
    assert [(c, m.symbols) for c, m in got] == [
        (ps(9), ("Bilap", "Bilap")), (ps(6), ("Bilap", "Gscal")),
        (ps(6), ("Gscal", "Bilap")), (ps(4), ("Gscal", "Gscal"))]


def test_replacement_valence_must_equal_factor_arity():
    m = mono(0, ("Du", "k"), ("Du", "k"))
    for replacement in (expr(1, mono(0, ("Lap",))),
                        expr(1, mono(0, ("D2u", "x", "y"), free=("x", "y")))):
        with pytest.raises(ValenceError, match="must equal the factor arity"):
            replace_factor(m, 0, replacement)


def test_labeled_roundtrip():
    m = mono(-3, ("D2u", "i", "j"), ("Du", "i"), ("Du", "j"), ("Du", "x"),
             free=("x",))
    u, facs, frees = to_labeled(m)
    assert mono(u, *facs, free=frees) == m


def test_serialization_deterministic():
    m = mono(-2, ("Du", "i"), ("Du", "i"), ("Lap",))
    e = expr(ps(2) / (N - 1), m)
    assert e.render() == expr(ps(2) / (N - 1), m).render()
    assert "u^-2" in m.render() and "Lap" in m.render()


def test_render_names_up_to_three_free_slots():
    """validate allows three free slots; render names them x, y, z."""
    assert repr(mono(0, ("D3u", "x", "y", "z"), free=("x", "y", "z"))) \
        == "TensorMonomial(D3u(x,y,z))"
    assert mono(0, ("D2u", "a", "b"), free=("a", "b")).render() == "D2u(x,y)"
    assert mono(0, ("Du", "i"), ("D2u", "i", "a"), free=("a",)).render() \
        == "Du(i1) D2u(i1,x)"


# -- canonicalization soundness over random relabelings -------------------------

_POOL = ("Du", "D2u", "D3u", "Lap", "DLap", "Ric")


def _random_monomial(rng: random.Random):
    k = rng.choices((1, 2, 3, 4), weights=(2, 4, 3, 1))[0]
    syms = [rng.choice(_POOL) for _ in range(k)]
    slots = []
    for i, s in enumerate(syms):
        slots.extend((i, j) for j in range(FACTORS[s].arity))
    if len(slots) % 2 == 1:
        syms.append("Du")
        slots.append((len(syms) - 1, 0))
    rng.shuffle(slots)
    free = []
    if rng.random() < 0.4 and slots:
        free = [slots.pop()]
    if len(slots) % 2 == 1:
        free.append(slots.pop())
    labels = {}
    for t, (a, b) in enumerate(zip(slots[::2], slots[1::2])):
        labels[a] = labels[b] = f"p{t}"
    for j, s in enumerate(free):
        labels[s] = f"f{j}"
    facs = [(s,) + tuple(labels[(i, j)] for j in range(FACTORS[s].arity))
            for i, s in enumerate(syms)]
    return mono(rng.randint(-4, 2), *facs, free=[f"f{j}" for j in range(len(free))])


def _shuffled_copy(m, rng: random.Random):
    u, facs, frees = to_labeled(m)
    facs = list(facs)
    rng.shuffle(facs)
    names = sorted({lab for f in facs for lab in f[1:]})
    renamed = {lab: f"q{k}" for k, lab in enumerate(rng.sample(names, len(names)))}
    facs = [(f[0],) + tuple(renamed[lab] for lab in f[1:]) for f in facs]
    return mono(u, *facs, free=[renamed[f] for f in frees])


def test_canonicalization_soundness_random():
    """canonical_form is invariant under factor reordering and relabeling
    (10,000 random monomials)."""
    rng = random.Random(987654)
    checked = 0
    while checked < 10_000:
        try:
            m = _random_monomial(rng)
            c1 = canonical_form(m)
            c2 = canonical_form(_shuffled_copy(m, rng))
        except (MalformedMonomialError, UnsupportedCurvatureError):
            continue
        assert c1 == c2, f"{m.render()} canonicalized inconsistently"
        checked += 1


# -- structural rewrites against the replaced slot-renumbering code ---------------
#
# The canonicalizer used to rewrite raw slot numbers by hand.  The functions
# below are that code, kept verbatim as the reference; the engine now does
# the same rewrites on the labeled view.

_ORDER = {name: i for i, name in enumerate(FACTORS)}


def _ref_drop_factor(m: TensorMonomial, idx: int,
                 rewire: dict[int, int]) -> TensorMonomial:
    """Remove factor idx, renumbering slots; ``rewire`` maps old slots of the
    removed factor's partners onto each other (used by metric elimination)."""
    offs = m.offsets()
    k = FACTORS[m.symbols[idx]].arity
    removed = set(range(offs[idx], offs[idx] + k))

    def newslot(s: int) -> int:
        if s in removed:
            raise MalformedMonomialError("dangling reference to removed slot")
        return s - k if s > offs[idx] else s

    pairs = []
    for a, b in m.pairs:
        if a in removed or b in removed:
            continue
        pairs.append((newslot(a), newslot(b)))
    for a, b in rewire.items():
        pairs.append((newslot(a), newslot(b)))
    if any(s in removed for s in m.free):
        raise MalformedMonomialError("cannot drop a factor carrying a free slot")
    free = [newslot(s) for s in m.free]
    symbols = m.symbols[:idx] + m.symbols[idx + 1:]
    return TensorMonomial(m.u_power, symbols, pairs, free)


def _ref_replace_symbol(m: TensorMonomial, idx: int, new_name: str,
                    keep_local: Sequence[int]) -> TensorMonomial:
    """Replace factor idx by ``new_name`` keeping the listed local slots (in
    order); the discarded local slots must be paired with each other."""
    offs = m.offsets()
    old_arity = FACTORS[m.symbols[idx]].arity
    base = offs[idx]
    kept_old = [base + j for j in keep_local]
    dropped = [base + j for j in range(old_arity) if j not in keep_local]
    dropped_set = set(dropped)

    shift = {}
    new = 0
    for s in range(m.slot_count):
        if s in dropped_set:
            continue
        # kept slots of the replaced factor keep their relative order
        shift[s] = new
        new += 1

    pairs = []
    for a, b in m.pairs:
        if a in dropped_set and b in dropped_set:
            continue
        if a in dropped_set or b in dropped_set:
            raise MalformedMonomialError("partially dropped contraction")
        pairs.append((shift[a], shift[b]))
    free = [shift[s] for s in m.free]
    symbols = list(m.symbols)
    symbols[idx] = new_name
    return TensorMonomial(m.u_power, symbols, pairs, free)


def _ref_structural_rewrites(m: TensorMonomial):
    """Apply metric elimination and self-trace rewrites until stable.

    Returns (multiplier, monomial) where monomial is None if the term
    vanishes identically (trace of a trace-free factor).
    """
    mult = ONE
    changed = True
    while changed:
        changed = False
        offs = m.offsets()
        partner = {}
        for a, b in m.pairs:
            partner[a] = b
            partner[b] = a
        for idx, sym in enumerate(m.symbols):
            base = offs[idx]
            if sym == "g":
                s1, s2 = base, base + 1
                if partner.get(s1) == s2:
                    mult = mult * N
                    m = _ref_drop_factor(m, idx, {})
                elif s1 in partner and s2 in partner:
                    m = _ref_drop_factor(m, idx, {partner[s1]: partner[s2]})
                elif s1 in partner or s2 in partner:
                    paired, free_ = (s1, s2) if s1 in partner else (s2, s1)
                    # metric with one free slot renames the partner slot
                    pos = m.free.index(free_)
                    tgt = partner[paired]
                    pairs = [p for p in m.pairs if paired not in p]
                    free = list(m.free)
                    free[pos] = tgt
                    m = _ref_drop_factor(
                        TensorMonomial(m.u_power, m.symbols, pairs, free), idx, {})
                else:
                    continue  # both slots free: metric term of a 2-tensor
                changed = True
                break
            if sym == "D2u" and partner.get(base) == base + 1:
                m = _ref_replace_symbol(m, idx, "Lap", [])
                changed = True
                break
            if sym == "D3u" and partner.get(base + 1) == base + 2:
                m = _ref_replace_symbol(m, idx, "DLap", [0])
                changed = True
                break
            if sym == "D3u" and partner.get(base) in (base + 1, base + 2):
                raise MalformedMonomialError(
                    "unreduced contraction of the derivative slot of D3u with its "
                    "own Hessian slot; expand it through the divergence rules")
            if sym == "Etf" and partner.get(base) == base + 1:
                return mult, None
            if sym == "Ric" and partner.get(base) == base + 1:
                raise UnsupportedCurvatureError(
                    "self-traced Ricci factor (scalar curvature) is unsupported")
    return mult, m


def _ref_canonical_form(m: TensorMonomial):
    m.validate()
    mult, m = _ref_structural_rewrites(m)
    if m is None:
        return mult, None
    m.validate()

    order = sorted(range(len(m.symbols)), key=lambda i: (_ORDER[m.symbols[i]], i))
    symbols = tuple(m.symbols[i] for i in order)

    # group identical symbols in the sorted listing
    groups: list[list[int]] = []
    for pos, i in enumerate(order):
        if groups and m.symbols[i] == m.symbols[groups[-1][0]]:
            groups[-1].append(i)
        else:
            groups.append([i])

    old_offs = m.offsets()
    new_offs = []
    off = 0
    for s in symbols:
        new_offs.append(off)
        off += FACTORS[s].arity

    best = None
    group_perms = [list(itertools.permutations(g)) for g in groups]
    for assignment in itertools.product(*group_perms):
        placed = [i for grp in assignment for i in grp]
        sym_choices = [FACTORS[m.symbols[i]].sym for i in placed]
        for syms in itertools.product(*sym_choices):
            mapping = {}
            for pos, (i, sigma) in enumerate(zip(placed, syms)):
                for j, sj in enumerate(sigma):
                    mapping[old_offs[i] + sj] = new_offs[pos] + j
            pairs = tuple(sorted(
                tuple(sorted((mapping[a], mapping[b]))) for a, b in m.pairs))
            free = tuple(mapping[s] for s in m.free)
            key = (pairs, free)
            if best is None or key < best:
                best = key
    result = TensorMonomial(m.u_power, symbols, best[0], best[1])
    return mult, result


def _relabelings(symbols) -> int:
    """How many relabelings the exhaustive search tries: every order of each
    symbol's factors, under every slot symmetry of each factor."""
    return math.prod(math.factorial(k) * len(FACTORS[sym].sym)**k
                     for sym, k in Counter(symbols).items())


@st.composite
def _raw_monomials(draw, kinds=tuple(FACTORS) + ("g", "g", "D2u", "D3u"), max_size=5):
    """Any valid monomial of 1 to ``max_size`` factors drawn from ``kinds``
    (by default all 11, the metric and the derivative factors more often)
    with 0 to 3 free slots, and at most 6,000 relabelings, so that the
    exhaustive reference stays quick."""
    syms = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_size)
                .filter(lambda syms: _relabelings(syms) <= 6000))
    total = sum(FACTORS[s].arity for s in syms)
    n_free = draw(st.sampled_from([k for k in range(4)
                                   if k <= total and (total - k) % 2 == 0]))
    slots = draw(st.permutations(range(total)))
    pairs = zip(slots[n_free::2], slots[n_free + 1::2])
    return TensorMonomial(draw(st.integers(-4, 3)), syms, pairs, slots[:n_free])


def _outcome(canonicalizer, m):
    try:
        mult, canon = canonicalizer(m)
    except Exception as exc:
        return type(exc), str(exc)
    return mult, None if canon is None else canon.key()


@settings(max_examples=600, deadline=None)
@given(_raw_monomials())
# the first rewrite in listing order decides between vanishing and raising
@example(mono(0, ("Ric", "i", "i"), ("Etf", "j", "j")))
@example(mono(0, ("Etf", "j", "j"), ("Ric", "i", "i")))
@example(mono(0, ("g", "i", "i"), ("Etf", "j", "j")))
@example(mono(0, ("D3u", "a", "a", "b"), ("Du", "b"), ("Etf", "j", "j")))
# eliminating a metric can close a self-trace in an earlier factor
@example(mono(0, ("D2u", "i", "j"), ("g", "i", "j")))
@example(mono(0, ("Etf", "i", "j"), ("g", "j", "i")))
@example(mono(0, ("g", "x", "i"), ("g", "i", "y"), free=("x", "y")))
def test_structural_rewrites_match_replaced_code(m):
    """Same multiplier and canonical monomial, or the same exception, as the
    slot-renumbering reference."""
    assert _outcome(canonical_form, m) == _outcome(_ref_canonical_form, m), m.render()


# -- the branch-and-bound search against the exhaustive one it replaced ----------


@settings(max_examples=600, deadline=None)
@given(_raw_monomials(kinds=("Du",) * 12 + tuple(FACTORS) + ("D3u", "g"), max_size=7))
# six Du factors, 720 orders, among two Hessians and a D3u
@example(mono(-3, ("D2u", "i", "j"), ("Du", "k"), ("Du", "i"), ("Du", "l"), ("Du", "j"),
              ("D2u", "k", "l"), ("Du", "m"), ("Du", "m")))
@example(mono(1, ("Du", "x"), ("D3u", "i", "j", "k"), ("Du", "j"), ("Du", "i"), ("Du", "k"),
              ("Du", "y"), free=("y", "x")))
@example(mono(0, ("Du", "a"), ("Du", "b"), ("Du", "c"), ("Du", "a"), ("Du", "c"),
              ("Du", "b"), ("g", "x", "y"), free=("y", "x")))
def test_search_matches_exhaustive(m):
    """Branch and bound finds the exhaustive search's least key: the same
    multiplier and canonical monomial, or the same exception."""
    assert _outcome(canonical_form, m) == _outcome(_ref_canonical_form, m), m.key()


@pytest.fixture(scope="module")
def verify_monomials():
    """Every distinct monomial that run_verify plus run_combination
    canonicalize, from cold identity caches, in order of first use."""
    seen = {}
    cached = tensor._canonical_cached

    def recorded(m):
        seen.setdefault(m, None)
        return cached(m)

    registry.all_identities.cache_clear()
    registry._coeff_catalog.cache_clear()
    calculus._definitions.cache_clear()
    calculus._expansion.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_canonical_cached", recorded)
        assert cli.run_verify()[1] and cli.run_combination()[1]
    return list(seen)


def test_search_matches_exhaustive_on_the_verify_monomials(verify_monomials):
    assert len(verify_monomials) == 276
    for m in verify_monomials:
        assert _outcome(canonical_form, m) == _outcome(_ref_canonical_form, m), m.key()


def test_search_prunes_the_verify_monomials(verify_monomials, monkeypatch):
    """The 276 monomials of the identities benchmark reach at most 1,460
    complete relabelings; the exhaustive search tried 10,939, 720 each for
    the eleven with six Du factors."""
    leaves = []
    leaf_key = tensor._leaf_key

    def counted(m, new_of):
        leaves.append(m)
        return leaf_key(m, new_of)

    monkeypatch.setattr(tensor, "_leaf_key", counted)
    tried = []
    for m in verify_monomials:
        tensor._canonical_cached.__wrapped__(m)
        tried.append(_relabelings(tensor._structural_rewrites(m)[1].symbols))
    assert sum(tried) == 10_939 and tried.count(720) == 11
    assert len(leaves) <= 1460


# -- TExpr.from_terms against the per-term ParamScalar sum it replaced ------------


def _ref_from_terms(cls, valence, raw):
    """The replaced from_terms, verbatim: every partial sum normalized."""
    acc: dict[TensorMonomial, ParamScalar] = {}
    for coeff, m in raw:
        if coeff.is_zero:
            continue
        mult, canon = canonical_form(m)
        if canon is None:
            continue
        if canon.valence != valence:
            raise ValenceError(
                f"monomial valence {canon.valence} != expression valence {valence}")
        c = coeff * mult
        prev = acc.get(canon)
        tot = c if prev is None else prev + c
        if tot.is_zero:
            acc.pop(canon, None)
        else:
            acc[canon] = tot
    return cls(valence, acc)


# scalar monomials: several share a canonical form, some through a metric
# self-trace (multiplier n), and the trace of Etf vanishes
_SCALAR_MONOS = (
    mono(0, ("Du", "i"), ("Du", "i")),
    mono(0, ("g", "i", "j"), ("Du", "i"), ("Du", "j")),
    mono(0, ("g", "k", "k"), ("Du", "i"), ("Du", "i")),
    mono(0, ("Lap",)),
    mono(0, ("D2u", "i", "i")),
    mono(-1, ("Lap",), ("Du", "i"), ("Du", "i")),
    mono(0, ("D2u", "i", "j"), ("D2u", "i", "j")),
    mono(0, ("Etf", "i", "i")),
    mono(0, ("g", "i", "i")),
    mono(0),
)
# denominators that are products of linear factors in Q[n] (repeated,
# non-monic), under numerators in all four parameters
_COEFF_BASES = (
    ONE, N, frac(3, 7), (N + 4) / (N - 1), ALPHA / (N * (N + 4)), -(N + 2) / (2 * N),
    (ALPHA * A - B) / (2 * N - 3)**2, ALPHA / ((N - 2) * (N + 4)), (ALPHA - B) / (3 * N + 1),
    (N * A + 1) / ((N - 4) * (N - 1)),
)
_term_coeffs = st.builds(lambda j, x, k, y: j * x + k * y,
                         st.integers(-2, 2), st.sampled_from(_COEFF_BASES),
                         st.integers(-2, 2), st.sampled_from(_COEFF_BASES))


@st.composite
def _term_lists(draw):
    """Scalar (coeff, monomial) lists, with terms planted to cancel the
    running sum of a monomial on a prefix, so that it leaves and re-enters."""
    terms = draw(st.lists(st.tuples(_term_coeffs, st.sampled_from(_SCALAR_MONOS)),
                          max_size=12))
    for k in draw(st.lists(st.integers(0, len(terms)), max_size=3)):
        m = draw(st.sampled_from(_SCALAR_MONOS))
        mult, canon = canonical_form(m)
        if canon is None:
            continue
        total = ZERO
        for c, m2 in terms[:k]:
            mult2, canon2 = canonical_form(m2)
            if canon2 == canon:
                total = total + c * mult2
        if not total.is_zero:
            terms.insert(k, (-total / mult, m))
    return terms


@settings(max_examples=300, deadline=None)
@given(_term_lists())
@example([(ONE, _SCALAR_MONOS[0]), (-ONE, _SCALAR_MONOS[1]), (N, _SCALAR_MONOS[3]),
          (ONE / N, _SCALAR_MONOS[2])])
@example([(ONE / (N - 1), _SCALAR_MONOS[3]), (ONE / (N + 4), _SCALAR_MONOS[4]),
          ((ALPHA - B) / (N - 2), _SCALAR_MONOS[3]), (ALPHA, _SCALAR_MONOS[7])])
# running denominators that share a factor, n - 4 and a repeated n
@example([(ONE / (N * (N - 4)), _SCALAR_MONOS[0]),
          ((N + 1) / ((N - 4) * (N - 1)), _SCALAR_MONOS[1]),
          (ONE / N, _SCALAR_MONOS[3]), (ALPHA / (N**2 * (N + 4)), _SCALAR_MONOS[4])])
def test_from_terms_matches_replaced_code(terms):
    """Same monomials in the same order with the same coefficients."""
    got = TExpr.from_terms(0, terms)
    want = _ref_from_terms(TExpr, 0, terms)
    assert list(got.terms.items()) == list(want.terms.items())


def test_oracle_reports_unchanged_under_replaced_from_terms(monkeypatch):
    """The float residuals depend on term order, so the oracle reports pin
    it: equal with the identities built by either from_terms.  Keys kept in
    order of first appearance leave the dims (5, 6) reports unchanged but
    move a residual at n = 8."""
    from bhverify import registry
    from bhverify.jetoracle import check_all_identities
    from bhverify.report import jsonable

    def reports():
        registry.all_identities.cache_clear()
        return [jsonable(check_all_identities(samples=40, dims=dims))
                for dims in ((5, 6), (8,))]

    got = reports()
    monkeypatch.setattr(TExpr, "from_terms", classmethod(_ref_from_terms))
    try:
        want = reports()
    finally:
        registry.all_identities.cache_clear()
    assert got == want
