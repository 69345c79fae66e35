"""Identity registry: verification, mutation sensitivity, combination solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import replaced_hot_paths as replaced
from bhverify import calculus, cli, registry
from bhverify.calculus import COMPOSITES, bstar, substitute_defs
from bhverify.coeffs import ALPHA, B, N, ParamScalar, frac, ps
from bhverify.errors import NoCombinationError, SingularSystemError
from bhverify.registry import (ERRATA, Identity, all_identities, build_named,
                               get_identity, perturb_identity, printed_variant, residual,
                               select_identities, solve_combination, verify_all,
                               verify_identity)
from bhverify.jetoracle import check_all_identities
from bhverify.report import jsonable
from bhverify.tensor import TExpr, dot, emul, expr, frob, mono, upow


class TestCatalog:
    def test_tracefree_tensor_is_tracefree(self):
        etf = expr(1, mono(0, ("Etf", "x", "y"), free=("x", "y")))
        metric = expr(1, mono(0, ("g", "x", "y"), free=("x", "y")))
        for b in (B, bstar()):
            eij = substitute_defs(etf, b)
            assert frob(eij, metric).is_zero

    def test_specialized_fvec_display(self):
        """F_i with b specialized has the three displayed coefficients."""
        fvec = expr(1, mono(0, ("Fvec", "x"), free=("x",)))
        k = 1 + N * ALPHA / (N + 4)
        expected = (expr(1, mono(0, ("DLap", "x"), free=("x",)))
                    + expr(-(N + 2) / (2 * N) * k,
                           mono(-1, ("Lap",), ("Du", "x"), free=("x",)))
                    + expr(frac(1, 4) * k * ((N + 2) / N - (N - 2) * ALPHA / (N + 4)),
                           mono(-2, ("Du", "j"), ("Du", "j"), ("Du", "x"),
                                free=("x",))))
        assert (substitute_defs(fvec, bstar()) - expected).is_zero

    def test_c1_value(self):
        c1 = build_named("c1")
        assert c1.evaluate(n=5, alpha=2) == Fraction(2209, 1296)

    def test_a11_two_routes_agree(self):
        assert build_named("A11") == build_named("A11_display")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_named("nonsense")


class TestVerification:
    def test_all_identities_verified_zero(self):
        reports = verify_all()
        assert len(reports) == 15
        bad = [r.id for r in reports if r.status != "verified-zero"]
        assert not bad, f"residuals in {bad}"

    def test_report_fields(self):
        r = verify_identity(get_identity("I3"))
        d = jsonable(r)
        assert d["status"] == "verified-zero" and d["residual_count"] == 0
        assert d["residual_terms"] == [] and d["millis"] >= 0
        assert d["mode"] == "free" and d["anchor"]

    def test_single_coefficient_perturbation_detected(self):
        rng = random.Random(5)
        idents = all_identities()
        for _ in range(10):
            ident = idents[rng.randrange(len(idents))]
            mutated = perturb_identity(ident, rng.randrange(len(ident.rhs.terms)))
            assert verify_identity(mutated).status == "residual"

    def test_master_identity_perturbation_hits_quartic(self):
        """Shifting the |Du|^6/u^4 coefficient of the master identity leaves
        exactly that monomial as residual."""
        ident = get_identity("I12")
        items = ident.rhs.sorted_terms()
        idx = next(i for i, (m, _) in enumerate(items)
                   if m.u_power == -4 and m.symbols == ("Du",) * 6)
        rep = verify_identity(perturb_identity(ident, idx))
        assert rep.residual_count == 1
        assert "u^-4" in rep.residual_terms[0]

    @pytest.mark.parametrize("index, delta, message", [
        (4, 1, "term index 4 outside 0..3 for I3"),
        (5, 1, "term index 5 outside 0..3 for I3"),
        (-1, 1, "term index -1 outside 0..3 for I3"),
        (0, 0, "delta 0 leaves I3 unperturbed"),
        (3, Fraction(0), "delta 0 leaves I3 unperturbed"),
    ])
    def test_perturbation_refuses_what_it_would_fake(self, index, delta, message):
        """An index past the sorted right side would wrap onto another term
        and a zero delta would return an identity that still verifies."""
        ident = get_identity("I3")
        assert len(ident.rhs.terms) == 4
        with pytest.raises(ValueError, match=message):
            perturb_identity(ident, index, delta)

    def test_printed_variants_fail_with_recorded_residuals(self):
        """The two display errata are reproducible: the printed right sides
        leave exactly the residuals the errata describe."""
        assert set(ERRATA) == {"I14", "I15"}
        for iid in ERRATA:
            # one printed coefficient replaces a registered one; no term is added
            printed, registered = printed_variant(iid).rhs, get_identity(iid).rhs
            assert printed.terms.keys() == registered.terms.keys()
            assert sum(printed.terms[m] != c for m, c in registered.terms.items()) == 1
        r14 = verify_identity(printed_variant("I14"))
        assert r14.status == "residual" and r14.residual_count == 3
        r15 = verify_identity(printed_variant("I15"))
        assert r15.status == "residual" and r15.residual_count == 1
        assert "u^-2" in r15.residual_terms[0]


class TestRegistryListing:
    """Each identity's id, anchor, kind and mode are stated once in a
    report, by its verification record."""

    def test_census(self):
        assert [i.id for i in all_identities()] == [f"I{k}" for k in range(1, 16)]

    def test_anchors_nonempty_and_ids_unique(self):
        idents = all_identities()
        assert all(i.anchor for i in idents)
        assert len({i.id for i in idents}) == len(idents)

    def test_modes_as_registered(self):
        modes = {r.id: r.mode for r in verify_all()}
        assert modes["I5"] == "onshell"
        assert modes["I10"] == "onshell"
        assert modes["I12"] == "onshell"
        assert all(modes[f"I{k}"] == "free" for k in (1, 2, 3, 4, 6, 7, 8, 9, 11, 13, 14, 15))

    def test_records_state_the_registered_fields(self):
        for ident, r in zip(all_identities(), verify_all(), strict=True):
            assert (r.id, r.anchor, r.kind, r.mode) \
                == (ident.id, ident.anchor, ident.kind, ident.mode.value)
        assert [i.id for i in all_identities() if i.kind == "grad"] == ["I5"]
        assert all(i.kind == "wdiv" for i in all_identities() if i.id != "I5")


class TestSelection:
    """``verify_all`` and ``--ids`` take their ids by one rule: None names
    every identity, and an empty list, an unknown id or a repeated id is
    refused by name before anything is verified."""

    def test_none_selects_every_identity(self):
        assert select_identities() == select_identities(None) == all_identities()

    def test_a_subset_keeps_the_registry_order(self):
        assert [i.id for i in select_identities(["I12", "I3"])] == ["I3", "I12"]
        assert [r.id for r in verify_all(["I12", "I3"])] == ["I3", "I12"]

    @pytest.mark.parametrize("ids, message", [
        ([], "ids is empty: None selects every identity"),
        (["I99"], "unknown identity I99; known: " + ", ".join(f"I{k}" for k in range(1, 16))),
        (["I1", "I99", "I0"], "unknown identity I99, I0; known: "),
        (["I1", "I1"], "identity I1 is listed more than once"),
        (["I2", "I3", "I2", "I3", "I2"], "identity I2, I3 is listed more than once"),
    ])
    def test_a_bad_selection_is_refused_before_any_work(self, ids, message, monkeypatch):
        def must_not_run(ident):
            raise AssertionError(f"{ident.id} was verified")
        monkeypatch.setattr(registry, "verify_identity", must_not_run)
        with pytest.raises(ValueError) as exc:
            verify_all(ids)
        assert str(exc.value).startswith(message)
        with pytest.raises(ValueError) as via_cli:
            cli.run_verify(ids)
        assert str(via_cli.value) == str(exc.value)


class TestCombination:
    def test_weights_reproduce_catalog_coefficients(self):
        basis = [get_identity(f"I{k}") for k in range(6, 12)]
        w = solve_combination(get_identity("I12"), basis)
        k = 1 + N * ALPHA / (N + 4)
        van = 1 - (N - 4) * ALPHA / (N + 4)
        assert w[0] == build_named("c1")
        assert w[1] == -build_named("c2")
        assert w[2] == (N + 2) * ALPHA / (N + 4)
        assert w[3] == ps(1)
        assert w[4] == ps(-1)
        assert w[5] == N * ALPHA / (2 * (N + 4)) * k * van

    def test_duplicate_basis_is_singular(self):
        basis = [get_identity("I6")] * 2 + [get_identity(f"I{k}") for k in (8, 9, 10, 11)]
        with pytest.raises(SingularSystemError):
            solve_combination(get_identity("I12"), basis)

    def test_zero_target_gives_zero_weights(self):
        tgt = get_identity("I12")
        zero_target = Identity("Z0", "zero", "wdiv", tgt.weight,
                               TExpr(1), TExpr(0), tgt.mode, tgt.b)
        w = solve_combination(zero_target,
                              [get_identity(f"I{k}") for k in range(6, 12)])
        assert all(x.is_zero for x in w)

    def test_unmatchable_target_reports_monomial(self):
        from bhverify.tensor import expr, mono
        tgt = get_identity("I12")
        for power, named in ((5, "u^5 DLap(x)"), (0, "DLap(x)"), (-9, "u^-9 DLap(x)")):
            odd = Identity("X", "unmatchable", "wdiv", tgt.weight,
                           expr(1, mono(power, ("DLap", "x"), free=("x",))),
                           TExpr(0), tgt.mode, tgt.b)
            with pytest.raises(NoCombinationError) as err:
                solve_combination(odd, [get_identity(f"I{k}") for k in range(6, 12)])
            assert str(err.value) == f"monomial {named} cannot be matched by the basis"

    def test_covered_target_outside_span_says_so(self):
        tgt = get_identity("I12")
        (m1, _), (m2, _) = [get_identity(k).lhs.sorted_terms()[0] for k in ("I6", "I7")]
        pair = TExpr.from_terms(1, [(ps(1), m1), (ps(1), m2)])
        basis = [Identity("P", "pair", "wdiv", tgt.weight, pair, TExpr(0), tgt.mode, tgt.b)]
        single = Identity("S", "single", "wdiv", tgt.weight,
                          TExpr.from_terms(1, [(ps(1), m1)]), TExpr(0), tgt.mode, tgt.b)
        with pytest.raises(NoCombinationError,
                           match="^bracket of S is not in the span of the basis$"):
            solve_combination(single, basis)


# -- differential tests against the Gaussian elimination it replaced ------------


def _ref_bracket_weights(target: Identity, basis: list[Identity]) -> list[ParamScalar]:
    """The replaced elimination loop, up to the right-side certification."""
    rows: list = sorted({m for b in basis for m in b.lhs.terms}
                        | set(target.lhs.terms), key=lambda m: m.key())
    ncols = len(basis)
    mat = [[b.lhs.terms.get(m, ps(0)) for b in basis] for m in rows]
    vec = [target.lhs.terms.get(m, ps(0)) for m in rows]

    # Gaussian elimination with exact field arithmetic.
    pivot_rows: list[int] = []
    col_of_pivot: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not mat[i][col].is_zero), None)
        if pivot is None:
            raise SingularSystemError(
                f"basis bracket {basis[col].id} is linearly dependent on the others")
        mat[r], mat[pivot] = mat[pivot], mat[r]
        vec[r], vec[pivot] = vec[pivot], vec[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        vec[r] = vec[r] * inv
        for i in range(len(rows)):
            if i != r and not mat[i][col].is_zero:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
                vec[i] = vec[i] - f * vec[r]
        pivot_rows.append(r)
        col_of_pivot.append(col)
        r += 1

    weights = [ps(0)] * ncols
    for rr, col in zip(pivot_rows, col_of_pivot):
        weights[col] = vec[rr]
    for i in range(len(rows)):
        if i not in pivot_rows and not vec[i].is_zero:
            raise NoCombinationError(
                f"monomial {rows[i].render()} cannot be matched by the basis")
    return weights


_WEIGHT_POOL = (ps(0), ps(1), frac(-3, 2), N, ALPHA - 1, (N + 4) / (N - 4),
                N * ALPHA / (N + 4), (ALPHA**2 - N) / (N - 1), bstar())


def _combined(basis: list[Identity], weights) -> Identity:
    """A target whose bracket and right side are the weighted sums of the
    basis, so the right-side certification passes."""
    tgt = get_identity("I12")
    lhs, rhs = TExpr(1), TExpr(0)
    for w, b in zip(weights, basis):
        lhs, rhs = lhs + b.lhs.scale(w), rhs + b.rhs.scale(w)
    return Identity("C", "combined", "wdiv", tgt.weight, lhs, rhs, tgt.mode, tgt.b)


class TestCombinationAgainstReplacedCode:
    def test_master_identity_weights_equal_reference(self):
        basis = [get_identity(f"I{k}") for k in range(6, 12)]
        target = get_identity("I12")
        got = solve_combination(target, basis)
        want = _ref_bracket_weights(target, basis)
        assert [str(w) for w in got] == [str(w) for w in want]

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_weights_recovered_like_reference(self, seed):
        rng = random.Random(seed)
        ids = [f"I{k}" for k in range(6, 12)]
        rng.shuffle(ids)
        basis = [get_identity(i) for i in ids[:rng.randint(1, 6)]]
        weights = [rng.choice(_WEIGHT_POOL) for _ in basis]
        target = _combined(basis, weights)
        got = solve_combination(target, basis)
        assert got == _ref_bracket_weights(target, basis) == weights
        assert [str(w) for w in got] == [str(w) for w in weights]

    @pytest.mark.parametrize("order", [(6, 6, 8, 9, 10, 11), (6, 7, "6+7", 9),
                                       ("6+7", 6, 7), (8, 9, 10, "8+10")])
    def test_dependent_basis_names_same_bracket_as_reference(self, order):
        def ident(k):
            if isinstance(k, int):
                return get_identity(f"I{k}")
            a, b = (get_identity(f"I{j}") for j in k.split("+"))
            return _combined([a, b], [ps(1), ps(1)])
        basis = [ident(k) for k in order]
        target = get_identity("I12")
        with pytest.raises(SingularSystemError) as want:
            _ref_bracket_weights(target, basis)
        with pytest.raises(SingularSystemError, match=f"^{want.value}$"):
            solve_combination(target, basis)


def test_identity_suite_runtime_budget():
    import time
    t0 = time.perf_counter()
    verify_all()
    assert time.perf_counter() - t0 < 30.0


# -- substitution and residuals against the code they replaced ---------------------


IDS = [f"I{k}" for k in range(1, 16)]


def _assert_same_terms(got: TExpr, want: TExpr):
    """Equal expressions whose terms come in the same order: the flat
    oracle sums the terms in that order, which fixes its float bits."""
    assert got.valence == want.valence
    assert list(got.terms.items()) == list(want.terms.items())


def _variants(ident: Identity) -> list[Identity]:
    """The identity, each of its one-coefficient perturbations, and its
    printed variant if it has one."""
    out = [ident] + [perturb_identity(ident, k) for k in range(len(ident.rhs.terms))]
    if ident.id in ERRATA:
        out.append(printed_variant(ident.id))
    return out


@pytest.mark.parametrize("iid", IDS)
def test_substitution_and_residual_match_replaced_code(iid):
    """On every catalog identity and its mutants: both sides substituted at
    the identity's b and at the formal B give the replaced code's terms in
    its order, and the residual has the replaced code's terms, so the
    report's terms and status are the same."""
    for ident in _variants(get_identity(iid)):
        for e in (ident.lhs, ident.rhs):
            for b in (ident.b, B):
                _assert_same_terms(substitute_defs(e, b), replaced.substitute_defs(e, b))
        want = replaced.residual(ident)
        assert residual(ident).sorted_terms() == want.sorted_terms()
        report = verify_identity(ident)
        assert report.residual_terms == [f"({c}) {m.render()}" for m, c in want.sorted_terms()]
        assert report.status == ("verified-zero" if want.is_zero else "residual")


def _certificate(target: Identity, basis: list[Identity], monkeypatch):
    """solve_combination's outcome and the expression it substitutes."""
    seen = []

    def recorded(e, b):
        seen.append(e)
        return substitute_defs(e, b)
    monkeypatch.setattr(registry, "substitute_defs", recorded)
    try:
        outcome = solve_combination(target, basis)
    except NoCombinationError as exc:
        outcome = str(exc)
    [diff] = seen
    return outcome, diff


@pytest.mark.parametrize("k", [None, 0, 4, 9])
def test_certificate_matches_replaced_code(k, monkeypatch):
    """The master identity's certificate, and those of right sides with one
    coefficient shifted (which fail it): the symbol-space difference, its
    substitution and the outcome are the replaced code's."""
    basis = [get_identity(f"I{j}") for j in range(6, 12)]
    target = get_identity("I12")
    weights = solve_combination(target, basis)
    if k is not None:
        target = perturb_identity(target, k)
    outcome, diff = _certificate(target, basis, monkeypatch)
    want = replaced.certificate_difference(target, basis, weights)
    assert diff.sorted_terms() == want.sorted_terms()
    assert diff.is_zero == (k is None)
    jets = replaced.substitute_defs(want, target.b)
    _assert_same_terms(substitute_defs(want, target.b), jets)
    assert outcome == (weights if k is None else
                       "weights solve the bracket system but the induced right side "
                       f"differs: {jets.render()[:200]}")
    combo = want + target.rhs
    for b in (target.b, B):
        _assert_same_terms(substitute_defs(combo, b), replaced.substitute_defs(combo, b))


def _symbol_monomials():
    """Monomials of the catalog's left and right sides, by valence."""
    pool = {0: set(), 1: set()}
    for ident in all_identities():
        for e in (ident.lhs, ident.rhs):
            pool[e.valence].update(e.terms)
    return {v: sorted(ms, key=lambda m: m.key()) for v, ms in pool.items()}


_COEFFS = (ps(1), ps(-2), frac(3, 5), N, B / (N + 4), ALPHA - B, (N - 2) / N * B)


@st.composite
def _composite_exprs(draw):
    """Scalar or vector sums of catalog monomials, of products of two
    catalog vectors or of a catalog scalar with a catalog vector, each
    shifted by a power of u and scaled by a parameter coefficient."""
    pool = _symbol_monomials()
    pick = st.sampled_from
    valence = draw(st.integers(0, 1))
    out = TExpr(valence)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 1))
        if kind == 0:
            term = expr(1, draw(pick(pool[valence])))
        elif valence == 0:
            term = dot(expr(1, draw(pick(pool[1]))), expr(1, draw(pick(pool[1]))))
        else:
            term = emul(expr(1, draw(pick(pool[0]))), expr(1, draw(pick(pool[1]))))
        out = out + upow(term, draw(st.integers(-1, 1))).scale(draw(pick(_COEFFS)))
    return out


@settings(max_examples=60, deadline=None)
@given(_composite_exprs(), st.sampled_from([B, None]))
def test_substitute_defs_matches_replaced_code(e, b):
    b = bstar() if b is None else b
    _assert_same_terms(substitute_defs(e, b), replaced.substitute_defs(e, b))


def test_each_composite_monomial_expanded_once():
    """From cold caches, verify and combination build the definitions of
    the composites once, at b = bstar() (the replaced code rebuilt them for
    each of its 31 substitutions), and expand 31 distinct composite
    monomials over 65 lookups; the oracle's 14 left-side expansions that
    follow are all found expanded."""
    for cache in (registry.all_identities, registry._coeff_catalog,
                  calculus._definitions, calculus._expansion):
        cache.cache_clear()
    assert cli.run_verify()[1] and cli.run_combination()[1]
    assert calculus._definitions.cache_info().misses == 1
    verify = calculus._expansion.cache_info()
    assert (verify.misses, verify.hits + verify.misses) == (31, 65)
    check_all_identities(samples=2, dims=(5,))
    oracle = calculus._expansion.cache_info()
    assert (oracle.misses, oracle.hits - verify.hits) == (31, 14)
    composite_lhs = sum(not COMPOSITES.isdisjoint(m.symbols)
                        for ident in all_identities() for m in ident.lhs.terms)
    assert composite_lhs == 14
