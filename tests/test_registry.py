"""Identity registry: verification, mutation sensitivity, combination solver."""

import random
from fractions import Fraction

import pytest

from bhverify.calculus import bstar, substitute_defs
from bhverify.coeffs import ALPHA, B, N, ParamScalar, frac, ps
from bhverify.errors import NoCombinationError, SingularSystemError
from bhverify.registry import (ERRATA, Identity, all_identities, build_named,
                               get_identity, list_registry,
                               perturb_identity, printed_variant,
                               solve_combination, verify_all, verify_identity)
from bhverify.report import jsonable
from bhverify.tensor import TExpr, expr, frob, mono


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
    def test_census(self):
        listing = list_registry()
        assert len(listing) == 15
        assert [e["id"] for e in listing] == [f"I{k}" for k in range(1, 16)]

    def test_anchors_nonempty_and_ids_unique(self):
        listing = list_registry()
        assert all(e["anchor"] for e in listing)
        assert len({e["id"] for e in listing}) == len(listing)

    def test_modes_as_registered(self):
        modes = {e["id"]: e["mode"] for e in list_registry()}
        assert modes["I5"] == "onshell"
        assert modes["I10"] == "onshell"
        assert modes["I12"] == "onshell"
        assert all(modes[f"I{k}"] == "free" for k in (1, 2, 3, 4, 6, 7, 8, 9, 11, 13, 14, 15))


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
