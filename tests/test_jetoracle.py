"""Flat-jet numeric oracle: evaluation semantics, identity checks, sharp constant."""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from bhverify import jetoracle
from bhverify.calculus import SubstitutionMode, bstar, substitute_defs
from bhverify.cli import run, run_oracle
from bhverify.coeffs import ALPHA as _ALPHA_PS
from bhverify.coeffs import ParamScalar
from bhverify.errors import CompositeDerivativeError, OrderOverflowError
from bhverify.jetoracle import (_LETTERS, ORACLE_ALPHA, JetSample,
                                OracleIdentityReport, _factor_table, _jet_row,
                                _params_for, _probe_min_ratio,
                                check_all_identities,
                                eval_monomial_batch, eval_terms_batch,
                                flat_leibniz_terms, identity_lhs_flat_terms,
                                jet_batch, onshell_batch, sample_jet,
                                sharp_constant_certificate,
                                sharp_constant_search)
from bhverify.registry import all_identities, get_identity, perturb_identity
from bhverify.report import jsonable, render_json
from bhverify.tensor import FACTORS, expr, frob, mono, to_labeled


def unit_batch(n=5, g1=None, g2=None):
    """One hand-built jet, as a batch, for the closed-form examples."""
    b = jet_batch(0, n, 1)
    b["u"][0] = 1.0
    b["g1"][0] = 0.0 if g1 is None else g1
    b["g2"][0] = 0.0 if g2 is None else g2
    return b


def batch_terms(terms, batch, params):
    return eval_terms_batch(terms, _factor_table(batch, params), params, {}, {})


def batch_value(e, batch, params):
    """Value of a canonical expression at every jet of a batch."""
    return batch_terms([(c, m) for m, c in e.terms.items()], batch, params)


def scaled_batch(batch, lam, alpha=None):
    """The jets of lam*u; with alpha (onshell) w4 is recomputed as (lam*u)^alpha."""
    out = {k: v if k == "n" else lam * v for k, v in batch.items()}
    if alpha is not None:
        out["w4"] = out["u"] ** float(alpha)
    return out


def check_one(monkeypatch, ident, **kwargs):
    """check_all_identities with ident as the only registered identity."""
    monkeypatch.setattr(jetoracle, "all_identities", lambda: (ident,))
    return check_all_identities(**kwargs)[0]


PARAMS5 = _params_for(5, Fraction(2), Fraction(1))


def jet_bytes(jet) -> str:
    """The rendered report bytes of a jet record: bit-exact, so -0.0 and
    0.0 differ."""
    return render_json(jsonable(jet))


class TestSampling:
    def test_seed_determinism(self):
        assert jet_bytes(sample_jet(42, 6)) == jet_bytes(sample_jet(42, 6))

    def test_symmetries_exact(self):
        j = sample_jet(3, 7)
        g2, g3 = np.asarray(j.g2), np.asarray(j.g3)
        assert np.abs(g2 - g2.T).max() == 0.0
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.abs(g3 - g3.transpose(perm)).max() == 0.0

    def test_u_floor(self):
        assert all(sample_jet(s, 5).u >= 1e-3 for s in range(50))

    def test_onshell_w4(self):
        j = sample_jet(9, 5, "onshell", alpha=Fraction(2))
        assert j.w4 == j.u**2

    def test_a_jet_record_is_the_batch_row_bit_exact(self):
        """A jet holds plain floats and nested lists, which the report gate
        takes as they are, and renders as its batch row does."""
        jet = sample_jet(17, 5)
        b = jet_batch(17, 5, 1)
        assert type(jet.u) is type(jet.w4) is float
        assert type(jet.g3) is type(jet.g3[0]) is type(jet.g3[0][0]) is list
        assert type(jet.g3[0][0][0]) is float
        assert jet_bytes(jet) == render_json({
            "n": 5, "mode": "free", "seed": 17, "row": 0, "u": b["u"][0].item(),
            "g1": b["g1"][0].tolist(), "g2": b["g2"][0].tolist(), "g3": b["g3"][0].tolist(),
            "w4": b["w4"][0].item()})


class TestEvaluation:
    def test_gradsq_unit_vector(self):
        b = unit_batch(g1=np.eye(5)[0])
        e = expr(1, mono(0, ("Du", "k"), ("Du", "k")))
        assert batch_value(e, b, PARAMS5)[0] == 1.0

    def test_lap_identity_hessian(self):
        b = unit_batch(g2=np.eye(5))
        assert batch_value(expr(1, mono(0, ("Lap",))), b, PARAMS5)[0] == 5.0

    def test_ric_evaluates_to_zero(self):
        e = expr(1, mono(0, ("Ric", "i", "j"), ("Du", "i"), ("Du", "j")))
        assert batch_value(e, jet_batch(1, 5, 1), PARAMS5)[0] == 0.0

    def test_tracefree_square_dense_matrix_oracle(self):
        """Etf_ij Etf^ij evaluated through the einsum path equals the direct
        dense-matrix computation, both in symbol space and expanded."""
        batch = jet_batch(11, 6, 1)
        u, g1, g2 = batch["u"][0], batch["g1"][0], batch["g2"][0]
        params = _params_for(6, Fraction(2), Fraction(1))
        b = float(params["b"])
        n = 6
        e_mat = (g2 + b * np.outer(g1, g1) / u
                 - (np.trace(g2) + b * (g1 @ g1) / u) / n * np.eye(n))
        direct = float((e_mat * e_mat).sum())
        ee = frob(expr(1, mono(0, ("Etf", "x", "y"), free=("x", "y"))),
                  expr(1, mono(0, ("Etf", "x", "y"), free=("x", "y"))))
        sym = batch_value(ee, batch, params)[0]
        jet = batch_value(substitute_defs(ee, bstar()), batch, params)[0]
        assert abs(sym - direct) < 1e-12 * (1 + abs(direct))
        assert abs(jet - direct) < 1e-12 * (1 + abs(direct))

    def test_canonical_zero_evaluates_zero(self):
        from bhverify.registry import residual
        diff = residual(get_identity("I6"))
        assert diff.is_zero
        assert (batch_value(diff, jet_batch(0, 5, 20), PARAMS5) == 0.0).all()

    def test_genericity_nonzero_expression(self):
        """A nonzero canonical expression is nonzero at >= 99% of random jets."""
        e = (expr(1, mono(-1, ("Lap",), ("Du", "k"), ("Du", "k")))
             + expr(2, mono(0, ("D2u", "i", "j"), ("D2u", "i", "j"))))
        hits = np.sum(np.abs(batch_value(e, jet_batch(0, 5, 200), PARAMS5)) > 1e-12)
        assert hits >= 198


class TestFlatVsCovariant:
    def test_covariant_expansion_matches_flat_leibniz_numerically(self):
        """The covariant divergence with Ric dropped equals the naive flat
        expansion at every jet (both evaluated numerically)."""
        from bhverify.calculus import WeightedVectorField, divergence
        for iid in ("I3", "I6", "I12", "I13"):
            ident = get_identity(iid)
            cov = divergence(WeightedVectorField(ident.weight,
                                                 substitute_defs(ident.lhs, ident.b)),
                             ident.mode)
            cov_terms = [(c, m) for m, c in cov.terms.items()]
            flat_terms, _ = identity_lhs_flat_terms(ident)
            mode = "onshell" if ident.mode is SubstitutionMode.ON_SHELL else "free"
            batch = jet_batch(100, 5, 40)
            if mode == "onshell":
                batch = onshell_batch(batch, Fraction(2))
            a = batch_terms(cov_terms, batch, PARAMS5)
            b = batch_terms(flat_terms, batch, PARAMS5)
            scale = 1.0 + np.abs(a) + np.abs(b)
            assert np.max(np.abs(a - b) / scale) < 1e-12


class TestIdentityChecks:
    def test_all_identities_numeric_small(self):
        for rep in check_all_identities(samples=60, dims=(5,), seed=2):
            assert rep.passed, (rep.id, rep.max_rel_residual)

    def test_perturbed_coefficient_detected_at_matching_scale(self, monkeypatch):
        """A 1e-3 shift of the |Du|^2 E-term coefficient (the one carrying
        A13) shows up as a residual of order 1e-3."""
        ident = get_identity("I12")
        items = ident.rhs.sorted_terms()
        idx = next(i for i, (m, _) in enumerate(items)
                   if "Etf" in m.symbols and m.symbols.count("Du") == 4)
        mutated = perturb_identity(ident, idx, Fraction(1, 1000))
        rep = check_one(monkeypatch, mutated, samples=60, dims=(5,), seed=4)
        assert not rep.passed
        assert 1e-6 < rep.max_rel_residual < 1.0
        assert rep.failing_jets  # replay records captured

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_residual_fails_its_identity(self, monkeypatch, bad):
        """Row 3 of I1's left side set to NaN (or inf, whose residual is
        NaN).  max(worst, nan) kept the old worst and nan > tol is False, so
        I1 passed with max_rel_residual 0.0.  Now the row fails and is
        recorded, the section fails, and max_rel_residual stays the largest
        finite residual, so the report is strict JSON."""
        evaluate, calls = jetoracle.eval_terms_batch, []

        def planted(terms, *args):
            out = evaluate(terms, *args)
            if not calls:           # the first evaluation: I1's left side at n = 5
                out = out.copy()
                out[3] = bad
            calls.append(terms)
            return out

        monkeypatch.setattr(jetoracle, "eval_terms_batch", planted)
        records, ok = run_oracle(samples=20, dims=(5,))
        assert not ok
        section = jsonable(records)
        i1, *rest = section["identities"]
        assert i1["id"] == "I1" and not i1["passed"]
        assert math.isfinite(i1["max_rel_residual"]) and i1["max_rel_residual"] <= 1e-9
        assert [j["row"] for j in i1["failing_jets"]] == [3]
        assert all(r["passed"] and not r["failing_jets"] for r in rest)
        json.dumps(section, allow_nan=False)

    @pytest.mark.parametrize("samples, dims, message", [
        (10, (), "got dims [] and samples 10"),
        (0, (5,), "got dims [5] and samples 0"),
        (-1, (5, 6), "got dims [5, 6] and samples -1"),
    ])
    def test_an_empty_check_is_refused_before_any_work(self, samples, dims, message,
                                                       monkeypatch):
        """No dimension passed all 15 identities with ``dims: []``, and no
        sample leaked numpy's zero-size reduction error; both are refused
        before a jet is drawn, through the section runner too."""
        def must_not_run(*args):
            raise AssertionError("a jet was drawn")
        monkeypatch.setattr(jetoracle, "jet_batch", must_not_run)
        message = "the oracle needs a dimension and samples >= 1, " + message
        for call in (lambda: check_all_identities(samples, dims),
                     lambda: run_oracle(0, samples, dims)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("dims, message", [
        ((3,), "the oracle needs distinct dimensions of at least 5, got 3 in dims [3]"),
        ((5, 5), "the oracle needs distinct dimensions of at least 5, got 5 in dims [5, 5]"),
    ])
    def test_a_dimension_the_cli_refuses_is_refused_before_any_work(self, dims, message,
                                                                    monkeypatch):
        """n = 3 passed all 15 identities outside the theorem's n >= 5, and
        dims (5, 5) checked n = 5 twice; both are refused before a jet is
        drawn, as ``--dims`` refuses them, through the section runner too."""
        def must_not_run(*args):
            raise AssertionError("a jet was drawn")
        monkeypatch.setattr(jetoracle, "jet_batch", must_not_run)
        for call in (lambda: check_all_identities(2, dims),
                     lambda: run_oracle(0, 2, dims)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_report_determinism(self, monkeypatch):
        a = check_one(monkeypatch, get_identity("I7"), samples=30, dims=(5,), seed=9)
        b = check_one(monkeypatch, get_identity("I7"), samples=30, dims=(5,), seed=9)
        assert jsonable(a) == jsonable(b)

    def test_degenerate_gradient_jet(self):
        """Zero gradient is a legal jet: both sides stay finite and equal."""
        ident = get_identity("I1")
        lhs_terms, _ = identity_lhs_flat_terms(ident)
        rhs_terms = [(c, m) for m, c in ident.rhs.terms.items()]
        batch = jet_batch(8, 5, 1)
        batch["g1"][0] = 0.0
        a = batch_terms(lhs_terms, batch, PARAMS5)
        b = batch_terms(rhs_terms, batch, PARAMS5)
        assert np.isfinite(a).all() and np.isfinite(b).all()
        assert abs(a[0] - b[0]) < 1e-12 * (1 + abs(a[0]) + abs(b[0]))

    def test_scale_covariance_free_identities(self):
        """The left side scales by lambda^h under u -> lambda*u, h the
        homogeneity degree: each factor of u or a derivative counts 1, each
        power of u its exponent."""
        batch = jet_batch(31, 5, 1)
        for iid, h in (("I1", 0), ("I3", 1), ("I6", 2), ("I13", 2), ("I15", 2)):
            lhs_terms, _ = identity_lhs_flat_terms(get_identity(iid))
            base = batch_terms(lhs_terms, batch, PARAMS5)[0]
            for lam in (0.5, 2.0):
                scaled = batch_terms(lhs_terms, scaled_batch(batch, lam), PARAMS5)[0]
                assert abs(scaled - lam**h * base) < 1e-9 * (1 + abs(scaled)), iid

    def test_scale_covariance_onshell_identity(self):
        """On-shell identities still balance at rescaled on-shell jets."""
        ident = get_identity("I12")
        lhs_terms, _ = identity_lhs_flat_terms(ident)
        rhs_terms = [(c, m) for m, c in ident.rhs.terms.items()]
        batch = onshell_batch(jet_batch(13, 5, 1), Fraction(2))
        for lam in (0.5, 2.0):
            scaled = scaled_batch(batch, lam, alpha=Fraction(2))
            a = batch_terms(lhs_terms, scaled, PARAMS5)[0]
            b = batch_terms(rhs_terms, scaled, PARAMS5)[0]
            assert abs(a - b) < 1e-10 * (1 + abs(a) + abs(b))


class TestSharpConstant:
    def test_minimum_is_n_over_n_minus_one(self):
        for n in (5, 6):
            r = sharp_constant_search(n, seed=3)
            assert abs(r.minimum - n / (n - 1)) <= 1e-6
            assert r.below_cited

    def test_large_n_approaches_one(self):
        r = sharp_constant_search(25, seed=3)
        assert abs(r.minimum - 25 / 24) <= 1e-6
        assert r.minimum < 1.05

    def test_analytic_candidate_bounds_search(self):
        r = sharp_constant_search(7, seed=5)
        assert r.minimum <= r.analytic + 1e-12


class TestSharpCertificate:
    def test_exact_ratio_and_below_cited_for_n_2_to_60(self):
        for n in range(2, 61):
            assert sharp_constant_certificate(n) == Fraction(n, n - 1)
            r = sharp_constant_search(n, seed=n)
            assert r.below_cited is (n >= 5)
            assert r.minimum == float(Fraction(n, n - 1))

    def test_recorded_minimum_is_the_floated_exact_value(self):
        minima = [sharp_constant_search(n).minimum for n in (6, 7, 8)]
        assert minima == [1.2, 1.1666666666666667, 1.1428571428571428]
        assert jsonable(sharp_constant_search(6)).keys() == {
            "n", "minimum", "analytic", "cited_constant", "below_cited", "extremizer"}

    def test_probe_never_below_the_bound(self):
        """Beyond rounding: at n = 2 every pair attains the bound exactly, so
        its float ratios scatter by a few ulps around n/(n-1)."""
        for n in (2, 3, 5, 8, 20, 60):
            for seed in (0, 1, 7):
                assert _probe_min_ratio(n, seed) >= n / (n - 1) * (1 - 1e-12)

    def test_probe_below_the_bound_fails_the_section(self, monkeypatch):
        monkeypatch.setattr(jetoracle, "_probe_min_ratio", lambda n, seed: 1.0)
        assert sharp_constant_search(5).minimum == 1.0
        records, ok = run_oracle(samples=2, dims=(5,))
        assert not ok
        assert all(s["minimum"] == 1.0 for s in jsonable(records)["sharp_constant"])

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            sharp_constant_certificate(1)


# -- differential tests against the per-jet, per-identity code they replaced -----


def _ref_jets(seed, n, samples, mode="free", alpha=None):
    """Rows 0, ..., samples - 1 of ``default_rng([seed, n])``: five
    ``uniform`` calls per row, in the order u, gradient, Hessian, distinct
    third-derivative entries (by sorted index triple) and w4, with g2
    symmetrized and g3 filled entry by entry from its distinct values.  An
    on-shell row still draws w4, then replaces it by u^alpha."""
    if n < 2:
        raise ValueError("need n >= 2")
    if mode == "onshell" and alpha is None:
        raise ValueError("onshell jets need alpha")
    triples = list(combinations_with_replacement(range(n), 3))
    rng = np.random.default_rng([seed, n])
    jets = []
    for row in range(samples):
        u = float(rng.uniform(1e-3, 1.0))
        g1 = rng.uniform(-1.0, 1.0, n)
        m = rng.uniform(-1.0, 1.0, (n, n))
        t = rng.uniform(-1.0, 1.0, len(triples))
        w4 = float(rng.uniform(-1.0, 1.0))
        g3 = np.empty((n, n, n))
        for value, triple in zip(t.tolist(), triples):
            for i, j, k in permutations(triple):
                g3[i, j, k] = value
        if mode == "onshell":
            w4 = u ** float(alpha)
        jets.append(JetSample(n, mode, seed, row, u, g1.tolist(), ((m + m.T) / 2.0).tolist(),
                              g3.tolist(), w4))
    return jets


def _ref_sample_jet(seed, n, mode="free", alpha=None):
    """Row 0 of the reference draw."""
    return _ref_jets(seed, n, 1, mode, alpha)[0]


def _ref_jet_batch(seed: int, n: int, samples: int) -> dict:
    """The reference rows, stacked as ``jet_batch`` stacks them."""
    return _ref_stack_jets(_ref_jets(seed, n, samples))


def _replay(record: dict) -> str:
    """The rendered bytes of a failing-jet record's row, drawn again from
    its (seed, n, row): row ``row`` of ``jet_batch(seed, n, row + 1)``."""
    batch = jet_batch(record["seed"], record["n"], record["row"] + 1)
    if record["mode"] == "onshell":
        batch = onshell_batch(batch, ORACLE_ALPHA)
    return jet_bytes(_jet_row(batch, record["row"], record["seed"], record["mode"]))


def _ref_eval_monomial_batch(m, arrays: dict) -> np.ndarray:
    """Einstein-summation value of one monomial over a batch of jets.

    ``arrays`` is ``_factor_table(batch, params)``: each factor's array is
    read from it by symbol.  A scalar factor multiplies; the metric ``g``
    has no batch index.  Returns shape (B,) for scalars, (B, n) for vectors,
    (B, n, n) for 2-tensors.  Ricci factors evaluate to zero (flat oracle).
    """
    if "Ric" in m.symbols:
        return np.zeros((len(arrays["u"]),) + (arrays["n"],) * len(m.free))
    letters = {}
    for k, (x, y) in enumerate(m.pairs):
        letters[x] = letters[y] = _LETTERS[k]
    out_letters = ""
    for j, s in enumerate(m.free):
        letters[s] = _LETTERS[len(m.pairs) + j]
        out_letters += letters[s]
    operands, scripts = [], []
    scalars = arrays["u"] ** m.u_power
    off = 0
    for sym in m.symbols:
        k = FACTORS[sym].arity
        idx = "".join(letters[off + j] for j in range(k))
        off += k
        arr = arrays.get(sym)
        if arr is None:
            raise ValueError(f"cannot evaluate factor {sym!r}")
        if not k:
            scalars = scalars * arr
            continue
        operands.append(arr)
        scripts.append(idx if sym == "g" else "z" + idx)
    operands.append(scalars)
    scripts.append("z")
    spec = ",".join(scripts) + "->z" + out_letters
    return np.einsum(spec, *operands)


def _ref_stack_jets(jets):
    return {
        "u": np.array([j.u for j in jets]),
        "g1": np.stack([j.g1 for j in jets]),
        "g2": np.stack([j.g2 for j in jets]),
        "g3": np.stack([j.g3 for j in jets]),
        "w4": np.array([j.w4 for j in jets]),
        "n": jets[0].n,
    }


def _ref_eval_terms_batch(terms, arrays: dict, params: dict) -> np.ndarray:
    """Sum of coeff * monomial over a batch; coefficients evaluated exactly
    at the rational parameters, then floated.  ``arrays`` is
    ``_factor_table(batch, params)``."""
    total = None
    for coeff, m in terms:
        c = float(coeff.evaluate(**params))
        v = c * eval_monomial_batch(m, arrays)
        total = v if total is None else total + v
    if total is None:
        return np.zeros(len(arrays["u"]))
    return total


def _ref_batch_terms(terms, batch, params):
    return _ref_eval_terms_batch(terms, _factor_table(batch, params), params)


def _ref_numeric_check_identity(ident, samples=1000, dims=(5, 6, 8), tol=1e-9,
                                seed=0, alpha=Fraction(2), a=Fraction(1)):
    alpha, a = Fraction(alpha), Fraction(a)
    lhs_terms, out_valence = identity_lhs_flat_terms(ident)
    rhs_terms = [(c, m) for m, c in ident.rhs.terms.items()]
    worst = 0.0
    failing = []
    mode = "onshell" if ident.mode is SubstitutionMode.ON_SHELL else "free"
    for n in dims:
        params = _params_for(n, alpha, a)
        jets = _ref_jets(seed, n, samples, mode, alpha)
        batch = _ref_stack_jets(jets)
        lhs = _ref_batch_terms(lhs_terms, batch, params)
        rhs = _ref_batch_terms(rhs_terms, batch, params)
        if out_valence == 0:
            rel = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
        else:
            num = np.max(np.abs(lhs - rhs), axis=1)
            rel = num / (1.0 + np.linalg.norm(lhs, axis=1) + np.linalg.norm(rhs, axis=1))
        worst = max(worst, float(np.max(rel)))
        for k in np.nonzero(rel > tol)[0][:3]:
            failing.append(jets[int(k)])
    return OracleIdentityReport(ident.id, list(dims), samples, str(alpha), str(a),
                                tol, worst, worst <= tol, failing)


def _ref_flat_grad_terms(terms, mode):
    out = []
    for c, m in terms:
        u, facs, frees = to_labeled(m)
        d = "d"
        if m.u_power:
            out.append((c * m.u_power, mono(u - 1, *facs, ("Du", d), free=frees + [d])))
        for i, fac in enumerate(facs):
            rest = facs[:i] + facs[i + 1:]
            sym = fac[0]
            if sym == "Du":
                nf = [("D2u", fac[1], d)]
            elif sym == "D2u":
                nf = [("D3u", d, fac[1], fac[2])]
            elif sym == "Lap":
                nf = [("DLap", d)]
            elif sym == "DLap":
                raise OrderOverflowError("flat jets stop at third derivatives")
            elif sym == "Bilap":
                if mode is not SubstitutionMode.ON_SHELL:
                    raise OrderOverflowError("gradient of Bilap needs the equation")
                out.append((c * _ALPHA_PS, mono(u - 1, *facs, ("Du", d), free=frees + [d])))
                continue
            elif sym == "g":
                continue
            elif sym == "Ric":
                continue  # flat oracle: Ricci terms are identically zero
            else:
                raise CompositeDerivativeError(f"expand {sym} before flat differentiation")
            out.append((c, mono(u, *rest, *nf, free=frees + [d])))
    return out


def _ref_flat_div_terms(weight, terms, mode):
    out = []
    for c, m in terms:
        u, facs, frees = to_labeled(m)
        f = frees[0]
        if m.u_power:
            out.append((c * m.u_power, mono(u - 1, *facs, ("Du", f))))
        if not weight.is_zero:
            out.append((c * weight, mono(u - 1, *facs, ("Du", f))))
        for i, fac in enumerate(facs):
            rest = facs[:i] + facs[i + 1:]
            sym = fac[0]
            if sym == "Du":
                nf = [("D2u", fac[1], f)]
            elif sym == "D2u":
                nf = [("D3u", f, fac[1], fac[2])]
            elif sym == "Lap":
                nf = [("DLap", f)]
            elif sym == "DLap":
                if fac[1] == f:
                    nf = [("Bilap",)]
                else:
                    raise OrderOverflowError("flat jets stop at third derivatives")
            elif sym == "Bilap":
                if mode is not SubstitutionMode.ON_SHELL:
                    raise OrderOverflowError("gradient of Bilap needs the equation")
                out.append((c * _ALPHA_PS, mono(u - 1, *facs, ("Du", f))))
                continue
            elif sym == "g":
                continue
            elif sym == "Ric":
                continue  # flat oracle: Ricci terms are identically zero
            else:
                raise CompositeDerivativeError(f"expand {sym} before flat differentiation")
            out.append((c, mono(u, *rest, *nf)))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # the error itself is the outcome compared
        return type(exc), str(exc)


def _free_and_onshell_mutants():
    """I3 (free) and I12 (on shell), each with one right-side coefficient
    shifted by 1/1000: the I12 one carries A13."""
    i12 = get_identity("I12")
    idx = next(i for i, (m, _) in enumerate(i12.rhs.sorted_terms())
               if "Etf" in m.symbols and m.symbols.count("Du") == 4)
    return (perturb_identity(get_identity("I3"), 0, Fraction(1, 1000)),
            perturb_identity(i12, idx, Fraction(1, 1000)))


class TestAgainstReplacedCode:
    @pytest.mark.parametrize("alpha", [Fraction(2), Fraction(7, 3)])
    @pytest.mark.parametrize("n", [5, 6, 8])
    @pytest.mark.parametrize("mode", ["free", "onshell"])
    def test_jet_batch_equals_stacked_reference_bitwise(self, mode, n, alpha):
        batch = jet_batch(11, n, 30)
        if mode == "onshell":
            batch = onshell_batch(batch, alpha)
        jets = _ref_jets(11, n, 30, mode, alpha)
        ref = _ref_stack_jets(jets)
        assert batch.keys() == ref.keys() and batch["n"] == n
        for key in ("u", "g1", "g2", "g3", "w4"):
            assert batch[key].dtype == ref[key].dtype
            assert np.array_equal(batch[key], ref[key]), key
            assert batch[key].flags.c_contiguous, key
        one = sample_jet(11, n, mode, alpha)
        want = _ref_sample_jet(11, n, mode, alpha)
        assert jet_bytes(one) == jet_bytes(want)
        assert jet_bytes(_jet_row(batch, 3, 11, mode)) == jet_bytes(jets[3])

    @pytest.mark.parametrize("alpha", [Fraction(2), Fraction(7, 3)])
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_onshell_batch_of_the_free_draw_equals_the_onshell_draw(self, n, alpha):
        """The on-shell batch derived from the free draw equals each row
        drawn again on its own, on shell, and the reference rows."""
        free = jet_batch(5, n, 30)
        derived = onshell_batch(free, alpha)
        drawn = _ref_stack_jets([
            _jet_row(onshell_batch(jet_batch(5, n, k + 1), alpha), k, 5, "onshell")
            for k in range(30)])
        ref = _ref_stack_jets(_ref_jets(5, n, 30, "onshell", alpha))
        assert derived.keys() == drawn.keys() == ref.keys() and derived["n"] == n
        for key in ("u", "g1", "g2", "g3", "w4"):
            assert derived[key].dtype == drawn[key].dtype
            assert np.array_equal(derived[key], drawn[key]), key
            assert np.array_equal(derived[key], ref[key]), key
            assert derived[key].flags.c_contiguous, key
        # the draw's arrays are shared, and the free batch keeps its own w4
        assert derived["g3"] is free["g3"] and derived["w4"] is not free["w4"]

    def test_jet_batch_rejects_like_reference(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            jet_batch(0, 1, 3)
        with pytest.raises(ValueError, match="onshell jets need alpha"):
            sample_jet(0, 5, "onshell")
        for args in ((0, 1), (0, 1, "onshell", 2), (0, 5, "onshell")):
            assert _outcome(sample_jet, *args) == _outcome(_ref_sample_jet, *args)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_check_all_identities_equals_reference(self, seed):
        got = jet_bytes(check_all_identities(samples=40, dims=(5, 6, 8), seed=seed))
        want = jet_bytes([_ref_numeric_check_identity(i, samples=40, dims=(5, 6, 8), seed=seed)
                          for i in all_identities()])
        assert got == want

    def test_back_to_back_runs_each_equal_reference(self):
        """Two seeds in one process: no array or coefficient of the first
        run is served to the second."""
        for seed in (3, 4):
            got = jet_bytes(check_all_identities(samples=20, dims=(5, 6), seed=seed))
            want = jet_bytes([_ref_numeric_check_identity(i, samples=20, dims=(5, 6),
                                                          seed=seed)
                              for i in all_identities()])
            assert got == want, seed

    def test_failing_jet_replay_equals_reference(self, monkeypatch):
        """Mutated identities among the registered ones, one free (I3) and
        one on-shell (I12): their failing jets render exactly as the
        reference's rows, each replays from its (seed, n, row), and every
        other record is unchanged."""
        i12 = get_identity("I12")
        idx = next(i for i, (m, _) in enumerate(i12.rhs.sorted_terms())
                   if "Etf" in m.symbols and m.symbols.count("Du") == 4)
        mutants = {"I3": perturb_identity(get_identity("I3"), 0, Fraction(1, 1000)),
                   "I12": perturb_identity(i12, idx, Fraction(1, 1000))}
        idents = [mutants.get(i.id, i) for i in all_identities()]
        want = {i.id: jsonable(_ref_numeric_check_identity(i, samples=40, dims=(5, 6),
                                                           seed=4))
                for i in idents}
        for mutant in mutants.values():
            assert want[mutant.id]["failing_jets"] and not want[mutant.id]["passed"]
        monkeypatch.setattr(jetoracle, "all_identities", lambda: tuple(idents))
        got = {r.id: jsonable(r) for r in check_all_identities(samples=40, dims=(5, 6),
                                                               seed=4)}
        assert render_json(got) == render_json(want)
        for mutant in mutants.values():
            for record in got[mutant.id]["failing_jets"]:
                assert _replay(record) == render_json(record)

    def test_a_report_holds_failing_jets_as_records(self, tmp_path, monkeypatch):
        """The oracle report of perturbed free (I3) and on-shell (I12)
        identities: each failing jet is a JSON object, not a string, and
        renders as row ``row`` of ``jet_batch(seed, n, row + 1)``."""
        monkeypatch.setattr(jetoracle, "all_identities", _free_and_onshell_mutants)
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "oracle", "--seed", "4", "--samples", "40",
                    "--dims", "5,6"]) == 1
        reports = json.loads(out.read_text())["sections"]["oracle"]["identities"]
        records = [j for r in reports for j in r["failing_jets"]]
        assert len(records) == 12
        assert [j["mode"] for j in records] == ["free"] * 6 + ["onshell"] * 6
        for record in records:
            assert type(record) is dict and record["seed"] == 4
            assert render_json(record) == _replay(record)

    def test_failing_jets_are_drawn_once(self, monkeypatch):
        """Perturbed free (I3) and on-shell (I12) identities: one draw per n,
        and each failing record, with the run's seed, is row ``row`` of
        ``jet_batch(seed, n, row + 1)``."""
        monkeypatch.setattr(jetoracle, "all_identities", _free_and_onshell_mutants)
        draws = []

        def counted(seed, n, *rest):
            draws.append(n)
            return jet_batch(seed, n, *rest)
        monkeypatch.setattr(jetoracle, "jet_batch", counted)
        reports = check_all_identities(samples=40, dims=(5, 6), seed=4)
        assert draws == [5, 6]
        monkeypatch.undo()
        for rep, mode in zip(reports, ("free", "onshell")):
            assert not rep.passed and len(rep.failing_jets) == 6, rep.id
            for jet in rep.failing_jets:
                assert jet.mode == mode and jet.seed == 4 and 0 <= jet.row < 40
                assert jet_bytes(jet) == _replay(jsonable(jet))

    def test_each_monomial_evaluated_once_per_batch(self, monkeypatch):
        """At the acceptance dimensions: one draw per n, 306 monomial
        evaluations (897 without the memo), 252 coefficient evaluations
        (900 without it) and 75 component evaluations, 18 on each free and
        7 on each on-shell table (the 306 monomials hold 357 components),
        whatever the sample count."""
        calls = {"jet_batch": 0, "eval_monomial_batch": 0, "evaluate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in ("jet_batch", "eval_monomial_batch"):
            monkeypatch.setattr(jetoracle, name, counted(name, getattr(jetoracle, name)))
        monkeypatch.setattr(ParamScalar, "evaluate",
                            counted("evaluate", ParamScalar.evaluate))
        tables = []

        def kept(batch, params):
            tables.append(_factor_table(batch, params))
            return tables[-1]
        monkeypatch.setattr(jetoracle, "_factor_table", kept)
        reports = check_all_identities(samples=3, dims=(5, 6, 8))
        assert all(r.passed for r in reports)
        assert calls == {"jet_batch": 3, "eval_monomial_batch": 306, "evaluate": 252}
        assert [len(t.components) for t in tables] == [18, 7] * 3

    def test_the_dimension_loop_compares_no_coefficients(self, monkeypatch):
        """Every coefficient is interned and every parameter fixed before
        the first draw, so at the acceptance dimensions the per-n memo finds
        each of its 252 entries by object: no ``ParamScalar.__eq__`` call
        from the first draw on."""
        calls = {"draws": 0, "eq": 0, "evaluate": 0}
        eq, evaluate = ParamScalar.__eq__, ParamScalar.evaluate

        def counted_eq(self, other):
            calls["eq"] += calls["draws"] > 0
            return eq(self, other)

        def counted_evaluate(self, **params):
            calls["evaluate"] += 1
            return evaluate(self, **params)

        def counted_batch(*args):
            calls["draws"] += 1
            return jet_batch(*args)
        monkeypatch.setattr(ParamScalar, "__eq__", counted_eq)
        monkeypatch.setattr(ParamScalar, "evaluate", counted_evaluate)
        monkeypatch.setattr(jetoracle, "jet_batch", counted_batch)
        reports = check_all_identities(samples=3, dims=(5, 6, 8))
        assert all(r.passed for r in reports)
        assert calls == {"draws": 3, "eq": 0, "evaluate": 252}

    @pytest.mark.parametrize("samples", [1, 1000])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_jet_batch_equals_five_uniform_draws_bitwise(self, n, samples):
        """One draw per batch and a vectorized map to the ranges give the
        bits of five ``uniform`` calls per row on one generator, and any
        row replays from (seed, n, row); ``sample_jet`` is row 0."""
        got, want = jet_batch(29, n, samples), _ref_jet_batch(29, n, samples)
        assert got.keys() == want.keys() and got["n"] == n
        for key in ("u", "g1", "g2", "g3", "w4"):
            assert got[key].dtype == want[key].dtype
            assert got[key].shape == want[key].shape, key
            assert np.array_equal(got[key], want[key]), key
            assert got[key].flags.c_contiguous, key
        for k in sorted({0, samples // 2, samples - 1}):
            assert jet_bytes(_jet_row(jet_batch(29, n, k + 1), k, 29, "free")) \
                == jet_bytes(_jet_row(want, k, 29, "free"))
        assert jet_bytes(sample_jet(29, n)) == jet_bytes(_jet_row(want, 0, 29, "free"))

    def test_jet_batch_holds_one_third_derivative_block_beside_its_outputs(self):
        """The peak of a batch at n = 8 stays within its outputs plus the
        draw, samples x 194 values (120 of them the distinct third
        derivatives), and 64 KiB: no n^3 raw block and no Hessian-sized
        temporaries at the peak."""
        jet_batch(0, 8, 1)      # the symmetric index is cached, not counted
        tracemalloc.start()
        try:
            batch = jet_batch(0, 8, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = sum(batch[k].nbytes for k in ("u", "g1", "g2", "g3", "w4"))
        assert peak <= outputs + 1000 * 194 * 8 + 64 * 1024

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_a_row_does_not_depend_on_the_batch_size(self, n):
        """Row k of ``jet_batch(seed, n, m)`` is the same for every m > k."""
        big = jet_batch(3, n, 40)
        for m in (1, 2, 17, 39):
            small = jet_batch(3, n, m)
            for key in ("u", "g1", "g2", "g3", "w4"):
                assert np.array_equal(small[key], big[key][:m]), (m, key)

    def test_the_dimension_is_part_of_the_seed(self):
        """The replaced oracle drew row k at dimension n from seed
        seed + 1,000,000 n + k, so seed 1,000,000 at n = 5 read the jets of
        seed 0 at n = 6, and one seed began every dimension with the same
        u.  Now (seed, n) seeds the generator."""
        a, b = jet_batch(1_000_000, 5, 1), jet_batch(0, 6, 1)
        assert a["u"][0] != b["u"][0]
        assert not np.array_equal(a["g1"][0], b["g1"][0, :5])
        assert jet_batch(0, 5, 1)["u"][0] != jet_batch(0, 6, 1)["u"][0]

    def test_components_equal_whole_monomial_einsum(self):
        """Every monomial the oracle meets, on the acceptance batches of
        seed 0: evaluating each component apart changes only rounding.
        The elementwise relative gap stays below 1e-10 (2.0e-11 at most on
        the batches of ``jet_batch(0, n, 1000)``), and an exact zero stays
        zero."""
        monos = {"free": set(), "onshell": set()}
        for ident in all_identities():
            lhs, _ = identity_lhs_flat_terms(ident)
            mode = "onshell" if ident.mode is SubstitutionMode.ON_SHELL else "free"
            monos[mode] |= {m for _, m in lhs} | set(ident.rhs.terms)
        for n in (5, 6, 8):
            params = _params_for(n, ORACLE_ALPHA, Fraction(1))
            free = jet_batch(0, n, 1000)
            for mode, ms in monos.items():
                batch = free if mode == "free" else onshell_batch(free, ORACLE_ALPHA)
                arrays = _factor_table(batch, params)
                for m in ms:
                    got = eval_monomial_batch(m, arrays)
                    want = _ref_eval_monomial_batch(m, arrays)
                    assert got.shape == want.shape, m
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0, err_msg=str(m))

    def test_merged_leibniz_equals_grad_and_div_for_every_identity(self):
        for ident in all_identities():
            jets = substitute_defs(ident.lhs, ident.b)
            terms = [(c, m) for m, c in jets.terms.items()]
            if ident.kind == "wdiv":
                want = _ref_flat_div_terms(ident.weight, terms, ident.mode)
            else:
                want = _ref_flat_grad_terms(terms, ident.mode)
            got, _ = identity_lhs_flat_terms(ident)
            assert len(got) == len(want), ident.id
            for (gc, gm), (wc, wm) in zip(got, want):
                assert gc == wc and gm == wm, ident.id

    def test_merged_leibniz_errors_equal_reference(self):
        one = ParamScalar.from_int(1)
        w = ParamScalar.from_fraction(Fraction(3, 2))
        scalars = [
            [(one, mono(0, ("DLap", "k"), ("Du", "k")))],
            [(one, mono(1, ("Bilap",)))],
            [(one, mono(0, ("Etf", "i", "j"), ("D2u", "i", "j")))],
            [(one, mono(-1, ("Lap",), ("Ric", "i", "j"), ("Du", "i"), ("Du", "j")))],
        ]
        vectors = [
            [(one, mono(0, ("DLap", "f"), free=("f",)))],
            [(one, mono(0, ("DLap", "k"), ("D2u", "k", "f"), free=("f",)))],
            [(one, mono(2, ("Bilap",), ("Du", "f"), free=("f",)))],
            [(one, mono(0, ("Fvec", "f"), free=("f",)))],
        ]
        for mode in SubstitutionMode:
            for terms in scalars:
                assert (_outcome(flat_leibniz_terms, terms, mode)
                        == _outcome(_ref_flat_grad_terms, terms, mode))
            for terms in vectors:
                for weight in (w, ParamScalar.from_int(0)):
                    assert (_outcome(flat_leibniz_terms, terms, mode, weight)
                            == _outcome(_ref_flat_div_terms, weight, terms, mode))
