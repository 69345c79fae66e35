"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.

Two sub-criteria check printed source displays that the engine proves wrong:
the upper endpoint value of f3 carries a spurious (n-2) factor, and the final
exponent bound chain fails at n = 5.  Each of those tests evaluates the
printed display exactly and asserts its exact refutation, recomputed in the
test from plain Fraction arithmetic rather than read off the engine's flags.
"""

import random
import time
from fractions import Fraction

from bhverify.paramcheck import (all_certificates, check_minor_formulas,
                                 est1_grid_check, exponent_grid_check,
                                 linear_reduction_certificate, numeric_pd_scan)
from bhverify.registry import (F2_COEFFS, F3_COEFFS, all_identities,
                               build_named, get_identity, perturb_identity,
                               poly_apply, solve_combination, verify_all,
                               verify_identity)


def _line(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" - {detail}" if detail else ""))
    return ok


def test_criterion_1_identity_suite():
    """All 15 identities reduce to canonical zero with formal parameters in
    under 30 s; 50 random single-coefficient perturbations all leave residuals."""
    t0 = time.perf_counter()
    reports = verify_all()
    elapsed = time.perf_counter() - t0
    all_zero = len(reports) == 15 and all(r.status == "verified-zero" for r in reports)

    rng = random.Random(20240810)
    idents = all_identities()
    mutations_detected = 0
    for _ in range(50):
        ident = idents[rng.randrange(len(idents))]
        mutated = perturb_identity(ident, rng.randrange(len(ident.rhs.terms)))
        if verify_identity(mutated).status == "residual":
            mutations_detected += 1

    ok = all_zero and elapsed < 30.0 and mutations_detected == 50
    _line("1 identity-suite", ok,
          f"15/15 zero={all_zero}, {elapsed:.1f}s, mutations {mutations_detected}/50")
    assert ok


def test_criterion_2_combination_recovery():
    """Weights over the six flux identities reproduce the catalog c1 and c2
    exactly (zero tolerance)."""
    basis = [get_identity(f"I{k}") for k in range(6, 12)]
    w = solve_combination(get_identity("I12"), basis)
    ok = (w[0] == build_named("c1")) and (w[1] == -build_named("c2"))
    _line("2 combination-recovery", ok, "exact ParamScalar equality")
    assert ok


def test_criterion_3_matrix_algebra_core():
    """A11's two constructions agree; minor/f1 and det/f2 factorizations are
    exact identities in formal (n, alpha); f1's endpoints and f3(0) match."""
    rep = check_minor_formulas()
    a11 = build_named("A11") == build_named("A11_display")
    ok = (a11 and rep.minor2_vs_f1 and rep.det_vs_f2 and rep.f2_reduction_to_f3
          and rep.f1_at_zero and rep.f1_at_upper and rep.f3_at_zero)
    _line("3 matrix-algebra (core)", ok,
          "A11 routes, minor2/f1, detA/f2, f2->f3 reduction, f1 endpoints, f3(0)")
    assert ok


def test_criterion_3_f3_upper_endpoint_printed_display():
    """The printed display of f3(1/(n-4)) carries a factor (n-2)^2; exact
    evaluation gives a single factor (n-2), i.e.
    64(n-2)(4n^3-13n^2+24n-16)/(n-4)^2.  The printed value is f2 at the same
    point (f2 = C3(x^3 - x^2/(n-4)) + (n-2) f3 and the cubic part vanishes
    there), so the display gives f2's endpoint under f3's name.  The test
    asserts exactly that refutation, per integer n in [5, 24]."""
    rep = check_minor_formulas()
    refuted = (not rep.f3_upper_matches_printed) and rep.f3_upper_matches_corrected

    rows = {}
    for n in range(5, 25):
        x = Fraction(1, n - 4)
        f3_end = poly_apply([c.evaluate(n=n) for c in F3_COEFFS], x)
        f2_end = poly_apply([c.evaluate(n=n) for c in F2_COEFFS], x)
        quartic = 4 * n**3 - 13 * n**2 + 24 * n - 16
        corrected = Fraction(64 * (n - 2) * quartic, (n - 4) ** 2)
        printed = Fraction(64 * (n - 2) ** 2 * quartic, (n - 4) ** 2)
        rows[n] = (f3_end, printed)
        refuted = (refuted and f3_end == corrected and f3_end != printed
                   and (n - 2) * f3_end == printed and f2_end == printed)
    refuted = refuted and rows[5] == (53568, 160704)

    _line("3 matrix-algebra (f3 upper endpoint vs printed display)", refuted,
          "printed display refuted: off by one factor (n-2), printed value is "
          f"f2(1/(n-4)); n = 5: computed {rows[5][0]}, printed {rows[5][1]}")
    assert refuted


def test_criterion_4_positivity_certificates():
    """For every integer n in [5, 100]: exact sign certificates (Descartes
    after the interval map, Sturm as the fallback) for f1, f3 and the
    Sylvester triple on the subcritical alpha range; the numeric minimal-
    eigenvalue scan (1000 points per n) agrees in sign at 100% of points;
    all inside 2 minutes."""
    t0 = time.perf_counter()
    bad = []
    for n in range(5, 101):
        for c in all_certificates(n):
            if c.verdict != "positive":
                bad.append((n, c.poly))
    scan = numeric_pd_scan(range(5, 101), grid=1000)
    elapsed = time.perf_counter() - t0
    ok = (not bad and scan.all_positive and scan.agrees_with_certificates
          and elapsed < 120.0)
    _line("4 positivity-certificates", ok,
          f"480 certificates, min lambda {scan.min_lambda:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_oracle_agreement():
    """Each identity at 1000 flat random jets per dimension n in {5, 6, 8}
    with (alpha, a) = (2, 1): max relative residual <= 1e-9."""
    from bhverify.jetoracle import check_all_identities
    reports = check_all_identities(samples=1000, dims=(5, 6, 8), tol=1e-9, seed=0)
    worst = max(r.max_rel_residual for r in reports)
    ok = all(r.passed and (r.alpha, r.a) == ("2", "1") for r in reports)
    _line("5 oracle-agreement", ok,
          f"15 identities x 3 dims x 1000 jets, worst residual {worst:.2e}")
    assert ok


def test_criterion_6_sharp_constant_probe():
    """Measured minimum of |E|^2|v|^2/|Ev|^2 equals n/(n-1) within 1e-6 for
    n in {5,6,7,8}, and the report flags that it lies below the cited 4/3."""
    from bhverify.jetoracle import sharp_constant_search
    results = [sharp_constant_search(n, seed=1) for n in (5, 6, 7, 8)]
    ok = all(abs(r.minimum - r.analytic) <= 1e-6 for r in results) and \
        all(r.below_cited for r in results)
    detail = ", ".join(f"n={r.n}: {r.minimum:.8f}" for r in results)
    _line("6 sharp-constant", ok, detail + " (all below cited 4/3)")
    assert ok


def test_criterion_7_exponent_arithmetic_core():
    """20x20 rational grid, n in [5, 24]: gamma >= 6 exactly, the final
    exponent is negative everywhere, the chain holds for every n >= 6, and
    the cubic estimate coefficient is positive on a 20-point a-grid per n."""
    grid = exponent_grid_check()
    est1 = [est1_grid_check(n) for n in range(5, 25)]
    chain_n6 = all(r.chain_holds for r in grid["records"] if r.n >= 6)
    ok = (grid["points"] == 400
          and grid["gamma_always_at_least_six"]
          and grid["exponent_negative_everywhere"]
          and chain_n6
          and all(e["all_positive"] for e in est1))
    _line("7 exponent-arithmetic (core)", ok,
          "gamma >= 6, exponent < 0 on all 400 points, chain holds for n >= 6, "
          "estimate coefficient positive on all a-grids")
    assert ok


def test_criterion_7_printed_chain_on_full_grid():
    """The printed chain X < -8/((n-4)(alpha-1)) < 0 is checked on the whole
    20x20 grid.  Clearing the positive denominator (n+4)(n-4)(alpha-1) turns
    X - bound into (n^2-2n-16)((n-4)alpha-(n+4)); the second factor is
    negative on the subcritical range, so the chain holds exactly when
    n >= 6.  At n = 5 the difference is 9 - alpha > 0 and the chain fails at
    every grid point.  The test asserts exactly that refutation; the exponent
    X itself stays negative, so the blow-down argument survives."""
    grid = exponent_grid_check()
    records = grid["records"]
    n5_alphas = [1 + Fraction(k, 21) * (Fraction(9) - 1) for k in range(1, 21)]

    refuted = (not grid["chain_holds_everywhere"]
               and grid["chain_failures"] == [(5, str(al)) for al in n5_alphas]
               and all(r.chain_holds for r in records if r.n >= 6)
               and [n for n in range(5, 25)
                    if not linear_reduction_certificate(n)["chain_holds_on_range"]] == [5]
               and grid["exponent_negative_everywhere"])
    for al in n5_alphas:
        x = (-al - 63) / (9 * (al - 1))     # ((n^2-2n-16)al - (n+2)(n+4)) / ((n+4)(al-1))
        bound = Fraction(-8) / (al - 1)     # -8 / ((n-4)(al-1))
        refuted = refuted and bound < x < 0 and (x - bound) * 9 * (al - 1) == 9 - al
    for r in records:
        n, al = r.n, r.alpha
        cleared = (r.final_exponent - r.bound) * (n + 4) * (n - 4) * (al - 1)
        refuted = refuted and cleared == (n * n - 2 * n - 16) * ((n - 4) * al - (n + 4))

    _line("7 exponent-arithmetic (printed chain on full grid)", refuted,
          f"printed chain refuted: fails at {len(grid['chain_failures'])} points, "
          "exactly the n = 5 row (holds iff n^2-2n-16 > 0); exponent < 0 everywhere")
    assert refuted


def test_criterion_8_radial_scans():
    """(n, alpha) in {(5,2), (6,2), (6,3), (8,2)} on 10x10 grids with u0
    log-spaced in [0.1, 10] and v0 in [-10, 0], rmax = 50: survival fraction
    is 0, within one minute."""
    from bhverify.radial import default_grids, scan_shooting
    t0 = time.perf_counter()
    u0s, v0s = default_grids(10)
    fracs = {}
    configs = [(5, 2.0), (6, 2.0), (6, 3.0), (8, 2.0)]
    scans = scan_shooting(configs, u0s, v0s, rmax=50.0)
    for (n, alpha), (summary, _) in zip(configs, scans):
        fracs[(n, alpha)] = summary.survival_fraction
        assert summary.cells == 100 and not summary.errors
    elapsed = time.perf_counter() - t0
    ok = all(f == 0.0 for f in fracs.values()) and elapsed < 60.0
    _line("8 radial-scans", ok,
          f"survival fractions {sorted(fracs.values())}, {elapsed:.1f}s")
    assert ok
