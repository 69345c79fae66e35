"""Correctness gate: the verdict-bearing fields of a workload's report.

``project`` reduces a rendered report to named checks, each holding only
what decides a verdict (statuses, certificate verdicts, exact strings,
counts, and floats that carry a verdict).  Timing fields and the raw report
bytes are left out, so a schema change that keeps every verdict still
passes.  ``compare`` matches a projection against the expected one, which
``record_expected.py`` wrote from the reference commit: strings, integers
and booleans must be equal, floats within ``REL_TOL``.

For the seeded ``oracles`` workload the projection keeps the outcome of each
criterion (passed at ``tol = 1e-9``, sharp minimum within ``1e-6`` of
``n/(n-1)``, zero survivors and per-cell errors), which is the same for
every seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
REL_TOL = 1e-9
ORACLE_TOL = 1e-9
SHARP_TOL = 1e-6


def _identities(sections: dict) -> dict:
    checks = {}
    for r in sections["identities"]:
        checks[f"identity.{r['id']}"] = {
            k: r[k] for k in ("anchor", "mode", "status", "residual_count")}
    checks["combination"] = sections["combination"]
    return checks


def _certificates(sections: dict) -> dict:
    params, scan = sections["params"], sections["pd_scan"]
    checks = {f"certificate.{c['poly']}.n{c['n']}": c for c in params["certificates"]}
    checks["certificates.count"] = len(params["certificates"])
    for key in ("minor_formulas", "all_certificates_positive", "est1_grids",
                "exponents", "exponent_records", "linear_reduction"):
        checks[f"params.{key}"] = params[key]
    for key in ("n_values", "grid", "min_lambda", "argmin", "per_n_min",
                "all_positive", "agrees_with_certificates"):
        checks[f"pd_scan.{key}"] = scan[key]
    checks["pd_scan.min_lambda_positive"] = scan["min_lambda"] > 0
    return checks


def _oracles(sections: dict) -> dict:
    checks = {}
    for r in sections["oracle"]["identities"]:
        checks[f"oracle.{r['id']}"] = {
            "dims": r["dims"], "samples": r["samples"], "alpha": r["alpha"],
            "a": r["a"], "tol": r["tol"], "passed": r["passed"],
            "within_tol": r["max_rel_residual"] <= ORACLE_TOL,
            "failing_jets": len(r["failing_jets"]),
        }
    for s in sections["oracle"]["sharp_constant"]:
        checks[f"sharp.n{s['n']}"] = {
            "analytic": s["analytic"], "below_cited": s["below_cited"],
            "within_tol": abs(s["minimum"] - s["analytic"]) <= SHARP_TOL,
        }
    for s in sections["radial"]:
        checks[f"radial.n{s['n']}.alpha{s['alpha']}"] = {
            "cells": s["cells"], "survivors": s["survivors"],
            "survival_fraction": s["survival_fraction"], "errors": len(s["errors"]),
            "verdicts": sum(s["verdict_counts"].values()),
        }
    return checks


PROJECTIONS = {"identities": _identities, "certificates": _certificates,
               "oracles": _oracles}


def project(workload: str, report_text: str) -> dict:
    report = json.loads(report_text)
    checks = PROJECTIONS[workload](report["sections"])
    for section, status in report["section_status"].items():
        checks[f"section_status.{section}"] = status
    checks["overall_status"] = report["overall_status"]
    return checks


def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


def matches(got, want) -> bool:
    """Exact for strings, integers and booleans; floats within REL_TOL."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return False
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def compare(checks: dict, expected: dict) -> list[str]:
    """Names of the expected checks that are missing or differ."""
    return [name for name, want in expected.items()
            if name not in checks or not matches(checks[name], want)]
