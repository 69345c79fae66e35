"""``report.jsonable``, the one route from result records to JSON data.

Five records keep the field shapes their hand-written ``to_dict`` methods
gave them; those methods are copied below verbatim, as plain functions, and
serve as the reference on real records.  The oracle and radial records have
no golden file, so this is their only byte guard.  The certificate and
eigenvalue-scan records take their JSON shape where they are built and are
guarded by ``tests/data/certificates_report.json``.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from bhverify.coeffs import ALPHA, N
from bhverify.jetoracle import check_all_identities, sharp_constant_search
from bhverify.paramcheck import exponent_grid_check
from bhverify.radial import default_grids, scan_shooting
from bhverify.registry import verify_all
from bhverify.report import jsonable


def _ref_verification_report_to_dict(self) -> dict:
    return {
        "id": self.id,
        "anchor": self.anchor,
        "mode": self.mode,
        "status": self.status,
        "residual_count": self.residual_count,
        "residual_terms": self.residual_terms,
        "millis": round(self.millis, 3),
    }


def _ref_exponent_check_to_dict(self) -> dict:
    return {
        "n": self.n,
        "alpha": str(self.alpha),
        "gamma": str(self.gamma),
        "final_exponent": str(self.final_exponent),
        "bound": str(self.bound),
        "gamma_at_least_six": self.gamma_at_least_six,
        "chain_holds": self.chain_holds,
        "exponent_negative": self.exponent_negative,
    }


def _ref_oracle_identity_report_to_dict(self) -> dict:
    return {
        "id": self.id, "dims": self.dims, "samples": self.samples,
        "alpha": self.alpha, "a": self.a, "tol": self.tol,
        "max_rel_residual": self.max_rel_residual, "passed": self.passed,
        "failing_jets": self.failing_jets,
    }


def _ref_sharp_constant_result_to_dict(self) -> dict:
    return {
        "n": self.n, "minimum": self.minimum, "analytic": self.analytic,
        "cited_constant": self.cited_constant, "below_cited": self.below_cited,
        "extremizer": self.extremizer,
    }


def _ref_scan_summary_to_dict(self) -> dict:
    return {
        "n": self.n, "alpha": self.alpha, "rmax": self.rmax,
        "cells": self.cells, "survivors": self.survivors,
        "survival_fraction": self.survival_fraction,
        "verdict_counts": self.verdict_counts, "errors": self.errors,
    }


def _assert_matches_reference(records, ref):
    assert records
    for r in records:
        assert jsonable(r) == ref(r)


def test_verification_reports_match_replaced_to_dict():
    _assert_matches_reference(verify_all(), _ref_verification_report_to_dict)


def test_exponent_checks_match_replaced_to_dict():
    _assert_matches_reference(exponent_grid_check()["records"],
                              _ref_exponent_check_to_dict)


def test_oracle_identity_reports_match_replaced_to_dict():
    _assert_matches_reference(check_all_identities(samples=40, dims=(5,)),
                              _ref_oracle_identity_report_to_dict)


def test_sharp_constant_results_match_replaced_to_dict():
    _assert_matches_reference([sharp_constant_search(n) for n in range(5, 9)],
                              _ref_sharp_constant_result_to_dict)


def test_scan_summary_matches_replaced_to_dict():
    u0s, v0s = default_grids(3)
    # a NaN start is a per-cell error, so the errors list is exercised too
    summary, _ = scan_shooting(6, 2.0, [*u0s, float("nan")], v0s, 30.0)
    assert summary.errors
    _assert_matches_reference([summary], _ref_scan_summary_to_dict)


@dataclass
class _Record:
    exact: Fraction
    coefficient: object
    pair: tuple
    table: dict


def test_nested_records_exact_numbers_and_leaves():
    rec = _Record(Fraction(-3, 4), N / (N - 4) + ALPHA,
                  (1, 2.5, True, None, "s"), {"k": [Fraction(1, 3)]})
    assert jsonable([rec]) == [{
        "exact": "-3/4",
        "coefficient": str(N / (N - 4) + ALPHA),
        "pair": [1, 2.5, True, None, "s"],
        "table": {"k": ["1/3"]},
    }]


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3)])
def test_other_types_raise(value):
    with pytest.raises(TypeError, match="no JSON form"):
        jsonable({"x": [value]})
