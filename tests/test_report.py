"""``report.jsonable``, the one route from result records to JSON data, and
``report.render_json``, the one writer of that data.

Five records keep the field shapes their hand-written ``to_dict`` methods
gave them; those methods are copied below verbatim, as plain functions, and
serve as the reference on real records.  The oracle and radial records have
no golden file, so this is their only byte guard.  The certificate and
eigenvalue-scan records take their JSON shape where they are built and are
guarded by ``tests/data/certificates_report.json``.

``jsonable`` dispatches on exact types, and ``render_json`` writes exactly
the types ``jsonable`` returns, in one pass: both are held to the replaced
code (an ``isinstance`` chain and ``json.dumps(sort_keys=True, indent=2)``)
on generated trees of those types and on a real report.  ``jsonable`` is
the gate of ``build_report``: it refuses any other type, a subclass of a
builtin included, a key other than ``str`` and, since a report is strict
JSON, a non-finite float.

The report's notes are read from the sections of the same run; the tests
below flip one evidence field at a time in copies of real sections.
"""

import abc
import copy
import json
import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import replaced_hot_paths as replaced

from bhverify import calculus, paramcheck, registry, tensor
from bhverify.cli import (run, run_combination, run_oracle, run_params, run_scan_pd,
                          run_verify)
from bhverify.coeffs import ALPHA, N
from bhverify.jetoracle import FactorTable, check_all_identities, sharp_constant_search
from bhverify.paramcheck import exponent_grid_check
from bhverify.radial import ScanCell, ScanSummary, default_grids, scan_shooting
from bhverify.registry import verify_all
from bhverify.report import build_report, jsonable, render_json


def _ref_verification_report_to_dict(self) -> dict:
    return {
        "id": self.id,
        "anchor": self.anchor,
        "kind": self.kind,
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
    """Per-cell errors exercise the errors list too.  A summary whose error
    record keeps a NaN start cannot be reported (the scan refuses such a
    grid up front); u0 = 1e200, where u0**alpha overflows, is a finite
    per-cell error."""
    nan_error = {"u0": math.nan, "v0": -10.0,
                 "error": "need finite u0 and v0, got u0 = nan, v0 = -10.0"}
    summary = ScanSummary(6, 2.0, 30.0, 1, 0, 0.0, {}, [nan_error])
    with pytest.raises(ValueError, match="^nan has no strict JSON form$"):
        jsonable(summary)
    u0s, v0s = default_grids(3)
    [(summary, _)] = scan_shooting([(6, 2.0)], [*u0s, 1e200], v0s, 30.0)
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


# -- differential tests: the exact-type dispatch against the isinstance chain -------


@dataclass
class _Node:
    head: object
    rest: object


def _same(got, want) -> bool:
    """Equal as JSON data and of the same type at every node (``1 == 1.0 ==
    True``, so ``==`` alone would not tell)."""
    if type(got) is not type(want):
        return False
    if isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(got, dict):
        return list(got) == list(want) and all(_same(got[k], want[k]) for k in got)
    return got == want


_SCALARS = [N / (N - 4) + ALPHA, ALPHA - 1, -ALPHA ** 2 / 3]
_finite = st.floats(allow_nan=False, allow_infinity=False)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.text(max_size=4), _finite,
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
    st.sampled_from(_SCALARS))


def _containers(kids):
    return st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), kids, max_size=4),
        st.builds(_Node, kids, kids),
        st.builds(paramcheck.PDReport, st.lists(st.integers(5, 9), max_size=2),
                  st.integers(1, 9), _finite, st.just({"n": 5, "alpha": 0.5}),
                  st.just({}), st.booleans(), st.booleans()))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _containers, max_leaves=25))
def test_jsonable_matches_the_isinstance_chain(tree):
    """Trees of dataclass records, tuples, lists, dicts, bool, int, finite
    floats, Fraction and ParamScalar: the same data, node for node, as the
    replaced chain."""
    assert _same(jsonable(tree), replaced.jsonable(tree))


class _Pair(NamedTuple):
    left: object
    right: object


class _Level(IntEnum):
    LOW = 1


class _Text(str):
    pass


# subclasses of the builtins, which the replaced chain and json.dumps took
# as their bases, and types with no JSON form at all
_REFUSED = [np.float64(0.5), _Pair(1, 2), _Level.LOW, _Text("s"), np.int64(3),
            FactorTable({"u": 1.5}), ScanCell(1.0, -1.0, "decay", 3.0), {1, 2}, b"x",
            object(), _Node]


@pytest.mark.parametrize("value", _REFUSED, ids=lambda v: type(v).__name__)
def test_other_types_raise(value):
    with pytest.raises(TypeError, match=f"^no JSON form for {type(value).__name__}: "):
        jsonable({"x": [value]})


@pytest.mark.parametrize("key", [1, None, 1.5, True, _Text("k")], ids=repr)
def test_jsonable_refuses_keys_other_than_str(key):
    with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}: "):
        jsonable({"x": [{key: 1}]})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_jsonable_refuses_non_finite_floats(value):
    """A report is strict JSON: NaN and Infinity, which json.dumps writes by
    default, are ValueErrors at the gate, whatever the format."""
    with pytest.raises(ValueError, match=f"^{value!r} has no strict JSON form$"):
        jsonable({"a": [1, {"b": value}]})


@pytest.mark.parametrize("part", ["config", "sections"])
def test_build_report_gates_the_config_and_the_sections(part):
    parts = {"config": {"command": "radial"}, "sections": {"radial": []}}
    parts[part]["rmax"] = [math.nan]
    with pytest.raises(ValueError, match="^nan has no strict JSON form$"):
        build_report(parts["config"], parts["sections"], {"radial": True})
    parts[part]["rmax"] = {2: 1.0}
    with pytest.raises(TypeError, match="^keys must be str, not int: 2$"):
        build_report(parts["config"], parts["sections"], {"radial": True})


def test_records_take_the_exact_type_route(monkeypatch):
    """The params and scan-pd records convert without a single ABCMeta
    instance check (9,644 of them in the replaced chain on run_params(100)
    plus run_scan_pd(5, 100, 1000)), on their first conversion too."""
    records = [paramcheck.all_certificates(5), paramcheck.exponent_grid_check(),
               paramcheck.check_minor_formulas(), paramcheck.numeric_pd_scan([5, 6], 10)]
    want = replaced.jsonable(records)
    checks = []
    instancecheck = abc.ABCMeta.__instancecheck__

    def counted(cls, instance):
        checks.append(type(instance))
        return instancecheck(cls, instance)

    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
    assert jsonable(records) == want
    assert checks == []


# -- notes built from the sections of a run ------------------------------------------


@pytest.fixture(scope="module")
def sections():
    return jsonable({
        "identities": run_verify()[0],
        "combination": run_combination()[0],
        "params": run_params(12)[0],
        "pd_scan": run_scan_pd(5, 12, 50)[0],
        "oracle": run_oracle(samples=2, dims=(5,))[0],
    })


def _notes(sections) -> dict:
    return {n["flag"]: n for n in build_report({}, sections, {})["notes"]}


def _resolve(doc, path: str):
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def _flip_i14(s):
    next(r for r in s["identities"] if r["id"] == "I14")["status"] = "residual"


def _flip_f3(s):
    s["params"]["minor_formulas"]["f3_upper_matches_printed"] = True


def _flip_chain(s):
    for r in s["params"]["linear_reduction"]:
        r["chain_holds_on_range"] = True


def _flip_below_cited(s):
    for r in s["oracle"]["sharp_constant"]:
        r["below_cited"] = False


ALL_FLAGS = {"display-erratum-I14", "display-erratum-I15", "display-erratum-f3-endpoint",
             "exponent-chain-fails", "tracefree-constant-below-cited",
             "lambda-min-margins"}


def test_every_note_names_a_field_of_its_report(sections):
    report = build_report({}, sections, {})
    assert {n["flag"] for n in report["notes"]} == ALL_FLAGS
    for note in report["notes"]:
        assert set(note) == {"flag", "check", "detail"}
        _resolve(report, note["check"])


def test_note_details_are_formatted_from_their_evidence(sections):
    notes = _notes(sections)
    m, printed = registry.ERRATA["I14"]
    derived = registry.get_identity("I14").rhs.terms[m]
    assert str(printed) in notes["display-erratum-I14"]["detail"]
    assert str(derived) in notes["display-erratum-I14"]["detail"]
    mf = sections["params"]["minor_formulas"]
    assert mf["f3_upper_computed"] in notes["display-erratum-f3-endpoint"]["detail"]
    assert mf["f3_upper_printed"] in notes["display-erratum-f3-endpoint"]["detail"]
    assert "n = 5 (L(1) = 8)" in notes["exponent-chain-fails"]["detail"]
    moved = copy.deepcopy(sections)
    moved["pd_scan"]["min_lambda"] = 0.5
    assert "5.000000e-01" in _notes(moved)["lambda-min-margins"]["detail"]


@pytest.mark.parametrize("flip, flag", [
    (_flip_i14, "display-erratum-I14"),
    (_flip_f3, "display-erratum-f3-endpoint"),
    (_flip_chain, "exponent-chain-fails"),
    (_flip_below_cited, "tracefree-constant-below-cited"),
])
def test_each_note_tracks_its_evidence(sections, flip, flag):
    flipped = copy.deepcopy(sections)
    flip(flipped)
    assert set(_notes(flipped)) == ALL_FLAGS - {flag}


def test_notes_follow_the_sections_that_ran(sections):
    assert _notes({"pd_scan": sections["pd_scan"]}).keys() == {"lambda-min-margins"}
    assert _notes({"combination": {"error": "no match"}}) == {}


def test_verify_of_an_identity_without_erratum_carries_no_notes(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "verify", "--ids", "I1"]) == 0
    assert json.loads(out.read_text())["notes"] == []


def test_notes_do_no_traced_work(sections, monkeypatch):
    """Building the notes expands and verifies nothing: the benchmark's
    traced counts (canonical forms, verifications, substitutions) stay those
    of the sections."""
    want = build_report({}, sections, {})["notes"]

    def forbidden(*args, **kwargs):
        raise AssertionError("notes must only read the sections")
    # every binding of the traced functions, re-exports included
    traced = [tensor.canonical_form, registry.verify_identity, calculus.substitute_defs]
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("bhverify"):
            for key, value in list(vars(mod).items()):
                if any(value is fn for fn in traced):
                    monkeypatch.setattr(mod, key, forbidden)
    assert tensor.canonical_form is forbidden
    assert build_report({}, sections, {})["notes"] == want


# -- differential tests: the one-pass renderer against json.dumps ----------------------


_odd_chars = st.sampled_from(["\x00", "\x1f", "\x7f", "\n", "\t", '"', "\\", "/", "\u2028",
                              "\ud800", "\xe9", "\u20ac", "\U0001f600"])
_strings = st.one_of(st.text(max_size=4), st.text(_odd_chars, max_size=4))
_data_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**400, 10**400), _strings,
    _finite, st.sampled_from([-0.0, 5e-324, 1e308]))


def _data_containers(kids):
    return st.one_of(st.lists(kids, max_size=4), st.dictionaries(_strings, kids, max_size=4))


@settings(max_examples=500, deadline=None)
@given(st.recursive(_data_leaves, _data_containers, max_leaves=30))
def test_render_json_is_json_dumps_byte_for_byte(tree):
    """Dicts, lists and empty containers; non-ASCII, control and lone-surrogate
    strings and keys; big ints, bool and None; finite floats with -0.0: the
    text of json.dumps(sort_keys=True, indent=2) plus a newline."""
    assert render_json(tree) == replaced.render_json(tree)


@pytest.mark.parametrize("value", [*_REFUSED, (1, 2), Fraction(1, 2), _Node(1, 2)],
                         ids=lambda v: type(v).__name__)
def test_render_json_refuses_other_types(value):
    """What jsonable does not return is refused, a tuple, a Fraction and a
    record included: render_json writes JSON data, it converts nothing."""
    with pytest.raises(TypeError, match=f"^no JSON form for {type(value).__name__}: "):
        render_json({"x": [value]})


def test_a_real_report_renders_without_the_json_module(sections, monkeypatch):
    """A report of real sections renders to the bytes of json.dumps and calls
    neither json.dumps nor its encoder."""
    report = build_report({"command": "all"}, sections, {k: True for k in sections})
    want = replaced.render_json(report)

    def forbidden(*args, **kwargs):
        raise AssertionError("render_json must write the report itself")
    monkeypatch.setattr(json, "dumps", forbidden)
    monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
    assert render_json(report) == want
