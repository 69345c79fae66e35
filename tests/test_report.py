"""``report.jsonable``, the one route from result records to JSON data.

Five records keep the field shapes their hand-written ``to_dict`` methods
gave them; those methods are copied below verbatim, as plain functions, and
serve as the reference on real records.  The oracle and radial records have
no golden file, so this is their only byte guard.  The certificate and
eigenvalue-scan records take their JSON shape where they are built and are
guarded by ``tests/data/certificates_report.json``.

The report's notes are read from the sections of the same run; the tests
below flip one evidence field at a time in copies of real sections.

``report.render_json`` writes the text in one pass; it is held to
``json.dumps(sort_keys=True, indent=2)``, the replaced renderer, on generated
trees, on its errors and on a real report.
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
from bhverify.radial import ScanCell, default_grids, scan_shooting
from bhverify.registry import verify_all
from bhverify.report import build_report, jsonable, render_json


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
    [(summary, _)] = scan_shooting([(6, 2.0)], [*u0s, float("nan")], v0s, 30.0)
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


# -- differential tests: the exact-type dispatch against the isinstance chain -------


class _Pair(NamedTuple):
    left: object
    right: object


class _Table(dict):
    pass


class _Text(str):
    pass


@dataclass
class _Node:
    head: object
    rest: object


@dataclass
class _LeafNode(_Node):
    pass


def _same(got, want) -> bool:
    """Equal as JSON data and of the same type at every node (a float
    subclass passes through as itself, so ``==`` alone would not tell)."""
    if type(got) is not type(want):
        return False
    if isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(got, dict):
        return list(got) == list(want) and all(_same(got[k], want[k]) for k in got)
    return got == want


_SCALARS = [N / (N - 4) + ALPHA, ALPHA - 1, -ALPHA ** 2 / 3]
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.text(max_size=4),
    st.floats(allow_nan=False), st.builds(np.float64, st.floats(allow_nan=False)),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
    st.sampled_from(_SCALARS), st.builds(_Text, st.text(max_size=3)))


def _containers(kids):
    keys = st.text(max_size=3)
    return st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(keys, kids, max_size=4),
        st.dictionaries(keys, kids, max_size=4).map(_Table),
        st.dictionaries(keys, kids, max_size=4).map(FactorTable),
        st.builds(_Pair, kids, kids), st.builds(_Node, kids, kids),
        st.builds(_LeafNode, kids, kids),
        st.builds(paramcheck.PDReport, st.lists(st.integers(5, 9), max_size=2),
                  st.integers(1, 9), st.floats(allow_nan=False),
                  st.just({"n": 5, "alpha": 0.5}), st.just({}), st.booleans(),
                  st.booleans()))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _containers, max_leaves=25))
def test_jsonable_matches_the_isinstance_chain(tree):
    """Trees of dataclasses (a subclass among them), NamedTuples, dict
    subclasses, np.float64, bool, Fraction and ParamScalar: the same data,
    node for node, as the replaced chain."""
    assert _same(jsonable(tree), replaced.jsonable(tree))


def _error(f, value):
    with pytest.raises(TypeError) as info:
        f(value)
    return str(info.value)


@pytest.mark.parametrize("value", [
    np.int64(3), {1, 2}, frozenset(), object(), b"x", 1j, _Node,
    [1, (Fraction(1, 2), {"k": np.int64(-1)})], _Pair(np.int32(0), 1),
    _Table(x={2}), _Node(1, [set()])])
def test_jsonable_raises_as_the_isinstance_chain(value):
    assert _error(jsonable, value) == _error(replaced.jsonable, value)


def test_records_take_the_exact_type_route(monkeypatch):
    """Once a record type has been seen, the params and scan-pd records
    convert without a single ABCMeta instance check (9,644 of them in the
    replaced chain on run_params(100) plus run_scan_pd(5, 100, 1000));
    subclasses of the builtins (ScanCell, np.float64, FactorTable) still
    take the isinstance chain, which runs one."""
    records = [paramcheck.all_certificates(5), paramcheck.exponent_grid_check(),
               paramcheck.check_minor_formulas(), paramcheck.numeric_pd_scan([5, 6], 10)]
    jsonable(records)
    checks = []
    instancecheck = abc.ABCMeta.__instancecheck__

    def counted(cls, instance):
        checks.append(type(instance))
        return instancecheck(cls, instance)

    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
    assert jsonable(records) == replaced.jsonable(records)
    checks.clear()
    jsonable(records)
    assert checks == []
    for value in (ScanCell(1.0, -1.0, "decay", 3.0), FactorTable({"u": 1.5})):
        jsonable(value)
        assert checks[-1] is type(value)
    assert type(jsonable(np.float64(0.25))) is np.float64


# -- notes built from the sections of a run ------------------------------------------


@pytest.fixture(scope="module")
def sections():
    return {
        "identities": run_verify()[0],
        "combination": run_combination()[0],
        "params": run_params(12)[0],
        "pd_scan": run_scan_pd(5, 12, 50)[0],
        "oracle": run_oracle(samples=2, dims=(5,))[0],
    }


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


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


def _rendered(f, value):
    """f's text for value, or the type and message of the error it raised."""
    try:
        return f(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_odd_chars = st.sampled_from(["\x00", "\x1f", "\x7f", "\n", "\t", '"', "\\", "/", "\u2028",
                              "\ud800", "\xe9", "\u20ac", "\U0001f600"])
_strings = st.one_of(st.text(max_size=4), st.text(_odd_chars, max_size=4))
_render_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**400, 10**400),
    _strings, st.builds(_Text, _strings), st.sampled_from(_Level),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    st.builds(np.float64, st.floats()))
# one kind of key per dict, so that its keys sort: str and its subclass, or
# numbers (bool, int, IntEnum, float), which json.dumps writes as strings
_keys = st.one_of(st.text(max_size=3), _strings, st.builds(_Text, st.text(max_size=2)))
_number_keys = st.one_of(st.integers(-5, 5), st.sampled_from(_Level), st.booleans(),
                         st.floats(allow_nan=False))


def _render_containers(kids):
    return st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_keys, kids, max_size=4),
        st.dictionaries(_number_keys, kids, max_size=4),
        st.dictionaries(st.text(max_size=2), kids, max_size=3).map(_Table))


@settings(max_examples=500, deadline=None)
@given(st.recursive(_render_leaves, _render_containers, max_leaves=30))
def test_render_json_is_json_dumps_byte_for_byte(tree):
    """Dicts, lists, tuples and empty containers; non-ASCII, control and
    lone-surrogate strings; big ints, bool and None; floats with nan, +-inf
    and -0.0; int, bool, float and IntEnum keys; IntEnum, str and float
    subclasses: the text of json.dumps(sort_keys=True, indent=2) plus a
    newline."""
    assert _rendered(render_json, tree) == _rendered(replaced.render_json, tree)


def _holding_itself(kind):
    if kind == "list":
        x = [1]
        x.append(x)
    elif kind == "dict":
        x = {"a": 1}
        x["self"] = x
    else:                                   # a cycle through a list and a dict subclass
        x = {"a": [0]}
        x["a"].append(_Table(back=x))
    return {"top": [x]}


@pytest.mark.parametrize("value", [
    {"a": [1, {2}]}, {"k": b"x"}, [np.int64(3)], {"k": {"j": np.int64(-1)}},
    {"b": math.nan, "z": [frozenset()]}, {1: "a", "b": 2}, {"k": {(1, 2): "a"}},
    {None: 1, "a": 2}, [10**5000], _Table(x={1}),
    _holding_itself("list"), _holding_itself("dict"), _holding_itself("cycle")])
def test_render_json_raises_as_json_dumps(value):
    """A set, bytes and np.int64 are TypeErrors; so are keys that do not
    sort or have no JSON form; an int past the digit limit and a container
    that holds itself are ValueErrors: each the error json.dumps raises,
    message included."""
    got = _rendered(render_json, value)
    assert got == _rendered(replaced.render_json, value)
    assert isinstance(got, tuple)


def test_an_exact_type_report_never_enters_the_generator_encoder(sections, monkeypatch):
    """A report of exact dicts, lists, str, int, bool, None and finite floats
    is written without json.encoder._make_iterencode, the pure-Python
    encoder json.dumps runs under indent; a NaN takes json.dumps once."""
    calls = []
    make = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    report = build_report({"command": "all"}, sections, {k: True for k in sections})
    text = render_json(report)
    assert calls == []
    assert text == replaced.render_json(report) and len(calls) == 1
    report["sections"]["pd_scan"]["min_lambda"] = math.nan
    calls.clear()
    assert render_json(report) == replaced.render_json(report)
    assert len(calls) == 2
