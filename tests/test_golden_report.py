"""Golden reports: fixed sections render fixed bytes.

``tests/data/verify_report.json`` holds ``run_verify()`` and
``run_combination()`` with the per-identity ``millis`` timings removed.
``tests/data/certificates_report.json`` holds ``run_params(12)`` and
``run_scan_pd(5, 12, 50)``, the certificate path through ``paramcheck.at_n``.
``tests/data/notes_report.json`` holds the ``notes`` that ``build_report``
reads from each of those two section sets.
``tests/data/oracle_report.json`` holds the whole report of
``bhverify oracle --seed 3 --samples 50 --dims 5,6,8``, which has no timing
fields.
A change that must keep reports byte-identical (a refactor or a performance
rewrite) keeps these files as they are.  To re-record them after a
deliberate report change, run ``PYTHONPATH=src python tests/test_golden_report.py``.
"""

import json
import pathlib
from functools import cache

import pytest

from bhverify.cli import run, run_combination, run_params, run_scan_pd, run_verify
from bhverify.report import build_report, jsonable, render_json

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "verify_report.json"
GOLDEN_CERTIFICATES = DATA / "certificates_report.json"
GOLDEN_NOTES = DATA / "notes_report.json"
GOLDEN_ORACLE = DATA / "oracle_report.json"
ORACLE_ARGV = ["oracle", "--seed", "3", "--samples", "50", "--dims", "5,6,8"]


@cache
def _sections() -> dict:
    records, _ = run_verify()
    records = jsonable(records)
    for r in records:
        del r["millis"]
    combination, _ = run_combination()
    return {"identities": records, "combination": jsonable(combination)}


@cache
def _certificates_sections() -> dict:
    params, _ = run_params(12)
    pd_scan, _ = run_scan_pd(5, 12, 50)
    return jsonable({"params": params, "pd_scan": pd_scan})


def _notes_document() -> str:
    return render_json({
        "verify": build_report({}, _sections(), {})["notes"],
        "certificates": build_report({}, _certificates_sections(), {})["notes"],
    })


def test_verify_and_combination_render_the_recorded_bytes():
    assert render_json(_sections()) == GOLDEN.read_text()


def test_params_and_scan_pd_render_the_recorded_bytes():
    assert render_json(_certificates_sections()) == GOLDEN_CERTIFICATES.read_text()


def test_notes_of_both_section_sets_render_the_recorded_bytes():
    assert _notes_document() == GOLDEN_NOTES.read_text()


def test_oracle_command_writes_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("BHVERIFY_CONFIG", raising=False)
    out = tmp_path / "oracle.json"
    assert run(["--out", str(out), *ORACLE_ARGV]) == 0
    assert out.read_text() == GOLDEN_ORACLE.read_text()


def _refuse_constant(name):
    raise ValueError(f"{name} in a report")


def _load_strict(text: str):
    """The JSON document in text; NaN, Infinity and -Infinity, which the
    json module writes but strict JSON forbids, raise ValueError."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_goldens_are_strict_json(path):
    assert _load_strict(path.read_text())


def test_the_all_report_is_strict_json(tmp_path, monkeypatch):
    """Every section of ``bhverify all`` at acceptance sizes: no non-finite
    float reaches the report.  The guard itself refuses each constant."""
    monkeypatch.delenv("BHVERIFY_CONFIG", raising=False)
    out = tmp_path / "all.json"
    assert run(["--out", str(out), "all"]) == 0
    doc = _load_strict(out.read_text())
    assert set(doc["sections"]) == {"identities", "combination", "params", "pd_scan",
                                    "oracle", "radial"}
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match=constant):
            _load_strict(f'{{"x": [{constant}]}}')


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(render_json(_sections()))
    GOLDEN_CERTIFICATES.write_text(render_json(_certificates_sections()))
    GOLDEN_NOTES.write_text(_notes_document())
    run(["--out", str(GOLDEN_ORACLE), *ORACLE_ARGV])
