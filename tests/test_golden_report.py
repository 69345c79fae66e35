"""Golden reports: fixed sections render fixed bytes.

``tests/data/verify_report.json`` holds ``run_verify()`` and
``run_combination()`` with the per-identity ``millis`` timings removed.
``tests/data/certificates_report.json`` holds ``run_params(12)`` and
``run_scan_pd(5, 12, 50)``, the certificate path through ``paramcheck.at_n``.
A change that must keep reports byte-identical (a refactor or a performance
rewrite) keeps these files as they are.  To re-record them after a
deliberate report change, run ``PYTHONPATH=src python tests/test_golden_report.py``.
"""

import pathlib

from bhverify.cli import run_combination, run_params, run_scan_pd, run_verify
from bhverify.report import render_json

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "verify_report.json"
GOLDEN_CERTIFICATES = DATA / "certificates_report.json"


def _document() -> str:
    records, _ = run_verify()
    for r in records:
        del r["millis"]
    combination, _ = run_combination()
    return render_json({"identities": records, "combination": combination})


def _certificates_document() -> str:
    params, _ = run_params(12)
    pd_scan, _ = run_scan_pd(5, 12, 50)
    return render_json({"params": params, "pd_scan": pd_scan})


def test_verify_and_combination_render_the_recorded_bytes():
    assert _document() == GOLDEN.read_text()


def test_params_and_scan_pd_render_the_recorded_bytes():
    assert _certificates_document() == GOLDEN_CERTIFICATES.read_text()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(_document())
    GOLDEN_CERTIFICATES.write_text(_certificates_document())
