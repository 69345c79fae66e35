"""Golden report: the identity and combination sections render fixed bytes.

``tests/data/verify_report.json`` holds ``run_verify()`` and
``run_combination()`` with the per-identity ``millis`` timings removed.  A
change that must keep reports byte-identical (a refactor or a performance
rewrite) keeps this file as it is.  To re-record it after a deliberate
report change, run ``PYTHONPATH=src python tests/test_golden_report.py``.
"""

import pathlib

from bhverify.cli import run_combination, run_verify
from bhverify.report import render_json

GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_report.json"


def _document() -> str:
    records, _ = run_verify()
    for r in records:
        del r["millis"]
    combination, _ = run_combination()
    return render_json({"identities": records, "combination": combination})


def test_verify_and_combination_render_the_recorded_bytes():
    assert _document() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_document())
