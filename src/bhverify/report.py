"""Report assembly and rendering (deterministic JSON, readable markdown).

The JSON schema is versioned and frozen: fixed inputs render to identical
bytes, so verification runs can be diffed.  Markdown is presentation only.
``jsonable`` is the one route from the engine's result records to JSON
data: the records carry their report shape in their fields, and no record
serializes itself.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import is_dataclass
from fractions import Fraction

from . import __version__
from .coeffs import ParamScalar

SCHEMA_VERSION = 1

# Standing findings the engine surfaces on every run: discrepancies between
# the transcribed source displays and what the engine derives or measures.
ENGINE_NOTES = (
    {
        "flag": "display-erratum-uF-flux",
        "detail": "the printed flux display for u * first-order-vector omits "
                  "the Leibniz term (1 - 2*alpha/(n+4)) * uF; the registered "
                  "identity carries it (the estimate it feeds absorbs uF into "
                  "a generic constant, so nothing downstream changes)",
    },
    {
        "flag": "display-erratum-lap-flux",
        "detail": "the printed flux display for Lap * Du has quartic gradient "
                  "coefficient (1/6)(1+n*alpha/(n+4))((n-2)alpha/(n+4)+(n+2)/n); "
                  "the derived coefficient is "
                  "-(1/4)(1+n*alpha/(n+4))((n+2)/n-(n-2)alpha/(n+4))",
    },
    {
        "flag": "display-erratum-f3-endpoint",
        "detail": "the printed value of f3 at 1/(n-4) carries a factor (n-2)^2; "
                  "direct evaluation gives a single factor (n-2): "
                  "64(n-2)(4n^3-13n^2+24n-16)/(n-4)^2",
    },
    {
        "flag": "exponent-chain-fails-at-n5",
        "detail": "the final exponent bound chain X < -8/((n-4)(alpha-1)) fails "
                  "for n = 5 (it holds iff n^2-2n-16 >= 0, i.e. n >= 6); the "
                  "exponent X itself is negative on the whole range for every "
                  "n >= 5, so the blow-down conclusion is unaffected",
    },
    {
        "flag": "homogeneity-mismatch-second-order-estimate",
        "detail": "the second-order estimate is proved as Lap(u) + "
                  "(2/(n-4))|Du|^2/u <= 0, while a later positivity argument "
                  "quotes -Lap(u) >= (2/(n-4))|Du|^2/u^2 (different u-power); "
                  "the engine implements the proved form and flags the usage "
                  "without guessing intent",
    },
    {
        "flag": "tracefree-constant-below-cited",
        "detail": "the measured sharp constant of |E|^2|v|^2 >= c|Ev|^2 over "
                  "trace-free symmetric E is n/(n-1), below the cited 4/3 for "
                  "every n >= 5; as cited the inequality also carries "
                  "inhomogeneous u-weights, so the oracle tests the homogeneous "
                  "surrogate",
    },
    {
        "flag": "lambda-min-margins",
        "detail": "no explicit values are given for the small constants the "
                  "positivity step needs; the report carries the minimal-"
                  "eigenvalue margins of the coefficient matrix instead",
    },
)


def jsonable(x):
    """JSON data of a result record: a dataclass becomes the dict of its
    fields, a tuple or list a list and a dict a dict, recursively; exact
    numbers (``Fraction``, ``ParamScalar``) become their ``str``; ``str``,
    ``int``, ``float``, ``bool`` and ``None`` pass unchanged.  Any other type
    raises ``TypeError``."""
    if x is None or isinstance(x, (str, int, float)):
        return x
    if isinstance(x, (Fraction, ParamScalar)):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if is_dataclass(x):
        return jsonable(vars(x))
    raise TypeError(f"no JSON form for {type(x).__name__}: {x!r}")


def build_report(config: dict, sections: dict, statuses: dict[str, bool]) -> dict:
    """Assemble the versioned report document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "config": config,
        "sections": sections,
        "section_status": {k: ("pass" if v else "fail") for k, v in statuses.items()},
        "notes": list(ENGINE_NOTES),
        "overall_status": "pass" if all(statuses.values()) else "fail",
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _md_identity_lines(records: list[dict]) -> list[str]:
    out = ["| id | status | residuals | ms | anchor |",
           "|----|--------|-----------|----|--------|"]
    for r in records:
        out.append(f"| {r['id']} | {r['status']} | {r['residual_count']} "
                   f"| {r['millis']:.0f} | {r['anchor']} |")
    return out


def render_markdown(report: dict) -> str:
    lines = [f"# Verification report (engine {report['engine_version']}, "
             f"schema {report['schema_version']})", ""]
    lines.append(f"Overall status: **{report['overall_status']}**")
    lines.append("")
    for name, status in sorted(report["section_status"].items()):
        lines.append(f"- {name}: {status}")
    lines.append("")
    sections = report["sections"]
    if "identities" in sections:
        lines.append("## Identities")
        lines.extend(_md_identity_lines(sections["identities"]))
        lines.append("")
    if "combination" in sections:
        lines.append("## Combination recovery")
        lines.append(f"- weights: {sections['combination']['weights']}")
        lines.append(f"- matches catalog c1/c2: "
                     f"{sections['combination']['matches_catalog']}")
        lines.append("")
    if "params" in sections:
        p = sections["params"]
        lines.append("## Parameter checks")
        lines.append(f"- formal factorizations hold: "
                     f"{p['minor_formulas']['minor2_vs_f1']} / "
                     f"{p['minor_formulas']['det_vs_f2']}")
        lines.append(f"- certificates issued: {len(p['certificates'])}, "
                     f"all positive: {p['all_certificates_positive']}")
        lines.append(f"- exponent grid: gamma>=6 "
                     f"{p['exponents']['gamma_always_at_least_six']}, "
                     f"exponent negative {p['exponents']['exponent_negative_everywhere']}, "
                     f"printed chain holds {p['exponents']['chain_holds_everywhere']}")
        lines.append("")
    if "pd_scan" in sections:
        s = sections["pd_scan"]
        lines.append("## Minimal-eigenvalue scan")
        lines.append(f"- min lambda {s['min_lambda']:.3e} at n={s['argmin']['n']}, "
                     f"alpha={s['argmin']['alpha']:.6f}; "
                     f"agrees with certificates: {s['agrees_with_certificates']}")
        lines.append("")
    if "oracle" in sections:
        lines.append("## Numeric oracle")
        worst = max(r["max_rel_residual"] for r in sections["oracle"]["identities"])
        lines.append(f"- worst relative residual {worst:.3e} over "
                     f"{len(sections['oracle']['identities'])} identities")
        for r in sections["oracle"].get("sharp_constant", []):
            lines.append(f"- sharp constant n={r['n']}: {r['minimum']:.9f} "
                         f"(n/(n-1) = {r['analytic']:.9f}; below 4/3: {r['below_cited']})")
        lines.append("")
    if "radial" in sections:
        lines.append("## Radial scans")
        for s in sections["radial"]:
            lines.append(f"- n={s['n']}, alpha={s['alpha']}: survival "
                         f"{s['survival_fraction']} over {s['cells']} cells")
        lines.append("")
    lines.append("## Notes and flags")
    for note in report["notes"]:
        lines.append(f"- **{note['flag']}**: {note['detail']}")
    lines.append("")
    return "\n".join(lines)


def write_atomic(path: str, text: str):
    """Write via a temp file and rename, so readers never see partial output."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
