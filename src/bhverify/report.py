"""Report assembly and rendering (deterministic JSON, readable markdown).

The JSON schema is versioned and frozen: fixed inputs render to identical
bytes, so verification runs can be diffed.  ``build_report`` is the one gate
between the engine and a report: it converts the section records and the
echoed config once with ``jsonable``, which refuses what strict JSON cannot
hold, so both formats fail alike.  No other module knows the JSON shape, and
no record serializes itself.  ``render_json`` writes what the gate
returns, byte for byte as ``json.dumps(report, sort_keys=True, indent=2)``,
in one pass.  Markdown is presentation only.

The ``notes`` are read from the sections of the same run (``findings``):
each names the report field it came from, and a section that did not run or
does not show the finding gives no note (schema 2).  Schema 3 states each
identity's ``kind``, ``mode`` and ``anchor`` once, in its verification
record, and holds a failing oracle jet as a nested record.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction

from . import __version__, registry
from .coeffs import ParamScalar

SCHEMA_VERSION = 3


_PLAIN = frozenset({str, int, bool, type(None)})


def _no_json_form(x) -> TypeError:
    return TypeError(f"no JSON form for {type(x).__name__}: {x!r}")


def jsonable(x):
    """JSON data of a result record, by the exact type of each node: a
    dataclass instance becomes the dict of its fields, a tuple or list a list
    and a dict a dict, recursively; exact numbers (``Fraction``,
    ``ParamScalar``) become their ``str``; ``str``, ``int``, finite ``float``,
    ``bool`` and ``None`` pass unchanged.  A report is strict JSON: a NaN or
    an infinity raises ``ValueError``, and a key other than ``str`` or any
    other type, a subclass of these (``np.float64``, an IntEnum) included,
    ``TypeError``."""
    t = type(x)
    if t in _PLAIN or t is float and math.isfinite(x):
        return x
    if t is Fraction or t is ParamScalar:
        return str(x)
    if t is list or t is tuple:
        return [jsonable(v) for v in x]
    if t is dict:
        for k in x:
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}: {k!r}")
        return {k: jsonable(v) for k, v in x.items()}
    if hasattr(t, "__dataclass_fields__"):
        return {k: jsonable(v) for k, v in vars(x).items()}
    if t is float:
        raise ValueError(f"{x!r} has no strict JSON form")
    raise _no_json_form(x)


def findings(sections: dict) -> list[dict]:
    """The notes of a report over these sections, each ``{"flag", "check",
    "detail"}``: ``check`` is the dotted path (list items by index) of the
    report field the note was read from, and ``detail`` is formatted from the
    section data.  Nothing is expanded or verified again."""
    notes = []

    def note(flag, check, detail):
        notes.append({"flag": flag, "check": f"sections.{check}", "detail": detail})

    for i, r in enumerate(sections.get("identities", ())):
        if r["status"] == "verified-zero" and r["id"] in registry.ERRATA:
            m, printed = registry.ERRATA[r["id"]]
            derived = registry.get_identity(r["id"]).rhs.terms[m]
            note(f"display-erratum-{r['id']}", f"identities.{i}.status",
                 f"{r['anchor']}: the display prints the coefficient {printed} of "
                 f"{m.render()}; the identity verified here carries {derived}")
    if "params" in sections:
        mf, exps = sections["params"]["minor_formulas"], sections["params"]["exponents"]
        if not mf["f3_upper_matches_printed"]:
            note("display-erratum-f3-endpoint", "params.minor_formulas.f3_upper_matches_printed",
                 f"the display prints f3(1/(n-4)) = {mf['f3_upper_printed']}; direct "
                 f"evaluation gives {mf['f3_upper_computed']}")
        fails = [f"n = {r['n']} (L(1) = {r['L_at_one']})"
                 for r in sections["params"]["linear_reduction"] if not r["chain_holds_on_range"]]
        if fails:
            note("exponent-chain-fails", "params.linear_reduction",
                 f"the printed chain X < -8/((n-4)(alpha-1)), cleared to L(alpha) < 0, "
                 f"fails on the range at {', '.join(fails)}; X < 0 on all {exps['points']} "
                 f"grid points: {exps['exponent_negative_everywhere']}")
    below = [r for r in sections.get("oracle", {}).get("sharp_constant", ()) if r["below_cited"]]
    if below:
        note("tracefree-constant-below-cited", "oracle.sharp_constant",
             f"the sharp constant n/(n-1) of |E|^2|v|^2 >= c|Ev|^2 over trace-free symmetric "
             f"E is below the cited {below[0]['cited_constant']:.6g} at "
             + ", ".join(f"n = {r['n']} ({r['analytic']:.6g})" for r in below))
    if "pd_scan" in sections:
        s = sections["pd_scan"]
        note("lambda-min-margins", "pd_scan.min_lambda",
             f"the display gives no values for the small constants of the positivity step; "
             f"the scanned minimal eigenvalue of A is {s['min_lambda']:.6e}, at "
             f"n = {s['argmin']['n']}, alpha = {s['argmin']['alpha']:.6g}")
    return notes


def build_report(config: dict, sections: dict, statuses: dict[str, bool]) -> dict:
    """Assemble the versioned report document: the config and the sections'
    records pass the gate of ``jsonable`` here, once; the notes read that data."""
    sections = jsonable(sections)
    return {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "config": jsonable(config),
        "sections": sections,
        "section_status": {k: ("pass" if v else "fail") for k, v in statuses.items()},
        "notes": findings(sections),
        "overall_status": "pass" if all(statuses.values()) else "fail",
    }


def render_json(report: dict) -> str:
    """The report as text: ``json.dumps(report, sort_keys=True, indent=2)``
    and a final newline, byte for byte, in one recursive pass.

    It writes what ``build_report`` returns, which its gate has checked:
    ``dict`` with ``str`` keys, ``list``, ``str``, ``int``, ``bool``, ``None``
    and finite ``float``.  Pieces are appended to one list and joined once,
    and a string goes through the stdlib's C ``encode_basestring_ascii``.  A
    value of any other type raises ``TypeError``.
    """
    out: list[str] = []
    _render(report, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _render(x, nl: str, out: list[str]):
    """Append the JSON text of x to out; nl is the newline and indent of x's
    depth.  The commonest leaves, str, bool and int, are written inside the
    container loops."""
    t = type(x)
    if t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep, nxt = "{" + inner, "," + inner
        for k, v in sorted(x.items()):     # as json.dumps sorts
            t = type(v)
            if t is str:
                out.append(f"{sep}{_encode_str(k)}: {_encode_str(v)}")
            elif t is bool:
                out.append(f"{sep}{_encode_str(k)}: {'true' if v else 'false'}")
            elif t is int:
                out.append(f"{sep}{_encode_str(k)}: {v}")
            else:
                out.append(f"{sep}{_encode_str(k)}: ")
                _render(v, inner, out)
            sep = nxt
        out.append(nl + "}")
    elif t is list:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep, nxt = "[" + inner, "," + inner
        for v in x:
            t = type(v)
            if t is str:
                out.append(sep + _encode_str(v))
            elif t is int:
                out.append(f"{sep}{v}")
            else:
                out.append(sep)
                _render(v, inner, out)
            sep = nxt
        out.append(nl + "]")
    elif t is str:
        out.append(_encode_str(x))
    elif t is int or t is float:
        out.append(repr(x))
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    else:
        raise _no_json_form(x)


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
        lines += ["## Identities", "| id | status | residuals | ms | anchor |",
                  "|----|--------|-----------|----|--------|"]
        for r in sections["identities"]:
            lines.append(f"| {r['id']} | {r['status']} | {r['residual_count']} "
                         f"| {r['millis']:.0f} | {r['anchor']} |")
        lines.append("")
    if "combination" in sections:
        c = sections["combination"]
        lines.append("## Combination recovery")
        if "error" in c:
            lines.append(f"- error: {c['error']}")
        else:
            lines.append(f"- weights: {c['weights']}")
            lines.append(f"- matches catalog c1/c2: {c['matches_catalog']}")
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
        lines.append(f"- **{note['flag']}** (`{note['check']}`): {note['detail']}")
    lines.append("")
    return "\n".join(lines)


def write_atomic(path: str, text: str):
    """Write via a temp file and rename, so readers never see partial output.

    The file gets the mode a plain ``open`` would give it: an existing
    target's mode is kept, and a new file gets ``0o666`` less the umask
    (``mkstemp`` alone creates it ``0o600``).
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
