"""CLI contract: exit codes, deterministic reports, config precedence."""

import json
import math
import os
import re
import stat
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from bhverify import cli, jetoracle, paramcheck, radial, registry
from bhverify.cli import load_config, run
from bhverify.errors import EngineInconsistencyError, NoCombinationError
from bhverify.radial import ScanSummary
from bhverify.report import render_json, render_markdown, write_atomic

# a path below a regular file, which no process can create or write
UNDER_A_FILE = os.path.join(__file__, "r.json")


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["verify", "--frobnicate"]) == 2


def test_unknown_format_rejected(capsys):
    assert run(["--format", "yaml", "verify"]) == 2


def test_verify_subset_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["--out", str(out), "verify", "--ids", "I1,I3,I15"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["overall_status"] == "pass"
    assert [r["id"] for r in doc["sections"]["identities"]] == ["I1", "I3", "I15"]
    assert doc["schema_version"] == 3
    # id, anchor, kind and mode are stated once, in the identity records
    assert list(doc["sections"]) == ["identities"]
    assert [r["kind"] for r in doc["sections"]["identities"]] == ["wdiv"] * 3
    # each identity runs in its registered mode; nothing overrides it
    assert list(doc["config"]) == ["command", "format", "ids"]


def test_verify_has_no_mode_option(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "verify", "--mode", "onshell"]) == 2
    assert "--mode" in capsys.readouterr().err
    assert not out.exists()


def test_mutated_registry_fails_with_exit_1(tmp_path, monkeypatch):
    """Planting a perturbed identity in the registry must flip the exit code."""
    idents = list(registry.all_identities())
    idents[2] = registry.perturb_identity(idents[2], 0)
    monkeypatch.setattr(registry, "all_identities", lambda: tuple(idents))
    out = tmp_path / "r.json"
    code = run(["--out", str(out), "verify"])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["overall_status"] == "fail"
    bad = [r for r in doc["sections"]["identities"] if r["status"] == "residual"]
    assert bad and bad[0]["residual_terms"]


def test_json_reports_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["--out", str(a), "verify", "--ids", "I1"]) == 0
    assert run(["--out", str(b), "verify", "--ids", "I1"]) == 0
    ta, tb = a.read_bytes(), b.read_bytes()
    # wall-time fields differ run to run; nothing else may
    da, db = json.loads(ta), json.loads(tb)
    for d in (da, db):
        for r in d["sections"]["identities"]:
            r["millis"] = 0
    assert da == db
    assert render_json(da) == render_json(db)


def test_radial_cli(tmp_path):
    out = tmp_path / "r.json"
    code = run(["--out", str(out), "radial", "--n", "6", "--alpha", "2",
                "--grid", "4x4", "--rmax", "30"])
    assert code == 0
    doc = json.loads(out.read_text())
    sec = doc["sections"]["radial"][0]
    assert sec["cells"] == 16 and sec["survival_fraction"] == 0.0


def test_radial_dump_trajectories(tmp_path):
    out = tmp_path / "r.json"
    dump = tmp_path / "dumps"
    code = run(["--out", str(out), "radial", "--n", "6", "--alpha", "2",
                "--grid", "3x3", "--dump-trajectories", str(dump)])
    assert code == 0
    files = list(dump.glob("*.csv"))
    assert files and files[0].read_text().startswith("r,u,p,v,q,Z")


def test_scan_pd_cli(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "scan-pd", "--n", "5..8", "--grid", "100"]) == 0
    doc = json.loads(out.read_text())
    assert doc["sections"]["pd_scan"]["all_positive"]


def test_oracle_cli_small(tmp_path):
    out = tmp_path / "r.json"
    code = run(["--out", str(out), "oracle", "--samples", "40", "--dims", "5",
                "--seed", "7"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(r["passed"] for r in doc["sections"]["oracle"]["identities"])


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "bh.cfg"
    cfg.write_text("# defaults\nn = 6\nalpha = 2\nradial_grid = 3x3\nrmax = 20\n")
    out = tmp_path / "r.json"
    code = run(["--config", str(cfg), "--out", str(out), "radial", "--rmax", "25"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["rmax"] == 25.0      # flag wins
    assert doc["config"]["grid"] == "3x3"     # config supplies the rest
    assert doc["config"]["n"] == 6


def test_config_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "bh.cfg"
    cfg.write_text("radial_grid = 2x2\nn = 6\nalpha = 2\n")
    monkeypatch.setenv("BHVERIFY_CONFIG", str(cfg))
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "radial"]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["grid"] == "2x2"


def test_missing_config_file_is_usage_error(tmp_path):
    assert run(["--config", str(tmp_path / "absent.cfg"), "verify"]) == 2


def test_missing_config_file_from_environment_is_usage_error(tmp_path, monkeypatch, capsys):
    """A non-empty BHVERIFY_CONFIG naming no file exits 2 before any section
    runs; an empty one means no config file."""
    monkeypatch.setenv("BHVERIFY_CONFIG", str(tmp_path / "absent.cfg"))
    assert run(["params"]) == 2
    assert "config file not found" in capsys.readouterr().err
    monkeypatch.setenv("BHVERIFY_CONFIG", "")
    assert load_config(None) == {}


def test_malformed_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    assert run(["--config", str(cfg), "verify"]) == 2


def test_hash_inside_a_config_value_is_kept(tmp_path):
    """'#' starts a comment only at the start of a line or after
    whitespace: the report goes to run#1.json, and n_max = 5  # small
    still reads 5."""
    out = tmp_path / "run#1.json"
    cfg = tmp_path / "bh.cfg"
    cfg.write_text(f"#defaults\nout = {out}\nn_max = 5  # small\n")
    assert load_config(str(cfg)) == {"out": str(out), "n_max": "5"}
    assert run(["--config", str(cfg), "params"]) == 0
    assert json.loads(out.read_text())["config"]["n_max"] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bh.cfg", "run#1.json"]


def test_markdown_render_includes_anchors(tmp_path):
    out = tmp_path / "r.md"
    assert run(["--format", "markdown", "--out", str(out),
                "verify", "--ids", "I12"]) == 0
    text = out.read_text()
    assert "master divergence identity" in text
    assert "Notes and flags" in text


def test_json_roundtrip_parse(tmp_path):
    out = tmp_path / "r.json"
    run(["--out", str(out), "verify", "--ids", "I2"])
    doc = json.loads(out.read_text())
    assert render_json(json.loads(render_json(doc))) == render_json(doc)


def test_empty_sections_render_minimal_document():
    from bhverify.report import build_report
    doc = build_report({}, {}, {})
    text = render_json(doc)
    parsed = json.loads(text)
    assert parsed["overall_status"] == "pass"  # vacuously: no sections ran
    assert render_markdown(doc).startswith("# Verification report")


# -- input validation and exit codes ---------------------------------------------


@pytest.mark.parametrize("spec, reason", [
    ("2x8", "square"),
    ("0x0", "at least one cell"),
    ("3", "expects UxV"),
    ("3x", "expects UxV"),
    ("3x3x3", "expects UxV"),
    ("-2x-2", "expects UxV"),
])
def test_radial_grid_rejected(spec, reason, capsys):
    assert run(["radial", f"--grid={spec}"]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and reason in err


@pytest.mark.parametrize("argv, flag", [
    (["params", "--n-max", "4"], "--n-max"),
    (["scan-pd", "--n", "7..6"], "--n"),
    (["scan-pd", "--n", "4..6"], "--n"),
    (["scan-pd", "--n", "5-8"], "--n"),
    (["scan-pd", "--n", "5..8", "--grid", "0"], "--grid"),
    (["radial", "--n", "4", "--grid", "1x1"], "--n"),
    (["radial", "--rmax", "-1", "--grid", "1x1"], "--rmax"),
    (["radial", "--rmax", "1e-6", "--grid", "1x1"], "--rmax"),
    (["radial", "--rmax", "nan", "--grid", "1x1"], "--rmax"),
    (["radial", "--rmax", "inf", "--grid", "1x1"], "--rmax"),
    (["oracle", "--samples", "0", "--dims", "5"], "--samples"),
    (["oracle", "--samples", "-3", "--dims", "5"], "--samples"),
    (["oracle", "--seed", "-1", "--samples", "2", "--dims", "5"], "--seed"),
    (["oracle", "--samples", "2", "--dims", "1"], "--dims"),
    (["oracle", "--samples", "2", "--dims", "5,4"], "--dims"),
    (["oracle", "--samples", "2", "--dims", "5,x"], "--dims"),
    (["oracle", "--samples", "2", "--dims", "5,,6"], "--dims"),
    (["oracle", "--samples", "2", "--dims", ""], "--dims"),
    (["oracle", "--samples", "2", "--dims", "5", "--tol", "-1"], "--tol"),
    (["oracle", "--samples", "2", "--dims", "5", "--tol", "0"], "--tol"),
    (["oracle", "--samples", "2", "--dims", "5", "--tol", "nan"], "--tol"),
    (["oracle", "--samples", "2", "--dims", "5", "--tol", "inf"], "--tol"),
    (["radial", "--alpha", "-1", "--grid", "1x1"], "--alpha"),
    (["radial", "--alpha", "0.5", "--grid", "1x1"], "--alpha"),
    (["radial", "--alpha", "1", "--grid", "1x1"], "--alpha"),
    (["radial", "--alpha", "nan", "--grid", "1x1"], "--alpha"),
    (["radial", "--alpha", "inf", "--grid", "1x1"], "--alpha"),
    (["--out", UNDER_A_FILE, "verify", "--ids", "I3"], "--out"),
    (["radial", "--grid", "1x1", "--dump-trajectories", UNDER_A_FILE],
     "--dump-trajectories"),
    (["radial", "--grid", "1x1", "--dump-trajectories", __file__], "--dump-trajectories"),
    (["verify", "--ids", ""], "--ids"),
    (["verify", "--ids", "I1,I1"], "--ids"),
    (["verify", "--ids", "I1,,I2"], "--ids"),
    (["verify", "--ids", "I1, ,I2"], "--ids"),
    (["verify", "--ids", "I1, I1"], "--ids"),
    (["oracle", "--samples", "2", "--dims", "5,5"], "--dims"),
    (["oracle", "--samples", "2", "--dims", "6,5,6"], "--dims"),
    (["radial", "--grid", "1x1", "--dump-trajectories", ""], "--dump-trajectories"),
])
def test_out_of_range_params_and_scan_pd_rejected(argv, flag, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err


@pytest.mark.parametrize("out, reason", [
    (UNDER_A_FILE, "Not a directory"),
    (os.path.join(os.path.dirname(__file__), "no-such-dir", "r.json"),
     "No such file or directory"),
    (os.path.dirname(__file__), "Is a directory"),
    ("", "No such file or directory"),
])
def test_bad_out_path_rejected_before_any_section_runs(out, reason, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a section ran before --out was checked")
    monkeypatch.setattr(cli, "run_verify", must_not_run)
    assert run(["--out", out, "all"]) == 2
    assert capsys.readouterr().err == f"error: --out cannot write {out}: {reason}\n"


def test_unknown_identity_id_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "verify", "--ids", "I1,I99"]) == 2
    err = capsys.readouterr().err
    known = ", ".join(f"I{k}" for k in range(1, 16))
    assert err == f"error: --ids unknown identity I99; known: {known}\n"
    assert not out.exists()


def test_repeated_identity_id_is_named(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "verify", "--ids", "I2,I1,I2"]) == 2
    assert capsys.readouterr().err == "error: --ids identity I2 is listed more than once\n"
    assert not out.exists()


def test_ids_are_stripped(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "verify", "--ids", " I1, I3 "]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["ids"] == ["I1", "I3"]
    assert [r["id"] for r in doc["sections"]["identities"]] == ["I1", "I3"]


@pytest.mark.parametrize("line, flag", [
    ("n_max = 4", "--n-max"),
    ("n_range = 4..6", "--n"),
    ("grid = 0", "--grid"),
    ("radial_grid = 2x8", "--grid"),
    ("n = 4", "--n"),
    ("rmax = -1", "--rmax"),
    ("rmax = inf", "--rmax"),
    ("samples = 0", "--samples"),
    ("dims = 1", "--dims"),
    ("alpha = 0.5", "--alpha"),
    ("alpha = nan", "--alpha"),
    ("alpha = inf", "--alpha"),
    ("tol = -1", "--tol"),
    ("tol = nan", "--tol"),
    ("tol = inf", "--tol"),
    ("seed = -3", "--seed"),
    ("format = xml", "--format"),
    ("n = 6.5", "config key n"),
    ("dims = 5,5", "--dims"),
    ("out =", "--out"),
])
def test_out_of_range_config_values_rejected(tmp_path, line, flag, capsys):
    cfg = tmp_path / "bh.cfg"
    cfg.write_text(line + "\n")
    command = {"n_max": "params", "n_range": "scan-pd", "grid": "scan-pd",
               "radial_grid": "radial", "n": "radial", "rmax": "radial",
               "samples": "oracle", "dims": "oracle", "alpha": "radial",
               "tol": "oracle", "seed": "oracle", "format": "params",
               "out": "params"}[line.split(" ")[0]]
    assert run(["--config", str(cfg), command]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} ")


def test_repeated_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bh.cfg"
    cfg.write_text("n = 5\nalpha = 2\nn = 7\n")
    out = tmp_path / "r.json"
    assert run(["--config", str(cfg), "--out", str(out), "radial"]) == 2
    assert capsys.readouterr().err == (
        f"error: config key n is set more than once in {cfg}\n")
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bh.cfg"
    cfg.write_text("n = 6\nrmx = 20\n")
    assert run(["--config", str(cfg), "radial"]) == 2
    err = capsys.readouterr().err
    assert "rmx" in err
    for key in ("n", "alpha", "radial_grid", "rmax", "n_range"):
        assert key in err.split("accepted keys:")[1]


def test_engine_fault_exits_3(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise EngineInconsistencyError("planted disagreement")
    monkeypatch.setattr(paramcheck, "numeric_pd_scan", broken)
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "scan-pd", "--n", "5..6", "--grid", "10"]) == 3
    assert capsys.readouterr().err == (
        "engine error: EngineInconsistencyError: planted disagreement\n")
    assert not out.exists()


def test_fault_inside_a_section_exits_3_not_2(monkeypatch, tmp_path, capsys):
    """A non-engine exception raised while a section runs is a fault, not a
    usage error: every argument was validated before the section started."""
    def broken(*args, **kwargs):
        raise KeyError("Etf")
    monkeypatch.setattr(jetoracle, "eval_monomial_batch", broken)
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "oracle", "--samples", "2", "--dims", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError: 'Etf' (at test_cli.py:")
    assert err.endswith(" in broken)\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_fault_while_rendering_exits_3(fmt, monkeypatch, tmp_path, capsys):
    """A value with no text form, found while the report is rendered, is a
    fault: exit 3, one stderr line and no report."""
    def broken(report):
        raise TypeError("Object of type set is not JSON serializable")
    monkeypatch.setattr(cli, f"render_{fmt}", broken)
    out = tmp_path / "r.json"
    assert run(["--format", fmt, "--out", str(out), "verify", "--ids", "I1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: TypeError: Object of type set is not JSON "
                          "serializable (at test_cli.py:")
    assert err.endswith(" in broken)\n") and err.count("\n") == 1
    assert not out.exists()


def test_a_nan_in_a_section_exits_3(monkeypatch, tmp_path, capsys):
    """No report holds NaN or Infinity: a section record holding a NaN is a
    fault found while the report is built, so exit 3, one stderr line and no
    report, in either format, on stdout or in --out."""
    summary = ScanSummary(6, 2.0, 50.0, 1, 0, math.nan, {}, [])
    monkeypatch.setattr(cli, "run_radial", lambda *args: ([summary], True))
    out = tmp_path / "r.json"
    for argv in (["--out", str(out), "radial"], ["radial"],
                 ["--format", "markdown", "--out", str(out), "radial"],
                 ["--format", "markdown", "radial"]):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "internal error: ValueError: nan has no strict JSON form (at report.py:")
        assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def _plain_open_mode(path) -> int:
    with open(path, "w"):
        pass
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002])
def test_a_new_report_gets_the_mode_of_a_plain_open(umask, tmp_path):
    """mkstemp creates its file 0o600; the report is 0o666 less the umask,
    as a plain open would make it."""
    out = tmp_path / "r.json"
    previous = os.umask(umask)
    try:
        assert run(["--out", str(out), "verify", "--ids", "I1"]) == 0
        want = _plain_open_mode(tmp_path / "plain")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == want == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o604, 0o640, 0o755, 0o600])
def test_an_existing_report_keeps_its_mode(mode, tmp_path):
    out = tmp_path / "r.json"
    out.write_text("an older report\n")
    out.chmod(mode)
    previous = os.umask(0o022)
    try:
        write_atomic(str(out), "{}\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert out.read_text() == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_fault_while_validating_ids_exits_3(monkeypatch, capsys):
    def broken():
        raise EngineInconsistencyError("planted registry fault")
    monkeypatch.setattr(registry, "all_identities", broken)
    assert run(["verify", "--ids", "I1"]) == 3
    assert capsys.readouterr().err == (
        "engine error: EngineInconsistencyError: planted registry fault\n")


def test_combination_reports_only_a_missing_combination(monkeypatch):
    """A missing combination is a failed check; any other engine fault
    propagates, so ``run`` exits 3 instead of reporting a failed proof."""
    def raising(exc):
        def solve(target, basis):
            raise exc
        return solve
    monkeypatch.setattr(registry, "solve_combination",
                        raising(NoCombinationError("no match")))
    assert cli.run_combination() == ({"error": "no match"}, False)
    monkeypatch.setattr(registry, "solve_combination",
                        raising(EngineInconsistencyError("planted fault")))
    with pytest.raises(EngineInconsistencyError, match="planted fault"):
        cli.run_combination()


def test_failed_combination_renders_in_markdown(monkeypatch, capsys):
    """A missing combination is a failed check in every format: the
    markdown report states the error and ``all`` exits 1."""
    def solve(target, basis):
        raise NoCombinationError("planted: no combination")
    monkeypatch.setattr(registry, "solve_combination", solve)
    assert run(["--format", "markdown", "all"]) == 1
    text = capsys.readouterr().out
    assert "- combination: fail" in text
    assert "- error: planted: no combination" in text


def test_the_exact_sections_load_neither_numpy_random_nor_scipy():
    """Importing the CLI and running verify, combination, params and
    scan-pd loads no ``numpy.random`` module (about 13 ms and 6 MB) and no
    scipy module: only the oracles draw random numbers."""
    code = (
        "import sys\n"
        "import bhverify.cli as cli\n"
        "for name, (_, ok) in [('verify', cli.run_verify()),\n"
        "                      ('combination', cli.run_combination()),\n"
        "                      ('params', cli.run_params(10)),\n"
        "                      ('scan-pd', cli.run_scan_pd(5, 6, 10))]:\n"
        "    assert ok, name\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('numpy.random') or m.split('.')[0] == 'scipy'))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


# each subcommand with small arguments
SMALL_ARGV = {
    "verify": ["verify", "--ids", "I3"],
    "params": ["params", "--n-max", "5"],
    "scan-pd": ["scan-pd", "--n", "5..5", "--grid", "2"],
    "oracle": ["oracle", "--samples", "2", "--dims", "5"],
    "radial": ["radial", "--grid", "1x1"],
    "all": ["all"],
}


@pytest.mark.parametrize("command", SMALL_ARGV)
def test_every_section_has_a_status(command, tmp_path, monkeypatch):
    """A report holds a status for each of its sections and for nothing
    else.  ``all`` runs its acceptance sections here on small arguments."""
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    assert set(commands) == set(SMALL_ARGV)
    if command == "all":
        small = {"run_params": (5,), "run_scan_pd": (5, 5, 2), "run_oracle": (0, 2, (5,))}
        for name, args in small.items():
            monkeypatch.setattr(cli, name, partial(getattr(cli, name), *args))
        run_radial = cli.run_radial
        monkeypatch.setattr(cli, "run_radial", lambda configs: run_radial(configs[:1], 1))
    out = tmp_path / "r.json"
    assert run(["--out", str(out), *SMALL_ARGV[command]]) == 0
    doc = json.loads(out.read_text())
    assert doc["sections"] and doc["sections"].keys() == doc["section_status"].keys()


def _must_not_run(*args, **kwargs):
    raise AssertionError("work began before the arguments were checked")


@pytest.mark.parametrize("runner, args, message", [
    ("run_radial", ([(6, 2.0)], 0), "the radial section needs a config and grid_size >= 1, "
                                    "got 1 config(s) and grid_size 0"),
    ("run_radial", ([],), "the radial section needs a config and grid_size >= 1, "
                          "got 0 config(s) and grid_size 10"),
    ("run_params", (4,), "the params section needs n_max >= 5, got 4"),
])
def test_a_section_of_no_checks_is_refused_before_any_work(runner, args, message,
                                                           monkeypatch):
    """These passed with no cell scanned or no certificate issued."""
    for module, name in ((radial, "default_grids"), (radial, "scan_shooting"),
                         (paramcheck, "check_minor_formulas"),
                         (paramcheck, "all_certificates")):
        monkeypatch.setattr(module, name, _must_not_run)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(cli, runner)(*args)
