"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest -q perfbench

They spawn the workloads like the benchmark does, so the full file takes
about two minutes on a 2-core x86_64 box.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import verdicts

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Counts quoted for the reference commit; they repeat exactly for any seed.
REFERENCE_COUNTS = {
    "identities": {"tensor.canonical_form.calls": 1095,
                   "registry.verify_identity.calls": 15},
    "certificates": {"paramcheck.positivity_certificate.calls": 768,
                     "paramcheck.positivity_certificate.distinct_ratio": 480 / 768},
    "oracles": {"jetoracle.sample_jet.calls": 45_000,
                "jetoracle.sample_jet.distinct_ratio": 6_000 / 45_000,
                "jetoracle.eval_monomial_batch.calls": 897,
                "radial.shoot.calls": 400},
}


def _count_metrics(metrics: dict) -> dict:
    # report.json_bytes is left out: the identity records still carry their
    # `millis` timings, whose printed length varies from run to run
    return {k: v for k, v in metrics.items()
            if not k.endswith((".s", "self_s")) and k != "report.json_bytes"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_keeps_verdicts_and_counts_repeat(workload):
    inputs = run.make_inputs(workload, 7)
    plain = run.spawn({"workload": workload, "inputs": inputs, "trace": False})
    traced = [run.spawn({"workload": workload, "inputs": inputs, "trace": True})
              for _ in range(2)]
    want = verdicts.project(workload, plain["report"])
    assert not verdicts.compare(want, verdicts.load_expected(workload))
    for rep in traced:
        assert verdicts.project(workload, rep["report"]) == want
    first, second = (_count_metrics(tracer.layer_metrics(r["trace"])) for r in traced)
    assert first == second
    for name, value in REFERENCE_COUNTS[workload].items():
        assert first[name] == pytest.approx(value, rel=1e-12), name


def test_acceptance_radial_grid_counts():
    """On the acceptance grid of `bhverify all`, 40 of the 400 shots start
    with v > 0 and need no integration; the other 360 take 199,500 RHS
    evaluations."""
    sys.path.insert(0, str(run.SRC))
    t = tracer.Tracer()
    tracer.install(t)
    import bhverify.cli as cli
    _, ok = cli.run_radial([(5, 2.0), (6, 2.0), (6, 3.0), (8, 2.0)])
    metrics = tracer.layer_metrics(t.dump())
    assert ok
    assert metrics["radial.shoot.calls"] == 400
    assert metrics["radial.solve_ivp.calls"] == 360
    assert metrics["radial.rhs_evals"] == 199_500


def test_planted_wrong_verdict_is_counted(monkeypatch):
    expected = verdicts.load_expected("identities")
    planted = dict(expected, **{"identity.I3": dict(expected["identity.I3"],
                                                    status="residual")})
    monkeypatch.setattr(verdicts, "load_expected", lambda workload: planted)
    reps, metrics = run.end_to_end("identities", {}, 0)
    assert [r["failed_checks"] for r in reps] == [["identity.I3"]]
    assert metrics["passed_share"][0] == pytest.approx(1 - 1 / len(expected))


def test_float_tolerance_and_exact_fields():
    assert verdicts.matches(0.125, 0.125 * (1 + 1e-12))
    assert not verdicts.matches(0.125, 0.125 * (1 + 1e-6))
    assert not verdicts.matches(1, True)
    assert not verdicts.matches("positive", "negative")
    assert not verdicts.matches({"a": 1}, {"a": 1, "b": 2})


def test_crashed_run_owes_every_check(monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda spec: {"exit": 1, "cpu_s": 0.0,
                                                     "peak_rss_mb": 0.0})
    rep = run.run_once("certificates", {}, False)
    assert rep["failed"] == rep["attempted"] == len(verdicts.load_expected("certificates"))


def test_benchmark_json_names_every_emitted_metric():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = {k: unit for k, (_, unit, _) in tracer.LAYER_METRICS.items()}
    emitted.update({"proc.cpu_s": "s", "proc.trace_overhead_s": "s"})
    assert per_layer == emitted
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "passed_share"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "identities", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
