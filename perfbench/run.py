"""bhverify benchmark: cold-process workloads with a verdict gate.

    python3 perfbench/run.py --workload identities|certificates|oracles \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every repetition is a fresh interpreter (``workload.py``), so the
program's caches start cold, as on every CLI run.  With ``--trace 0`` the
benchmark repeats the workload until ``--seconds`` have passed and reports
medians of the end-to-end metrics, with wall times scaled to the reference
machine speed (see ``REFERENCE_JOB_S``).  With ``--trace 1`` it runs the
workload once untraced and once traced, and reports the per-layer metrics.  Every
repetition's verdicts are checked against ``expected/``.

Stdout carries one JSON line per repetition, an environment line, and, last,
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracer
import verdicts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("identities", "certificates", "oracles")
SETUP_SAMPLES = 5        # set-up is sampled at least this often per run
CHILD_TIMEOUT_S = 150.0
# Seconds that reference_job takes on the reference box (2-core x86_64,
# Python 3.11.7) when the machine is quiet.  wall_s is reported at that
# speed: each repetition's wall time is scaled by this over the reference-job
# time measured right before and after it, which takes out much of the
# speed swings of a shared machine.
REFERENCE_JOB_S = 0.09


def make_inputs(workload: str, seed: int) -> dict:
    """The program's inputs for a workload, generated from the seed.

    ``identities`` and ``certificates`` run inputs fixed by the paper.
    ``oracles`` draws the jet seed and the radial cells: 10 ``u0`` values
    log-uniform in [0.1, 10] times 10 ``v0`` values uniform in [-10, 0].
    """
    if workload != "oracles":
        return {}
    rng = random.Random(seed)
    return {
        "oracle_seed": rng.randrange(2**31),
        "u0": [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(10)],
        "v0": [rng.uniform(-10.0, 0.0) for _ in range(10)],
    }


def reference_job() -> float:
    """Seconds for a fixed pure-Python job: exact rational arithmetic and
    dict work, the kind of work sympy's pure-Python polynomials do.  The
    garbage collector is off, so the state of the heap does not enter the
    time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 3000):
            acc += Fraction(1, k * k + 1)
        table = {}
        for i in range(100_000):
            table[(i % 1000, i % 7)] = str(i)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def spawn(spec: dict) -> dict:
    """Run workload.py once in a fresh interpreter.

    Returns its JSON output plus the set-up time, exit status, the child's
    own resource usage (peak RSS, user + system CPU), and the machine speed
    around it relative to the reference box.
    """
    ref = [reference_job(), reference_job()]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryFile(dir=ROOT) as out:
        spec = dict(spec, t_spawn=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), json.dumps(spec)],
            stdout=out, stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        deadline = spec["t_spawn"] + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        raw = out.read()
    result = {"exit": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0:
        body = json.loads(raw)
        result.update(body)
        result["setup_s"] = body["t_imported"] - spec["t_spawn"]
    ref += [reference_job(), reference_job()]
    result["speed"] = REFERENCE_JOB_S / statistics.median(ref)
    return result


def run_once(workload: str, inputs: dict, trace: bool) -> dict:
    """One repetition: spawn, then gate its verdicts."""
    rep = spawn({"workload": workload, "inputs": inputs, "trace": trace})
    expected = verdicts.load_expected(workload)
    rep["attempted"] = len(expected)
    if rep["exit"] != 0 or not Path(rep.get("bhverify_file", "/")).is_relative_to(SRC):
        rep["failed_checks"] = list(expected)   # a crashed run owes every check
    else:
        rep["failed_checks"] = verdicts.compare(
            verdicts.project(workload, rep.pop("report")), expected)
    rep["failed"] = len(rep["failed_checks"])
    summary = {k: rep.get(k) for k in ("exit", "wall_s", "setup_s", "speed",
                                       "peak_rss_mb", "cpu_s", "attempted", "failed")}
    summary["trace"] = trace
    summary["failed_checks"] = rep["failed_checks"][:10]
    print(json.dumps(summary), flush=True)
    return rep


def end_to_end(workload: str, inputs: dict, seconds: float) -> tuple[list, dict]:
    start = time.monotonic()
    reps = []
    while not reps or time.monotonic() - start < seconds:
        reps.append(run_once(workload, inputs, False))
    ok = [r for r in reps if r["exit"] == 0]
    setup = [r["setup_s"] for r in ok]
    while ok and len(setup) < SETUP_SAMPLES:
        probe = spawn({"workload": workload, "setup_only": True})
        if probe["exit"] == 0:
            setup.append(probe["setup_s"])
        else:
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {"passed_share": ((attempted - failed) / attempted, "ratio")}
    if ok:
        metrics.update(
            wall_s=(statistics.median(r["wall_s"] * r["speed"] for r in ok), "s"),
            setup_s=(statistics.median(setup), "s"),
            peak_rss_mb=(statistics.median(r["peak_rss_mb"] for r in ok), "MB"))
    return reps, metrics


def per_layer(workload: str, inputs: dict) -> tuple[list, dict]:
    plain = run_once(workload, inputs, False)
    traced = run_once(workload, inputs, True)
    reps = [plain, traced]
    if plain["exit"] != 0 or traced["exit"] != 0:
        return reps, {}
    units = {name: unit for name, (_, unit, _) in tracer.LAYER_METRICS.items()}
    metrics = {name: (value, units[name])
               for name, value in tracer.layer_metrics(traced["trace"]).items()}
    metrics["proc.cpu_s"] = (plain["cpu_s"], "s")
    metrics["proc.trace_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return reps, metrics


def environment() -> dict:
    """Versions and thread settings that make results comparable."""
    import ctypes
    import platform

    import numpy
    import scipy
    import sympy

    blas_threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bhverify" / "__init__.py").is_file():
        print(f"error: no bhverify sources under {SRC}", file=sys.stderr)
        return 2
    # build: byte-compile the sources once, so no repetition pays for it
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the bhverify sources do not compile", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    reference_job()     # warm-up: the first call also pays for allocation
    if args.trace:
        reps, metrics = per_layer(args.workload, inputs)
    else:
        reps, metrics = end_to_end(args.workload, inputs, args.seconds)
    print(json.dumps({"environment": environment()}), flush=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({
        "correct": failed == 0 and all(r["exit"] == 0 for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
