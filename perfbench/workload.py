"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/workload.py '<json spec>'

The spec holds the workload name, its generated inputs, the parent's
``time.monotonic()`` just before it started this process, and whether to
trace.  The process imports the workload's bhverify modules (the end of
set-up), runs the CLI section runners the workload names, renders the JSON
report, and writes one JSON object to stdout: the set-up end time, the wall
time from the first call into bhverify to the rendered report, the report
text, and the trace when tracing.  The program's ``lru_cache`` catalogs are
cold here, as on every CLI run, and stay inside the timed region.
"""

import importlib
import json
import sys
import time

WORKLOAD_MODULES = {
    "identities": ("bhverify.cli",),
    "certificates": ("bhverify.cli",),
    "oracles": ("bhverify.cli", "bhverify.jetoracle", "bhverify.radial"),
}

# the acceptance radial configurations of `bhverify all`
RADIAL_CONFIGS = [(5, 2.0), (6, 2.0), (6, 3.0), (8, 2.0)]


def run_identities(cli, inputs, sections, statuses):
    sections["identities"], statuses["identities"] = cli.run_verify()
    sections["combination"], statuses["combination"] = cli.run_combination()


def run_certificates(cli, inputs, sections, statuses):
    sections["params"], statuses["params"] = cli.run_params(100)
    sections["pd_scan"], statuses["pd_scan"] = cli.run_scan_pd(5, 100, 1000)


def run_oracles(cli, inputs, sections, statuses):
    import bhverify.radial as radial

    sections["oracle"], statuses["oracle"] = cli.run_oracle(inputs["oracle_seed"])
    # run_radial reads its cells from radial.default_grids; hand it the seeded
    # cells there, and refuse the run unless they were taken exactly once
    taken = []

    def seeded_grids(size):
        taken.append(size)
        return inputs["u0"], inputs["v0"]

    original = radial.default_grids
    radial.default_grids = seeded_grids
    try:
        sections["radial"], statuses["radial"] = cli.run_radial(RADIAL_CONFIGS)
    finally:
        radial.default_grids = original
    if taken != [10]:
        raise RuntimeError(f"radial cells were not injected (grid calls: {taken})")


RUNNERS = {"identities": run_identities, "certificates": run_certificates,
           "oracles": run_oracles}


def main():
    spec = json.loads(sys.argv[1])
    workload = spec["workload"]
    for name in WORKLOAD_MODULES[workload]:
        importlib.import_module(name)
    t_imported = time.monotonic()
    out = {"t_imported": t_imported}
    if spec.get("setup_only"):
        json.dump(out, sys.stdout)
        return

    import bhverify
    import bhverify.cli as cli

    out["bhverify_file"] = bhverify.__file__
    tracer = None
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    sections, statuses = {}, {}
    echo = {"command": f"bench-{workload}", "format": "json"}
    t0 = time.perf_counter()
    RUNNERS[workload](cli, spec["inputs"], sections, statuses)
    text = cli.render_json(cli.build_report(echo, sections, statuses))
    out["wall_s"] = time.perf_counter() - t0

    out["report"] = text
    if tracer is not None:
        out["trace"] = tracer.dump()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
