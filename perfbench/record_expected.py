"""Write ``expected/<workload>.json`` from the program as it is now.

    python3 perfbench/record_expected.py [workload ...]

Run it only on a commit whose verdicts are trusted (the files in
``expected/`` were written at the reference commit named in README.md).  A
deliberate change of a verdict-bearing field is the only reason to
re-record, and it must be reviewed as such.
"""

import json
import sys

import run
import verdicts


def main(workloads):
    for workload in workloads or run.WORKLOADS:
        rep = run.spawn({"workload": workload, "trace": False,
                         "inputs": run.make_inputs(workload, 0)})
        if rep["exit"] != 0:
            sys.exit(f"{workload}: workload exited with {rep['exit']}")
        checks = verdicts.project(workload, rep["report"])
        path = verdicts.EXPECTED_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(checks, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(checks)} checks -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
