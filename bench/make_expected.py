"""Regenerate the committed case list in bench/expected/.

    python3 bench/make_expected.py

Run this only at a commit whose reports are known to be right: the list
is what later commits are checked against.
"""

import json
import os

import run
from workloads import make_inputs


def _cases(workload):
    out = run.Spawner(run.RUN_BUDGET_S)(make_inputs(workload, 0))
    for op in out["ops"]:
        if op["error"] is not None:
            raise SystemExit("%s raised %s" % (op["label"], op["error"]))
    return out["ops"]


def main():
    cases = _cases("verify_full")[0]["output"]["cases"]
    path = os.path.join(run.checks.EXPECTED_DIR, "verify_full.json")
    with open(path, "w") as fh:  # one case triple per line
        fh.write("[\n" + ",\n".join(json.dumps(t) for t in cases) + "\n]\n")


if __name__ == "__main__":
    main()
