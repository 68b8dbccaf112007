"""Write references.json: frozen data-profile reference values for hs-mw.

Each reference is the best certified value one baseline pass of the hs-mw
campaign reached on that problem.  Run once, from the root of a checkout, at
the commit that defines the baseline:

    python3 perfbench/freeze_references.py

The file is then committed and never rewritten by the benchmark itself, so a
later change that finds lower values still counts as solving.
"""

import json
import os
import sys

import run  # pins the BLAS threads before numpy is imported

WORKLOAD = "hs-mw"


def main():
    sys.path.insert(0, run.SRC)
    import campaign
    import workloads

    workload = workloads.build(WORKLOAD)
    oracles = [[c.fn for c in p.components] for p in workload.problems]
    result = campaign.run_pass(workload, oracles, list(range(len(workload.ids))),
                               score=False)
    if result.failures:
        sys.exit(f"baseline pass failed: {result.failures}")
    with open(workloads.REFERENCES_PATH, "w") as fh:
        json.dump({WORKLOAD: result.best_values}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result.best_values)} references to "
          f"{os.path.relpath(workloads.REFERENCES_PATH)}")


if __name__ == "__main__":
    main()
