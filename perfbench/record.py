"""Re-record ``reference.json``: the outcome digest of every workload
that has its own reference, for each recorded seed.

    python3 perfbench/record.py

Run it only when a change is meant to alter what the simulation
decides, and say so: every later run is checked against these digests.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = sorted({*range(21), workloads.DEFAULT_SEED,
                workloads.HELD_OUT_SEED})


def main() -> None:
    digests = {}
    for name in workloads.WORKLOADS:
        if name in workloads.REFERENCE_OF:
            continue
        workload = workloads.make(name)
        digests[name] = {}
        for seed in SEEDS:
            rep = run.measure(workload, seed, 0, 1)[0]
            if rep.outcome.problems:
                raise SystemExit(f"{name} seed {seed}: "
                                 f"{rep.outcome.problems}")
            digests[name][str(seed)] = rep.outcome.digest
            print(name, seed, rep.outcome.digest, flush=True)
    with open(run.REFERENCE, "w") as f:
        json.dump({"digests": digests}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
