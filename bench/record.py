"""Record reference answers for the default and the held-out seed.

    python3 bench/record.py

Runs one untimed pass of every workload and writes
``bench/reference/seed-<n>.json``.  Run it only on a commit whose
answers are trusted: later runs on these seeds must reproduce them
exactly (exit codes and classification answers; lookup output is only
checked for determinism).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_SEEDS = (0, 2718)


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from bench import workloads
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for seed in REFERENCE_SEEDS:
        out = {name: workloads.reference_answers(name, seed)
               for name in ("qg-cyclic-dihedral", "qg-polyhedral",
                            "cli-cold")}
        path = os.path.join(workloads.REFERENCE_DIR, "seed-%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
