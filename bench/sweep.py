"""Repeated benchmark runs: spreads across seeds, and the baseline record.

    python3 bench/sweep.py --seeds 1-10 [--workloads a,b] [--traced] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time,
and reports for every end-to-end metric the median, the quartiles and
the spread (interquartile distance over the median) next to the
metric's bound in ``BENCHMARK.json``.  With ``--traced`` it also makes
two traced runs per workload on the first seed and checks that every
count repeats exactly.  ``--out`` writes the whole summary as JSON.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench import stats  # noqa: E402

RUN_TIMEOUT = 900
COUNT_UNITS = ("count", "calls/input")


def run(workload, seed, seconds, traced):
    argv = [sys.executable, os.path.join("bench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(argv), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, mid, q3 = stats.quartiles(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": stats.relative_spread(values), "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    summary = {"python": platform.python_version(),
               "machine": platform.machine(), "cpus": os.cpu_count(),
               "run_seconds": spec["run_seconds"], "seeds": seeds,
               "end_to_end": {}, "per_layer": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, spec["run_seconds"], False)
                for seed in seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print("%s: a run reported wrong answers" % workload)
        rows = summary["end_to_end"][workload] = {}
        for name in bounds:
            rows[name] = summarize([r["metrics"][name]["value"]
                                    for r in runs])
            row = rows[name]
            print("%-20s %-12s median %-10.5g q1 %-10.5g q3 %-10.5g "
                  "spread %.4f  bound %.2f%s"
                  % (workload, name, row["median"], row["q1"], row["q3"],
                     row["spread"], bounds[name],
                     "" if row["spread"] < bounds[name] / 3
                     else "  (above a third of the bound)"))
        if not args.traced:
            continue
        first, second = (run(workload, seeds[0], spec["run_seconds"], True)
                         for _ in range(2))
        repeats = all(first["metrics"][k]["value"]
                      == second["metrics"][k]["value"]
                      for k in units if units[k] in COUNT_UNITS)
        summary["per_layer"][workload] = {
            "seed": seeds[0], "counts_repeat": repeats,
            "metrics": {k: [first["metrics"][k]["value"],
                            second["metrics"][k]["value"]] for k in units}}
        print("%-20s traced: counts repeat %s, overhead %.3f / %.3f"
              % (workload, repeats, first["metrics"]["trace.overhead"]["value"],
                 second["metrics"]["trace.overhead"]["value"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
