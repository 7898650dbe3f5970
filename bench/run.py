"""Benchmark entry point.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a traced pass reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program under test is
imported from ``src/`` of the checkout this file sits in; without it
the run exits with code 2 and prints no result.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("qg-cyclic-dihedral", "qg-polyhedral", "cli-cold")


def _fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "realforms", "__init__.py")):
        _fail("no realforms package under %s" % src)
    sys.path.insert(0, src)
    import realforms
    if not os.path.abspath(realforms.__file__).startswith(src + os.sep):
        _fail("realforms was imported from %s, not from the checkout"
              % realforms.__file__)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(workload, seed, seconds, traced):
    from bench import workloads
    if traced:
        attempted, failed, values, notes = workloads.trace(workload, seed)
        units = _declared("per_layer")
    else:
        attempted, failed, values, notes = workloads.measure(
            workload, seed, seconds)
        units = _declared("end_to_end")
    if set(values) != set(units):
        _fail("measured metrics %s do not match BENCHMARK.json %s"
              % (sorted(set(values) ^ set(units)), workload))
    for name in sorted(values):
        print("%s  %-44s %.6g %s" % (workload, name, values[name],
                                     units[name]))
    for key, value in notes.items():
        print("%s  note %-39s %s" % (workload, key, value))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in sorted(values)}
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, ROOT)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_one(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({"%s/%s" % (name, k): v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
