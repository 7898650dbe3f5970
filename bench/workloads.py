"""Running the workloads, checking their answers, and timing them.

The two ``qg-*`` workloads classify their inputs in this process, with a
warm catalog: ``parse_poly`` -> ``QgInstance`` -> ``detect_symmetry`` ->
``enumerate_forms``.  ``cli-cold`` runs each command in a fresh
``python -m realforms.cli`` child, one after another.

A *pass* is one run over the workload's whole input list.  Passes repeat
while the next one is expected to end within the time budget; at least
one pass always runs.  An input's time is its best over the passes, so
the number of samples (and the tail percentile) is fixed by the input
list, not by how fast the code is.
"""

import json
import os
import re
import resource
import shutil
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from . import inputs, kernels, spans, stats
from .speed import Meter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
LAUNCHER = os.path.join(ROOT, "bench", "launcher.py")

SETUP_RUNS = 6  # before and again after the timed passes
SETUP_CODE = ("import realforms; from realforms import registry; "
              "registry.registry_version()")
CHILD_TIMEOUT = 120


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ----------------------------------------------------------------------
# answers


def group_order(name):
    if name[0] in "AD" and name[1:].isdigit():
        return int(name[1:]) * (1 if name[0] == "A" else 2)
    return {"E6": 12, "E7": 24, "E8": 60}[name]


TORUS_LABELS = {"Gm": "Gm", "GmZ2": "GmSemidirectZ2"}


def answer(report, symmetry):
    """The comparable part of a classification, from its JSON form."""
    counts = report["counts"]
    return {
        "symmetry": symmetry,
        "counts": [counts["rational"], counts["unknown"],
                   counts["no_real_points"]],
        "forms": [[f["form"], f["over_class"], f["status"],
                   f.get("equation")] for f in report["forms"]],
    }


def check_answer(group, ans, expected=None):
    """None if the answer is right, else what is wrong with it.

    On a seed with recorded reference answers the whole answer must
    match; on any seed the detected group must contain the generating
    group, or a torus form must be detected as that torus.
    """
    if expected is not None and ans != expected:
        return "answer differs from the recorded reference"
    if sum(ans["counts"]) != len(ans["forms"]):
        return "counts do not add up to the listed forms"
    symmetry = ans["symmetry"]
    if group in TORUS_LABELS:
        if symmetry != TORUS_LABELS[group]:
            return "torus form detected as %s" % symmetry
        return None
    match = re.fullmatch(r"Finite\((\w+)\)", symmetry)
    if not match:
        return "generated by %s, detected as %s" % (group, symmetry)
    if group_order(match.group(1)) % group_order(group):
        return "generated by %s, detected as %s" % (group, symmetry)
    return None


def load_reference(workload, seed):
    path = os.path.join(REFERENCE_DIR, "seed-%d.json" % seed)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)[workload]


def cli_key(args):
    return json.dumps(args)


# ----------------------------------------------------------------------
# one pass


def classify(text):
    from realforms import parsing, quadrics
    g = parsing.parse_poly(text)
    instance = quadrics.QgInstance(g)
    label = quadrics.detect_symmetry(instance)
    report = quadrics.enumerate_forms(instance)
    return answer(report.as_dict(), label.name)


class Pass:
    """Times and failures of one pass over a workload's inputs.

    ``times`` are seconds at the reference speed (see ``speed``),
    ``raw`` the wall-clock seconds; ``wall`` is the pass's wall clock.
    """

    def __init__(self):
        self.wall = 0.0
        self.times = {}
        self.raw = {}
        self.failures = {}
        self.answers = {}

    def record(self, key, reading):
        self.times[key] = reading.seconds
        self.raw[key] = reading.raw


def qg_pass(items, reference, tracer=None):
    result = Pass()
    meter = Meter(in_children=False)
    start = perf_counter()
    for item in items:
        try:
            with meter.interval() as reading:
                if tracer is None:
                    ans = classify(item["text"])
                else:
                    tracer.input = item["id"]
                    ans = tracer.call("input", classify, item["text"])
        except Exception as exc:  # a failed input is counted, not fatal
            result.record(item["id"], reading)
            result.failures[item["id"]] = "%s: %s" % (type(exc).__name__, exc)
            continue
        result.record(item["id"], reading)
        expected = reference.get(item["text"]) if reference else None
        problem = check_answer(item["group"], ans, expected)
        if problem:
            result.failures[item["id"]] = problem
        result.answers[item["text"]] = ans
    result.wall = perf_counter() - start
    return result


def run_command(args, trace_path=None):
    if trace_path is None:
        argv = [sys.executable, "-m", "realforms.cli"] + args
    else:
        argv = [sys.executable, LAUNCHER, trace_path] + args
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT)
    return proc.returncode, proc.stdout


def check_command(cmd, code, stdout, recorded, seen):
    """(problem or None, classification answer or None) for one command."""
    if code != cmd["expect"]:
        return "exit code %d, expected %d" % (code, cmd["expect"]), None
    if recorded is not None and recorded["exit"] != code:
        return "exit code differs from the recorded reference", None
    key = cli_key(cmd["args"])
    if seen.setdefault(key, stdout) != stdout:
        return "repeated invocation printed different output", None
    if code != 0:
        return None, None
    try:
        data = json.loads(stdout)
    except ValueError:
        return "output is not JSON", None
    if cmd["kind"] != "classify-qg":
        return None, None
    ans = answer(data, data["symmetry_detected"])
    expected = recorded["answer"] if recorded is not None else None
    return check_answer(cmd["group"], ans, expected), ans


def cli_pass(cmds, reference, seen, tracer=None, import_times=None,
             first_loads=None):
    result = Pass()
    meter = Meter(in_children=True)
    start = perf_counter()
    for cmd in cmds:
        trace_path = None
        if tracer is not None:
            trace_path = os.path.join(SCRATCH, "cmd-%s.json" % cmd["id"])
        try:
            with meter.interval() as reading:
                code, stdout = run_command(cmd["args"], trace_path)
        except subprocess.TimeoutExpired:
            result.record(cmd["id"], reading)
            result.failures[cmd["id"]] = "timed out"
            continue
        result.record(cmd["id"], reading)
        if trace_path is not None:
            with open(trace_path) as fh:
                dump = json.load(fh)
            os.remove(trace_path)
            tracer.merge(dump, cmd["id"])
            import_times.append(dump["import_s"])
            load = spans.first_load(dump["spans"])
            if load is not None:
                first_loads.append(load)
        key = cli_key(cmd["args"])
        problem, ans = check_command(
            cmd, code, stdout, reference[key] if reference else None, seen)
        if problem:
            result.failures[cmd["id"]] = problem
        result.answers[key] = {"exit": code, "answer": ans}
    result.wall = perf_counter() - start
    return result


# ----------------------------------------------------------------------
# workloads


class Workload:
    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.items = inputs.WORKLOADS[name](seed)
        self.reference = load_reference(name, seed)
        self.seen = {}
        self.is_cli = name == "cli-cold"

    def warm_up(self):
        """Close the catalog groups the scan needs, outside any timing."""
        if self.is_cli:
            return Pass()
        warm = inputs.warmup_forms(item["degree"] for item in self.items)
        return qg_pass(warm, None)

    def run_pass(self, tracer=None, import_times=None, first_loads=None):
        if self.is_cli:
            return cli_pass(self.items, self.reference, self.seen, tracer,
                            import_times, first_loads)
        return qg_pass(self.items, self.reference, tracer)


def setup_times():
    """Times from a fresh interpreter to ``import realforms`` plus the
    first registry read."""
    meter = Meter(in_children=True)
    readings = []
    for _ in range(SETUP_RUNS):
        with meter.interval() as reading:
            subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                           env=child_env(), check=True, capture_output=True,
                           timeout=CHILD_TIMEOUT)
        readings.append(reading)
    return readings


def peak_rss_mb(with_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _tally(passes, warm):
    attempted = sum(len(p.times) for p in passes) + len(warm.times)
    failures = {}
    for p in [warm] + passes:
        failures.update(p.failures)
    failed = sum(len(p.failures) for p in passes) + len(warm.failures)
    return attempted, failed, failures


def measure(name, seed, seconds):
    """The untraced run: end-to-end metrics.

    Each input's time is its best over the passes; ``wall_s`` is their
    sum, the time one pass over the whole input list takes.  All times
    are seconds at the reference speed; the notes give the raw ones.
    """
    setup = setup_times()
    wl = Workload(name, seed)
    warm = wl.warm_up()
    passes = []
    start = perf_counter()
    while True:
        passes.append(wl.run_pass())
        walls = [p.wall for p in passes]
        if perf_counter() - start + stats.median(walls) > seconds:
            break
    per_item = defaultdict(list)
    for p in passes:
        for key, t in p.times.items():
            per_item[key].append(t)
    item_times = [min(ts) for ts in per_item.values()]
    tail, percentile, count = stats.tail(item_times)
    setup += setup_times()
    attempted, failed, failures = _tally(passes, warm)
    metrics = {
        "setup_s": stats.median([r.seconds for r in setup]),
        "wall_s": sum(item_times),
        "item_p50_s": stats.median(item_times),
        "item_tail_s": tail,
        "peak_rss_mb": peak_rss_mb(wl.is_cli),
    }
    notes = {
        "passes": len(passes),
        "pass_walls_raw_s": walls,
        "wall_s_raw": sum(min(p.raw[k] for p in passes) for k in per_item),
        "setup_s_raw": stats.median([r.raw for r in setup]),
        "setup_speed_factor": stats.median([r.factor for r in setup]),
        "item_tail_percentile": percentile,
        "item_samples": count,
        "failed_frac": failed / attempted,
        "failures": failures,
    }
    return attempted, failed, metrics, notes


def trace(name, seed):
    """The traced run: per-layer metrics, from one traced pass after one
    untraced pass of the same inputs (whose ratio is the overhead)."""
    wl = Workload(name, seed)
    warm = wl.warm_up()
    plain = wl.run_pass()
    tracer = spans.Tracer()
    import_times, first_loads = [], []
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        if wl.is_cli:
            traced = wl.run_pass(tracer, import_times, first_loads)
        else:
            uninstall = spans.install(tracer)
            try:
                traced = wl.run_pass(tracer)
            finally:
                uninstall()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    metrics = spans.layer_metrics(tracer, len(wl.items), import_times,
                                  first_loads)
    metrics["trace.overhead"] = (sum(traced.times.values())
                                 / sum(plain.times.values()))
    metrics.update(kernels.rows(seed))
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "metrics": metrics,
                   **tracer.dump()}, fh)
    attempted, failed, failures = _tally([plain, traced], warm)
    notes = {"trace_file": os.path.relpath(path, ROOT),
             "failed_frac": failed / attempted, "failures": failures}
    return attempted, failed, metrics, notes


def reference_answers(name, seed):
    """One untimed pass, for recording reference answers."""
    wl = Workload(name, seed)
    wl.reference = None
    result = wl.run_pass()
    if result.failures:
        raise RuntimeError("%s seed %d failed: %s"
                           % (name, seed, result.failures))
    return result.answers
