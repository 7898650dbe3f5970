"""Tracing from outside the package: spans and counters at layer boundaries.

``install`` wraps the public functions of each ``realforms`` layer.  A
module that bound a function with ``from ... import`` looks it up in
its own namespace, so every ``realforms`` module attribute that *is*
the original function gets the wrapper, not only the defining module's.
Cyclotomic field operations are counted (split by result conductor)
but get no spans: there are far too many of them.

Spans stay in memory as lists ``[name, start, end, parent, input, value]``
and are written out by the caller when the run ends.
"""

import sys
from collections import Counter
from time import perf_counter

from .stats import median, self_times

# (span name, defining module, attribute)
FUNCTIONS = (
    ("parsing.parse_poly", "realforms.parsing", "parse_poly"),
    ("exact.root_multiplicities", "realforms.exact", "root_multiplicities"),
    ("groups.close", "realforms.groups", "close"),
    ("groups.semi_invariant", "realforms.groups",
     "semi_invariant_character"),
    ("groups.h1_classes", "realforms.groups", "h1_classes"),
    ("groups.h1_named", "realforms.groups", "h1_named"),
    ("quadrics.detect_symmetry", "realforms.quadrics", "detect_symmetry"),
    ("quadrics.enumerate_forms", "realforms.quadrics", "enumerate_forms"),
    ("quadrics.check_real_structure", "realforms.quadrics",
     "check_real_structure"),
    ("registry.validate_all", "realforms.registry", "validate_all"),
    ("registry.forms_of", "realforms.registry", "forms_of"),
    ("registry.links_from", "realforms.registry", "links_from"),
    ("registry.load", "realforms.registry", "_load"),
    ("lattices.model", "realforms.lattices", "model"),
    ("schwarzenberger.verify_gluing", "realforms.schwarzenberger",
     "verify_gluing"),
)
METHODS = (
    ("exact.poly2_compose", "realforms.exact", "Poly2", "compose"),
)
# what a span records as its value, from the wrapped call's result
VALUES = {
    "groups.close": lambda group: group.order,
    "groups.semi_invariant": lambda chars: int(chars is not None),
}
CYCLO_OPS = (("cyclo_new", "__init__"), ("cyclo_mul", "__mul__"),
             ("cyclo_inverse", "inverse"))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.input = None
        self.cyclo = {name: Counter() for name, _ in CYCLO_OPS}

    def call(self, name, fn, *args, **kwargs):
        rec = [name, perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.input, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
        value = VALUES.get(name)
        if value is not None:
            rec[5] = value(result)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def dump(self):
        return {"spans": self.spans,
                "cyclo": {k: dict(v) for k, v in self.cyclo.items()}}

    def merge(self, dump, input_id):
        """Append a child process's spans and counters to this trace."""
        offset = len(self.spans)
        for name, start, end, parent, _, value in dump["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1,
                               input_id, value])
        for op, counts in dump["cyclo"].items():
            self.cyclo[op].update({int(n): c for n, c in counts.items()})


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "realforms"
                                  or name.startswith("realforms."))]


def install(tracer):
    """Wrap every traced entry point; returns a callable that undoes it."""
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = _package_modules()
    for name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replace(module, key, wrapper)
    for name, module_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        replace(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    cyclo = sys.modules["realforms.exact"].Cyclo
    for op, attr in CYCLO_OPS:
        original = getattr(cyclo, attr)
        counter = tracer.cyclo[op]
        wrapper = _counting_init(original, counter) if attr == "__init__" \
            else _counting_op(original, counter)
        # __rmul__ is the same function as __mul__: patch every alias
        for key, value in list(vars(cyclo).items()):
            if value is original:
                replace(cyclo, key, wrapper)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


def _counting_init(original, counter):
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        counter[self.n] += 1
    return __init__


def _counting_op(original, counter):
    def op(self, *args):
        result = original(self, *args)
        counter[result.n] += 1
        return result
    return op


# ----------------------------------------------------------------------
# per-layer metrics

CONDUCTOR_BUCKETS = (("n1", 1, 1), ("n2-12", 2, 12), ("n13-60", 13, 60),
                     ("n61-up", 61, None))

SELF_TIMES = (
    "exact.poly2_compose", "exact.root_multiplicities", "groups.close",
    "groups.semi_invariant", "groups.h1_classes", "groups.h1_named",
    "quadrics.detect_symmetry", "quadrics.enumerate_forms",
    "quadrics.check_real_structure", "registry.validate_all",
    "registry.forms_of", "registry.links_from", "lattices.model",
    "schwarzenberger.verify_gluing", "parsing.parse_poly", "cli.command",
)


def layer_metrics(tracer, inputs, import_times=(), first_loads=()):
    """Per-layer metrics of one traced pass over ``inputs`` inputs.

    Self times are totals over the pass in seconds; ``cli.import_s`` and
    ``registry.first_load_s`` are medians over the processes that paid
    them (zero when no process did).
    """
    spans = tracer.spans
    own = self_times(spans)
    out = {}
    for op, counts in tracer.cyclo.items():
        out["exact.%s.count" % op] = sum(counts.values())
        for label, lo, hi in CONDUCTOR_BUCKETS:
            out["exact.%s.%s" % (op, label)] = sum(
                c for n, c in counts.items()
                if n >= lo and (hi is None or n <= hi))
    for name in SELF_TIMES:
        out[name + ".self_s"] = sum(t for s, t in zip(spans, own)
                                    if s[0] == name)

    def calls(name, parent=None):
        return [s for s in spans if s[0] == name
                and (parent is None
                     or (s[3] >= 0 and spans[s[3]][0] == parent))]

    out["exact.poly2_compose.count"] = len(calls("exact.poly2_compose"))
    closes = calls("groups.close")
    out["groups.close.calls"] = len(closes)
    out["groups.close.elements"] = sum(s[5] for s in closes)
    semi = calls("groups.semi_invariant")
    out["groups.semi_invariant.calls"] = len(semi)
    out["groups.semi_invariant.hit_ratio"] = (
        sum(s[5] for s in semi) / len(semi) if semi else 0.0)
    out["groups.semi_invariant.compose_calls"] = len(
        calls("exact.poly2_compose", parent="groups.semi_invariant"))
    out["quadrics.detect_symmetry.calls_per_input"] = (
        len(calls("quadrics.detect_symmetry")) / inputs)
    tried = calls("groups.semi_invariant", parent="quadrics.detect_symmetry")
    out["quadrics.candidates_tried"] = len(tried)
    out["quadrics.candidates_matched"] = sum(s[5] for s in tried)
    out["cli.import_s"] = median(import_times) if import_times else 0.0
    out["registry.first_load_s"] = median(first_loads) if first_loads else 0.0
    return out


def first_load(spans):
    """Duration of the first registry read among a process's spans."""
    for name, start, end, *_ in spans:
        if name == "registry.load":
            return end - start
    return None
