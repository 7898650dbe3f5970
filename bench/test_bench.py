"""Tests of the benchmark harness itself (fast; no workload is run)."""

import json
import os

from bench import inputs, kernels, spans, stats, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dump(items):
    return json.dumps(items, sort_keys=True).encode()


def test_generator_is_deterministic_per_seed():
    for make in inputs.WORKLOADS.values():
        assert _dump(make(5)) == _dump(make(5))
        assert _dump(make(5)) != _dump(make(6))


def test_generator_does_not_import_the_program():
    with open(inputs.__file__) as fh:
        source = fh.read()
    assert "import realforms" not in source
    assert "from realforms" not in source


def test_workloads_keep_their_shape_across_seeds():
    for seed in (0, 1, 99):
        cyc = inputs.qg_cyclic_dihedral(seed)
        poly = inputs.qg_polyhedral(seed)
        assert sorted((i["group"], i["degree"]) for i in cyc) == sorted(
            inputs.CYCLIC_DIHEDRAL_SHAPES)
        assert sum(i["text"] == inputs.ICOSAHEDRAL_TEXT for i in poly) == 1
        assert len({i["text"] for i in poly}) == len(poly)
        cmds = inputs.cli_cold(seed)
        bad = [c for c in cmds if c["expect"] == 2]
        assert len(bad) == 5 and 0.08 <= len(bad) / len(cmds) <= 0.12


def test_classification_inputs_are_valid_fibers():
    for seed in range(5):
        for item in (inputs.qg_cyclic_dihedral(seed)
                     + inputs.qg_polyhedral(seed)):
            p = inputs._text_form(item["text"].replace(" ", ""))
            assert inputs.is_valid_fiber(p), item


def test_multiplicities():
    square = inputs._pow(inputs._linear(1, 2), 2)
    assert inputs.multiplicities(square) == [2]
    assert not inputs.is_valid_fiber(square)
    assert inputs.multiplicities(inputs.KLEIN_T) == [1] * 6
    mixed = inputs._mul(inputs._pow(inputs._linear(1, 2), 3),
                        inputs._pow(inputs._linear(1, -1), 2))
    assert inputs.multiplicities(mixed) == [3, 2]
    assert inputs.multiplicities({(3, 1): 1}) == [3, 1]


def test_render_round_trips_through_the_classical_parser():
    p = {(4, 0): -3, (2, 2): 1, (0, 4): 12}
    assert inputs.render(p) == "-3*u0^4 + u0^2*u1^2 + 12*u1^4"
    assert inputs._text_form(inputs.render(p).replace(" ", "")) == p


def test_tail_percentile_rule():
    values = list(range(1, 51))
    assert stats.tail(values) == (40, 80.0, 50)
    assert stats.tail(list(range(11))) == (0, 100.0 / 11, 11)
    # below eleven samples no percentile has ten beyond it: the maximum
    assert stats.tail([3, 1, 2]) == (3, 100.0, 3)


def test_self_time_subtracts_covered_child_time():
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],        # overlaps a: union of children is 5
        ["c", 2.0, 3.0, 1],
        ["d", 9.0, 12.0, 0],       # sticks out of the parent: clipped
    ]
    assert stats.self_times(spans_) == [4.0, 2.0, 3.0, 1.0, 3.0]
    assert stats.union_length([(0, 1), (0.5, 2), (5, 6)], 0, 10) == 3


def test_tracer_records_nesting_and_values():
    tracer = spans.Tracer()

    def inner():
        return None

    def outer():
        return tracer.call("groups.semi_invariant", inner)

    tracer.call("quadrics.detect_symmetry", outer)
    assert [s[0] for s in tracer.spans] == [
        "quadrics.detect_symmetry", "groups.semi_invariant"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][5] == 0
    metrics = spans.layer_metrics(tracer, inputs=1)
    assert metrics["quadrics.candidates_tried"] == 1
    assert metrics["quadrics.candidates_matched"] == 0
    assert metrics["quadrics.detect_symmetry.calls_per_input"] == 1


def test_answer_checks():
    ans = {"symmetry": "Finite(E7)", "counts": [1, 1, 0],
           "forms": [["W1"], ["Y1"]]}
    assert workloads.check_answer("D4", ans) is None
    assert workloads.check_answer("A5", ans) is not None
    assert workloads.check_answer("Gm", ans) is not None
    assert workloads.check_answer("D4", ans, expected={}) is not None


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reported = set(spans.layer_metrics(spans.Tracer(), inputs=1))
    reported |= {"trace.overhead"}
    reported |= {"exact.mul_us.c%d" % n for n in kernels.CONDUCTORS}
    reported |= {"exact.inverse_us.c%d" % n for n in kernels.CONDUCTORS}
    reported |= {"exact.compose_ms.d%d" % d for d in kernels.DEGREES}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
