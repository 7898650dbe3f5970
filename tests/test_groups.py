"""Finite subgroups of PGL2 and their twisted-conjugacy classes."""

import time

import pytest

from realforms.exact import Cyclo, Mat2
from realforms.groups import (CLOSURE_BOUND, GroupSpec, catalog, close,
                              cocycles, group_elements, h1_classes, h1_named,
                              h1_names, rotation_gen, twisted_class_of,
                              unimodular_lift)

ALL_GROUPS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
              "D2", "D3", "D4", "D5", "D6", "D7", "D8",
              "E6", "E7", "E8")


def test_spec_parsing():
    spec = GroupSpec.parse("D4")
    assert spec.kind == "D" and spec.l == 4
    assert spec.name == "D4"
    assert GroupSpec.parse("E7").order() == 24
    with pytest.raises(ValueError):
        GroupSpec.parse("Q5")
    with pytest.raises(ValueError):
        GroupSpec.parse("E9")
    with pytest.raises(ValueError):
        GroupSpec.parse("D1")


@pytest.mark.parametrize("name,order", [
    ("A1", 1), ("A5", 5), ("A8", 8),
    ("D2", 4), ("D3", 6), ("D8", 16),
    ("E6", 12), ("E7", 24), ("E8", 60),
])
def test_closure_orders(name, order):
    grp = catalog(GroupSpec.parse(name))
    assert grp.order == order


def test_spec_parsing_refuses_orders_past_the_closure_bound():
    assert CLOSURE_BOUND == 256
    assert GroupSpec.parse("A256").order() == GroupSpec.parse("D128").order() \
        == CLOSURE_BOUND
    for name in ("A257", "D129", "A100000"):
        with pytest.raises(ValueError, match="past the closure bound"):
            GroupSpec.parse(name)
    # a symmetry label is never closed, so the constructor stays unbounded
    assert GroupSpec("D", 260).order() == 520


def test_closure_rejects_infinite_input():
    # a non-torsion diagonal matrix never closes
    with pytest.raises(RuntimeError):
        close([Mat2.diag(2, 1)], bound=200)


def test_closure_rejects_singular_generator():
    with pytest.raises(ValueError):
        close([Mat2(1, 1, 1, 1)])


def test_elements_are_normalized_and_stable():
    grp = catalog(GroupSpec.parse("D4"))
    assert grp.is_galois_stable()
    for m in grp.elements:
        assert m.normalized() == m
    assert Mat2.identity() in grp
    assert rotation_gen(4) in grp


def test_group_closed_under_multiplication():
    grp = catalog(GroupSpec.parse("E6"))
    elements = set(grp.elements)
    for x in list(elements)[:6]:
        for y in list(elements)[:6]:
            assert (x * y).normalized() in elements


# ----------------------------------------------------------------------
# H^1 classes


# name lists in table order, frozen from the closed-form rule
H1_TABLE = {
    "A1": ["I2"], "A2": ["I2", "omega4"], "A3": ["I2"],
    "A4": ["I2", "omega8"], "A5": ["I2"], "A6": ["I2", "omega12"],
    "A7": ["I2"], "A8": ["I2", "omega16"],
    "D2": ["I2", "omega4", "f", "h"], "D3": ["I2", "f"],
    "D4": ["I2", "omega8", "f", "h"], "D5": ["I2", "f"],
    "D6": ["I2", "omega12", "f", "h"], "D7": ["I2", "f"],
    "D8": ["I2", "omega16", "f", "h"],
    "E6": ["I2", "h"], "E7": ["I2", "omega8", "h"], "E8": ["I2", "h"],
}


def test_h1_full_table_and_speed():
    start = time.time()
    for name in ALL_GROUPS:
        named = h1_named(GroupSpec.parse(name))
        assert [n for n, _ in named] == H1_TABLE[name], name
    assert time.time() - start < 5.0


def test_h1_names_agree_with_computation():
    for name in ALL_GROUPS:
        spec = GroupSpec.parse(name)
        assert len(h1_names(spec)) == len(h1_classes(catalog(spec)))


def test_identity_class_rep_is_identity():
    for name in ("A4", "D3", "E7"):
        named = h1_named(GroupSpec.parse(name))
        assert named[0][0] == "I2"
        assert named[0][1] == Mat2.identity()


def test_classes_partition_cocycles():
    grp = catalog(GroupSpec.parse("D4"))
    reps = h1_classes(grp)
    all_cocycles = set(cocycles(grp))
    seen = set()
    for rep in reps:
        orbit = twisted_class_of(grp, rep)
        assert orbit <= all_cocycles
        assert not (orbit & seen), "twisted classes overlap"
        seen |= orbit
    assert seen == all_cocycles


def test_class_reps_are_pairwise_inequivalent():
    grp = catalog(GroupSpec.parse("D6"))
    reps = h1_classes(grp)
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert b not in twisted_class_of(grp, a)


def test_h_class_has_quaternionic_lift():
    # the class named h is detected by u * conj(u) == -1 for a det-1 lift
    minus = Mat2(-1, 0, 0, -1)
    for name in ("D2", "D4", "E6", "E7", "E8"):
        named = dict(h1_named(GroupSpec.parse(name)))
        lift = unimodular_lift(named["h"])
        assert lift is not None
        assert lift * lift.conj() == minus


def test_non_h_classes_have_positive_lift_norm():
    named = dict(h1_named(GroupSpec.parse("D4")))
    minus = Mat2(-1, 0, 0, -1)
    for name, rep in named.items():
        if name == "h":
            continue
        lift = unimodular_lift(rep)
        if lift is not None:
            assert lift * lift.conj() != minus, name


def test_unimodular_lift():
    m = Mat2.diag(Cyclo.zeta(4), Cyclo.zeta(4) ** -1)
    lift = unimodular_lift(m)
    assert lift is not None
    assert lift.det() == 1
    assert lift.normalized() == m.normalized()
