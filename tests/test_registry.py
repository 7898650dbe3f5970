"""The curated registry and its certificates: structure parsing,
involution and witness checks, quadratic forms, real tori, links, and the
full validation sweep."""

from collections import Counter
from fractions import Fraction

import pytest

from realforms import registry
from realforms.certificates import (
    MonomialMap,
    fabc_ambient,
    flag_ambient,
    p3_ambient,
    parse_monomial_map,
    parse_polynomial,
    parse_structure,
    pb_ambient,
    real_locus_form,
    signature,
    torus_equivalent,
    verify_involution,
)
from realforms.exact import VerificationError
from realforms.lattices import FamilyId
from realforms.registry import torus_shape_of_involution, validate_all

EXCHANGE = "[conj(x0):conj(x1); conj(z0):conj(z1); conj(y0):conj(y1)]"
CIRCLE = "[conj(x1):conj(x0); conj(z0):conj(z1); conj(y0):conj(y1)]"


def _maps_weights(verdict, ambient, structure_text):
    structure = parse_structure(structure_text, ambient)
    grading = verdict["grading"]
    for i, source in enumerate(ambient.weights):
        target = ambient.weights[structure.perm[i]]
        image = tuple(sum(row[l] * source[l] for l in range(ambient.rank))
                      for row in grading)
        if image != target:
            return False
    return True


# ----------------------------------------------------------------------
# involutions


@pytest.mark.parametrize("b", range(1, 6))
def test_exchange_and_circle_structures_are_involutions(b):
    for text, ambient in ((EXCHANGE, fabc_ambient(0, b, -b)),
                          (CIRCLE, fabc_ambient(0, b, b))):
        verdict = verify_involution(text, ambient)
        assert verdict["ok"] is True
        assert verdict["ambient"] == ambient.name
        assert verdict["square_rescaling"] == ["1"] * 6
        assert verdict["equations_preserved"] == 0
        assert _maps_weights(verdict, ambient, text)


def test_exchange_verdict_in_full():
    assert verify_involution(EXCHANGE, fabc_ambient(0, 2, -2)) == {
        "ok": True,
        "ambient": "F_0^{2,-2}",
        "grading": [[1, 0, 0], [-2, 0, 1], [2, 1, 0]],
        "square_rescaling": ["1", "1", "1", "1", "1", "1"],
        "equations_preserved": 0,
    }


def test_flag_structures_preserve_the_incidence_equation():
    for descriptor in registry.forms_of(FamilyId.sb(1)):
        structure = parse_structure(descriptor.real_structure, flag_ambient())
        verdict = verify_involution(structure)
        assert verdict["equations_preserved"] == 1
        assert registry.validate_descriptor(descriptor) == {
            "name": descriptor.name,
            "checks": ["status-consistency", "involution"]}


def test_grading_violation_is_a_domain_error():
    swap = "[conj(z0):conj(y1); conj(y0):conj(z1):conj(z2)]"
    with pytest.raises(ValueError, match="grading violation"):
        verify_involution(swap, pb_ambient(1))


def test_square_outside_the_torus_fails_verification():
    with pytest.raises(VerificationError, match="outside"):
        verify_involution("[conj(w0):conj(w1):conj(w2):2*conj(w3)]",
                          p3_ambient())


def test_non_involutive_permutation_fails_verification():
    with pytest.raises(VerificationError, match="coordinate axes"):
        verify_involution("[conj(w1):conj(w2):conj(w0):conj(w3)]",
                          p3_ambient())


def test_string_structure_needs_an_ambient():
    with pytest.raises(ValueError):
        verify_involution(EXCHANGE)


# ----------------------------------------------------------------------
# quadratic forms


@pytest.mark.parametrize("matrix,expected", [
    ([[1, 0, 0], [0, -1, 0], [0, 0, 0]], (1, 1, 1)),
    ([[2, 0], [0, 3]], (2, 0, 0)),
    ([[0, 1], [1, 0]], (1, 1, 0)),
    ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], (1, 1, 1)),
    ([[1, 1], [1, 1]], (1, 0, 1)),
    ([[0, 0], [0, 0]], (0, 0, 2)),
])
def test_signature(matrix, expected):
    assert signature(matrix) == expected


def test_signature_rejects_bad_matrices():
    with pytest.raises(ValueError):
        signature([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        signature([[1, 0]])


def test_real_locus_form():
    ambient = p3_ambient()
    quadric = parse_polynomial("w0*w1 - w2*w3", ambient.coords)
    swap = parse_structure("[conj(w1):conj(w0):conj(w2):conj(w3)]", ambient)
    half = Fraction(-1, 2)
    form = real_locus_form(quadric, swap)
    assert form == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, half),
                    (0, 0, half, 0))
    assert signature(form) == (3, 1, 0)


def test_real_locus_form_rejects_bad_structures():
    ambient = p3_ambient()
    quadric = parse_polynomial("w0*w1 - w2*w3", ambient.coords)
    twisted = parse_structure("[-conj(w1):conj(w0):conj(w2):conj(w3)]",
                              ambient)
    with pytest.raises(ValueError, match="identity on coordinates"):
        real_locus_form(quadric, twisted)
    plane = parse_polynomial("t0*t1", ("t0", "t1"))
    identity = parse_structure("[conj(w0):conj(w1):conj(w2):conj(w3)]",
                               ambient)
    with pytest.raises(ValueError, match="different spaces"):
        real_locus_form(plane, identity)


# ----------------------------------------------------------------------
# torus equivalence of monomial maps


@pytest.mark.parametrize("text,expected", [
    ("[2*w0:2*w1:2*w2:2*w3]", True),       # a scalar is a torus element
    ("[w0*w1:w1^2:w1*w2:w1*w3]", True),    # a Laurent monomial factor
    ("[2*w0:w1:w2:w3]", False),
    ("[w0^2:w1:w2:w3]", False),
])
def test_torus_equivalent(text, expected):
    ambient = p3_ambient()
    moved = parse_monomial_map(text, ambient.coords)
    assert torus_equivalent(ambient, moved, MonomialMap.identity(4)) \
        is expected


def test_torus_equivalent_rejects_mismatched_maps():
    ambient = p3_ambient()
    with pytest.raises(ValueError):
        torus_equivalent(ambient, MonomialMap.identity(3),
                         MonomialMap.identity(4))


# ----------------------------------------------------------------------
# real tori


@pytest.mark.parametrize("matrix,shape", [
    (((0, 1), (1, 0)), (1, 0, 0)),
    (((1, 0), (0, -1)), (0, 1, 1)),
    (((1, 0), (0, 1)), (0, 0, 2)),
    (((-1, 0), (0, -1)), (0, 2, 0)),
    (((0, 1, 0), (1, 0, 0), (0, 0, -1)), (1, 1, 0)),
])
def test_torus_shape_of_involution(matrix, shape):
    assert tuple(torus_shape_of_involution(matrix)) == shape


def test_torus_shape_rejects_non_involutions():
    with pytest.raises(ValueError, match="involution"):
        torus_shape_of_involution(((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="square"):
        torus_shape_of_involution(((1, 0),))


def test_torus_forms_refuse_dimensions_past_the_bound():
    bound = registry.MAX_TORUS_DIMENSION
    assert len(registry.torus_forms(bound)) == (bound // 2 + 1) ** 2
    for dimension in (-1, bound + 1):
        with pytest.raises(ValueError, match="between 0 and %d" % bound):
            registry.torus_forms(dimension)


# ----------------------------------------------------------------------
# links


@pytest.mark.parametrize("padded,plain", [
    ("G_01", "G_1"), ("H_001", "H_1"), ("S~_03", "S~_3")])
def test_zero_padded_names_have_the_links_of_their_plain_name(padded, plain):
    def links(name):
        return [(link.link_type, "self" if link.target == name
                 else link.target, link.witness, link.source == name)
                for link in registry.links_from(name)]
    assert links(padded) == links(plain) != []


# ----------------------------------------------------------------------
# formula parsing


@pytest.mark.parametrize("text", [
    "[conj(w0):conj(w1):conj(w2)]",            # too few components
    "[conj(w0)+conj(w1):conj(w1):conj(w2):conj(w3)]",
    "[conj(w0)^2:conj(w1):conj(w2):conj(w3)]",
    "[w0:conj(w1):conj(w2):conj(w3)]",         # not conjugated
    "[conj(v0):conj(w1):conj(w2):conj(w3)]",   # unknown coordinate
    "[0*conj(w0):conj(w1):conj(w2):conj(w3)]",
    "[conj(w0):conj(w1):conj(w2):conj(w3)] w0",
])
def test_parse_structure_errors(text):
    with pytest.raises(ValueError):
        parse_structure(text, p3_ambient())


@pytest.mark.parametrize("text", [
    "[w0+w1:w1]",
    "[conj(w0):w1]",
    "[0*w0:w1]",
    "[w0:w1 $]",
    "[w0:7/0*w1]",
    "[w0^x:w1]",
])
def test_parse_monomial_map_errors(text):
    with pytest.raises(ValueError):
        parse_monomial_map(text, ("w0", "w1"))


@pytest.mark.parametrize("text", [
    "w0:w1",
    "conj(w0)*w1",
    "w0*",
    "w0 # w1",
])
def test_parse_polynomial_errors(text):
    with pytest.raises(ValueError):
        parse_polynomial(text, ("w0", "w1"))


def test_parse_polynomial_collects_terms():
    names = ("w0", "w1")
    assert parse_polynomial("w0*w1 + 2*w1*w0 - w1^2", names) \
        == parse_polynomial("3*w0*w1 - w1^2", names)
    assert parse_polynomial("w0 - w0", names) \
        == parse_polynomial("0*w1", names)


# ----------------------------------------------------------------------
# the validation sweep


def test_validate_all():
    report = validate_all()
    assert len(report) == 73
    assert Counter(tuple(item["checks"]) for item in report) == Counter({
        ("status-consistency", "involution"): 45,
        ("status-consistency",): 13,
        ("status-consistency", "gluing-sign"): 6,
        ("status-consistency", "quadratic-form"): 4,
        ("psi_G1",): 1,
        ("delta_H1",): 1,
        ("psi_h",): 1,
        ("enumeration",): 1,
        ("classifier",): 1,
    })
    gluing = [item["name"] for item in report
              if "gluing-sign" in item["checks"]]
    assert gluing == ["S~_%d" % b for b in range(2, 8)]
