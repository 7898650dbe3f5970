"""The curated registry and its certificates: structure parsing,
involution and witness checks, quadratic forms, real tori, links, and the
full validation sweep."""

import json
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from gauss_jordan import solve
from realforms import certificates, lattices, registry, verify
from realforms.certificates import (
    Ambient,
    build_ambient,
    parse_monomial_map,
    parse_polynomial,
    parse_structure,
    real_locus_form,
    signature,
    torus_equivalent,
    verify_involution,
)
from realforms.exact import Cyclo, Poly, VerificationError
from realforms.lattices import FamilyId
from realforms.registry import (TorusShape, torus_forms,
                                torus_shape_of_involution, validate_all)

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
# ambients


def _literal_ambients(a, b, c):
    """The toric ambients with their weights written out by hand."""
    return [
        ("F_%d^{%d,%d}" % (a, b, c), ("x0", "x1", "y0", "y1", "z0", "z1"),
         ((1, -b, 0), (1, 0, -c), (0, 1, -a), (0, 1, 0), (0, 0, 1),
          (0, 0, 1)), ((0, 1), (2, 3), (4, 5))),
        ("P_%d" % b, ("y0", "y1", "z0", "z1", "z2"),
         ((1, -b), (1, 0), (0, 1), (0, 1), (0, 1)), ((0, 1), (2, 3, 4))),
        ("W_%d" % b, ("y0", "y1", "z0", "z1", "z2"),
         ((1, 1 - 2 * b), (1, 0), (0, 1), (0, 1), (0, 2)),
         ((0, 1), (2, 3, 4))),
        ("R_(%d,%d)" % (a, c), ("x0", "x1", "x2", "y0", "y1"),
         ((1, -a), (1, -c), (1, 0), (0, 1), (0, 1)), ((0, 1, 2), (3, 4))),
    ]


@pytest.mark.parametrize("a,b,c", [(0, 0, 0), (2, 3, -1), (-1, -2, 4),
                                   (5, 0, 2), (1, 7, 7)])
def test_ambients_read_the_cox_data_of_lattices(a, b, c):
    built = [build_ambient(spec) for spec in (
        ("fabc", (a, b, c)), ("pb", (b,)), ("wb", (b,)), ("rmn", (a, c)))]
    for ambient, (name, coords, weights, blocks) in zip(
            built, _literal_ambients(a, b, c)):
        assert (ambient.name, ambient.coords, ambient.weights,
                ambient.blocks, ambient.equations) == (
                    name, coords, weights, blocks, ())


# ----------------------------------------------------------------------
# involutions


@pytest.mark.parametrize("b", range(1, 6))
def test_exchange_and_circle_structures_are_involutions(b):
    for text, ambient in ((EXCHANGE, build_ambient(("fabc", (0, b, -b)))),
                          (CIRCLE, build_ambient(("fabc", (0, b, b))))):
        verdict = verify_involution(text, ambient)
        assert verdict["ok"] is True
        assert verdict["ambient"] == ambient.name
        assert verdict["square_rescaling"] == ["1"] * 6
        assert verdict["equations_preserved"] == 0
        assert _maps_weights(verdict, ambient, text)


def test_exchange_verdict_in_full():
    ambient = build_ambient(("fabc", (0, 2, -2)))
    assert verify_involution(EXCHANGE, ambient) == {
        "ok": True,
        "ambient": "F_0^{2,-2}",
        "grading": [[1, 0, 0], [-2, 0, 1], [2, 1, 0]],
        "square_rescaling": ["1", "1", "1", "1", "1", "1"],
        "equations_preserved": 0,
    }


def test_flag_structures_preserve_the_incidence_equation():
    flag = build_ambient(("flag", ()))
    for descriptor in registry.forms_of(FamilyId("Sb", (1,))):
        structure = parse_structure(descriptor.real_structure, flag)
        verdict = verify_involution(structure)
        assert verdict["equations_preserved"] == 1
        assert registry.validate_descriptor(descriptor) == {
            "name": descriptor.name,
            "checks": ["status-consistency", "involution"]}


@pytest.mark.parametrize("params, entries, note", [
    ((2, 1), ["rmn_trivial"], "the trivial form is the only real form"),
    ((2, 2), ["rmn_trivial", "rmn_conj_twist"],
     "the trivial form is the only real form with a real point"),
])
def test_rmn_forms_build_each_descriptor_once(monkeypatch, params, entries,
                                              note):
    made, make = [], registry._make

    def counting(entry_id, *args, **kwargs):
        made.append(entry_id)
        return make(entry_id, *args, **kwargs)

    monkeypatch.setattr(registry, "_make", counting)
    forms = registry.forms_of(FamilyId("Rmn", params))
    assert made == entries
    assert [f.entry for f in forms] == entries
    assert forms[0].notes == note


def test_grading_violation_is_a_domain_error():
    swap = "[conj(z0):conj(y1); conj(y0):conj(z1):conj(z2)]"
    with pytest.raises(ValueError, match="grading violation"):
        verify_involution(swap, build_ambient(("pb", (1,))))


def _grading_oracle(structure):
    """The grading solve as one rational (n*r) x r^2 system."""
    ambient = structure.ambient
    rank = ambient.rank
    rows = []
    rhs = []
    for i, source in enumerate(ambient.weights):
        target = ambient.weights[structure.perm[i]]
        for k in range(rank):
            row = [Fraction(0)] * (rank * rank)
            for l in range(rank):
                row[k * rank + l] = Fraction(source[l])
            rows.append(row)
            rhs.append(Fraction(target[k]))
    solution = solve(rows, rhs)
    if solution is None:
        return None
    matrix = [[solution[k * rank + l] for l in range(rank)]
              for k in range(rank)]
    for i, source in enumerate(ambient.weights):
        target = ambient.weights[structure.perm[i]]
        for k in range(rank):
            if sum(matrix[k][l] * source[l] for l in range(rank)) != target[k]:
                return None
    if any(v.denominator != 1 for row in matrix for v in row):
        return None
    matrix = [[int(v) for v in row] for row in matrix]
    diagonal, _, _ = lattices.diagonalize(matrix)
    if any(abs(diagonal[k][k]) != 1 for k in range(rank)):
        return None
    return matrix


def test_grading_matches_the_rational_oracle_on_every_checked_structure(
        monkeypatch):
    seen = []
    solve = certificates._grading_matrix

    def recording(structure):
        seen.append(structure)
        return solve(structure)

    monkeypatch.setattr(certificates, "_grading_matrix", recording)
    validate_all()
    verify.run("involutions", 12)
    verify.run("witnesses", 12)
    assert len(seen) == 62
    assert {s.ambient.name for s in seen} >= {"F_0^{1,1}", "flag(P2 x P2)",
                                              "P^3", "P(1,1,1,2)"}
    for structure in seen:
        grading = solve(structure)
        assert grading is not None and all(
            type(v) is int for row in grading for v in row)
        assert grading == _grading_oracle(structure), structure


# (ambient weights, structure): no rational solution, a rational but
# non-integral one, and an integral one that is not unimodular (the
# weights have rank 1 in a rank-2 torus, so the entries left free are
# zero and M is singular)
_GRADING_REFUSALS = (
    (((1,), (2,)), "[conj(b):conj(a)]"),
    (((2, 0), (0, 1)), "[conj(b):conj(a)]"),
    (((1, 0), (1, 0)), "[conj(a):conj(b)]"),
)


@pytest.mark.parametrize("weights,text", _GRADING_REFUSALS)
def test_grading_refusals(weights, text):
    ambient = Ambient("test", ("a", "b"), weights, ((0, 1),))
    structure = parse_structure(text, ambient)
    assert certificates._grading_matrix(structure) is None
    assert _grading_oracle(structure) is None
    with pytest.raises(ValueError, match="grading violation"):
        verify_involution(structure)


def test_ambient_refuses_weights_that_are_not_integers():
    with pytest.raises(ValueError, match="integers"):
        Ambient("test", ("x0", "x1"), [[Fraction(3, 2)], [1]], [[0, 1]])
    with pytest.raises(ValueError, match="integers"):
        build_ambient(("wps", (1.5, 2)))
    ambient = Ambient("test", ("x0", "x1"), [[Fraction(2, 1)], [1]], [[0, 1]])
    assert ambient.weights == ((2,), (1,))


def test_square_outside_the_torus_fails_verification():
    with pytest.raises(VerificationError, match="outside"):
        verify_involution("[conj(w0):conj(w1):conj(w2):2*conj(w3)]",
                          build_ambient(("p3", ())))


def test_non_involutive_permutation_fails_verification():
    with pytest.raises(VerificationError, match="coordinate axes"):
        verify_involution("[conj(w1):conj(w2):conj(w0):conj(w3)]",
                          build_ambient(("p3", ())))


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
    ambient = build_ambient(("p3", ()))
    quadric = parse_polynomial("w0*w1 - w2*w3", ambient.coords)
    swap = parse_structure("[conj(w1):conj(w0):conj(w2):conj(w3)]", ambient)
    half = Fraction(-1, 2)
    form = real_locus_form(quadric, swap)
    assert form == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, half),
                    (0, 0, half, 0))
    assert signature(form) == (3, 1, 0)


def test_real_locus_form_rejects_bad_structures():
    ambient = build_ambient(("p3", ()))
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
    ambient = build_ambient(("p3", ()))
    moved = parse_monomial_map(text, ambient.coords)
    assert torus_equivalent(ambient, moved, Poly.variables(4)) is expected


def test_torus_equivalent_rejects_mismatched_maps():
    ambient = build_ambient(("p3", ()))
    with pytest.raises(ValueError):
        torus_equivalent(ambient, Poly.variables(3), Poly.variables(4))


# the exponent arithmetic of composing maps whose components are
# (coefficient, exponent tuple) pairs, an oracle for Poly.substitute


def _oracle_compose(outer, inner, inner_nvars):
    """outer after inner (apply inner first)."""
    comps = []
    for coeff, exps in outer:
        total = [0] * inner_nvars
        for j, power in enumerate(exps):
            if power:
                icoeff, iexps = inner[j]
                coeff = coeff * icoeff ** power
                total = [a + power * b for a, b in zip(total, iexps)]
        comps.append((coeff, tuple(total)))
    return comps


def _oracle_conj(mapping):
    return [(coeff.conjugate(), exps) for coeff, exps in mapping]


def _as_polys(mapping):
    return tuple(Poly({exps: coeff}) for coeff, exps in mapping)


def test_maps_compose_and_conjugate_like_the_exponent_oracle():
    rng = random.Random(20240321)
    scalars = (Cyclo.rational(1), Cyclo.rational(Fraction(-3, 2)),
               Cyclo.i(), Cyclo.zeta(3), Cyclo.zeta(8, 3) * 2,
               Cyclo.zeta(5) + Cyclo.zeta(12, 5))

    def monomial_map(nvars, ncomps):
        # about one component in five is a constant
        return [(rng.choice(scalars),
                 (0,) * nvars if rng.random() < 0.2
                 else tuple(rng.randint(-3, 3) for _ in range(nvars)))
                for _ in range(ncomps)]

    for _ in range(300):
        sizes = [rng.randint(1, 4) for _ in range(3)]
        outer = monomial_map(sizes[1], sizes[0])
        inner = monomial_map(sizes[2], sizes[1])
        assert certificates._after(_as_polys(outer), _as_polys(inner)) \
            == _as_polys(_oracle_compose(outer, inner, sizes[2]))
        assert tuple(p.conj_coeffs() for p in _as_polys(outer)) \
            == _as_polys(_oracle_conj(outer))


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


@pytest.mark.parametrize("matrix", [
    [[Fraction(3, 2), 0], [0, 1]],
    [[1.9, 0], [0, -1.2]],
    [["1", 0], [0, 1]],
    [[float("inf"), 0], [0, 1]],
    [[None, 0], [0, 1]],
])
def test_torus_shape_refuses_entries_that_are_not_integers(matrix):
    with pytest.raises(ValueError, match="integers"):
        torus_shape_of_involution(matrix)


def _block_involution(p, q, r):
    """p swapped pairs, then q entries -1, then r entries 1."""
    d = 2 * p + q + r
    matrix = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(p):
        matrix[2 * k][2 * k] = matrix[2 * k + 1][2 * k + 1] = 0
        matrix[2 * k][2 * k + 1] = matrix[2 * k + 1][2 * k] = 1
    for k in range(2 * p, 2 * p + q):
        matrix[k][k] = -1
    return matrix


def test_torus_shape_of_conjugated_block_involutions():
    # U . P . U^-1 for seeded unimodular U, built from elementary row
    # operations on U and the inverse column operations on U^-1
    rng = random.Random(13)
    for d in range(1, 7):
        for shape in torus_forms(d):
            for _ in range(6):
                u = [[int(i == j) for j in range(d)] for i in range(d)]
                u_inv = [row[:] for row in u]
                for _ in range(3 * d if d > 1 else 0):
                    i, j = rng.sample(range(d), 2)
                    c = rng.choice((-2, -1, 1, 2))
                    u[i] = [a + c * b for a, b in zip(u[i], u[j])]
                    for row in u_inv:
                        row[j] -= c * row[i]
                block = _block_involution(*shape)
                conjugate = [[sum(u[i][k] * block[k][l] * u_inv[l][j]
                                  for k in range(d) for l in range(d))
                              for j in range(d)] for i in range(d)]
                assert torus_shape_of_involution(conjugate) == shape


def test_torus_shape_refuses_counts_that_are_not_integers():
    with pytest.raises(ValueError, match="integers"):
        TorusShape(Fraction(3, 2), 0, 1)
    with pytest.raises(ValueError, match="integers"):
        TorusShape(1, 0.0, 1)
    assert TorusShape(Fraction(2, 2), 0, 1) == (1, 0, 1)


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
        parse_structure(text, build_ambient(("p3", ())))


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


# every formula stored in the registry and what the parsers read from it:
# a structure as (scalars, coordinate permutation), a map as its
# (coefficient, exponents) components, a polynomial as its terms
STORED_STRUCTURES = {
    "[-conj(x1):conj(x0); -conj(y1):conj(y0); -conj(z1):conj(z0)]":
        ((-1, 1, -1, 1, -1, 1), (1, 0, 3, 2, 5, 4)),
    "[-conj(x1):conj(x0); conj(z0):conj(z1); conj(y0):conj(y1)]":
        ((-1, 1, 1, 1, 1, 1), (1, 0, 4, 5, 2, 3)),
    "[-conj(y0):conj(y1):conj(y2); -conj(x0):conj(x1):conj(x2)]":
        ((-1, 1, 1, -1, 1, 1), (3, 4, 5, 0, 1, 2)),
    "[-conj(y1):conj(y0); conj(z0):conj(z1):conj(z2)]":
        ((-1, 1, 1, 1, 1), (1, 0, 2, 3, 4)),
    "[conj(t0):conj(t1):conj(t2):conj(t3)]":
        ((1, 1, 1, 1), (0, 1, 2, 3)),
    "[conj(w0):conj(w1):conj(w2):conj(w3)]":
        ((1, 1, 1, 1), (0, 1, 2, 3)),
    "[conj(x0):conj(x1):conj(x2); -conj(y1):conj(y0)]":
        ((1, 1, 1, -1, 1), (0, 1, 2, 4, 3)),
    "[conj(x0):conj(x1):conj(x2); conj(y0):conj(y1):conj(y2)]":
        ((1, 1, 1, 1, 1, 1), (0, 1, 2, 3, 4, 5)),
    "[conj(x0):conj(x1):conj(x2); conj(y0):conj(y1)]":
        ((1, 1, 1, 1, 1), (0, 1, 2, 3, 4)),
    "[conj(x0):conj(x1); -conj(y1):conj(y0); -conj(z1):conj(z0)]":
        ((1, 1, -1, 1, -1, 1), (0, 1, 3, 2, 5, 4)),
    "[conj(x0):conj(x1); conj(y0):conj(y1); -conj(z1):conj(z0)]":
        ((1, 1, 1, 1, -1, 1), (0, 1, 2, 3, 5, 4)),
    "[conj(x0):conj(x1); conj(y0):conj(y1); conj(z0):conj(z1)]":
        ((1, 1, 1, 1, 1, 1), (0, 1, 2, 3, 4, 5)),
    "[conj(x0):conj(x1); conj(z0):conj(z1); conj(y0):conj(y1)]":
        ((1, 1, 1, 1, 1, 1), (0, 1, 4, 5, 2, 3)),
    "[conj(x1):conj(x0); conj(z0):conj(z1); conj(y0):conj(y1)]":
        ((1, 1, 1, 1, 1, 1), (1, 0, 4, 5, 2, 3)),
    "[conj(y0):conj(y1):conj(y2); conj(x0):conj(x1):conj(x2)]":
        ((1, 1, 1, 1, 1, 1), (3, 4, 5, 0, 1, 2)),
    "[conj(y0):conj(y1); conj(x0):conj(x1); -conj(z1):conj(z0)]":
        ((1, 1, 1, 1, -1, 1), (2, 3, 0, 1, 5, 4)),
    "[conj(y0):conj(y1); conj(x0):conj(x1); conj(z0):conj(z1)]":
        ((1, 1, 1, 1, 1, 1), (2, 3, 0, 1, 4, 5)),
    "[conj(y0):conj(y1); conj(z0):conj(z1):conj(z2)]":
        ((1, 1, 1, 1, 1), (0, 1, 2, 3, 4)),
    "[conj(w0):conj(w2):conj(w1):conj(w3):conj(w4)]":
        ((1, 1, 1, 1, 1), (0, 2, 1, 3, 4)),
}
STORED_MAPS = {
    ("psi_G1", "map"): (build_ambient(("fabc", (0, 1, -1))), (
        (1, (1, 0, 1, 0, 1, 0)), (1, (1, 0, 1, 0, 0, 1)),
        (1, (1, 0, 0, 1, 1, 0)), (1, (1, 0, 0, 1, 0, 1)),
        (1, (0, 1, 0, 0, 0, 0)))),
    ("delta_H1", "map"): (build_ambient(("fabc", (0, 1, 1))), (
        (1, (1, 0, 1, 0, 0, 0)), (1, (1, 0, 0, 1, 0, 0)),
        (1, (0, 1, 0, 0, 1, 0)), (1, (0, 1, 0, 0, 0, 1)))),
    ("delta_H1", "inverse"): (build_ambient(("p3", ())), (
        (1, (0, 0, 0, 0)), (1, (0, 0, 0, 0)), (1, (1, 0, 0, 0)),
        (1, (0, 1, 0, 0)), (1, (0, 0, 1, 0)), (1, (0, 0, 0, 1)))),
}
STORED_QUADRIC = Poly({(1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0): -1})
_AMBIENTS = tuple(build_ambient(spec) for spec in (
    ("fabc", (0, 0, 0)), ("pb", (0,)), ("rmn", (0, 0)), ("flag", ()),
    ("p3", ()), ("p4", ()), ("wps", (1, 1, 1, 2))))


def _stored_entries():
    path = resources.files("realforms") / "data" / "registry.json"
    return json.loads(path.read_text(encoding="utf-8"))["entries"]


def test_stored_structures_parse_to_frozen_values():
    entries = _stored_entries()
    witness = entries["witnesses"]["psi_G1"]
    texts = {record["structure"] for record in entries["forms"].values()
             if "structure" in record}
    texts |= {witness["source_structure"], witness["target_structure"]}
    assert texts == set(STORED_STRUCTURES)
    for text, (scalars, perm) in STORED_STRUCTURES.items():
        # the ambient whose coordinates the formula names, one per slot
        (ambient,) = [a for a in _AMBIENTS
                      if all("(%s)" % c in text for c in a.coords)
                      and text.count("conj") == len(a.coords)]
        structure = parse_structure(text, ambient)
        assert structure.scalars == scalars and structure.perm == perm, text


def test_stored_maps_and_quadric_parse_to_frozen_values():
    witnesses = _stored_entries()["witnesses"]
    for (kind, key), (ambient, components) in STORED_MAPS.items():
        parsed = parse_monomial_map(witnesses[kind][key], ambient.coords)
        assert all(p.nvars == len(ambient.coords) for p in parsed)
        assert parsed == _as_polys(components), (kind, key)
    quadric = parse_polynomial(witnesses["psi_G1"]["quadric"],
                               build_ambient(("p4", ())).coords)
    assert quadric == STORED_QUADRIC and quadric.nvars == 5


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
