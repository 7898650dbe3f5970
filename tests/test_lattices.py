"""Intersection lattices, extremal rays, and the classification list."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realforms.lattices import (FamilyId, LatticeModel, Ray,
                                aut_component_count, back_substitute,
                                diagonalize, in_theorem_list, kernel, model)


def test_family_id_normalization():
    assert FamilyId("Fabc", (-2, 3, 1)).params == (2, 3, 1)
    assert FamilyId("Fabc", (2, -3, 1)).params == (2, 3, -1)
    assert FamilyId("Fabc", (0, 0, -4)).params == (0, 0, 4)
    assert FamilyId("Rmn", (1, 3)).params == (3, 1)
    assert FamilyId("Pb", (-2,)).params == (2,)


def test_family_id_labels():
    assert FamilyId("Fabc", (2, 3, 4)).label == "F_2^{3,4}"
    assert FamilyId("Pb", (2,)).label == "P_2"
    assert FamilyId("Wb", (5,)).label == "W_5"
    assert FamilyId("Rmn", (2, 1)).label == "R_(2,1)"


def test_family_id_validation():
    with pytest.raises(ValueError):
        FamilyId("Xb", (1,))
    with pytest.raises(ValueError):
        FamilyId("Vb", (1,))  # V_1 is the flag variety, listed under Sb
    with pytest.raises(ValueError):
        FamilyId("Wb", (1,))
    with pytest.raises(ValueError):
        FamilyId("Uabc", (2, 3, 5))  # c - 2 must be a multiple of a
    with pytest.raises(ValueError):
        FamilyId("Qg", (0,))


def test_family_id_refuses_parameters_that_are_not_integers():
    with pytest.raises(ValueError, match="integers"):
        FamilyId("Fabc", (Fraction(3, 2), 2, 3))
    with pytest.raises(ValueError, match="integers"):
        FamilyId("Pb", (2.9,))
    assert FamilyId("Fabc", (Fraction(4, 2), 2, 3)).params == (2, 2, 3)


def test_family_id_equality():
    assert FamilyId("Fabc", (2, -3, 1)) == FamilyId("Fabc", (-2, 3, -1))
    assert FamilyId("Fabc", (2, 3, 1)) != FamilyId("Fabc", (2, 3, 2))


def _member_by_the_rules(kind, params):
    """(params, label) of a member as the rules normalize it, or None."""
    if kind == "Fabc" and len(params) == 3:
        a, b, c = params
        if b < 0 or (b == 0 and c < 0):
            b, c = -b, -c
        return (abs(a), b, c), "F_%d^{%d,%d}" % (abs(a), b, c)
    if kind == "Pb" and len(params) == 1:
        return (abs(params[0]),), "P_%d" % abs(params[0])
    if kind == "Uabc" and len(params) == 3:
        a, b, c = params
        if a >= 1 and b >= 1 and any(c == a * k + 2 for k in range(b + 1)):
            return params, "U_%d^{%d,%d}" % params
        return None
    if kind == "Rmn" and len(params) == 2:
        m, n = max(params), min(params)
        return ((m, n), "R_(%d,%d)" % (m, n)) if n >= 0 else None
    least = {"Sb": 1, "Vb": 2, "Wb": 2, "Qg": 1}
    labels = {"Sb": "S_%d", "Vb": "V_%d", "Wb": "W_%d",
              "Qg": "Q_g[deg 2n, n=%d]"}
    if kind in least and len(params) == 1 and params[0] >= least[kind]:
        return params, labels[kind] % params
    return None


def test_family_id_matches_its_rules_on_a_grid():
    # every kind and an unknown one, 0 to 4 parameters, each in -3..4
    for kind in ("Fabc", "Pb", "Uabc", "Sb", "Vb", "Wb", "Rmn", "Qg", "Xb"):
        for arity in range(5):
            for params in product(range(-3, 5), repeat=arity):
                expected = _member_by_the_rules(kind, params)
                try:
                    family = FamilyId(kind, params)
                except ValueError:
                    assert expected is None, (kind, params)
                    continue
                assert (family.params, family.label) == expected, \
                    (kind, params)


# ----------------------------------------------------------------------
# the decomposable-bundle lattice


def test_fabc_canonical_degrees():
    lattice = model(FamilyId("Fabc", (2, 3, 4)))
    assert lattice.k_dots == {"l1": Fraction(-4), "l2": Fraction(1),
                              "l3": Fraction(-2), "l4": Fraction(4)}


def test_fabc_closed_forms_on_a_grid():
    for a in range(0, 5):
        for b in range(0, 5):
            for c in range(-4, 5):
                family = FamilyId("Fabc", (a, b, c))
                na, nb, nc = family.params
                lattice = model(family)
                assert lattice.k_dots["l1"] == na - nc - 2
                assert lattice.k_dots["l2"] == nb - 2
                assert lattice.k_dots["l3"] == -2
                assert lattice.k_dots["l4"] == na + nc - 2


def test_fabc_derived_section_class():
    # l4 = l1 - c*l3 in the curve lattice
    lattice = model(FamilyId("Fabc", (2, 3, 4)))
    assert lattice.relations["l4"] == (1, 0, -4)
    assert lattice.curve_vector("l4") == (1, 0, -4)


def test_fabc_cone_switches_generator_with_sign_of_c():
    neg = model(FamilyId("Fabc", (2, 3, -2)))
    assert [r.name for r in neg.cone_generators] == ["l1", "l2", "l3"]
    pos = model(FamilyId("Fabc", (2, 3, 2)))
    assert [r.name for r in pos.cone_generators] == ["l4", "l2", "l3"]


def test_fiber_ray_contraction_note():
    lattice = model(FamilyId("Fabc", (2, 3, 4)))
    fiber = [r for r in lattice.cone_generators if r.name == "l3"][0]
    assert fiber.contraction == "fibration: structure morphism to F_2"


# ----------------------------------------------------------------------
# the quadric-cone bundle lattice


def test_wb_lattice():
    lattice = model(FamilyId("Wb", (2,)))
    assert lattice.k_dots == {"f": Fraction(-2), "l": Fraction(-1, 2)}
    assert model(FamilyId("Wb", (3,))).pairing_matrix[("l", "S")] \
        == Fraction(-5, 2)
    for b in range(2, 11):
        lat = model(FamilyId("Wb", (b,)))
        assert lat.k_dots["l"] == Fraction(2 * b - 5, 2)


def _k_dot_by_fractions(lattice, name):
    """K.C from the pairing table and the canonical class, in Fractions."""
    total = Fraction(0)
    for coeff, base in zip(lattice.curve_vector(name), lattice.curve_basis):
        for divisor, k in lattice.canonical.items():
            total += Fraction(coeff) * Fraction(k) \
                * Fraction(lattice.pairing_matrix[(base, divisor)])
    return total


def test_fabc_grid_is_integral_and_matches_a_fraction_recomputation():
    # and W_b, b = 2..10, whose halves stay Fractions
    families = [FamilyId("Fabc", (a, b, c)) for a in range(0, 6)
                for b in range(0, 6) for c in range(-5, 6)]
    families += [FamilyId("Wb", (b,)) for b in range(2, 11)]
    for family in families:
        lattice = model(family)
        if family.kind == "Fabc":
            assert all(type(v) is int for v in (
                *lattice.pairing_matrix.values(),
                *lattice.canonical.values(), *lattice.k_dots.values()))
        for name, k_dot in lattice.k_dots.items():
            total = _k_dot_by_fractions(lattice, name)
            assert type(k_dot) is (int if total.denominator == 1
                                   else Fraction), (family, name)
            assert k_dot == total, (family, name)
            assert str(k_dot) == str(total)


def test_wb_keeps_its_halves():
    for b in range(2, 11):
        lattice = model(FamilyId("Wb", (b,)))
        halves = (lattice.k_dots["l"], lattice.pairing_matrix[("l", "S")],
                  lattice.canonical["F"])
        assert all(isinstance(v, Fraction) and v.denominator == 2
                   for v in halves)
        assert lattice.as_dict()["k_dots"]["l"] == "%d/2" % (2 * b - 5)


# ----------------------------------------------------------------------
# oracle: the hand-entered tables the models were once stored as


def _fabc_table(family):
    a, b, c = family.params
    table = {
        ("l1", "H_z0"): 1, ("l1", "H_y0"): -a, ("l1", "H_x0"): c,
        ("l2", "H_z0"): 0, ("l2", "H_y0"): 1, ("l2", "H_x0"): -b,
        ("l3", "H_z0"): 0, ("l3", "H_y0"): 0, ("l3", "H_x0"): 1,
    }
    canonical = {"H_z0": -(a * (b + 1) + 2 - c), "H_y0": -(b + 2),
                 "H_x0": -2}
    k_dots = {"l1": a - c - 2, "l2": b - 2, "l3": -2, "l4": a + c - 2}
    fiber = Ray("l3", (0, 0, 1), -2,
                "fibration: structure morphism to F_%d" % a)
    if c <= 0:
        first = Ray("l1", (1, 0, 0), k_dots["l1"])
    else:
        first = Ray("l4", (1, 0, -c), k_dots["l4"])
    gens = (first, Ray("l2", (0, 1, 0), k_dots["l2"]), fiber)
    return LatticeModel(family, ("H_z0", "H_y0", "H_x0"), ("l1", "l2", "l3"),
                        table, canonical, gens, k_dots, {"l4": (1, 0, -c)})


def _wb_table(family):
    (b,) = family.params
    table = {("f", "F"): 0, ("f", "S"): 1,
             ("l", "F"): 1, ("l", "S"): Fraction(1 - 2 * b, 2)}
    canonical = {"F": Fraction(-(2 * b + 3), 2), "S": -2}
    k_dots = {"f": -2, "l": Fraction(2 * b - 5, 2)}
    gens = (Ray("f", (1, 0), -2, "fibration: structure morphism to P(1,1,2)"),
            Ray("l", (0, 1), k_dots["l"]))
    return LatticeModel(family, ("F", "S"), ("f", "l"), table, canonical,
                        gens, k_dots)


def _two_ray_table(family, base, fiber_k, l_k, note=None):
    gens = (Ray("f", (1, 0), fiber_k,
                "fibration: structure morphism to %s" % base),
            Ray("l", (0, 1), l_k, note))
    return LatticeModel(family, (), ("f", "l"), {}, {}, gens,
                        {"f": fiber_k, "l": l_k})


def _pb_table(family):
    (b,) = family.params
    note = None
    if b == 1:
        note = "divisorial: blow-down to P^3 (P_1 is P^3 blown up in a point)"
    return _two_ray_table(family, "P^2", -2, b - 3, note)


def _rmn_table(family):
    m, n = family.params
    return _two_ray_table(family, "P^1", -3, m + n - 2)


_ORACLE_GRID = (
    [(_fabc_table, FamilyId("Fabc", (a, b, c)))
     for a in range(6) for b in range(6) for c in range(-5, 6)]
    + [(_wb_table, FamilyId("Wb", (b,))) for b in range(2, 11)]
    + [(_pb_table, FamilyId("Pb", (b,))) for b in range(9)]
    + [(_rmn_table, FamilyId("Rmn", (m, n)))
       for m in range(7) for n in range(7)])


def _typed(lattice):
    """Every number of a model with its type, beside its layout."""
    def typed(values):
        return [(type(v), v) for v in values]

    return (
        lattice.divisor_basis, lattice.curve_basis,
        [(key, type(v), v) for key, v in lattice.pairing_matrix.items()],
        [(key, type(v), v) for key, v in lattice.canonical.items()],
        [(key, type(v), v) for key, v in lattice.k_dots.items()],
        [(key, typed(vec)) for key, vec in lattice.relations.items()],
        [(ray.name, typed(ray.vector), type(ray.k_dot), ray.k_dot,
          ray.contraction) for ray in lattice.cone_generators])


def test_computed_models_equal_the_hand_entered_tables():
    for table, family in _ORACLE_GRID:
        lattice, expected = model(family), table(family)
        assert lattice.as_dict() == expected.as_dict(), family
        assert _typed(lattice) == _typed(expected), family


# ----------------------------------------------------------------------
# ray-resolution families


@pytest.mark.parametrize("family", [
    FamilyId("Pb", (0,)), FamilyId("Pb", (2,)), FamilyId("Uabc", (1, 3, 2)),
    FamilyId("Sb", (1,)), FamilyId("Sb", (4,)), FamilyId("Vb", (3,)),
    FamilyId("Rmn", (2, 1)), FamilyId("Qg", (3,)),
])
def test_ray_models_have_k_data(family):
    lattice = model(family)
    assert lattice.cone_generators
    for ray in lattice.cone_generators:
        assert ray.k_dot == lattice.k_dots[ray.name]


def test_as_dict_round_trips_family():
    data = model(FamilyId("Fabc", (2, 3, 4))).as_dict()
    assert data["family"] == "F_2^{3,4}"
    assert data["k_dots"]["l4"] == "4"
    assert data["canonical"]["H_x0"] == "-2"
    ray_names = [r["name"] for r in data["cone_generators"]]
    assert ray_names == ["l4", "l2", "l3"]


# ----------------------------------------------------------------------
# membership in the classification list


def test_theorem_list_fabc():
    assert in_theorem_list(FamilyId("Fabc", (0, 1, -1)))
    assert in_theorem_list(FamilyId("Fabc", (0, 0, 0)))
    assert in_theorem_list(FamilyId("Fabc", (2, 3, 1)))
    assert not in_theorem_list(FamilyId("Fabc", (1, 2, 1)))  # a = 1 drops out
    assert not in_theorem_list(FamilyId("Fabc", (2, 1, 2)))  # c too large
    # the boundary b = |c|
    assert not in_theorem_list(FamilyId("Fabc", (0, 1, 1)))


def test_theorem_list_other_kinds():
    assert in_theorem_list(FamilyId("Pb", (2,)))
    assert not in_theorem_list(FamilyId("Pb", (1,)))
    assert in_theorem_list(FamilyId("Sb", (1,)))
    assert not in_theorem_list(FamilyId("Sb", (2,)))
    assert in_theorem_list(FamilyId("Sb", (3,)))
    assert in_theorem_list(FamilyId("Vb", (3,)))
    assert not in_theorem_list(FamilyId("Vb", (2,)))
    assert in_theorem_list(FamilyId("Wb", (2,)))
    assert in_theorem_list(FamilyId("Rmn", (2, 2)))
    assert in_theorem_list(FamilyId("Rmn", (5, 2)))
    assert not in_theorem_list(FamilyId("Rmn", (4, 2)))
    assert not in_theorem_list(FamilyId("Rmn", (1, 0)))


def test_theorem_list_invariant_under_normalization():
    assert in_theorem_list(FamilyId("Fabc", (2, -3, -1))) == \
        in_theorem_list(FamilyId("Fabc", (2, 3, 1)))


# ----------------------------------------------------------------------
# component groups


def test_aut_components_connected():
    assert aut_component_count(FamilyId("Fabc", (2, 3, 1))) == \
        {"kind": "connected"}
    assert aut_component_count(FamilyId("Wb", (4,))) == {"kind": "connected"}


def test_aut_components_boundary_involutions():
    out = aut_component_count(FamilyId("Fabc", (0, 2, 2)))
    assert out["kind"] == "two_components"
    assert out["involution"] == "[x1:x0; z0:z1; y0:y1]"
    out = aut_component_count(FamilyId("Fabc", (0, 2, -2)))
    assert out["involution"] == "[x0:x1; z0:z1; y0:y1]"
    out = aut_component_count(FamilyId("Fabc", (2, 0, 2)))
    assert out["kind"] == "two_components"
    # F_2^{0,-2} is F_2^{0,2}: b = 0 forces c >= 0
    assert aut_component_count(FamilyId("Fabc", (2, 0, -2)))["involution"] \
        == "[y0:y1; x1:x0; z0:z1]"


def test_aut_components_triple_product():
    out = aut_component_count(FamilyId("Fabc", (0, 0, 0)))
    assert out["kind"] == "product_with_S3"


def test_aut_components_flag_variety():
    out = aut_component_count(FamilyId("Sb", (1,)))
    assert out["kind"] == "two_components"


def test_aut_components_refuses_quadric_fibrations():
    with pytest.raises(ValueError, match="fiber polynomial"):
        aut_component_count(FamilyId("Qg", (2,)))


# ----------------------------------------------------------------------
# the integer kernel: D = U . A . V with U and V unimodular

KERNEL_SETTINGS = settings(max_examples=60, deadline=None)
entries = st.integers(-5, 5)


def _matrices(data):
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    return [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def _apply(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def _product(a, b):
    return [_apply(list(zip(*b)), row) for row in a]


def _det(square):
    # the Leibniz formula, independent of the elimination it checks
    total = 0
    for perm in permutations(range(len(square))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                           for j in range(i + 1, len(perm)))
        term = sign
        for i, j in enumerate(perm):
            term *= square[i][j]
        total += term
    return total


@KERNEL_SETTINGS
@given(st.data())
def test_diagonalize_is_a_unimodular_equivalence(data):
    a = _matrices(data)
    d, u, v = diagonalize(a)
    assert abs(_det(u)) == 1 and abs(_det(v)) == 1
    assert _product(_product(u, a), v) == d
    assert all(d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0]))
               if i != j)


@KERNEL_SETTINGS
@given(st.data())
def test_back_substitution_solves_consistent_systems(data):
    a = _matrices(data)
    x0 = [data.draw(entries) for _ in a[0]]
    b = _apply(a, x0)
    x = back_substitute(diagonalize(a), b)
    assert x is not None and all(type(v) is int for v in x)
    assert _apply(a, x) == b
    # the sum of all rows with a right-hand side off by one
    total = [sum(col) for col in zip(*a)]
    assert back_substitute(diagonalize(a + [total]), b + [sum(b) + 1]) \
        is None


@KERNEL_SETTINGS
@given(st.data())
def test_kernel_is_annihilated_and_has_the_corank(data):
    a = _matrices(data)
    d, _, _ = diagonalize(a)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    basis = kernel(a)
    assert len(basis) == len(a[0]) - rank
    assert all(_apply(a, vector) == [0] * len(a) for vector in basis)


@pytest.mark.parametrize("matrix", [
    [[Fraction(1, 2), 1]],
    [[Fraction(3, 2), 0], [0, 2.7]],
    [[1, "2"]],
])
def test_kernel_refuses_entries_that_are_not_integers(matrix):
    with pytest.raises(ValueError, match="integers"):
        diagonalize(matrix)
    with pytest.raises(ValueError, match="integers"):
        kernel(matrix)
