"""Classification of real forms of the quadric bundles over the line."""

import random
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from realforms import groups, quadrics
from realforms.exact import (Cyclo, Mat2, Poly, Poly2, as_cyclo,
                            root_multiplicities)
from realforms.groups import (F_SWAP, H_ROT, GroupSpec, catalog, generators,
                              h1_named, mat_key, rotation_gen,
                              semi_invariant_character, twisted_class_of,
                              unimodular_lift)
from realforms.parsing import parse_poly, render_poly
from realforms.quadrics import (AmbiguousSymmetryError, ApplicabilityError,
                                FLabel, FormCounts, QgInstance,
                                UndecidableError, _finite_symmetry,
                                check_psi_h, check_real_structure,
                                detect_symmetry, enumerate_forms,
                                form_counts, psi_pullback_identity,
                                realizable)

_ONE = Cyclo.rational(1)


def inst(text):
    return QgInstance(parse_poly(text))


def _mono(a, b, c=1):
    return Poly2.monomial(a, b, c)


def invariant_triple(spec):
    """Generating triple (f1, f2, f3) of the semi-invariant algebra.

    These are the classical generators in standard coordinates: their
    root divisors are the exceptional orbits of the group action, and
    every semi-invariant form with trivial character is a weighted
    polynomial in them (subject to one syzygy).
    """
    if spec.kind == "A":
        l = spec.l
        return (_mono(2 * l, 0), _mono(1, 1), _mono(0, 2 * l))
    if spec.kind == "D":
        l = spec.l
        diff_l = _mono(l, 0) - _mono(0, l)
        diff_2l = _mono(2 * l, 0) - _mono(0, 2 * l)
        if l % 2 == 1:
            return (_mono(2, 2), diff_2l, _mono(1, 1) * diff_l ** 2)
        return (_mono(2, 2), diff_l ** 2, _mono(1, 1) * diff_2l)
    if spec.kind == "E6":
        return (
            Poly2(6, {(5, 1): _ONE, (1, 5): -_ONE}),
            Poly2(8, {(8, 0): _ONE, (4, 4): as_cyclo(14), (0, 8): _ONE}),
            Poly2(12, {(12, 0): _ONE, (8, 4): as_cyclo(-33),
                       (4, 8): as_cyclo(-33), (0, 12): _ONE}),
        )
    if spec.kind == "E7":
        return (
            Poly2(8, {(8, 0): _ONE, (4, 4): as_cyclo(14), (0, 8): _ONE}),
            Poly2(12, {(10, 2): _ONE, (6, 6): as_cyclo(-2), (2, 10): _ONE}),
            Poly2(18, {(17, 1): _ONE, (13, 5): as_cyclo(-34),
                       (5, 13): as_cyclo(34), (1, 17): -_ONE}),
        )
    return (
        Poly2(12, {(11, 1): _ONE, (6, 6): as_cyclo(11), (1, 11): -_ONE}),
        Poly2(20, {(20, 0): _ONE, (15, 5): as_cyclo(-228),
                   (10, 10): as_cyclo(494), (5, 15): as_cyclo(228),
                   (0, 20): _ONE}),
        Poly2(30, {(30, 0): _ONE, (25, 5): as_cyclo(522),
                   (20, 10): as_cyclo(-10005), (10, 20): as_cyclo(-10005),
                   (5, 25): as_cyclo(-522), (0, 30): _ONE}),
    )


# ----------------------------------------------------------------------
# instance validation


def test_instance_rejects_bad_input():
    with pytest.raises(ValueError):
        inst("u0^3 + u1^3")  # odd degree
    with pytest.raises(ValueError):
        QgInstance(parse_poly("u0^2*u1^2"))  # a perfect square
    with pytest.raises(TypeError):
        QgInstance("u0^2 + u1^2")


# ----------------------------------------------------------------------
# symmetry detection


@pytest.mark.parametrize("text,label", [
    ("u0^5*u1", "Gm"),                        # two roots, multiplicities 5, 1
    ("u0^3*u1^3", "GmSemidirectZ2"),          # two roots, equal multiplicity
    ("u0^3*u1 - u0*u1^3", "Finite(D2)"),
    ("u0^4 + u1^4", "Finite(D4)"),
    ("u0^6 + u1^6", "Finite(D6)"),
    ("u0^5*u1 - u0*u1^5", "Finite(E7)"),      # octahedron vertices
    ("u0^8 + 14*u0^4*u1^4 + u1^8", "Finite(E7)"),  # cube vertices
    ("u0^11*u1 + 11*u0^6*u1^6 - u0*u1^11", "Finite(E8)"),
    ("u0^2*u1*(u0^3 - u1^3)", "Finite(A3)"),
    ("u0^5*u1 - u0^3*u1^3", "Finite(A2)"),
    ("(u0 - 2*u1)*(2*u0 - u1)*(u0 - 3*u1)*(3*u0 - u1)", "Finite(A1)"),
])
def test_detect_symmetry(text, label):
    assert detect_symmetry(inst(text)).name == label


def test_icosahedral_form_in_rotated_frame():
    # the textbook icosahedral vertex form with the -11 middle sign lies
    # in another coordinate frame; only its order-5 rotation is standard
    q = inst("u0^11*u1 - 11*u0^6*u1^6 - u0*u1^11")
    assert detect_symmetry(q).name == "Finite(A5)"


def test_moved_a3_frame_reads_as_a1_in_given_coordinates():
    # F is read off g in its given coordinates: after a real change of
    # frame the order-3 rotation of this A3 form is no longer standard
    g = parse_poly("u0^2*u1*(u0^3 - u1^3)")
    h = g.compose(Mat2(1, 2, 1, 3))
    assert detect_symmetry(QgInstance(h)).name == "Finite(A1)"


def test_flabel_properties():
    assert FLabel.torus().name == "Gm"
    assert FLabel.torus().report_name == "Gm"
    e7 = FLabel.finite("E7")
    assert e7.name == "Finite(E7)"
    assert e7.report_name == "E7"
    assert e7 == FLabel.finite(GroupSpec.parse("E7"))
    assert e7 != FLabel.torus()


def test_invariant_triples_are_semi_invariant():
    for name in ("A2", "A5", "D2", "D3", "D4", "E6", "E7", "E8"):
        spec = GroupSpec.parse(name)
        grp = catalog(spec)
        for f in invariant_triple(spec):
            assert semi_invariant_character(f, grp) is not None, \
                "%s generator %s" % (name, render_poly(f))


# ----------------------------------------------------------------------
# symmetry detection against the exhaustive scan
#
# The oracle is the scan detect_symmetry replaced: every catalog group
# A_1..A_2n, D_2..D_2n, E6, E7, E8 in standard position, with g composed
# with every element of each.  It is slow (a full E8 scan of a degree-12
# form takes seconds), so its verdicts are cached per (form, group).


@cache
def _scan_character(g, spec):
    """semi_invariant_character as it was: every element, then the lifts."""
    grp = catalog(spec)
    for m in grp.elements:
        if g.compose(m).proportionality(g) is None:
            return None
    return {m: g.compose(unimodular_lift(m) or m).proportionality(g)
            for m in grp.generators}


def _scan_finite_symmetry(g, n):
    specs = ([GroupSpec("A", l) for l in range(1, 2 * n + 1)]
             + [GroupSpec("D", l) for l in range(2, 2 * n + 1)]
             + [GroupSpec(kind) for kind in ("E6", "E7", "E8")])
    hits = [spec for spec in specs if _scan_character(g, spec) is not None]
    keysets = {spec: frozenset(mat_key(m) for m in catalog(spec).elements)
               for spec in hits}
    maximal = [spec for spec in hits
               if not any(other != spec and keysets[spec] < keysets[other]
                          for other in hits)]
    if len(maximal) > 1:
        raise AmbiguousSymmetryError(
            "incomparable maximal symmetry groups: %s"
            % ", ".join(s.name for s in maximal))
    return maximal[0]


def _scan_detect_symmetry(q):
    mults = root_multiplicities(q.g)
    if len(mults) == 2:
        return FLabel.torus_z2() if mults[0] == mults[1] else FLabel.torus()
    return FLabel.finite(_scan_finite_symmetry(q.g, q.n))


def _verdict(detect, *args):
    try:
        return detect(*args)
    except AmbiguousSymmetryError as exc:
        return "ambiguous: %s" % exc


# every catalog group up to A6/D6, with the products of members of its
# invariant triple that are valid bundle data of degree at most 12
TRIPLE_GROUPS = ("A1", "A2", "A3", "A4", "A5", "A6",
                 "D2", "D3", "D4", "D5", "D6", "E6", "E7", "E8")


def _triple_products():
    out = []
    for name in TRIPLE_GROUPS:
        f1, f2, f3 = invariant_triple(GroupSpec.parse(name))
        for pick in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                     (0, 1, 1), (1, 1, 1)):
            g = f1 ** pick[0] * f2 ** pick[1] * f3 ** pick[2]
            if g.degree > 12:
                continue
            try:
                out.append(("%s%s" % (name, pick), QgInstance(g)))
            except ValueError:  # a square
                pass
    return out


# (kind, l, degree, residue of the u0-exponents mod l, swap sign); each
# choice makes the character of the l-rotation or of F_SWAP nontrivial
SEEDED = (("A", 2, 6, 0, None), ("A", 3, 8, 0, None), ("A", 4, 10, 0, None),
          ("A", 5, 12, 0, None), ("D", 2, 6, 0, 1), ("D", 3, 8, 1, -1),
          ("D", 4, 10, 3, 1), ("D", 6, 12, 3, -1), ("D", 5, 10, 0, 1))


def _seeded_semi_invariants(seed=2403):
    rng = random.Random(seed)
    out = []
    for kind, l, degree, residue, sign in SEEDED:
        spec = GroupSpec(kind, l)
        exps = [a for a in range(degree + 1) if a % l == residue]
        for _ in range(100):
            terms = {}
            for a in exps:
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                if sign is None:
                    terms[(a, degree - a)] = c
                elif 2 * a < degree:
                    terms[(a, degree - a)] = c
                    terms[(degree - a, a)] = sign * c
            try:
                q = QgInstance(Poly2(degree, terms))
            except ValueError:  # a square or too few roots
                continue
            if len(q._mults) > 2:
                break
        else:
            raise AssertionError("no valid draw for %s" % spec.name)
        chars = semi_invariant_character(q.g, spec)
        assert chars is not None and any(v != 1 for v in chars.values()), \
            spec.name
        out.append(("%s-seeded" % spec.name, q))
    return out


MOVES = (Mat2.identity(), Mat2(1, 2, 1, 3), Mat2.diag(2, 1),
         Mat2(1, Cyclo.i(), Cyclo.i(), 1))
# the tetrahedral T^2 + chi: in standard position no invariant triple
# member of E6 has stabilizer exactly E6 (each is octahedral)
TETRAHEDRAL = ("u0^12 + u0^10*u1^2 - 33*u0^8*u1^4 - 2*u0^6*u1^6"
               " - 33*u0^4*u1^8 + u0^2*u1^10 + u1^12")


def _moved_forms():
    out = []
    for text in ("u0^5*u1 - u0*u1^5", "u0^6 + u0^3*u1^3 + u1^6",
                 "u0^2*u1*(u0^3 - u1^3)", "u0^4 + u1^4", TETRAHEDRAL):
        for k, m in enumerate(MOVES):
            out.append(("%s@%d" % (text, k), QgInstance(parse_poly(text)
                                                        .compose(m))))
    return out


SYMMETRY_CORPUS = _triple_products() + _seeded_semi_invariants() \
    + _moved_forms()


@pytest.mark.parametrize("name,q", SYMMETRY_CORPUS,
                         ids=[name for name, _ in SYMMETRY_CORPUS])
def test_detect_symmetry_matches_exhaustive_scan(name, q):
    assert _verdict(detect_symmetry, q) == _verdict(_scan_detect_symmetry, q)


def test_corpus_covers_every_kind_of_verdict():
    labels = {detect_symmetry(q).report_name for _, q in SYMMETRY_CORPUS}
    assert {"A1", "A2", "A3", "D2", "D3", "D4", "E6", "E7", "E8",
            "Gm", "GmSemidirectZ2"} <= labels


@pytest.mark.parametrize("text,message", [
    ("u0^3*u1", "A3, A4"),    # a monomial matches every rotation order
    ("u0^2*u1^2", "D3, D4"),
])
def test_monomials_stay_ambiguous_as_in_the_scan(text, message):
    g = parse_poly(text)
    for detect in (_finite_symmetry, _scan_finite_symmetry):
        with pytest.raises(AmbiguousSymmetryError, match=message):
            detect(g, g.degree // 2)


def test_semi_invariant_character_matches_exhaustive_scan():
    names = ["A%d" % l for l in range(1, 9)] \
        + ["D%d" % l for l in range(2, 9)] + ["E6", "E7", "E8"]
    non_invariant = parse_poly("u0^5*u1 + 2*u0^3*u1^3 + u0^2*u1^4 - u1^6")
    for name in names:
        spec = GroupSpec.parse(name)
        f1 = invariant_triple(spec)[0]
        for g in (f1, f1 * parse_poly("u0^5*u1 - u0*u1^5"), non_invariant):
            expected = _scan_character(g, spec)
            assert semi_invariant_character(g, spec) == expected, name
            assert semi_invariant_character(g, catalog(spec)) == expected
    for _, q in _seeded_semi_invariants():
        for name in names[:10]:
            spec = GroupSpec.parse(name)
            assert semi_invariant_character(q.g, spec) \
                == _scan_character(q.g, spec), name


def test_h_rot_is_swap_then_half_turn():
    # the E8 generator that _finite_symmetry composes g with
    assert F_SWAP * rotation_gen(2) == H_ROT
    assert generators(GroupSpec("E8"))[1] == H_ROT


def test_report_renders_each_equation_once(monkeypatch):
    # E7: eight forms over [I2], [omega_8] and [h]; the first two
    # classes carry g and one twisted equation
    report = enumerate_forms(inst("u0^5*u1 - u0*u1^5"))
    expected = report.as_dict()
    rendered = []

    def counting_render(p):
        rendered.append(p)
        return render_poly(p)

    monkeypatch.setattr(quadrics, "render_poly", counting_render)
    assert report.as_dict() == expected
    assert len(expected["forms"]) == 8 and len(rendered) == 2


@pytest.mark.parametrize("text,composes,label", [
    # F_SWAP, H_ROT and BETA
    ("u0^11*u1 + 11*u0^6*u1^6 - u0*u1^11", 3, "E8"),
    ("u0^24 + u1^24", 1, "D24"),
])
def test_detection_op_counts(monkeypatch, text, composes, label):
    q = inst(text)
    calls = {"compose": 0}
    closures = []
    original_compose = Poly2.compose
    original_close = groups.close

    def counting_compose(self, m):
        calls["compose"] += 1
        return original_compose(self, m)

    def recording_close(gens, *args, **kwargs):
        closures.append(tuple(gens))
        return original_close(gens, *args, **kwargs)

    monkeypatch.setattr(Poly2, "compose", counting_compose)
    monkeypatch.setattr(groups, "close", recording_close)
    catalog.cache_clear()
    try:
        detected = detect_symmetry(q)
    finally:
        catalog.cache_clear()
    assert detected.report_name == label
    assert calls["compose"] == composes
    assert closures == []


def test_classification_factors_and_detects_once(monkeypatch):
    # the instance keeps the multiplicities it validated with and the
    # label it was detected with; enumerate_forms and the rotation order
    # of structure 5 reuse both
    import realforms.quadrics as quadrics
    calls = {"yun": 0, "finite": 0}
    original_mults = quadrics.root_multiplicities
    original_finite = quadrics._finite_symmetry

    def counting_mults(g):
        calls["yun"] += 1
        return original_mults(g)

    def counting_finite(g, n):
        calls["finite"] += 1
        return original_finite(g, n)

    monkeypatch.setattr(quadrics, "root_multiplicities", counting_mults)
    monkeypatch.setattr(quadrics, "_finite_symmetry", counting_finite)
    q = inst("u0^4 + u1^4 + u0^2*u1^2")
    assert detect_symmetry(q) == FLabel.finite(GroupSpec("D", 2))
    enumerate_forms(q)
    assert check_real_structure(5, q)["valid"]
    assert q._mults == [1] * 4
    assert calls == {"yun": 1, "finite": 1}


@pytest.mark.parametrize("text,group,composes", [
    ("u0^6 + u1^6", "D6", 2),                    # [omega_12] and [f]
    ("u0^5*u1 - u0*u1^5", "E7", 1),              # [omega_8]
    ("u0^8 + 14*u0^4*u1^4 + u1^8", "E7", 1),
    ("u0^2*u1*(u0^3 - u1^3)", "A3", 0),          # [I2] only
])
def test_one_compose_per_twisted_equation(monkeypatch, text, group, composes):
    # after detection, each class other than [I2] that carries an
    # equation costs one composition with its splitting matrix, and the
    # character of g is never computed
    q = inst(text)
    assert detect_symmetry(q).report_name == group
    calls = []
    original = Poly2.compose

    def counting(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(Poly2, "compose", counting)
    enumerate_forms(q)
    assert len(calls) == composes


# ----------------------------------------------------------------------
# counts: the closed-form table


# (rational, unknown, no real points) per symmetry kind and parity of n
COUNT_TABLE = {
    ("A1", "even"): (2, 2, 0), ("A1", "odd"): (2, 2, 0),
    ("A2", "even"): (4, 4, 0), ("A2", "odd"): (2, 2, 0),
    ("A3", "even"): (2, 2, 0), ("A3", "odd"): (2, 2, 0),
    ("A4", "even"): (4, 4, 0), ("A4", "odd"): (2, 2, 0),
    ("D2", "even"): (6, 6, 4), ("D2", "odd"): (3, 3, 4),
    ("D3", "even"): (4, 4, 0), ("D3", "odd"): (2, 2, 0),
    ("D4", "even"): (6, 6, 4), ("D4", "odd"): (3, 3, 4),
    ("D5", "even"): (4, 4, 0), ("D5", "odd"): (2, 2, 0),
    ("E6", "even"): (2, 2, 4), ("E6", "odd"): (1, 1, 4),
    ("E7", "even"): (4, 4, 4), ("E7", "odd"): (2, 2, 4),
    ("E8", "even"): (2, 2, 4), ("E8", "odd"): (1, 1, 4),
}


def test_form_counts_finite_table():
    for (name, parity), expected in COUNT_TABLE.items():
        label = FLabel.finite(name)
        assert tuple(form_counts(parity, label)) == expected, (name, parity)


def test_twist_classes_are_the_named_classes_and_split_them():
    """Each twisting class is a class of `h1_named`, in its order, and
    its splitting matrix b gives b * conj(b)^-1 in that class."""
    specs = [GroupSpec("A", l) for l in range(1, 25)]
    specs += [GroupSpec("D", l) for l in range(2, 25)]
    specs += [GroupSpec(kind) for kind in ("E6", "E7", "E8")]
    for spec in specs:
        named = h1_named(spec)
        classes = quadrics._twist_classes(spec)
        assert [label for label, _ in classes] == [
            "[%s]" % name.replace("omega", "omega_") for name, _ in named]
        for (label, b), (_, rep) in zip(classes, named):
            if b is not None:
                split = (b * b.conj().inverse()).normalized()
                assert split in twisted_class_of(spec, rep), (spec, label)


def test_form_counts_torus_cases():
    assert tuple(form_counts("even", FLabel.torus())) == (1, 1, 0)
    assert tuple(form_counts("odd", FLabel.torus())) == (1, 1, 0)
    two_root = form_counts("odd", FLabel.torus_z2())
    assert tuple(two_root) == (3, 2, 1)
    assert two_root.note["coarse_count"] == (2, 2, 0)
    with pytest.raises(ValueError):
        form_counts("even", FLabel.torus_z2())
    with pytest.raises(ValueError):
        form_counts("both", FLabel.torus())


def test_form_counts_total():
    c = FormCounts(4, 4, 4)
    assert sum(c) == 12 and c.rational == 4


# ----------------------------------------------------------------------
# enumeration: frozen reports


def by_class(report):
    out = {}
    for f in report.forms:
        eq = render_poly(f.equation) if f.equation is not None else None
        out.setdefault(f.over_class, (eq, []))
        assert out[f.over_class][0] == eq
        out[f.over_class][1].append((f.tag, f.status))
    return out


def test_octahedral_even_report():
    report = enumerate_forms(inst("u0^8 + 14*u0^4*u1^4 + u1^8"))
    assert report.symmetry.name == "Finite(E7)"
    assert len(report.forms) == 12
    assert tuple(report.counts()) == (4, 4, 4)
    classes = by_class(report)
    assert classes["[I2]"][0] == "u0^8 + 14*u0^4*u1^4 + u1^8"
    assert classes["[omega_8]"][0] == "-u0^8 + 14*u0^4*u1^4 - u1^8"
    assert classes["[h]"][0] is None
    assert classes["[I2]"][1] == [("W1", "rational"), ("X1", "rational"),
                                  ("Y1", "unknown"), ("Z1", "unknown")]
    assert classes["[omega_8]"][1] == [("W2", "rational"), ("X2", "rational"),
                                       ("Y2", "unknown"), ("Z2", "unknown")]
    assert [s for _, s in classes["[h]"][1]] == ["no_real_points"] * 4


def test_klein_four_even_report():
    # g = f1^2 + f2^2 for the Klein four-group generators f1 = u0^2 u1^2,
    # f2 = (u0^2 - u1^2)^2; its omega_4 twist is g(u0, i u1) exactly, and
    # the f twist was cross-checked against the conjugation u0 -> u0 +
    # zeta_8 u1, u1 -> zeta_8 u0 + u1, whose cocycle is the antidiagonal
    # flip (the twisted forms agree up to a real coordinate change)
    g = parse_poly("u0^8 - 4*u0^6*u1^2 + 7*u0^4*u1^4 - 4*u0^2*u1^6 + u1^8")
    report = enumerate_forms(QgInstance(g))
    assert report.symmetry.name == "Finite(D2)"
    assert len(report.forms) == 16
    assert tuple(report.counts()) == (6, 6, 4)
    classes = by_class(report)
    assert classes["[I2]"][0] == render_poly(g)
    assert classes["[omega_4]"][0] == \
        "u0^8 + 4*u0^6*u1^2 + 7*u0^4*u1^4 + 4*u0^2*u1^6 + u1^8"
    assert parse_poly(classes["[omega_4]"][0]) == g.compose(
        Mat2.diag(Cyclo.rational(1), Cyclo.i()))
    assert classes["[f]"][0] == \
        "17*u0^8 - 60*u0^6*u1^2 + 102*u0^4*u1^4 - 60*u0^2*u1^6 + 17*u1^8"
    assert classes["[h]"][0] is None


def test_square_vertices_even_report():
    report = enumerate_forms(inst("u0^4 + u1^4"))
    assert report.symmetry.name == "Finite(D4)"
    assert tuple(report.counts()) == (6, 6, 4)
    classes = by_class(report)
    assert classes["[omega_8]"][0] == "-u0^4 + u1^4"
    assert classes["[f]"][0] == "2*u0^4 - 12*u0^2*u1^2 + 2*u1^4"


def test_hexagon_odd_report():
    report = enumerate_forms(inst("u0^6 + u1^6"))
    assert report.symmetry.name == "Finite(D6)"
    assert len(report.forms) == 10
    assert tuple(report.counts()) == (3, 3, 4)
    classes = by_class(report)
    # odd fiber count merges the conic pairs: only W and Y survive
    assert classes["[I2]"][1] == [("W1", "rational"), ("Y1", "unknown")]
    assert classes["[omega_12]"][0] == "-u0^6 + u1^6"
    assert classes["[f]"][0] == "-12*u0^5*u1 + 40*u0^3*u1^3 - 12*u0*u1^5"


def test_octahedron_odd_report():
    report = enumerate_forms(inst("u0^5*u1 - u0*u1^5"))
    assert report.symmetry.name == "Finite(E7)"
    assert len(report.forms) == 8
    assert tuple(report.counts()) == (2, 2, 4)
    classes = by_class(report)
    assert classes["[omega_8]"][0] == "-u0^5*u1 - u0*u1^5"


def test_tetrahedral_reports():
    spec = GroupSpec.parse("E6")
    f1, _, f3 = invariant_triple(spec)
    even = enumerate_forms(QgInstance(f1 ** 2 + f3))
    assert even.symmetry.name == "Finite(E6)"
    assert tuple(even.counts()) == (2, 2, 4)
    odd = enumerate_forms(QgInstance(f1 ** 3 + f1 * f3))
    assert odd.symmetry.name == "Finite(E6)"
    assert tuple(odd.counts()) == (1, 1, 4)


def test_icosahedral_even_report():
    report = enumerate_forms(inst("u0^11*u1 + 11*u0^6*u1^6 - u0*u1^11"))
    assert report.symmetry.name == "Finite(E8)"
    assert len(report.forms) == 8
    assert tuple(report.counts()) == (2, 2, 4)


def test_cyclic_reports():
    # cyclic symmetry of odd order: two classes regardless of parity
    for text, n_parity in (("u0^2*u1*(u0^3 - u1^3)", 1),
                           ("u0^2*u1^3*(u0^3 - u1^3)", 0)):
        report = enumerate_forms(inst(text))
        assert report.symmetry.name == "Finite(A3)"
        assert report.instance.n % 2 == n_parity
        assert tuple(report.counts()) == (2, 2, 0)
    # cyclic of even order, even n: four classes, doubled
    report = enumerate_forms(inst("u0^6*u1^2 + u1^8"))
    assert report.symmetry.name == "Finite(A6)"
    assert tuple(report.counts()) == (4, 4, 0)


# ----------------------------------------------------------------------
# enumeration: the twisted equations against frozen twisted triples
#
# Over a class [a] split by b the generator triple twists to real forms
# (f1', f2', f3'), so g = P(f1, f2, f3) twists to P(f1', f2', f3') with
# no solver involved.  The triples are those of the classical tables.


def _dihedral_twisted_f(l):
    """The D_l generator triple twisted over the flip class [f]."""
    s2 = Poly2(2, {(2, 0): _ONE, (0, 2): _ONE})
    f1 = -(s2 ** 2)
    even_sum = Poly2(2 * l, {
        (2 * (l - k), 2 * k): as_cyclo(2 * comb(2 * l, 2 * k) * (-1) ** k)
        for k in range(l + 1)})
    odd_sum = Poly2(2 * l, {
        (2 * (l - k) - 1, 2 * k + 1):
            as_cyclo(2 * comb(2 * l, 2 * k + 1) * (-1) ** k)
        for k in range(l)})
    i_pow = Cyclo.i() ** l
    if l % 2 == 1:
        f2 = even_sum
        f3 = (s2 ** (l + 1)) * (i_pow * Cyclo.i() * Fraction(-2)) \
            - s2 * odd_sum
    else:
        f2 = (s2 ** l) * (i_pow * Fraction(-2)) + even_sum
        f3 = -(s2 * odd_sum)
    return (f1, f2, f3)


def _twisted_triples(spec):
    """Class label -> the generator triple twisted over that class."""
    f1, f2, f3 = invariant_triple(spec)
    l = spec.l
    if spec.kind == "A":
        return {} if l % 2 else {"[omega_%d]" % (2 * l): (-f1, f2, -f3)}
    if spec.kind == "D":
        out = {"[f]": _dihedral_twisted_f(l)}
        if l % 2 == 0:
            plus = _mono(l, 0) + _mono(0, l)
            out["[omega_%d]" % (2 * l)] = (f1, -(plus ** 2), -f3)
        return out
    if spec.kind == "E7":
        return {"[omega_8]": (
            Poly2(8, {(8, 0): -_ONE, (4, 4): as_cyclo(14), (0, 8): -_ONE}),
            Poly2(12, {(10, 2): -_ONE, (6, 6): as_cyclo(-2),
                       (2, 10): -_ONE}),
            Poly2(18, {(17, 1): _ONE, (13, 5): as_cyclo(34),
                       (5, 13): as_cyclo(-34), (1, 17): -_ONE}))}
    return {}


def _evaluate(expression, triple, degree):
    acc = Poly2(degree, {})
    for (a, b, c), coeff in expression:
        acc = acc + triple[0] ** a * triple[1] ** b * triple[2] ** c * coeff
    return acc


ORACLE_GROUPS = ["A%d" % l for l in range(1, 9)] \
    + ["D%d" % l for l in range(2, 9)] + ["E6", "E7", "E8"]
ORACLE_COEFFS = (-3, -2, -1, 1, 2, 3, Cyclo.zeta(5) + Cyclo.zeta(5, 4))


def _oracle_inputs(seed=1493):
    """(spec, expression, g): g = sum coeff * f1^a f2^b f3^c, degree <= 16,
    a valid bundle datum whose detected group is the generating one."""
    rng = random.Random(seed)
    out = []
    for name in ORACLE_GROUPS:
        spec = GroupSpec.parse(name)
        triple = invariant_triple(spec)
        d1, d2, d3 = (f.degree for f in triple)
        for degree in range(2, 17, 2):
            monos = [(a, b, (degree - a * d1 - b * d2) // d3)
                     for a in range(degree // d1 + 1)
                     for b in range((degree - a * d1) // d2 + 1)
                     if (degree - a * d1 - b * d2) % d3 == 0]
            for draw in range(3 if monos else 0):
                # the first draw uses every monomial, the others a subset
                picked = rng.sample(monos, len(monos) if draw == 0
                                    else rng.randint(1, len(monos)))
                expression = [(m, as_cyclo(rng.choice(ORACLE_COEFFS)))
                              for m in picked]
                g = _evaluate(expression, triple, degree)
                try:
                    q = QgInstance(g)
                    label = detect_symmetry(q)
                except (ValueError, AmbiguousSymmetryError):
                    continue  # a square, or a monomial
                if label == FLabel.finite(spec):
                    out.append((spec, expression, q))
    return out


def test_twisted_equations_match_the_twisted_triples():
    inputs = _oracle_inputs()
    assert {spec.name for spec, _, _ in inputs} == set(ORACLE_GROUPS)
    twisted = 0
    for spec, expression, q in inputs:
        expected = {label: _evaluate(expression, triple, q.g.degree)
                    for label, triple in _twisted_triples(spec).items()}
        expected["[I2]"] = q.g
        printed = {}
        for form in enumerate_forms(q).forms:
            if form.equation is not None:
                printed[form.over_class] = render_poly(form.equation)
        assert printed == {label: render_poly(g)
                           for label, g in expected.items()}, \
            (spec.name, render_poly(q.g))
        twisted += len(expected) - 1
    assert twisted >= 100


def _two_pass_realify(h):
    """_realify as it was: s from a full proportionality pass over
    conj(h) and h, then the square root and the realness check."""
    s = h.conj_coeffs().proportionality(h)
    if s is None:
        raise ValueError("conjugate is not proportional; cannot rescale")
    lam = s.sqrt()
    if lam is None:
        raise ValueError("no cyclotomic square root for %r" % (s,))
    out = h * lam
    if not out.real_coefficients():
        raise ValueError("rescaling by a square root failed to realify")
    return out


def test_one_pass_realify_matches_the_two_pass_rescaling():
    twisted = {}
    for spec, _, q in _oracle_inputs():
        if spec.name == "A1" or spec.name in twisted:
            continue  # one catalog form per group; A1 has no twists
        twisted[spec.name] = 0
        for label, b in quadrics._twist_classes(spec):
            if b is not None:
                h = q.g.compose(b)
                assert quadrics._realify(h) == _two_pass_realify(h), \
                    (spec.name, label)
                twisted[spec.name] += 1
    assert set(twisted) == set(ORACLE_GROUPS) - {"A1"}
    assert sum(twisted.values()) >= 16
    # h not proportional to its conjugate: s = 1 but i*u1^2 stays
    # complex, and s = (1 - 2i)/(1 + 2i) is no root of unity
    for text in ("u0^2 + i*u1^2", "(1 + 2*i)*u0^2 + u1^2"):
        h = parse_poly(text)
        with pytest.raises(ValueError):
            _two_pass_realify(h)
        with pytest.raises(ValueError):
            quadrics._realify(h)


@pytest.mark.parametrize("text, label", [
    ("u0^8 + 2*u0^4*u1^4 + 3*u1^8", "[omega_8]"),
    ("u0^8 + u1^8 + 2*u0^6*u1^2 + 2*u0^2*u1^6 + 5*u0^4*u1^4", "[f]"),
])
def test_realify_makes_one_product_per_term_and_one_more(
        monkeypatch, text, label):
    q = inst(text)
    b = dict(quadrics._twist_classes(detect_symmetry(q).group))[label]
    h = q.g.compose(b)
    calls, counting = [], [True]
    mul, sqrt = Cyclo.__mul__, Cyclo.sqrt

    def counting_mul(self, other):
        if counting[0]:
            calls.append(other)
        return mul(self, other)

    def uncounted_sqrt(self):
        counting[0] = False
        try:
            return sqrt(self)
        finally:
            counting[0] = True

    monkeypatch.setattr(Cyclo, "__mul__", counting_mul)
    monkeypatch.setattr(Cyclo, "sqrt", uncounted_sqrt)
    out = quadrics._realify(h)
    monkeypatch.setattr(Cyclo, "__mul__", mul)
    assert out.real_coefficients()
    # s = conj(c) / c is one product, lam * h one per term
    assert len(calls) == len(h.terms) + 1


def test_torus_fiber_report():
    report = enumerate_forms(inst("u0^5*u1"))
    assert report.symmetry.name == "Gm"
    assert [(f.tag, f.status) for f in report.forms] == \
        [("Q", "rational"), ("T", "unknown")]


def test_two_root_equal_report():
    report = enumerate_forms(inst("u0^3*u1^3"))
    assert report.symmetry.name == "GmSemidirectZ2"
    assert tuple(report.counts()) == (3, 2, 1)
    assert report.note is not None
    classes = by_class(report)
    assert classes["[mu1]"][1] == [("Q", "rational"), ("T", "unknown")]
    # the twist moves the double root pair to +-i cubed
    assert classes["[mu8]"][0] == \
        "u0^6 + 3*u0^4*u1^2 + 3*u0^2*u1^4 + u1^6"
    assert classes["[mu8]"][1][-1] == ("Z'", "no_real_points")


def test_two_root_equal_requires_coordinate_position():
    with pytest.raises(ValueError):
        enumerate_forms(inst("u0^2 + u1^2"))


def test_report_as_dict():
    data = enumerate_forms(inst("u0^8 + 14*u0^4*u1^4 + u1^8")).as_dict()
    assert data["F"] == "E7"
    assert data["n"] == 4
    assert data["counts"] == {"rational": 4, "unknown": 4,
                              "no_real_points": 4}
    assert len(data["forms"]) == 12
    assert data["forms"][0]["form"] == "W1"
    assert "equation" not in data["forms"][-1]  # the h-class rows carry none


# ----------------------------------------------------------------------
# realizability over the reals


@pytest.mark.parametrize("text", [
    "u0^3*u1 + i*u0*u1^3",
    "i*u0^4 + u1^4",
    "zeta(3)*u0^2 + u1^2",
    "u0^6 + zeta(8)*u1^6",
    "u0^6 + i*u0^3*u1^3 + u1^6",
])
def test_realizable_witnesses(text):
    g = parse_poly(text)
    witness = realizable(g)
    assert witness is not None
    lam, phi = witness
    assert (g.compose(phi) * lam).real_coefficients()


def test_realizable_trivial_cases():
    g = parse_poly("u0^4 + u1^4")
    lam, phi = realizable(g)
    assert lam == 1 and phi == Mat2.identity()
    lam, phi = realizable(parse_poly("i*u0^3*u1"))
    assert (parse_poly("i*u0^3*u1").compose(phi) * lam).real_coefficients()


@pytest.mark.parametrize("text, real", [
    ("u0^4 + i*u0^3*u1 + u1^4",
     "u0^4 - 3/8*u0^2*u1^2 + 1/8*u0*u1^3 + 253/256*u1^4"),
    # the shear alone leaves one term when the form is a fourth power
    ("(u0 + i*u1)^4", "u0^4"),
])
def test_realizable_shears_away_the_subleading_term(text, real):
    g = parse_poly(text)
    lam, phi = realizable(g)
    assert g.compose(phi) * lam == parse_poly(real)


def test_realizable_undecidable():
    with pytest.raises(UndecidableError, match="cyclotomic"):
        realizable(parse_poly("(1 + 2*i)*u0^4 + u1^4"))


def test_realizable_negative():
    # a unimodular, infinite-order twist requirement has no cyclotomic
    # witness; a genuinely impossible finite system returns None
    g = parse_poly("u0^4 + i*u0^2*u1^2 - u0*u1^3")
    out = realizable(g)
    if out is not None:
        lam, phi = out
        assert (g.compose(phi) * lam).real_coefficients()


def test_realizable_rejects_odd_degree():
    with pytest.raises(ValueError):
        realizable(parse_poly("u0^3 + u1^3"))


# ----------------------------------------------------------------------
# real structures on the ambient bundle


CORPUS = ("u0^2 + u1^2", "u0^3*u1 - u0*u1^3", "u0^4 + u1^4",
          "u0^4 + u1^4 + u0^2*u1^2", "u0^5*u1", "u0^6 + u1^6",
          "u0^5*u1 - u0*u1^5", "u0^8 + 14*u0^4*u1^4 + u1^8",
          "u0^10 + u1^10",
          "u0^12 - 33*u0^8*u1^4 - 33*u0^4*u1^8 + u1^12")


def test_basic_structures_on_corpus():
    for text in CORPUS:
        q = inst(text)
        for index in (1, 2, 3, 4):
            verdict = check_real_structure(index, q)
            assert verdict["valid"], (text, index)


def test_rotation_structure_needs_order():
    q = inst("u0^4 + u1^4 + u0^2*u1^2")
    verdict = check_real_structure(5, q)  # order auto-detected from D2
    assert verdict["valid"]
    assert check_real_structure(5, q, l=2)["valid"]


def test_rotation_structure_no_canonical_order():
    # the trivial group still carries l = 1, but a torus fiber does not
    with pytest.raises(ApplicabilityError, match="rotation order"):
        check_real_structure(5, inst("u0^5*u1"), l=None)
    assert check_real_structure(
        5, inst("(u0 - 2*u1)*(2*u0 - u1)*(u0 - 3*u1)*(3*u0 - u1)"))["valid"]


def test_quarter_turn_needs_even_fiber_count():
    with pytest.raises(ApplicabilityError, match="n even"):
        check_real_structure(7, inst("u0^6 + u1^6"))  # n = 3
    assert check_real_structure(7, inst("u0^4 + u1^4"))["valid"]


def test_swap_structures():
    q = inst("u0^8 + 14*u0^4*u1^4 + u1^8")
    for index in (8, 9, 10, 11):
        assert check_real_structure(index, q)["valid"]


def test_structure_index_range():
    with pytest.raises(ValueError):
        check_real_structure(12, inst("u0^2 + u1^2"))


# check_real_structure(index, q) for index 1..11: the (x-part, u-part)
# scalars of the square and the pullback scalar, or the refusal message
_FIBER = "mu_%d does not preserve the fiber equation"
_ODD_N = ("mu_7 squares to the sign flip of x3 when n is odd, so it is "
          "not a real structure there; it needs n even")
_NO_ORDER = "no canonical rotation order for symmetry %s; pass l explicitly"
STRUCTURE_VERDICTS = {
    "u0^4+u1^4": [(1, 1, 1)] * 4 + [_FIBER % 5, (1, 1, 1), (1, -1, 1)]
    + [(1, 1, 1)] * 4,
    "u0^8+14*u0^4*u1^4+u1^8": [(1, 1, 1)] * 6 + [(1, -1, 1)]
    + [(1, 1, 1)] * 4,
    "u0^4+u0*u1^3": [(1, 1, 1)] * 4 + [_FIBER % k for k in range(5, 12)],
    "u0^5*u1": [(1, 1, 1)] * 4 + [_NO_ORDER % "Gm", _FIBER % 6, _ODD_N]
    + [_FIBER % k for k in range(8, 12)],
    "u0^3*u1^3": [(1, 1, 1)] * 4
    + [_NO_ORDER % "GmSemidirectZ2", _FIBER % 6, _ODD_N]
    + [(1, 1, 1)] * 4,
    # g(i u1, i u0) = g, so mu_6 is refused only because conj(g) is not
    # a multiple of g
    "u0^4+i*u0^2*u1^2+u1^4": [_FIBER % k for k in range(1, 12)],
}


@pytest.mark.parametrize("text", sorted(STRUCTURE_VERDICTS))
def test_structure_verdicts_are_pinned(text):
    q = inst(text)
    for index, expected in enumerate(STRUCTURE_VERDICTS[text], start=1):
        if isinstance(expected, str):
            with pytest.raises(ApplicabilityError) as info:
                check_real_structure(index, q)
            assert str(info.value) == expected, (text, index)
            continue
        m, rho, s = expected
        verdict = check_real_structure(index, q)
        assert verdict == {"valid": True, "square": (m, rho),
                           "pullback_scalar": s}, (text, index)
        assert all(isinstance(v, Cyclo) for v in verdict["square"]
                   + (verdict["pullback_scalar"],))


def test_tau_structure_has_no_real_conic_point():
    # the fixed points of x -> TAU3(conj(x)) are (i t0, t1 + i t2,
    # t1 - i t2) for real t, where the conic is -(t0^2 + t1^2 + t2^2)
    t0, t1, t2 = Poly.variables(3)
    i = Cyclo.i()
    point = (t0 * i, t1 + t2 * i, t1 - t2 * i)
    image = tuple(a.substitute([p.conj_coeffs() for p in point])
                  for a in quadrics._TAU3)
    assert image == point
    assert quadrics._CONIC.substitute(point) == -(t0 * t0 + t1 * t1 + t2 * t2)


def test_conic_pullback_conjugates_its_coefficients(monkeypatch):
    # x -> (zeta_8 x0, i x1, x2) pulls the conic back to i times itself,
    # so after conjugation the scalar is -i; c3 = zeta_8 balances it
    z = Cyclo.zeta(8)
    x0, x1, x2 = Poly.variables(3)
    twisted = (x0 * z, x1 * Cyclo.i(), x2)
    monkeypatch.setattr(quadrics, "_structure_data",
                        lambda index, n, l=None: (twisted, z, Mat2.identity()))
    verdict = check_real_structure(1, inst("u0^4 + u1^4"))
    assert verdict["square"] == (1, 1)
    assert verdict["pullback_scalar"] == -Cyclo.i()


def test_structure_rejects_wrong_fiber():
    # mu_6 sends u0 -> i u1, u1 -> i u0; a fiber with unbalanced root
    # multiplicities at 0 and infinity cannot come back to itself
    with pytest.raises(ApplicabilityError):
        check_real_structure(6, inst("u0^5*u1"))


# ----------------------------------------------------------------------
# the degree-raising link


def test_psi_pullback_identity():
    g = parse_poly("u0^4 + u1^4")
    h = parse_poly("u0^2 + u1^2")
    assert psi_pullback_identity(g, h)


def test_psi_composition_law():
    # two steps by h1 then h2 match one step by h1 h2
    g = parse_poly("u0^4 + u1^4")
    h1 = parse_poly("u0^2 + u1^2")
    h2 = parse_poly("u0")
    assert psi_pullback_identity(g, h1 * h2)
    assert psi_pullback_identity(g * h1 * h1, h2)


def test_check_psi_h():
    out = check_psi_h(inst("u0^4 + u1^4"), parse_poly("u0^2 + u1^2"))
    assert out == {"identity": True, "n_prime": 4}
    out = check_psi_h(inst("u0^6 + u1^6"), parse_poly("u1"))
    assert out["n_prime"] == 4


def test_check_psi_h_rejects_real_split():
    with pytest.raises(ValueError, match="discriminant"):
        check_psi_h(inst("u0^4 + u1^4"), parse_poly("u0^2 - u1^2"))


def test_check_psi_h_rejects_high_degree_twist():
    with pytest.raises(ValueError, match="degree 3"):
        check_psi_h(inst("u0^4 + u1^4"), parse_poly("u0^3 + u1^3"))


def test_check_psi_h_rejects_complex_data():
    with pytest.raises(ValueError):
        check_psi_h(inst("i*u0^4 + u1^4"), parse_poly("u0^2 + u1^2"))
    with pytest.raises(ValueError):
        check_psi_h(inst("u0^4 + u1^4"), parse_poly("i*u0^2 + u1^2"))
