"""Finite subgroups of PGL2 and their real Galois cohomology.

The classical finite subgroups of the projective linear group — cyclic,
dihedral, tetrahedral, octahedral, icosahedral — are built here from
explicit cyclotomic generators.  Since every entry is exact, the group
operation, the entrywise Galois action, and the nonabelian cohomology
set H^1(Z/2, G) are all decidable by direct enumeration.
"""

from functools import cache

from .exact import Cyclo, Mat2, Poly2, VerificationError

CLOSURE_BOUND = 256


def _cyclo_key(c: Cyclo):
    return (c.n, c.coeffs)


def mat_key(m: Mat2):
    """Total order on matrices; used for canonical class representatives."""
    return (_cyclo_key(m.a), _cyclo_key(m.b), _cyclo_key(m.c), _cyclo_key(m.d))


# ----------------------------------------------------------------------
# catalog


class GroupSpec:
    """Label for one of the finite subgroups: A(l), D(l), E6, E7, E8."""

    __slots__ = ("kind", "l")

    def __init__(self, kind: str, l: int = 0):
        kind = kind.upper()
        if kind == "A":
            if l < 1:
                raise ValueError("cyclic group needs l >= 1")
        elif kind == "D":
            if l < 2:
                raise ValueError("dihedral group needs l >= 2")
        elif kind in ("E6", "E7", "E8"):
            if l:
                raise ValueError("%s takes no parameter" % kind)
        else:
            raise ValueError("unknown group kind %r" % kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "l", l)

    def __setattr__(self, *a):
        raise AttributeError("GroupSpec is immutable")

    @classmethod
    def parse(cls, name: str) -> "GroupSpec":
        """Parse 'A5', 'D4', 'E6', 'E7', 'E8'.  A named group is closed, so
        its order may not exceed CLOSURE_BOUND; the constructor takes any l."""
        name = name.strip().upper()
        if name in ("E6", "E7", "E8"):
            return cls(name)
        digits = name[1:]
        if name[:1] in ("A", "D") and digits.isascii() and digits.isdigit():
            spec = cls(name[:1], int(digits))
            if spec.order() > CLOSURE_BOUND:
                raise ValueError("group %s has order %d, past the closure "
                                 "bound %d" % (spec.name, spec.order(),
                                                CLOSURE_BOUND))
            return spec
        raise ValueError("unknown group name %r" % name)

    @property
    def name(self) -> str:
        if self.kind in ("A", "D"):
            return "%s%d" % (self.kind, self.l)
        return self.kind

    def order(self) -> int:
        return {"A": self.l, "D": 2 * self.l,
                "E6": 12, "E7": 24, "E8": 60}[self.kind]

    def __eq__(self, other):
        if not isinstance(other, GroupSpec):
            return NotImplemented
        return (self.kind, self.l) == (other.kind, other.l)

    def __hash__(self):
        return hash((self.kind, self.l))

    def __repr__(self):
        return "GroupSpec(%r)" % self.name


@cache
def rotation_gen(l: int) -> Mat2:
    """diag(zeta_2l, zeta_2l^-1): order l in PGL2."""
    return Mat2.diag(Cyclo.zeta(2 * l), Cyclo.zeta(2 * l) ** -1)


F_SWAP = Mat2(0, Cyclo.i(), Cyclo.i(), 0)
H_ROT = Mat2(0, 1, -1, 0)
ALPHA = Mat2(1 - Cyclo.i(), 1 - Cyclo.i(),
             -1 - Cyclo.i(), 1 + Cyclo.i())
_B5 = Cyclo.zeta(5) + Cyclo.zeta(5) ** -1
BETA = Mat2(_B5, 1, 1, -_B5)


def generators(spec: GroupSpec):
    if spec.kind == "A":
        return (rotation_gen(spec.l),)
    if spec.kind == "D":
        return (rotation_gen(spec.l), F_SWAP)
    if spec.kind == "E6":
        return (rotation_gen(2), F_SWAP, ALPHA)
    if spec.kind == "E7":
        return (rotation_gen(2), F_SWAP, ALPHA, rotation_gen(4))
    return (rotation_gen(5), H_ROT, BETA)


class FiniteGroup:
    """A closed finite subgroup of PGL2, elements in canonical form."""

    __slots__ = ("elements", "generators", "_members")

    def __init__(self, elements, gens):
        object.__setattr__(self, "elements",
                           tuple(sorted(elements, key=mat_key)))
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_members", frozenset(self.elements))

    def __setattr__(self, *a):
        raise AttributeError("FiniteGroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m: Mat2) -> bool:
        return m.normalized() in self._members

    def is_galois_stable(self) -> bool:
        # conjugation keeps the leading 1 of a normalized matrix, so the
        # conjugates need no normalizing
        return all(m.conj() in self._members for m in self.elements)

    def __repr__(self):
        return "FiniteGroup(order %d)" % self.order


def close(gens) -> FiniteGroup:
    """Smallest multiplicatively closed set containing gens and identity.

    Aborts if the closure exceeds `CLOSURE_BOUND` — the usual symptom of a
    generating set that was mis-entered or generates an infinite group.
    Generators are stored as entered (their scaling matters to character
    computations); the element set holds normalized representatives.
    """
    gens = tuple(gens)
    norm = []
    for g in gens:
        if g.det().is_zero():
            raise ValueError("generator is singular: %r" % (g,))
        norm.append(g.normalized())
    elements = {Mat2.identity()}
    frontier = [Mat2.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in norm:
                y = (x * g).normalized()
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > CLOSURE_BOUND:
                        raise RuntimeError("group closure exceeded %d "
                                           "elements" % CLOSURE_BOUND)
        frontier = nxt
    return FiniteGroup(elements, gens)


@cache
def catalog(spec: GroupSpec) -> FiniteGroup:
    """The closed group for a catalog label, with its standard generators."""
    grp = close(generators(spec))
    if grp.order != spec.order():
        raise VerificationError(
            "closure of %s has %d elements, expected %d"
            % (spec.name, grp.order, spec.order()))
    return grp


# ----------------------------------------------------------------------
# H^1(Z/2, G) for conjugation acting entrywise


def _is_cocycle(a: Mat2) -> bool:
    # the Galois twist of a must be its projective inverse; being scalar
    # is projective, so the product needs no normalizing
    return (a * a.conj()).is_scalar()


def _adjugate(b: Mat2) -> Mat2:
    # det(b) * b^-1: the inverse up to a scalar, without a field inversion
    return Mat2(b.d, -b.b, -b.c, b.a)


def cocycles(group) -> list:
    """All 1-cocycles of the group: the a with a * conj(a) scalar."""
    if isinstance(group, GroupSpec):
        group = catalog(group)
    return [a for a in group.elements if _is_cocycle(a)]


def h1_classes(group) -> list:
    """Twisted-conjugacy classes of 1-cocycles, one canonical rep each.

    Cocycles are the a in the group with a * conj(a) scalar; two are
    identified when a2 = b^-1 * a1 * conj(b) projectively, so the twist
    uses the adjugate of b in place of its inverse.  Twisting is a right
    action of the group, so an orbit is the closure of one cocycle
    under the twists by the generators.  The class of the identity
    comes first; the remaining classes are ordered by their
    lexicographically minimal representative.
    """
    if isinstance(group, GroupSpec):
        group = catalog(group)
    if not group.is_galois_stable():
        raise ValueError("group is not stable under entrywise conjugation")
    found = cocycles(group)
    cocycle_set = set(found)
    twists = [(_adjugate(g), g.conj()) for g in group.generators]
    unseen = set(found)
    classes = []
    ident = Mat2.identity()
    for a in found:
        if a not in unseen:
            continue
        orbit = {a}
        frontier = [a]
        while frontier:
            nxt = []
            for x in frontier:
                for g_adj, g_bar in twists:
                    y = (g_adj * x * g_bar).normalized()
                    if y not in orbit:
                        if y not in cocycle_set:
                            raise VerificationError(
                                "twisted conjugate left the cocycle set")
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        unseen -= orbit
        classes.append(ident if ident in orbit else min(orbit, key=mat_key))
    # a class holds the identity exactly when its representative is it
    classes.sort(key=lambda rep: (rep != ident, mat_key(rep)))
    return classes


def twisted_class_of(group, a: Mat2):
    """The full twisted-conjugacy orbit of a cocycle."""
    if isinstance(group, GroupSpec):
        group = catalog(group)
    a = a.normalized()
    return {(_adjugate(b) * a * b.conj()).normalized()
            for b in group.elements}


# ----------------------------------------------------------------------
# semi-invariance of binary forms


def unimodular_lift(m: Mat2):
    """Rescale m to determinant one, if a cyclotomic sqrt(det) exists."""
    s = m.det().sqrt()
    if s is None:
        return None
    return m.scale(s.inverse())


def semi_invariant_character(g: Poly2, group):
    """Map generator -> lambda for g∘m = lambda·g, or None if not semi-invariant.

    ``group`` is a GroupSpec or a FiniteGroup; only its generators are
    composed with g, and a GroupSpec is never closed.  That suffices:
    if g∘m1 = l1·g and g∘m2 = l2·g then g∘(m1·m2) = l1·l2·g, and every
    element of a finite group is a product of its generators.  Because
    rescaling a representative by mu rescales lambda by mu^deg(g), the
    reported scalars are those of the determinant-one rescaling of each
    generator whenever one exists within cyclotomic scalars (for even
    degree the residual sign choice is immaterial); otherwise of the
    generator as entered.
    """
    if g.is_zero():
        raise ValueError("the zero form is not a valid input")
    gens = generators(group) if isinstance(group, GroupSpec) \
        else group.generators
    chars = {}
    for m in gens:
        lam = g.compose(unimodular_lift(m) or m).proportionality(g)
        if lam is None:
            return None
        chars[m] = lam
    return chars


# ----------------------------------------------------------------------
# naming the cohomology classes


def h1_names(spec: GroupSpec) -> list:
    """Closed-form names of the twisted-conjugacy classes, table order.

    The cyclic groups of even order pick up the half-rotation class
    omega_{2l}; the dihedral groups of odd order the flip class f; the
    dihedral groups of even order all of omega_{2l}, f and the
    quaternionic class h; the octahedral group omega_8 and h; the
    tetrahedral and icosahedral groups just h.

    This is the package's one table of classes: `h1_named` certifies it
    against the computed cohomology, and `quadrics` builds the twisted
    forms and their counts from it.
    """
    if spec.kind == "A":
        if spec.l % 2 == 1:
            return ["I2"]
        return ["I2", "omega%d" % (2 * spec.l)]
    if spec.kind == "D":
        if spec.l % 2 == 1:
            return ["I2", "f"]
        return ["I2", "omega%d" % (2 * spec.l), "f", "h"]
    if spec.kind == "E7":
        return ["I2", "omega8", "h"]
    return ["I2", "h"]


def h1_named(spec: GroupSpec) -> list:
    """(name, canonical representative) pairs, identity class first.

    The identity class is named directly; for the rest the name is read
    off class invariants: the sign of u * conj(u) for a determinant-one
    lift u (minus means the quaternionic class h), then diagonal versus
    antidiagonal shape (half-rotation omega versus flip f).  The
    assignment is cross-checked against the closed-form name list.
    """
    group = catalog(spec)
    classes = h1_classes(group)
    expected = h1_names(spec)
    if len(classes) != len(expected):
        raise VerificationError(
            "%s has %d cohomology classes, closed form predicts %d"
            % (spec.name, len(classes), len(expected)))
    minus_identity = Mat2(-1, 0, 0, -1)
    named = {"I2": classes[0]}
    for rep in classes[1:]:
        lift = unimodular_lift(rep)
        if lift is not None and lift * lift.conj() == minus_identity:
            name = "h"
        elif spec.kind == "A":
            name = "omega%d" % (2 * spec.l)
        elif spec.kind == "E7":
            name = "omega8"
        elif spec.kind == "D" and spec.l % 2 == 0 \
                and rep.b.is_zero() and rep.c.is_zero():
            name = "omega%d" % (2 * spec.l)
        else:
            name = "f"
        if name in named:
            raise VerificationError("two classes of %s were both named %s"
                                    % (spec.name, name))
        named[name] = rep
    if sorted(named) != sorted(expected):
        raise VerificationError(
            "class names of %s came out as %s, closed form predicts %s"
            % (spec.name, sorted(named), sorted(expected)))
    return [(name, named[name]) for name in expected]
