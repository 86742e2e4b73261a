"""Bundle types: a graded space plus its structure maps and twist map.

Each bundle kind matches one family of structures the checkers and
constructions operate on.  Construction validates shape, grading
compatibility and evenness eagerly, so a bundle in hand is always
well-formed (the identities themselves are NOT assumed; that is what the
checkers are for).  Bundles are frozen: the checkers store their reports
on the bundle they certified.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .errors import InputError
from .grading import Bicharacter
from .linalg import EvenMap, GradedSpace, MultilinearMap, Vector, check_evenness, is_endomorphism


def _require_even(name, m):
    rep = check_evenness(m)
    if not rep.passed:
        raise InputError(f"{name} is not even: {rep.violations[0].describe()}")


class _AlgebraBundle:
    """The five algebra kinds: a space, a bicharacter, the operations
    named in ``OPS`` and a twist map.  ``OPS`` lists each operation as
    (document name, attribute, arity) in field order; it is the one place
    that says which operations a kind has."""

    def __post_init__(self):
        space, bichar = self.space, self.bichar
        if bichar.group != space.group or bichar.field != space.field:
            raise InputError("bicharacter group/field does not match the space")
        for _, name, arity in self.OPS:
            op = getattr(self, name)
            if op.arity != arity:
                raise InputError(f"{name} must have arity {arity}")
            if any(sp != space for sp in op.spaces) or op.codomain != space:
                raise InputError(f"{name} must be an internal map on the bundle space")
            _require_even(name, op)
        if self.twist.space != space:
            raise InputError("twist alpha must act on the bundle space")
        _require_even("twist alpha", self.twist)

    def ops(self):
        """The operations, in ``OPS`` order."""
        return [getattr(self, name) for _, name, _ in self.OPS]


@dataclass(frozen=True)
class NonAssocBundle(_AlgebraBundle):
    """Graded algebra with one bilinear product and a twist map; no
    identity is assumed (the raw input of the Akivis construction)."""

    space: GradedSpace
    bichar: Bicharacter
    product: MultilinearMap
    twist: EvenMap

    kind = "nonassociative"
    OPS = (("product", "product", 2),)


@dataclass(frozen=True)
class AkivisBundle(_AlgebraBundle):
    """Binary bracket plus ternary companion with a twist map."""

    space: GradedSpace
    bichar: Bicharacter
    bracket: MultilinearMap
    ternary: MultilinearMap
    twist: EvenMap

    kind = "akivis"
    OPS = (("bracket", "bracket", 2), ("ternary", "ternary", 3))


@dataclass(frozen=True)
class LeibnizBundle(_AlgebraBundle):
    """One bracket and a twist map (left Leibniz law is checked, not assumed)."""

    space: GradedSpace
    bichar: Bicharacter
    bracket: MultilinearMap
    twist: EvenMap

    kind = "leibniz"
    OPS = (("bracket", "bracket", 2),)


@dataclass(frozen=True)
class NHLPBundle(_AlgebraBundle):
    """Bracket and associative-type product sharing one twist map."""

    space: GradedSpace
    bichar: Bicharacter
    product: MultilinearMap
    bracket: MultilinearMap
    twist: EvenMap

    kind = "nhlp"
    OPS = (("product", "product", 2), ("bracket", "bracket", 2))


@dataclass(frozen=True)
class DialgebraBundle(_AlgebraBundle):
    """Two binary products with a twist map; ungraded by definition, so a
    graded basis is refused outright."""

    space: GradedSpace
    bichar: Bicharacter
    prod_left: MultilinearMap
    prod_right: MultilinearMap
    twist: EvenMap

    kind = "dialgebra"
    OPS = (("left", "prod_left", 2), ("right", "prod_right", 2))

    def __post_init__(self):
        if not self.space.is_trivially_graded():
            raise InputError("dialgebras are ungraded: all degrees must be zero")
        super().__post_init__()


@dataclass(frozen=True)
class ModuleBundle:
    """Two-sided module over a Leibniz bundle.

    act_left : algebra x module -> module,  act_right : module x algebra
    -> module, with the module's own twist map.  Degrees of both spaces
    live in the same grading group and the sign bicharacter is shared.
    """

    algebra: LeibnizBundle
    module_space: GradedSpace
    act_left: MultilinearMap
    act_right: MultilinearMap
    module_twist: EvenMap

    kind = "module"

    def __post_init__(self):
        alg, mod = self.algebra, self.module_space
        if mod.field != alg.space.field or mod.group != alg.space.group:
            raise InputError("module space must share the algebra's field and group")
        if self.act_left.spaces != (alg.space, mod) or self.act_left.codomain != mod:
            raise InputError("act_left must map algebra x module -> module")
        if self.act_right.spaces != (mod, alg.space) or self.act_right.codomain != mod:
            raise InputError("act_right must map module x algebra -> module")
        _require_even("act_left", self.act_left)
        _require_even("act_right", self.act_right)
        if self.module_twist.space != mod:
            raise InputError("module_twist must act on the module space")
        _require_even("module twist alphaM", self.module_twist)


# kind -> bundle class, in the order io.KINDS lists the kinds
BUNDLE_TYPES = {
    cls.kind: cls
    for cls in (NonAssocBundle, AkivisBundle, LeibnizBundle, NHLPBundle,
                DialgebraBundle, ModuleBundle)
}


def _associator(product: MultilinearMap, twist: EvenMap):
    P, tw = tables.table(product), tables.twist(twist)
    return tables.law(
        product.codomain,
        tables.twisted_right(1, P, P, tw),
        tables.twisted_left(-1, P, P, tw),
    )


def hom_associator(product: MultilinearMap, twist: EvenMap, x, y, z) -> Vector:
    """product(product(x,y), twist(z)) - product(twist(x), product(y,z))
    on basis indices x, y, z."""
    return _associator(product, twist)((x, y, z)) or Vector.zero(product.codomain)


def associator_map(product: MultilinearMap, twist: EvenMap) -> MultilinearMap:
    """Full ternary structure table of the twisted associator."""
    space = product.codomain
    associator = _associator(product, twist)
    table = {}
    for key in space.tuples(3):
        v = associator(key)
        if v:
            table[key] = v
    return MultilinearMap.internal(space, 3, table)


def is_multiplicative(bundle) -> bool:
    """Does the bundle's twist map commute with all its structure maps?"""
    return is_endomorphism(bundle.twist, bundle.ops())


def is_sign_commutative(product: MultilinearMap, bichar) -> bool:
    """product(x, y) == eps(x, y) * product(y, x) on all basis pairs."""
    space = product.codomain
    for i, j in space.tuples(2):
        sign = bichar(space.degree(i), space.degree(j))
        if product.on_basis(i, j) != product.on_basis(j, i).scaled(sign):
            return False
    return True
