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
from .linalg import EvenMap, GradedSpace, MultilinearMap, check_evenness, is_endomorphism


def _require_even(name, m):
    rep = check_evenness(m)
    if not rep.passed:
        raise InputError(f"{name} is not even: {rep.violations[0].describe()}")


class _Bundle:
    """Every kind declares its maps once.  ``OPS`` lists each operation as
    (document name, attribute, argument spaces) in field order, where
    ``S`` is the bundle's own space and ``A`` the acting algebra's; every
    operation maps into S.  ``TWIST`` is (document name, attribute) of the
    twist map on S.  ``EXTRA_MAPS`` says whether a document may carry
    further maps (candidate twisting maps such as beta)."""

    EXTRA_MAPS = True

    def ops(self):
        """The operations, in ``OPS`` order."""
        return [getattr(self, attr) for _, attr, _ in self.OPS]

    def _check_maps(self, spaces):
        """Check each operation's spaces and evenness, then the twist's."""
        space = spaces["S"]
        for _, attr, args in self.OPS:
            op = getattr(self, attr)
            if op.spaces != tuple(spaces[s] for s in args) or op.codomain != space:
                raise InputError(f"{attr} must map {' x '.join(args)} -> S (see OPS)")
            _require_even(attr, op)
        name, attr = self.TWIST
        twist = getattr(self, attr)
        label = f"{attr.replace('_', ' ')} {name}"  # 'twist alpha', 'module twist alphaM'
        if twist.space != space:
            raise InputError(f"{label} must act on the bundle space")
        _require_even(label, twist)


class _AlgebraBundle(_Bundle):
    """The five algebra kinds: a space and a bicharacter, then the maps."""

    TWIST = ("alpha", "twist")

    def __post_init__(self):
        if self.bichar.group != self.space.group or self.bichar.field != self.space.field:
            raise InputError("bicharacter group/field does not match the space")
        self._check_maps({"S": self.space})


@dataclass(frozen=True)
class NonAssocBundle(_AlgebraBundle):
    """Graded algebra with one bilinear product and a twist map; no
    identity is assumed (the raw input of the Akivis construction)."""

    space: GradedSpace
    bichar: Bicharacter
    product: MultilinearMap
    twist: EvenMap

    kind = "nonassociative"
    OPS = (("product", "product", "SS"),)


@dataclass(frozen=True)
class AkivisBundle(_AlgebraBundle):
    """Binary bracket plus ternary companion with a twist map."""

    space: GradedSpace
    bichar: Bicharacter
    bracket: MultilinearMap
    ternary: MultilinearMap
    twist: EvenMap

    kind = "akivis"
    OPS = (("bracket", "bracket", "SS"), ("ternary", "ternary", "SSS"))


@dataclass(frozen=True)
class LeibnizBundle(_AlgebraBundle):
    """One bracket and a twist map (left Leibniz law is checked, not assumed)."""

    space: GradedSpace
    bichar: Bicharacter
    bracket: MultilinearMap
    twist: EvenMap

    kind = "leibniz"
    OPS = (("bracket", "bracket", "SS"),)


@dataclass(frozen=True)
class NHLPBundle(_AlgebraBundle):
    """Bracket and associative-type product sharing one twist map."""

    space: GradedSpace
    bichar: Bicharacter
    product: MultilinearMap
    bracket: MultilinearMap
    twist: EvenMap

    kind = "nhlp"
    OPS = (("product", "product", "SS"), ("bracket", "bracket", "SS"))


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
    OPS = (("left", "prod_left", "SS"), ("right", "prod_right", "SS"))

    def __post_init__(self):
        if not self.space.is_trivially_graded():
            raise InputError("dialgebras are ungraded: all degrees must be zero")
        super().__post_init__()


@dataclass(frozen=True)
class ModuleBundle(_Bundle):
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
    OPS = (("action_left", "act_left", "AS"), ("action_right", "act_right", "SA"))
    TWIST = ("alphaM", "module_twist")
    EXTRA_MAPS = False

    def __post_init__(self):
        alg, mod = self.algebra, self.module_space
        if mod.field != alg.space.field or mod.group != alg.space.group:
            raise InputError("module space must share the algebra's field and group")
        self._check_maps({"S": mod, "A": alg.space})


# kind -> bundle class, in the order io.KINDS lists the kinds
BUNDLE_TYPES = {
    cls.kind: cls
    for cls in (NonAssocBundle, AkivisBundle, LeibnizBundle, NHLPBundle,
                DialgebraBundle, ModuleBundle)
}


def associator_law(product: MultilinearMap, twist: EvenMap, sign=1):
    """sign * (product(product(x,y), t(z)) - product(t(x), product(y,z))) on
    basis triples: the Hom-associator, or with sign -1 the defect of
    Hom-associativity."""
    P, tw = tables.table(product), tables.twist(twist)
    return tables.law(
        product.codomain,
        tables.twisted_right(sign, P, P, tw),
        tables.twisted_left(-sign, P, P, tw),
    )


def associator_map(product: MultilinearMap, twist: EvenMap) -> MultilinearMap:
    """Full ternary structure table of the twisted associator."""
    space = product.codomain
    return tables.materialize((space,) * 3, space, associator_law(product, twist))


def is_multiplicative(bundle) -> bool:
    """Does the bundle's twist map commute with all its structure maps?"""
    return is_endomorphism(bundle.twist, bundle.ops())


def is_sign_commutative(product: MultilinearMap, bichar) -> bool:
    """product(x, y) == eps(x, y) * product(y, x) on all basis pairs."""
    commutator = tables.commutator(product, bichar)
    return all(commutator(key) is None for key in product.codomain.tuples(2))
