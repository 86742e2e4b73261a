"""Bundle types: a graded space plus its structure maps and twist map.

Each bundle kind matches one family of structures the checkers and
constructions operate on.  Construction validates shape, grading
compatibility and evenness eagerly, so a bundle in hand is always
well-formed (the identities themselves are NOT assumed; that is what the
checkers are for).  Bundles are frozen records: the checkers and
``is_multiplicative`` store their results in a bundle's ``_reports`` slot.
"""

from __future__ import annotations

import functools

from .errors import InputError
from .linalg import EvenMap, MultilinearMap, check_evenness, is_endomorphism
from .record import Record
from .tables import table


def _require_even(name, m):
    rep = check_evenness(m)
    if not rep.passed:
        raise InputError(f"{name} is not even: {rep.violations[0].describe()}")


def _once_per_bundle(check):
    """Store check's result on its bundle, keyed by the check.  A bundle
    is frozen all the way down (its maps, their tables, vectors and
    compiled integer tables, its scalars and bicharacter refuse writes),
    and so is the stored report with its violations and flags, so a
    stored result cannot go stale through a public name.  The memo dicts
    in underscore slots, ``_reports`` among them, are the exception."""

    @functools.wraps(check)
    def memo(bundle):
        if not hasattr(bundle, "_reports"):
            object.__setattr__(bundle, "_reports", {})
        reports = bundle._reports
        if check not in reports:
            reports[check] = check(bundle)
        return reports[check]

    return memo


class _Bundle(Record):
    """Every kind declares its maps once.  ``OPS`` lists each operation as
    (document name, attribute, argument spaces) in field order, where
    ``S`` is the bundle's own space and ``A`` the acting algebra's; every
    operation maps into S.  ``TWIST`` is (document name, attribute) of the
    twist map on S.  ``EXTRA_MAPS`` says whether a document may carry
    further maps (candidate twisting maps such as beta)."""

    __slots__ = ("_reports",)
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

    __slots__ = ()
    TWIST = ("alpha", "twist")

    def __post_init__(self):
        if self.bichar.group != self.space.group or self.bichar.field != self.space.field:
            raise InputError("bicharacter group/field does not match the space")
        self._check_maps({"S": self.space})


class NonAssocBundle(_AlgebraBundle):
    """Graded algebra with one bilinear product and a twist map; no
    identity is assumed (the raw input of the Akivis construction)."""

    __slots__ = FIELDS = ("space", "bichar", "product", "twist")
    kind = "nonassociative"
    OPS = (("product", "product", "SS"),)


class AkivisBundle(_AlgebraBundle):
    """Binary bracket plus ternary companion with a twist map."""

    __slots__ = FIELDS = ("space", "bichar", "bracket", "ternary", "twist")
    kind = "akivis"
    OPS = (("bracket", "bracket", "SS"), ("ternary", "ternary", "SSS"))


class LeibnizBundle(_AlgebraBundle):
    """One bracket and a twist map (left Leibniz law is checked, not assumed)."""

    __slots__ = FIELDS = ("space", "bichar", "bracket", "twist")
    kind = "leibniz"
    OPS = (("bracket", "bracket", "SS"),)


class NHLPBundle(_AlgebraBundle):
    """Bracket and associative-type product sharing one twist map."""

    __slots__ = FIELDS = ("space", "bichar", "product", "bracket", "twist")
    kind = "nhlp"
    OPS = (("product", "product", "SS"), ("bracket", "bracket", "SS"))


class DialgebraBundle(_AlgebraBundle):
    """Two binary products with a twist map; ungraded by definition, so a
    graded basis is refused outright."""

    __slots__ = FIELDS = ("space", "bichar", "prod_left", "prod_right", "twist")
    kind = "dialgebra"
    OPS = (("left", "prod_left", "SS"), ("right", "prod_right", "SS"))

    def __post_init__(self):
        if not self.space.is_trivially_graded():
            raise InputError("dialgebras are ungraded: all degrees must be zero")
        super().__post_init__()


class ModuleBundle(_Bundle):
    """Two-sided module over a Leibniz bundle.

    act_left : algebra x module -> module,  act_right : module x algebra
    -> module, with the module's own twist map.  Degrees of both spaces
    live in the same grading group and the sign bicharacter is shared.
    """

    __slots__ = FIELDS = ("algebra", "module_space", "act_left", "act_right", "module_twist")
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


def associator_map(product: MultilinearMap, twist: EvenMap) -> MultilinearMap:
    """Full ternary structure table of the twisted associator."""
    from .checkers import derive  # checkers builds on this module

    return derive("hom-associator", {"S": product.codomain}, P=product, tS=twist)


@_once_per_bundle
def is_multiplicative(bundle) -> bool:
    """Does the bundle's twist map commute with all its structure maps?
    Tested once per bundle.  A twist whose compiled table is diagonal with
    rational entries, alpha(e_x) = (s_x / den) e_x (``Table.scales``),
    the identity among them, is decided on each operation's compiled
    table with no scan: alpha(O(e_i1, .., e_ir)) = O(alpha e_i1, ..,
    alpha e_ir) holds iff s_k * den**(r-1) == s_i1 * .. * s_ir at every
    coordinate k that O(e_i1, .., e_ir) fills.  Any other twist, one
    with a zeta part or an off-diagonal entry, takes the ``Vector`` test
    ``is_endomorphism``."""
    twist = table(bundle.twist)
    scales = twist.scales()
    if scales is None:
        return is_endomorphism(bundle.twist, bundle.ops())
    d = twist.field.degree
    for op in bundle.ops():
        compiled = table(op)
        r = len(compiled.dims)
        wants = [s * twist.den ** (r - 1) for s in scales]
        if not _scaled_alike(compiled.entries, r, scales, wants, d, 1):
            return False
    return True


def _scaled_alike(entries, depth, scales, wants, d, have):
    """Does every coordinate k that the ``depth``-deep nested ``entries``
    of a compiled table fill at basis tuple key have wants[k] == have
    times the product of scales over key?  Stops at the first that does
    not."""
    if not depth:  # a leaf: the flattened value, as (position, numerator) pairs
        return all(wants[p // d] == have for p, _ in entries)
    return all(_scaled_alike(e, depth - 1, scales, wants, d, have * s)
               for e, s in zip(entries, scales))


def is_sign_commutative(product: MultilinearMap, bichar) -> bool:
    """product(x, y) == eps(x, y) * product(y, x) on all basis pairs."""
    from .checkers import bind_law

    commutator = bind_law("commutator", {"S": product.codomain}, bichar, P=product)
    return all(commutator(key) is None for key in product.codomain.tuples(2))
