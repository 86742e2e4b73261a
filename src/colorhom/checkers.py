"""Identity checkers.

Every law is verified by exhaustive scan over homogeneous basis tuples
with exact arithmetic.  Over a field of characteristic zero a
multilinear identity holds for all elements iff it holds on all basis
tuples, so these scans are complete, not samples.  Sign prefactors are
always evaluated at the degrees of the original homogeneous arguments of
the tuple under test; inner occurrences are table-driven and need no
extra signs.

Scans run on compiled integer tables (``tables``): each law is a sum of
``tables.term`` written as the paper writes the formula, and a defect is
a sum of integer products, so the scalar kernels are off the scan path.
A nonzero defect stays integers over one denominator (``tables.Defect``)
in its violation; it becomes an exact ``Vector`` only when read.

Every scan runs in one thread: worker threads were measured 20-40%
slower under the interpreter lock.  A checker that takes a bundle
stores its report on that bundle, so each law is scanned at most once
per bundle object however many callers ask for it.
"""

from __future__ import annotations

from . import tables
from .bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
    _once_per_bundle,
    associator_law,
    associator_map,
    is_sign_commutative,
)
from .errors import InputError
from .grading import validate_bicharacter
from .linalg import (
    EvenMap,
    MultilinearMap,
    check_evenness,
    commutator_map,
    endomorphism_defects,
)
from .report import CheckReport, Violation, sorted_violations
from .tables import law, term

__all__ = [
    "scan_identity",
    "check_skew_symmetry",
    "check_akivis_identity",
    "check_hom_lie",
    "check_flexible_alternative",
    "check_flexible_akivis_relation",
    "check_hom_associativity",
    "check_color_leibniz",
    "check_leibniz_consequences",
    "check_nhlp",
    "check_dialgebra",
    "check_module",
    "validate_bicharacter",
    "check_evenness",
]


def scan_identity(identity_id, keys, defect_fn, jobs=1, note="") -> CheckReport:
    """Evaluate defect_fn(key) -> Defect, Vector or None over all keys;
    nonzero defects become violations, sorted canonically.  ``jobs`` is
    ignored; it stays only because the perfbench scan wrapper passes it
    positionally."""
    violations = []
    for k in keys:
        d = defect_fn(k)
        if d:
            violations.append(Violation(k, d))
    return CheckReport(identity_id, sorted_violations(violations), note=note)


def _signs(b, a=None, c=None):
    """eps on the degrees of the bases of spaces a x c (default: b.space)."""
    space = b.space if a is None else a
    return tables.signs(b.bichar, space, space if c is None else c)


# the rotations (x,y,z), (y,z,x), (z,x,y) of a cyclic sum
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@_once_per_bundle
def check_skew_symmetry(b) -> CheckReport:
    """bracket(x, y) + eps(x, y) * bracket(y, x) == 0 on all basis pairs."""
    space, B = b.space, tables.table(b.bracket)
    defect = law(space, term(1, B, 0, 1), term(1, B, 1, 0, eps=[(_signs(b), 0, 1)]))
    keys = [(i, j) for i in range(space.dim) for j in range(i, space.dim)]
    return scan_identity("skew-symmetry", keys, defect)


def _bracket_cycle(b, E):
    """The terms of sum_cyc eps(z,x) [[x,y], t(z)]."""
    B, tw = tables.table(b.bracket), tables.table(b.twist)
    return [term(1, B, (B, x, y), (tw, z), eps=[(E, z, x)]) for x, y, z in _CYCLIC]


@_once_per_bundle
def check_akivis_identity(b: AkivisBundle) -> CheckReport:
    """Cyclic bracket-of-bracket sum against the sign-mixed ternary sum:

        sum_cyc eps(z,x) [[x,y], t(z)]
            == sum_cyc eps(z,x) ( T(x,y,z) - eps(x,y) T(y,x,z) )

    where t is the twist map and the cyclic sum re-evaluates prefactors at
    the rotated degrees.  Precondition: the bracket is eps-skew."""
    pre = check_skew_symmetry(b)
    if not pre.passed:
        return CheckReport("hom-akivis", precondition_failure=pre)
    T, E = tables.table(b.ternary), _signs(b)
    defect = law(
        b.space,
        *_bracket_cycle(b, E),
        *(term(-1, T, x, y, z, eps=[(E, z, x)]) for x, y, z in _CYCLIC),
        *(term(1, T, y, x, z, eps=[(E, z, x), (E, x, y)]) for x, y, z in _CYCLIC),
    )
    return scan_identity("hom-akivis", b.space.tuples(3), defect)


@_once_per_bundle
def check_hom_lie(b) -> CheckReport:
    """sum_cyc eps(z,x) [[x,y], t(z)] == 0 (with eps-skew precondition)."""
    pre = check_skew_symmetry(b)
    if not pre.passed:
        return CheckReport("hom-jacobi", precondition_failure=pre)
    defect = law(b.space, *_bracket_cycle(b, _signs(b)))
    return scan_identity("hom-jacobi", b.space.tuples(3), defect)


def _ternary_of(b) -> MultilinearMap:
    if isinstance(b, AkivisBundle):
        return b.ternary
    if isinstance(b, (NonAssocBundle, NHLPBundle)):
        return associator_map(b.product, b.twist)
    raise InputError(f"no ternary structure on bundle kind {b.kind!r}")


@_once_per_bundle
def check_flexible_alternative(b) -> CheckReport:
    """Classify the ternary structure (the Hom-associator for algebra
    input, the ternary table for Akivis input).

    flexible, literal: T(x, y, x) == 0 on basis tuples, plus the ungraded
    polarization T(x,y,z) + T(z,y,x) == 0 within equal degrees.
    flexible, polarized: T(x,y,z) + eps(x,z) T(z,y,x) == 0.
    alternative: T changes sign (with eps factor) under both adjacent
    argument swaps.

    Both flexibility forms are computed and flagged as 'flexible_literal'
    and 'flexible_polarized'; the 'flexible' flag is the polarized one.
    The composite 'passed' means polarized-flexible AND alternative, so
    treat this as a classifier and read the flags rather than the pass bit.
    """
    space = b.space
    T, E = tables.table(_ternary_of(b)), _signs(b)
    deg = space.degree
    itself = term(1, T, 0, 1, 2)

    def swapped(*args, eps=()):
        """The law T(x,y,z) + (eps) T(permuted args)."""
        return law(space, itself, term(1, T, *args, eps=eps))

    literal_keys = [
        (x, y, z)
        for x in range(space.dim)
        for y in range(space.dim)
        for z in range(x, space.dim)
        if x == z or deg(x) == deg(z)
    ]
    alone, pair = law(space, itself), swapped(2, 1, 0)
    literal = scan_identity("flexible-literal", literal_keys,
                            lambda k: (alone if k[0] == k[2] else pair)(k))

    polarized_keys = [
        (x, y, z)
        for x in range(space.dim)
        for y in range(space.dim)
        for z in range(x, space.dim)
    ]
    polarized = scan_identity("flexible-polarized", polarized_keys,
                              swapped(2, 1, 0, eps=[(E, 0, 2)]))

    # the two adjacent swaps generate all permutations, so eps-alternating
    # reduces to these two families
    alt_sub = CheckReport(
        "alternative",
        subreports=(
            scan_identity("alternative-first-pair", space.tuples(3),
                          swapped(1, 0, 2, eps=[(E, 0, 1)])),
            scan_identity("alternative-second-pair", space.tuples(3),
                          swapped(0, 2, 1, eps=[(E, 1, 2)])),
        ),
    )
    flags = {
        "flexible": polarized.passed,
        "flexible_literal": literal.passed,
        "flexible_polarized": polarized.passed,
        "alternative": alt_sub.passed,
    }
    return CheckReport(
        "flexible-alternative",
        subreports=(literal, polarized, alt_sub),
        flags=flags,
    )


@_once_per_bundle
def check_flexible_akivis_relation(b: AkivisBundle) -> CheckReport:
    """For flexible bundles the cyclic bracket sum collapses onto the
    ternary table:

        sum_cyc eps(z,x) [[x,y], t(z)]
            == sum_cyc ( eps(z,x) + eps(x,y) eps(y,z) ) T(x,y,z)

    Precondition: polarized flexibility."""
    classify = check_flexible_alternative(b)
    if not classify.flags["flexible"]:
        failed = classify.subreports[1]
        return CheckReport("flexible-akivis-relation", precondition_failure=failed)
    T, E = tables.table(b.ternary), _signs(b)
    defect = law(
        b.space,
        *_bracket_cycle(b, E),
        *(term(-1, T, x, y, z, eps=[(E, z, x)]) for x, y, z in _CYCLIC),
        *(term(-1, T, x, y, z, eps=[(E, x, y), (E, y, z)]) for x, y, z in _CYCLIC),
    )
    return scan_identity("flexible-akivis-relation", b.space.tuples(3), defect)


def check_hom_associativity(product: MultilinearMap, twist: EvenMap) -> CheckReport:
    """product(t(x), product(y,z)) == product(product(x,y), t(z)); the
    defect is the Hom-associator with its sign flipped."""
    defect = associator_law(product, twist, sign=-1)
    return scan_identity("hom-associativity", product.codomain.tuples(3), defect)


@_once_per_bundle
def check_color_leibniz(b) -> CheckReport:
    """Left Leibniz law with twist and signs:

        [t(x), [y,z]] == [[x,y], t(z)] + eps(x,y) [t(y), [x,z]]
    """
    B, tw = tables.table(b.bracket), tables.table(b.twist)
    defect = law(
        b.space,
        term(1, B, (tw, 0), (B, 1, 2)),
        term(-1, B, (B, 0, 1), (tw, 2)),
        term(-1, B, (tw, 1), (B, 0, 2), eps=[(_signs(b), 0, 1)]),
    )
    return scan_identity("color-hom-leibniz", b.space.tuples(3), defect)


@_once_per_bundle
def check_leibniz_consequences(b: LeibnizBundle) -> CheckReport:
    """Two consequences of the Leibniz law, via the derived commutator
    [x,y] := x.y - eps(x,y) y.x of the Leibniz product:

      (x.y + eps(x,y) y.x) . t(z) == 0
      [x.y, t(z)] + eps(x,y) [t(y), x.z] == t(x) . [y,z]

    Precondition: the bundle passes the Leibniz law itself; both scans
    must then come back clean, never independently."""
    pre = check_color_leibniz(b)
    if not pre.passed:
        return CheckReport("leibniz-consequences", precondition_failure=pre)
    space = b.space
    B, tw, E = tables.table(b.bracket), tables.table(b.twist), _signs(b)
    symmetrized = law(
        space,
        term(1, B, (B, 0, 1), (tw, 2)),
        term(1, B, (B, 1, 0), (tw, 2), eps=[(E, 0, 1)]),
    )
    C = tables.table(commutator_map(b.bracket, b.bichar))
    derived = law(
        space,
        term(1, C, (B, 0, 1), (tw, 2)),
        term(1, C, (tw, 1), (B, 0, 2), eps=[(E, 0, 1)]),
        term(-1, B, (tw, 0), (C, 1, 2)),
    )
    subs = (
        scan_identity("leibniz-symmetrized-action", space.tuples(3), symmetrized),
        scan_identity("leibniz-derived-bracket", space.tuples(3), derived),
    )
    return CheckReport("leibniz-consequences", subreports=subs)


@_once_per_bundle
def check_nhlp(b: NHLPBundle) -> CheckReport:
    """Composite: Leibniz law for the bracket, Hom-associativity for the
    product, and the compatibility law

        [t(x), product(y,z)] == product([x,y], t(z))
                                 + eps(x,y) product(t(y), [x,z])

    Flags record whether the product is eps-commutative."""
    space = b.space
    leibniz = check_color_leibniz(b)
    assoc = check_hom_associativity(b.product, b.twist)
    B, P, tw = tables.table(b.bracket), tables.table(b.product), tables.table(b.twist)
    compat = law(
        space,
        term(1, B, (tw, 0), (P, 1, 2)),
        term(-1, P, (B, 0, 1), (tw, 2)),
        term(-1, P, (tw, 1), (B, 0, 2), eps=[(_signs(b), 0, 1)]),
    )
    compat_rep = scan_identity("leibniz-compatibility", space.tuples(3), compat)
    flags = {"commutative": is_sign_commutative(b.product, b.bichar)}
    return CheckReport("nhlp", subreports=(leibniz, assoc, compat_rep), flags=flags)


@_once_per_bundle
def check_dialgebra(b: DialgebraBundle) -> CheckReport:
    """The five twisted axioms tying the two products together.  Numbered
    left to right as the defining chain of equalities decomposes:

        1. L(R(x,y), t(z)) == R(t(x), L(y,z))
        2. L(t(x), L(y,z)) == L(L(x,y), t(z))
        3. L(L(x,y), t(z)) == L(t(x), R(y,z))
        4. R(L(x,y), t(z)) == R(t(x), R(y,z))
        5. R(t(x), R(y,z)) == R(R(x,y), t(z))
    """
    space = b.space
    L, R = tables.table(b.prod_left), tables.table(b.prod_right)
    tw = tables.table(b.twist)

    def xy_z(O, I):  # O(I(x,y), t(z))
        return O, (I, 0, 1), (tw, 2)

    def x_yz(O, I):  # O(t(x), I(y,z))
        return O, (tw, 0), (I, 1, 2)

    axioms = (
        (xy_z(L, R), x_yz(R, L)),
        (x_yz(L, L), xy_z(L, L)),
        (xy_z(L, L), x_yz(L, R)),
        (xy_z(R, L), x_yz(R, R)),
        (x_yz(R, R), xy_z(R, R)),
    )
    subs = tuple(
        scan_identity(f"dialgebra-axiom-{n}", space.tuples(3),
                      law(space, term(1, *lhs), term(-1, *rhs)))
        for n, (lhs, rhs) in enumerate(axioms, start=1)
    )
    return CheckReport("dialgebra", subreports=subs)


@_once_per_bundle
def check_module(mb: ModuleBundle) -> CheckReport:
    """Two twist-compatibility laws and three action laws of a two-sided
    module over a Leibniz bundle.  Precondition: the algebra itself
    satisfies the Leibniz law."""
    pre = check_color_leibniz(mb.algebra)
    if not pre.passed:
        return CheckReport("module", precondition_failure=pre)
    alg = mb.algebra
    A, M = alg.space, mb.module_space
    B, tA = tables.table(alg.bracket), tables.table(alg.twist)
    aL, aR = tables.table(mb.act_left), tables.table(mb.act_right)
    tM = tables.table(mb.module_twist)
    E, E_am, E_ma = _signs(alg), _signs(alg, A, M), _signs(alg, M, A)

    twist_left = law(  # tM(x.m) == t(x).t(m)
        M, term(1, tM, (aL, 0, 1)), term(-1, aL, (tA, 0), (tM, 1)))
    twist_right = law(  # tM(m*x) == t(m)*t(x)
        M, term(1, tM, (aR, 0, 1)), term(-1, aR, (tM, 0), (tA, 1)))
    bracket_left = law(  # [x,y].t(m) == t(x).(y.m) - eps(x,y) t(y).(x.m)
        M,
        term(1, aL, (B, 0, 1), (tM, 2)),
        term(-1, aL, (tA, 0), (aL, 1, 2)),
        term(1, aL, (tA, 1), (aL, 0, 2), eps=[(E, 0, 1)]),
    )
    bracket_right = law(  # t(m)*[x,y] == (x.m)*t(y) + eps(x,m) t(x).(m*y)
        M,
        term(1, aR, (tM, 2), (B, 0, 1)),
        term(-1, aR, (aL, 0, 2), (tA, 1)),
        term(-1, aL, (tA, 0), (aR, 2, 1), eps=[(E_am, 0, 2)]),
    )
    mixed = law(  # t(x).(m*y) == (x.m)*t(y) + eps(m,x) t(m)*[x,y]
        M,
        term(1, aL, (tA, 0), (aR, 1, 2)),
        term(-1, aR, (aL, 0, 1), (tA, 2)),
        term(-1, aR, (tM, 1), (B, 0, 2), eps=[(E_ma, 1, 0)]),
    )

    pairs_xm = [(x, m) for x in range(A.dim) for m in range(M.dim)]
    pairs_mx = [(m, x) for m in range(M.dim) for x in range(A.dim)]
    triples_xym = [
        (x, y, m) for x in range(A.dim) for y in range(A.dim) for m in range(M.dim)
    ]
    triples_xmy = [
        (x, m, y) for x in range(A.dim) for m in range(M.dim) for y in range(A.dim)
    ]
    subs = (
        scan_identity("module-twist-left", pairs_xm, twist_left),
        scan_identity("module-twist-right", pairs_mx, twist_right),
        scan_identity("module-bracket-left", triples_xym, bracket_left),
        scan_identity("module-bracket-right", triples_xym, bracket_right),
        scan_identity("module-mixed", triples_xmy, mixed),
    )
    return CheckReport("module", subreports=subs)


def check_endomorphism(f: EvenMap, ops) -> CheckReport:
    """Report version of the endomorphism test: one violation per basis
    tuple where f fails to commute with a structure map."""
    violations = [
        Violation(key, defect, f"operation {opn}")
        for opn, key, defect in endomorphism_defects(f, ops)
    ]
    return CheckReport("endomorphism", sorted_violations(violations))
