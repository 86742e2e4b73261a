"""Identity checkers.

Every law is verified by exhaustive scan over homogeneous basis tuples
with exact arithmetic.  Over a field of characteristic zero a
multilinear identity holds for all elements iff it holds on all basis
tuples, so these scans are complete, not samples.  Sign prefactors are
always evaluated at the degrees of the original homogeneous arguments of
the tuple under test; inner occurrences are table-driven and need no
extra signs.

Scans run on compiled integer tables (``tables``): each map is compiled
once, at the first scan that needs it, and a defect is a sum of integer
products, so the scalar kernels are off the scan path.  Only a nonzero
defect becomes an exact ``Vector`` in the report.

Every scan runs in one thread: worker threads were measured 20-40%
slower under the interpreter lock.  A checker that takes a bundle
stores its report on that bundle, so each law is scanned at most once
per bundle object however many callers ask for it.
"""

from __future__ import annotations

import functools

from . import tables
from .bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
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
from .tables import FIRST, SECOND

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
    """Evaluate defect_fn(key) -> Vector over all keys; nonzero defects
    become violations, sorted canonically.  ``jobs`` is ignored; it stays
    only because the perfbench scan wrapper passes it positionally."""
    violations = []
    for k in keys:
        d = defect_fn(k)
        if d:
            violations.append(Violation(k, d))
    return CheckReport(identity_id, sorted_violations(violations), note=note)


def _once_per_bundle(check):
    """Store check's report on its bundle, keyed by the check.  Bundles
    are frozen, so a stored report cannot go stale."""

    @functools.wraps(check)
    def memo(bundle):
        reports = vars(bundle).setdefault("_reports", {})
        if check not in reports:
            reports[check] = check(bundle)
        return reports[check]

    return memo


def _signs(b, a=None, c=None):
    """eps on the degrees of the bases of spaces a x c (default: b.space)."""
    space = b.space if a is None else a
    return tables.Signs(b.bichar, space, space if c is None else c)


def _rotations(sign, den, pick):
    """The three terms of a cyclic sum over (x,y,z), (y,z,x), (z,x,y)."""
    return (
        (sign, den, pick),
        (sign, den, lambda x, y, z: pick(y, z, x)),
        (sign, den, lambda x, y, z: pick(z, x, y)),
    )


@_once_per_bundle
def check_skew_symmetry(b) -> CheckReport:
    """bracket(x, y) + eps(x, y) * bracket(y, x) == 0 on all basis pairs."""
    space = b.space
    defect = tables.law(space, *tables.sign_swap(
        1, tables.table(b.bracket), _signs(b), tables.unit(space)))
    keys = [(i, j) for i in range(space.dim) for j in range(i, space.dim)]
    return scan_identity("skew-symmetry", keys, defect)


def _bracket_cycle(b, eps):
    """The terms of sum_cyc eps(z,x) [[x,y], t(z)]."""
    br, tw = tables.table(b.bracket), tables.twist(b.twist)
    E = br.scaled_by(eps.at, eps.den)
    R = br.images(tw, SECOND)
    rows = R.entries
    return _rotations(1, br.den * eps.den * R.den,
                      lambda x, y, z: (E[z][x][x][y], rows[z]))


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
    space = b.space
    eps, unit = _signs(b), tables.unit(space)
    at, r = eps.at, range(space.dim)
    T = tables.table(b.ternary)
    TE = T.scaled_by(at, eps.den)  # TE[z][x]: eps(z,x) T
    TEE = T.scaled_by(  # TEE[z][x][y]: eps(z,x) eps(x,y) T
        [[[eps.mul(at[z][x], at[x][y]) for y in r] for x in r] for z in r],
        eps.den ** 2, depth=3)
    defect = tables.law(
        space,
        *_bracket_cycle(b, eps),
        *_rotations(-1, T.den * eps.den, lambda x, y, z: (TE[z][x][x][y][z], unit)),
        *_rotations(1, T.den * eps.den ** 2,
                    lambda x, y, z: (TEE[z][x][y][y][x][z], unit)),
    )
    return scan_identity("hom-akivis", space.tuples(3), defect)


@_once_per_bundle
def check_hom_lie(b) -> CheckReport:
    """sum_cyc eps(z,x) [[x,y], t(z)] == 0 (with eps-skew precondition)."""
    pre = check_skew_symmetry(b)
    if not pre.passed:
        return CheckReport("hom-jacobi", precondition_failure=pre)
    defect = tables.law(b.space, *_bracket_cycle(b, _signs(b)))
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
    T, eps, unit = tables.table(_ternary_of(b)), _signs(b), tables.unit(space)
    Te, TE = T.entries, T.scaled_by(eps.at, eps.den)  # TE[x][y]: eps(x,y) T
    deg = space.degree
    itself = (1, T.den, lambda x, y, z: (Te[x][y][z], unit))

    def swapped(pick):
        """The law T(x,y,z) + (eps-scaled entry of a permuted tuple)."""
        return tables.law(space, itself, (1, T.den * eps.den, pick))

    literal_keys = [
        (x, y, z)
        for x in range(space.dim)
        for y in range(space.dim)
        for z in range(x, space.dim)
        if x == z or deg(x) == deg(z)
    ]
    literal = scan_identity("flexible-literal", literal_keys, tables.law(
        space, itself,
        (1, T.den, lambda x, y, z: (Te[z][y][x] if x != z else (), unit))))

    polarized_keys = [
        (x, y, z)
        for x in range(space.dim)
        for y in range(space.dim)
        for z in range(x, space.dim)
    ]
    polarized = scan_identity("flexible-polarized", polarized_keys, swapped(
        lambda x, y, z: (TE[x][z][z][y][x], unit)))

    # the two adjacent swaps generate all permutations, so eps-alternating
    # reduces to these two families
    alt_sub = CheckReport(
        "alternative",
        subreports=(
            scan_identity("alternative-first-pair", space.tuples(3), swapped(
                lambda x, y, z: (TE[x][y][y][x][z], unit))),
            scan_identity("alternative-second-pair", space.tuples(3), swapped(
                lambda x, y, z: (TE[y][z][x][z][y], unit))),
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
    space = b.space
    eps, unit = _signs(b), tables.unit(space)
    at, r = eps.at, range(space.dim)
    T = tables.table(b.ternary)

    def coefficient(x, y, z):
        pair = eps.mul(at[x][y], at[y][z])
        return tuple(eps.den * u + v for u, v in zip(at[z][x], pair))

    TC = T.scaled_by([[[coefficient(x, y, z) for z in r] for y in r] for x in r],
                     eps.den ** 2, depth=3)
    defect = tables.law(
        space,
        *_bracket_cycle(b, eps),
        *_rotations(-1, T.den * eps.den ** 2,
                    lambda x, y, z: (TC[x][y][z][x][y][z], unit)),
    )
    return scan_identity("flexible-akivis-relation", space.tuples(3), defect)


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
    br, tw = tables.table(b.bracket), tables.twist(b.twist)
    defect = tables.law(
        b.space,
        tables.twisted_left(1, br, br, tw),
        tables.twisted_right(-1, br, br, tw),
        tables.twisted_swap(-1, br, br, tw, _signs(b)),
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
    br, tw, eps = tables.table(b.bracket), tables.twist(b.twist), _signs(b)
    E = br.scaled_by(eps.at, eps.den)  # E[x][y]: eps(x,y) bracket
    R = br.images(tw, SECOND)
    symmetrized = tables.law(
        space,
        tables.twisted_right(1, br, br, tw),
        (1, br.den * eps.den * R.den, lambda x, y, z: (E[x][y][y][x], R.entries[z])),
    )
    comm = tables.table(commutator_map(b.bracket, b.bichar))
    derived = tables.law(
        space,
        tables.twisted_right(1, comm, br, tw),
        tables.twisted_swap(1, comm, br, tw, eps),
        tables.twisted_left(-1, br, comm, tw),
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
    br, mu, tw = tables.table(b.bracket), tables.table(b.product), tables.twist(b.twist)
    compat = tables.law(
        space,
        tables.twisted_left(1, br, mu, tw),
        tables.twisted_right(-1, mu, br, tw),
        tables.twisted_swap(-1, mu, br, tw, _signs(b)),
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
    tw = tables.twist(b.twist)
    left, right = tables.twisted_left, tables.twisted_right
    axioms = (
        (right(1, L, R, tw), left(-1, R, L, tw)),
        (left(1, L, L, tw), right(-1, L, L, tw)),
        (right(1, L, L, tw), left(-1, L, R, tw)),
        (right(1, R, L, tw), left(-1, R, R, tw)),
        (left(1, R, R, tw), right(-1, R, R, tw)),
    )
    subs = tuple(
        scan_identity(f"dialgebra-axiom-{n}", space.tuples(3), tables.law(space, *terms))
        for n, terms in enumerate(axioms, start=1)
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
    br, tA = tables.table(alg.bracket), tables.twist(alg.twist)
    aL, aR = tables.table(mb.act_left), tables.table(mb.act_right)
    tM = tables.twist(mb.module_twist)
    B, AL, AR, tm = br.entries, aL.entries, aR.entries, tM.flat
    d = A.field.degree
    # the twisted actions aL(tA x, .), aR(tM m, .), aR(., tA x)
    aL_tA, aR_tM, aR_tA = aL.images(tA, FIRST), aR.images(tM, FIRST), aR.images(tA, SECOND)
    eps_am, eps_ma = _signs(alg, A, M), _signs(alg, M, A)
    ARE = aR.scaled_by(eps_am.at, eps_am.den)  # ARE[x][m]: eps(x,m) aR
    BE = br.scaled_by(eps_ma.at, eps_ma.den)   # BE[m][x]: eps(m,x) bracket

    twist_left = tables.law(  # tM(x.m) == t(x).t(m)
        M,
        (1, aL.den * tM.den, lambda x, m: (AL[x][m], tm)),
        (-1, tM.den * aL_tA.den, lambda x, m: (tm[m * d], aL_tA.entries[x])),
    )
    twist_right = tables.law(  # tM(m*x) == t(m)*t(x)
        M,
        (1, aR.den * tM.den, lambda m, x: (AR[m][x], tm)),
        (-1, tM.den * aR_tA.den, lambda m, x: (tm[m * d], aR_tA.entries[x])),
    )
    bracket_left = tables.law(  # [x,y].t(m) == t(x).(y.m) - eps(x,y) t(y).(x.m)
        M,
        tables.twisted_right(1, aL, br, tM),
        tables.twisted_left(-1, aL, aL, tA),
        tables.twisted_swap(1, aL, aL, tA, _signs(alg)),
    )
    bracket_right = tables.law(  # t(m)*[x,y] == (x.m)*t(y) + eps(x,m) t(x).(m*y)
        M,
        (1, br.den * aR_tM.den, lambda x, y, m: (B[x][y], aR_tM.entries[m])),
        (-1, aL.den * aR_tA.den, lambda x, y, m: (AL[x][m], aR_tA.entries[y])),
        (-1, aR.den * eps_am.den * aL_tA.den,
         lambda x, y, m: (ARE[x][m][m][y], aL_tA.entries[x])),
    )
    mixed = tables.law(  # t(x).(m*y) == (x.m)*t(y) + eps(m,x) t(m)*[x,y]
        M,
        tables.twisted_left(1, aL, aR, tA),
        tables.twisted_right(-1, aR, aL, tA),
        (-1, br.den * eps_ma.den * aR_tM.den,
         lambda x, m, y: (BE[m][x][x][y], aR_tM.entries[m])),
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
