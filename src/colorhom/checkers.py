"""Identity checkers.

Every law is verified by exhaustive scan over homogeneous basis tuples
with exact scalar arithmetic.  Over a field of characteristic zero a
multilinear identity holds for all elements iff it holds on all basis
tuples, so these scans are complete, not samples.  Sign prefactors are
always evaluated at the degrees of the original homogeneous arguments of
the tuple under test; inner occurrences are table-driven and need no
extra signs.

Checkers accept ``jobs`` for compatibility; every scan runs in one
thread (worker threads were measured no faster under the interpreter
lock), so the report is identical for any job count.  A checker that
takes a bundle stores its report on that bundle, so each law is scanned
at most once per bundle object however many callers ask for it.
"""

from __future__ import annotations

import functools
import inspect

from .bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
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
    cyclic_sum,
    endomorphism_defects,
)
from .report import CheckReport, Violation, sorted_violations

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
    become violations, sorted canonically.  ``jobs`` is accepted and
    ignored: the scan runs in one thread."""
    violations = []
    for k in keys:
        d = defect_fn(k)
        if d:
            violations.append(Violation(k, d))
    return CheckReport(identity_id, sorted_violations(violations), note=note)


def _once_per_bundle(check):
    """Store check's report on its bundle, keyed by the check and its
    arguments other than ``jobs`` (reports never depend on ``jobs``).
    Bundles are frozen, so a stored report cannot go stale."""
    signature = inspect.signature(check)

    @functools.wraps(check)
    def memo(bundle, *args, **kwargs):
        bound = signature.bind(bundle, *args, **kwargs)
        bound.apply_defaults()
        del bound.arguments["jobs"]
        key = (check,) + bound.args[1:]
        reports = vars(bundle).setdefault("_reports", {})
        if key not in reports:
            reports[key] = check(bundle, *args, **kwargs)
        return reports[key]

    return memo


def _bracket_parts(b):
    return b.space, b.bichar, b.bracket, b.twist


@_once_per_bundle
def check_skew_symmetry(b, jobs=1) -> CheckReport:
    """bracket(x, y) + eps(x, y) * bracket(y, x) == 0 on all basis pairs."""
    space, eps, br, _ = _bracket_parts(b)
    deg = space.degree

    def defect(key):
        i, j = key
        return br.on_basis(i, j) + br.on_basis(j, i).scaled(eps(deg(i), deg(j)))

    keys = [(i, j) for i in range(space.dim) for j in range(i, space.dim)]
    return scan_identity("skew-symmetry", keys, defect, jobs)


@_once_per_bundle
def check_akivis_identity(b: AkivisBundle, jobs=1) -> CheckReport:
    """Cyclic bracket-of-bracket sum against the sign-mixed ternary sum:

        sum_cyc eps(z,x) [[x,y], t(z)]
            == sum_cyc eps(z,x) ( T(x,y,z) - eps(x,y) T(y,x,z) )

    where t is the twist map and the cyclic sum re-evaluates prefactors at
    the rotated degrees.  Precondition: the bracket is eps-skew."""
    pre = check_skew_symmetry(b, jobs)
    if not pre.passed:
        return CheckReport("hom-akivis", precondition_failure=pre)
    space, eps, br, tw = _bracket_parts(b)
    tern = b.ternary
    deg = space.degree

    def lhs(x, y, z):
        v = br(br.on_basis(x, y), tw.image_of_basis(z))
        return v.scaled(eps(deg(z), deg(x)))

    def rhs(x, y, z):
        v = tern.on_basis(x, y, z) - tern.on_basis(y, x, z).scaled(eps(deg(x), deg(y)))
        return v.scaled(eps(deg(z), deg(x)))

    def defect(key):
        return cyclic_sum(lhs, *key) - cyclic_sum(rhs, *key)

    return scan_identity("hom-akivis", space.tuples(3), defect, jobs)


@_once_per_bundle
def check_hom_lie(b, jobs=1) -> CheckReport:
    """sum_cyc eps(z,x) [[x,y], t(z)] == 0 (with eps-skew precondition)."""
    pre = check_skew_symmetry(b, jobs)
    if not pre.passed:
        return CheckReport("hom-jacobi", precondition_failure=pre)
    space, eps, br, tw = _bracket_parts(b)
    deg = space.degree

    def term(x, y, z):
        v = br(br.on_basis(x, y), tw.image_of_basis(z))
        return v.scaled(eps(deg(z), deg(x)))

    def defect(key):
        return cyclic_sum(term, *key)

    return scan_identity("hom-jacobi", space.tuples(3), defect, jobs)


def _ternary_of(b) -> MultilinearMap:
    if isinstance(b, AkivisBundle):
        return b.ternary
    if isinstance(b, (NonAssocBundle, NHLPBundle)):
        return associator_map(b.product, b.twist)
    raise InputError(f"no ternary structure on bundle kind {b.kind!r}")


@_once_per_bundle
def check_flexible_alternative(b, mode="polarized", jobs=1) -> CheckReport:
    """Classify the ternary structure (the Hom-associator for algebra
    input, the ternary table for Akivis input).

    flexible, literal mode: T(x, y, x) == 0 on basis tuples, plus the
    ungraded polarization T(x,y,z) + T(z,y,x) == 0 within equal degrees.
    flexible, polarized mode: T(x,y,z) + eps(x,z) T(z,y,x) == 0.
    alternative: T changes sign (with eps factor) under both adjacent
    argument swaps.

    Both flexibility modes are always computed; ``mode`` picks which one
    feeds the 'flexible' flag.  The composite 'passed' means flexible (in
    the chosen mode) AND alternative, so treat this as a classifier and
    read the flags rather than the pass bit.
    """
    if mode not in ("polarized", "literal"):
        raise InputError(f"unknown flexibility mode {mode!r}")
    T = _ternary_of(b)
    space, eps = b.space, b.bichar
    deg = space.degree

    def literal_defect(key):
        x, y, z = key
        if x == z:
            return T.on_basis(x, y, x)
        return T.on_basis(x, y, z) + T.on_basis(z, y, x)

    literal_keys = [
        (x, y, z)
        for x in range(space.dim)
        for y in range(space.dim)
        for z in range(x, space.dim)
        if x == z or deg(x) == deg(z)
    ]
    literal = scan_identity("flexible-literal", literal_keys, literal_defect, jobs)

    def polarized_defect(key):
        x, y, z = key
        return T.on_basis(x, y, z) + T.on_basis(z, y, x).scaled(eps(deg(x), deg(z)))

    polarized_keys = [
        (x, y, z)
        for x in range(space.dim)
        for y in range(space.dim)
        for z in range(x, space.dim)
    ]
    polarized = scan_identity("flexible-polarized", polarized_keys, polarized_defect, jobs)

    # the two adjacent swaps generate all permutations, so eps-alternating
    # reduces to these two families
    def alt_first(key):
        x, y, z = key
        return T.on_basis(x, y, z) + T.on_basis(y, x, z).scaled(eps(deg(x), deg(y)))

    def alt_second(key):
        x, y, z = key
        return T.on_basis(x, y, z) + T.on_basis(x, z, y).scaled(eps(deg(y), deg(z)))

    alt_sub = CheckReport(
        "alternative",
        subreports=(
            scan_identity("alternative-first-pair", space.tuples(3), alt_first, jobs),
            scan_identity("alternative-second-pair", space.tuples(3), alt_second, jobs),
        ),
    )
    flags = {
        "flexible": (polarized if mode == "polarized" else literal).passed,
        "flexible_literal": literal.passed,
        "flexible_polarized": polarized.passed,
        "alternative": alt_sub.passed,
    }
    return CheckReport(
        "flexible-alternative",
        subreports=(literal, polarized, alt_sub),
        flags=flags,
        note=f"mode={mode}",
    )


@_once_per_bundle
def check_flexible_akivis_relation(b: AkivisBundle, mode="polarized", jobs=1) -> CheckReport:
    """For flexible bundles the cyclic bracket sum collapses onto the
    ternary table:

        sum_cyc eps(z,x) [[x,y], t(z)]
            == sum_cyc ( eps(z,x) + eps(x,y) eps(y,z) ) T(x,y,z)

    Precondition: flexibility in the requested mode."""
    classify = check_flexible_alternative(b, mode=mode, jobs=jobs)
    if not classify.flags["flexible"]:
        failed = classify.subreports[1 if mode == "polarized" else 0]
        return CheckReport("flexible-akivis-relation", precondition_failure=failed)
    space, eps, br, tw = _bracket_parts(b)
    tern = b.ternary
    deg = space.degree

    def lhs(x, y, z):
        v = br(br.on_basis(x, y), tw.image_of_basis(z))
        return v.scaled(eps(deg(z), deg(x)))

    def rhs(x, y, z):
        coeff = eps(deg(z), deg(x)) + eps(deg(x), deg(y)) * eps(deg(y), deg(z))
        return tern.on_basis(x, y, z).scaled(coeff)

    def defect(key):
        return cyclic_sum(lhs, *key) - cyclic_sum(rhs, *key)

    return scan_identity("flexible-akivis-relation", space.tuples(3), defect, jobs)


def check_hom_associativity(product: MultilinearMap, twist: EvenMap, jobs=1) -> CheckReport:
    """product(t(x), product(y,z)) == product(product(x,y), t(z))."""
    space = product.codomain

    def defect(key):
        x, y, z = key
        lhs = product(twist.image_of_basis(x), product.on_basis(y, z))
        rhs = product(product.on_basis(x, y), twist.image_of_basis(z))
        return lhs - rhs

    return scan_identity("hom-associativity", space.tuples(3), defect, jobs)


@_once_per_bundle
def check_color_leibniz(b, jobs=1) -> CheckReport:
    """Left Leibniz law with twist and signs:

        [t(x), [y,z]] == [[x,y], t(z)] + eps(x,y) [t(y), [x,z]]
    """
    space, eps, br, tw = _bracket_parts(b)
    deg = space.degree

    def defect(key):
        x, y, z = key
        lhs = br(tw.image_of_basis(x), br.on_basis(y, z))
        rhs = br(br.on_basis(x, y), tw.image_of_basis(z)) + br(
            tw.image_of_basis(y), br.on_basis(x, z)
        ).scaled(eps(deg(x), deg(y)))
        return lhs - rhs

    return scan_identity("color-hom-leibniz", space.tuples(3), defect, jobs)


@_once_per_bundle
def check_leibniz_consequences(b: LeibnizBundle, jobs=1) -> CheckReport:
    """Two consequences of the Leibniz law, via the derived commutator
    [x,y] := x.y - eps(x,y) y.x of the Leibniz product:

      (x.y + eps(x,y) y.x) . t(z) == 0
      [x.y, t(z)] + eps(x,y) [t(y), x.z] == t(x) . [y,z]

    Precondition: the bundle passes the Leibniz law itself; both scans
    must then come back clean, never independently."""
    pre = check_color_leibniz(b, jobs)
    if not pre.passed:
        return CheckReport("leibniz-consequences", precondition_failure=pre)
    space, eps, br, tw = _bracket_parts(b)
    comm = commutator_map(br, eps)
    deg = space.degree

    def symmetrized(key):
        x, y, z = key
        w = br.on_basis(x, y) + br.on_basis(y, x).scaled(eps(deg(x), deg(y)))
        return br(w, tw.image_of_basis(z))

    def derived(key):
        x, y, z = key
        lhs = comm(br.on_basis(x, y), tw.image_of_basis(z)) + comm(
            tw.image_of_basis(y), br.on_basis(x, z)
        ).scaled(eps(deg(x), deg(y)))
        rhs = br(tw.image_of_basis(x), comm.on_basis(y, z))
        return lhs - rhs

    subs = (
        scan_identity("leibniz-symmetrized-action", space.tuples(3), symmetrized, jobs),
        scan_identity("leibniz-derived-bracket", space.tuples(3), derived, jobs),
    )
    return CheckReport("leibniz-consequences", subreports=subs)


@_once_per_bundle
def check_nhlp(b: NHLPBundle, jobs=1) -> CheckReport:
    """Composite: Leibniz law for the bracket, Hom-associativity for the
    product, and the compatibility law

        [t(x), product(y,z)] == product([x,y], t(z))
                                 + eps(x,y) product(t(y), [x,z])

    Flags record whether the product is eps-commutative."""
    space, eps, br, tw = _bracket_parts(b)
    mu = b.product
    deg = space.degree

    leibniz = check_color_leibniz(b, jobs)
    assoc = check_hom_associativity(mu, tw, jobs)

    def compat(key):
        x, y, z = key
        lhs = br(tw.image_of_basis(x), mu.on_basis(y, z))
        rhs = mu(br.on_basis(x, y), tw.image_of_basis(z)) + mu(
            tw.image_of_basis(y), br.on_basis(x, z)
        ).scaled(eps(deg(x), deg(y)))
        return lhs - rhs

    compat_rep = scan_identity("leibniz-compatibility", space.tuples(3), compat, jobs)
    flags = {"commutative": is_sign_commutative(mu, eps)}
    return CheckReport("nhlp", subreports=(leibniz, assoc, compat_rep), flags=flags)


@_once_per_bundle
def check_dialgebra(b: DialgebraBundle, jobs=1) -> CheckReport:
    """The five twisted axioms tying the two products together.  Numbered
    left to right as the defining chain of equalities decomposes."""
    space = b.space
    L, R, tw = b.prod_left, b.prod_right, b.twist

    def ax1(key):
        x, y, z = key
        return L(R.on_basis(x, y), tw.image_of_basis(z)) - R(
            tw.image_of_basis(x), L.on_basis(y, z)
        )

    def ax2(key):
        x, y, z = key
        return L(tw.image_of_basis(x), L.on_basis(y, z)) - L(
            L.on_basis(x, y), tw.image_of_basis(z)
        )

    def ax3(key):
        x, y, z = key
        return L(L.on_basis(x, y), tw.image_of_basis(z)) - L(
            tw.image_of_basis(x), R.on_basis(y, z)
        )

    def ax4(key):
        x, y, z = key
        return R(L.on_basis(x, y), tw.image_of_basis(z)) - R(
            tw.image_of_basis(x), R.on_basis(y, z)
        )

    def ax5(key):
        x, y, z = key
        return R(tw.image_of_basis(x), R.on_basis(y, z)) - R(
            R.on_basis(x, y), tw.image_of_basis(z)
        )

    subs = tuple(
        scan_identity(f"dialgebra-axiom-{n}", space.tuples(3), fn, jobs)
        for n, fn in enumerate((ax1, ax2, ax3, ax4, ax5), start=1)
    )
    return CheckReport("dialgebra", subreports=subs)


@_once_per_bundle
def check_module(mb: ModuleBundle, jobs=1) -> CheckReport:
    """Two twist-compatibility laws and three action laws of a two-sided
    module over a Leibniz bundle.  Precondition: the algebra itself
    satisfies the Leibniz law."""
    pre = check_color_leibniz(mb.algebra, jobs)
    if not pre.passed:
        return CheckReport("module", precondition_failure=pre)
    alg = mb.algebra
    A, M = alg.space, mb.module_space
    eps, br, tA = alg.bichar, alg.bracket, alg.twist
    aL, aR, tM = mb.act_left, mb.act_right, mb.module_twist
    dA, dM = A.degree, M.degree

    def twist_left(key):
        x, m = key
        return tM(aL.on_basis(x, m)) - aL(tA.image_of_basis(x), tM.image_of_basis(m))

    def twist_right(key):
        m, x = key
        return tM(aR.on_basis(m, x)) - aR(tM.image_of_basis(m), tA.image_of_basis(x))

    def bracket_left(key):  # [x,y].t(m) == t(x).(y.m) - eps(x,y) t(y).(x.m)
        x, y, m = key
        lhs = aL(br.on_basis(x, y), tM.image_of_basis(m))
        rhs = aL(tA.image_of_basis(x), aL.on_basis(y, m)) - aL(
            tA.image_of_basis(y), aL.on_basis(x, m)
        ).scaled(eps(dA(x), dA(y)))
        return lhs - rhs

    def bracket_right(key):  # t(m)*[x,y] == (x.m)*t(y) + eps(x,m) t(x).(m*y)
        x, y, m = key
        lhs = aR(tM.image_of_basis(m), br.on_basis(x, y))
        rhs = aR(aL.on_basis(x, m), tA.image_of_basis(y)) + aL(
            tA.image_of_basis(x), aR.on_basis(m, y)
        ).scaled(eps(dA(x), dM(m)))
        return lhs - rhs

    def mixed(key):  # t(x).(m*y) == (x.m)*t(y) + eps(m,x) t(m)*[x,y]
        x, m, y = key
        lhs = aL(tA.image_of_basis(x), aR.on_basis(m, y))
        rhs = aR(aL.on_basis(x, m), tA.image_of_basis(y)) + aR(
            tM.image_of_basis(m), br.on_basis(x, y)
        ).scaled(eps(dM(m), dA(x)))
        return lhs - rhs

    pairs_xm = [(x, m) for x in range(A.dim) for m in range(M.dim)]
    pairs_mx = [(m, x) for m in range(M.dim) for x in range(A.dim)]
    triples_xym = [
        (x, y, m) for x in range(A.dim) for y in range(A.dim) for m in range(M.dim)
    ]
    triples_xmy = [
        (x, m, y) for x in range(A.dim) for m in range(M.dim) for y in range(A.dim)
    ]
    subs = (
        scan_identity("module-twist-left", pairs_xm, twist_left, jobs),
        scan_identity("module-twist-right", pairs_mx, twist_right, jobs),
        scan_identity("module-bracket-left", triples_xym, bracket_left, jobs),
        scan_identity("module-bracket-right", triples_xym, bracket_right, jobs),
        scan_identity("module-mixed", triples_xmy, mixed, jobs),
    )
    return CheckReport("module", subreports=subs)


def check_endomorphism(f: EvenMap, ops, jobs=1) -> CheckReport:
    """Report version of the endomorphism test: one violation per basis
    tuple where f fails to commute with a structure map."""
    violations = [
        Violation(key, defect, f"operation {opn}")
        for opn, key, defect in endomorphism_defects(f, ops)
    ]
    return CheckReport("endomorphism", sorted_violations(violations))
