"""Identity checkers.

Every law is verified by exhaustive scan over homogeneous basis tuples
with exact arithmetic.  Over a field of characteristic zero a
multilinear identity holds for all elements iff it holds on all basis
tuples, so these scans are complete, not samples.  Sign prefactors are
always evaluated at the degrees of the original homogeneous arguments of
the tuple under test; inner occurrences are table-driven and need no
extra signs.

Every law is an entry of ``LAWS``, its terms written as the paper writes
the formula and signed by the Koszul rule, read off each term's leaf order
at import: eps(k[p], k[q]) for each pair of key positions p < q that
appear as q .. p, times the law's prefactor, each eps(p,q) eps(q,p)
cancelled.  A term that does not follow the rule lists its own factors.
The derived maps (the commutator, the Hom-associator, the dialgebra
bracket, the opposite product, the twists) are entries too.  ``bind_law``
binds a law's operation names to maps on compiled integer tables
(``tables``), for a checker's scan or for the map ``derive`` builds, so
the scalar kernels are off the scan path; a nonzero defect stays
integers (``tables.Defect``) until it is read.

Every scan runs in one thread: worker threads were measured 20-40%
slower under the interpreter lock.  Every law check takes a bundle and
stores its report on it, so each law is scanned at most once per bundle
object however many callers ask for it, and the classifier reads a
product's Hom-associator off the stored hom-associativity scan.
"""

from __future__ import annotations

from itertools import product

from . import tables
from .bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
    _once_per_bundle,
    is_sign_commutative,
)
from .errors import InputError
from .grading import validate_bicharacter
from .linalg import (
    EvenMap,
    MultilinearMap,
    check_evenness,
    endomorphism_defects,
)
from .report import CheckReport, Violation, sorted_violations

__all__ = [
    "LAWS",
    "derive",
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


def _cyclic(coefficient, monomial, *own):
    """The terms of a cyclic sum: monomial, and its own factors, at the
    rotations (x,y,z), (y,z,x), (z,x,y), key position p read as (p + r) % 3."""
    def turn(m, r):
        return (m + r) % 3 if type(m) is int else (m[0], *(turn(a, r) for a in m[1:]))

    return [(coefficient, turn(monomial, r),
             *(tuple((turn(p, r), turn(q, r)) for p, q in factors) for factors in own))
            for r in range(3)]


# law id -> (key spaces, prefactor, terms).  A key space is S, the bundle's
# own, or A, the acting algebra's; the prefactor (p, q) is eps(k[p], k[q]).
# A term is (coefficient, monomial), a monomial a key position p, ("t", p)
# (the twist of e_k[p]), ("t", inner) or (name, *arguments), the name bound
# by ``bind_law``: B bracket, T ternary, P product, L and R the left and
# right products or actions, M a map to twist.  A term whose third entry
# lists its own factors (p, q) breaks the Koszul rule; each such law says why.
_BRACKET_CYCLE = _cyclic(1, ("B", ("B", 0, 1), ("t", 2)))
_HOM_ASSOCIATIVITY = [(1, ("P", ("t", 0), ("P", 1, 2))), (-1, ("P", ("P", 0, 1), ("t", 2)))]
LAWS = {
    "skew-symmetry": ("SS", None, [(1, ("B", 0, 1)), (1, ("B", 1, 0))]),
    "hom-jacobi": ("SSS", (2, 0), _BRACKET_CYCLE),
    "hom-akivis": ("SSS", (2, 0), [
        *_BRACKET_CYCLE, *_cyclic(-1, ("T", 0, 1, 2)), *_cyclic(1, ("T", 1, 0, 2))]),
    # own factors (ROADMAP.md item 12): none, ungraded by design; eps(x,z) alone
    "flexible-literal": ("SSS", None, [(1, ("T", 0, 1, 2)), (1, ("T", 2, 1, 0), ())]),
    "flexible-polarized": ("SSS", None, [(1, ("T", 0, 1, 2)), (1, ("T", 2, 1, 0), ((0, 2),))]),
    "alternative-first-pair": ("SSS", None, [(1, ("T", 0, 1, 2)), (1, ("T", 1, 0, 2))]),
    "alternative-second-pair": ("SSS", None, [(1, ("T", 0, 1, 2)), (1, ("T", 0, 2, 1))]),
    # the summand eps(x,y) eps(y,z) T(x,y,z) lists its own (ROADMAP.md item 12)
    "flexible-akivis-relation": ("SSS", (2, 0), [
        *_BRACKET_CYCLE, *_cyclic(-1, ("T", 0, 1, 2)),
        *_cyclic(-1, ("T", 0, 1, 2), ((0, 1), (1, 2)))]),
    "hom-associativity": ("SSS", None, _HOM_ASSOCIATIVITY),
    "color-hom-leibniz": ("SSS", None, [(1, ("B", ("t", 0), ("B", 1, 2))),
                                        (-1, ("B", ("B", 0, 1), ("t", 2))),
                                        (-1, ("B", ("t", 1), ("B", 0, 2)))]),
    "leibniz-symmetrized-action": ("SSS", None, [(1, ("B", ("B", 0, 1), ("t", 2))),
                                                 (1, ("B", ("B", 1, 0), ("t", 2)))]),
    # C(B(x,y), t z) + eps(x,y) C(t y, B(x,z)) - B(t x, C(y,z)) written out in the
    # bracket: the commutator C(u,v) = B(u,v) - eps(u,v) B(v,u)
    "leibniz-derived-bracket": ("SSS", None, [
        (1, ("B", ("B", 0, 1), ("t", 2))), (-1, ("B", ("t", 2), ("B", 0, 1))),
        (1, ("B", ("t", 1), ("B", 0, 2))), (-1, ("B", ("B", 0, 2), ("t", 1))),
        (-1, ("B", ("t", 0), ("B", 1, 2))), (1, ("B", ("t", 0), ("B", 2, 1)))]),
    "leibniz-compatibility": ("SSS", None, [(1, ("B", ("t", 0), ("P", 1, 2))),
                                            (-1, ("P", ("B", 0, 1), ("t", 2))),
                                            (-1, ("P", ("t", 1), ("B", 0, 2)))]),
    # the dialgebra axioms: axiom n is lhs == rhs
    **{f"dialgebra-axiom-{n}": ("SSS", None, [(1, lhs), (-1, rhs)])
       for n, (lhs, rhs) in enumerate((
           (("L", ("R", 0, 1), ("t", 2)), ("R", ("t", 0), ("L", 1, 2))),
           (("L", ("t", 0), ("L", 1, 2)), ("L", ("L", 0, 1), ("t", 2))),
           (("L", ("L", 0, 1), ("t", 2)), ("L", ("t", 0), ("R", 1, 2))),
           (("R", ("L", 0, 1), ("t", 2)), ("R", ("t", 0), ("R", 1, 2))),
           (("R", ("t", 0), ("R", 1, 2)), ("R", ("R", 0, 1), ("t", 2))),
       ), start=1)},
    # the module laws, with L(x, m) = x.m and R(m, x) = m*x
    "module-twist-left": ("AS", None, [  # t(x.m) - t(x).t(m)
        (1, ("t", ("L", 0, 1))), (-1, ("L", ("t", 0), ("t", 1)))]),
    "module-twist-right": ("SA", None, [  # t(m*x) - t(m)*t(x)
        (1, ("t", ("R", 0, 1))), (-1, ("R", ("t", 0), ("t", 1)))]),
    "module-bracket-left": ("AAS", None, [  # [x,y].t(m) - t(x).(y.m) + eps(x,y) t(y).(x.m)
        (1, ("L", ("B", 0, 1), ("t", 2))), (-1, ("L", ("t", 0), ("L", 1, 2))),
        (1, ("L", ("t", 1), ("L", 0, 2)))]),
    # own factors (ROADMAP.md item 12): not those of the semidirect product's law
    "module-bracket-right": ("AAS", None, [  # t(m)*[x,y] - (x.m)*t(y) - eps(x,m) t(x).(m*y)
        (1, ("R", ("t", 2), ("B", 0, 1)), ()), (-1, ("R", ("L", 0, 2), ("t", 1)), ()),
        (-1, ("L", ("t", 0), ("R", 2, 1)), ((0, 2),))]),
    "module-mixed": ("ASA", None, [  # t(x).(m*y) - (x.m)*t(y) - eps(m,x) t(m)*[x,y]
        (1, ("L", ("t", 0), ("R", 1, 2)), ()), (-1, ("R", ("L", 0, 1), ("t", 2)), ()),
        (-1, ("R", ("t", 1), ("B", 0, 2)), ((1, 0),))]),
    # the derived maps, which constructions build by ``derive``
    "commutator": ("SS", None, [(1, ("P", 0, 1)), (-1, ("P", 1, 0))]),
    "hom-associator": ("SSS", None, [(-c, m) for c, m in _HOM_ASSOCIATIVITY]),
    "dialgebra-bracket": ("SS", None, [(1, ("R", 0, 1)), (-1, ("L", 1, 0))]),
    # own factors (ROADMAP.md item 12): none, where the Koszul form is eps(x,y) P(y,x)
    "opposite": ("SS", None, [(1, ("P", 1, 0), ())]),
    # the twists t o M, and t on an action's algebra argument: no eps
    "twisted-unary": ("S", None, [(1, ("t", ("M", 0)))]),
    "twisted-binary": ("SS", None, [(1, ("t", ("M", 0, 1)))]),
    "twisted-ternary": ("SSS", None, [(1, ("t", ("M", 0, 1, 2)))]),
    "twisted-action-left": ("AS", None, [(1, ("M", ("t", 0), 1))]),
    "twisted-action-right": ("SA", None, [(1, ("M", 0, ("t", 1)))]),
}


def _leaves(monomial):
    """The key positions of a monomial in the order its arguments appear."""
    if type(monomial) is int:
        return [monomial]
    return [p for arg in monomial[1:] for p in _leaves(arg)]


def _koszul(leaves, prefactor):
    """The eps factors (p, q) of a term by the Koszul rule: one for each
    pair of key positions p < q that appear as q .. p in leaves, and the
    prefactor, each eps(p,q) eps(q,p) cancelled."""
    factors = [prefactor] if prefactor else []
    for i, q in enumerate(leaves):
        for p in leaves[i + 1:]:
            if p < q:
                if (q, p) in factors:
                    factors.remove((q, p))
                else:
                    factors.append((p, q))
    return factors


def _compile(spaces, prefactor, terms):
    """The maps and pairs of spaces of the Signs a law reads, and each term
    as (coefficient, outer, arguments, factors (spaces, p, q)), an argument
    (None, p) for the key position p or (name, positions) for a table read
    at key positions; "tX" is the twist of space X.  Binding a term is then
    a lookup of its tables and Signs."""
    plan = []
    for coefficient, (name, *args), *own in terms:
        factors = own[0] if own else _koszul(_leaves((name, *args)), prefactor)
        plan.append((coefficient, "tS" if name == "t" else name,
                     tuple((None, a) if type(a) is int else
                           ("t" + spaces[a[1]] if a[0] == "t" else a[0], a[1:]) for a in args),
                     tuple((spaces[p] + spaces[q], p, q) for p, q in factors)))
    names = {n for _, name, args, _ in plan for n in (name, *(a[0] for a in args if a[0]))}
    return names, {s for *_, factors in plan for s, _, _ in factors}, plan


_PLANS = {law_id: _compile(*entry) for law_id, entry in LAWS.items()}


def bind_law(law_id, space, bichar, alone=None, **ops):
    """The defect (``tables.law``) of LAWS[law_id] on its key spaces,
    space["S"] and space["A"]: each name bound to ops[name], "tS" and "tA"
    the twists of S and A, each eps factor read from bichar (None for a
    law that reads none); at a key k where alone(k), the first term's."""
    names, pairs, plan = _PLANS[law_id]
    bound = {name: tables.table(ops[name]) for name in names}
    for s in pairs:
        bound[s] = tables.signs(bichar, space[s[0]], space[s[1]])
    terms = []
    for coefficient, name, args, factors in plan:
        terms.append(tables.term(
            coefficient, bound[name], *[(bound[n], *ps) if n else ps for n, ps in args],
            eps=[(bound[s], p, q) for s, p, q in factors] if factors else ()))
    defect = tables.law(space["S"], *terms)
    if alone is not None:
        first, whole = tables.law(space["S"], terms[0]), defect
        defect = lambda k: (first if alone(k) else whole)(k)  # noqa: E731
    return defect


def derive(law_id, space, bichar=None, **ops) -> MultilinearMap:
    """The map whose value on each basis tuple of the key spaces of
    LAWS[law_id] is that law, bound as by ``bind_law``."""
    return tables.materialize(tuple(space[s] for s in LAWS[law_id][0]), space["S"],
                              bind_law(law_id, space, bichar, **ops))


def _scan(law_id, b, keys=None, alone=None, **ops):
    """Scan LAWS[law_id] on b over keys (every basis tuple of its key
    spaces), bound to ops and b's twists by ``bind_law``."""
    alg = b.algebra if isinstance(b, ModuleBundle) else b
    space = {"S": b.space if alg is b else b.module_space, "A": alg.space}
    ops["tS"], ops["tA"] = getattr(b, b.TWIST[1]), alg.twist
    if keys is None:
        keys = product(*[range(space[s].dim) for s in LAWS[law_id][0]])
    return scan_identity(law_id, keys, bind_law(law_id, space, alg.bichar, alone, **ops))


@_once_per_bundle
def check_skew_symmetry(b) -> CheckReport:
    """bracket(x, y) + eps(x, y) * bracket(y, x) == 0 on all basis pairs."""
    n = b.space.dim
    return _scan("skew-symmetry", b, [(i, j) for i in range(n) for j in range(i, n)],
                 B=b.bracket)


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
    return _scan("hom-akivis", b, B=b.bracket, T=b.ternary)


@_once_per_bundle
def check_hom_lie(b) -> CheckReport:
    """sum_cyc eps(z,x) [[x,y], t(z)] == 0 (with eps-skew precondition)."""
    pre = check_skew_symmetry(b)
    if not pre.passed:
        return CheckReport("hom-jacobi", precondition_failure=pre)
    return _scan("hom-jacobi", b, B=b.bracket)


def _ternary_of(b) -> MultilinearMap:
    """An Akivis bundle's ternary map, or a product's Hom-associator
    T(x,y,z) = (xy) t(z) - t(x) (yz): each violation of the stored
    hom-associativity report holds -T at its key, as the scan's integers."""
    if isinstance(b, AkivisBundle):
        return b.ternary
    if isinstance(b, (NonAssocBundle, NHLPBundle)):
        S = b.space
        return MultilinearMap((S, S, S), S, {
            v.args: tables.Defect(S, tuple([(k, tuple([-n for n in nums]))
                                            for k, nums in v.raw.coords]), v.raw.den).vector()
            for v in check_hom_associativity(b).violations})
    raise InputError(f"no ternary structure on bundle kind {b.kind!r}")


@_once_per_bundle
def check_flexible_alternative(b) -> CheckReport:
    """Classify the ternary structure (the Hom-associator for algebra
    input, read off ``check_hom_associativity``'s stored report by
    ``_ternary_of``; the ternary table for Akivis input).

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
    space, T = b.space, _ternary_of(b)
    deg, n = space.degree, space.dim
    keys = [(x, y, z) for x in range(n) for y in range(n) for z in range(x, n)]
    literal = _scan("flexible-literal", b, [(x, y, z) for x, y, z in keys
                                            if x == z or deg(x) == deg(z)],
                    alone=lambda k: k[0] == k[2], T=T)
    polarized = _scan("flexible-polarized", b, keys, T=T)
    # the two adjacent swaps generate all permutations, so eps-alternating
    # reduces to these two families
    alt_sub = CheckReport("alternative", subreports=(
        _scan("alternative-first-pair", b, T=T),
        _scan("alternative-second-pair", b, T=T),
    ))
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
    return _scan("flexible-akivis-relation", b, B=b.bracket, T=b.ternary)


@_once_per_bundle
def check_hom_associativity(b) -> CheckReport:
    """product(t(x), product(y,z)) == product(product(x,y), t(z)) on every
    basis triple of a bundle with a product (nonassociative or nhlp).  The
    defect is the Hom-associator with its sign flipped, so the stored
    report's violations are the classifier's Hom-associator too
    (``_ternary_of``): it is evaluated once per bundle."""
    return _scan("hom-associativity", b, P=b.product)


@_once_per_bundle
def check_color_leibniz(b) -> CheckReport:
    """Left Leibniz law with twist and signs:

        [t(x), [y,z]] == [[x,y], t(z)] + eps(x,y) [t(y), [x,z]]
    """
    return _scan("color-hom-leibniz", b, B=b.bracket)


@_once_per_bundle
def check_leibniz_consequences(b: LeibnizBundle) -> CheckReport:
    """Two consequences of the Leibniz law, via the derived commutator
    [x,y] := x.y - eps(x,y) y.x of the Leibniz product:

      (x.y + eps(x,y) y.x) . t(z) == 0
      [x.y, t(z)] + eps(x,y) [t(y), x.z] == t(x) . [y,z]

    LAWS writes the second with each commutator out in the product.
    Precondition: the bundle passes the Leibniz law itself; both scans
    must then come back clean, never independently."""
    pre = check_color_leibniz(b)
    if not pre.passed:
        return CheckReport("leibniz-consequences", precondition_failure=pre)
    subs = (
        _scan("leibniz-symmetrized-action", b, B=b.bracket),
        _scan("leibniz-derived-bracket", b, B=b.bracket),
    )
    return CheckReport("leibniz-consequences", subreports=subs)


@_once_per_bundle
def check_nhlp(b: NHLPBundle) -> CheckReport:
    """Composite: Leibniz law for the bracket, Hom-associativity for the
    product, and the compatibility law

        [t(x), product(y,z)] == product([x,y], t(z))
                                 + eps(x,y) product(t(y), [x,z])

    Flags record whether the product is eps-commutative."""
    leibniz = check_color_leibniz(b)
    assoc = check_hom_associativity(b)
    compat = _scan("leibniz-compatibility", b, B=b.bracket, P=b.product)
    flags = {"commutative": is_sign_commutative(b.product, b.bichar)}
    return CheckReport("nhlp", subreports=(leibniz, assoc, compat), flags=flags)


@_once_per_bundle
def check_dialgebra(b: DialgebraBundle) -> CheckReport:
    """The five twisted axioms tying the two products together,
    dialgebra-axiom-1 .. 5 of ``LAWS``, numbered left to right as the
    defining chain of equalities decomposes."""
    subs = tuple(_scan(f"dialgebra-axiom-{n}", b, L=b.prod_left, R=b.prod_right)
                 for n in range(1, 6))
    return CheckReport("dialgebra", subreports=subs)


@_once_per_bundle
def check_module(mb: ModuleBundle) -> CheckReport:
    """Two twist-compatibility laws and three action laws of a two-sided
    module over a Leibniz bundle.  Precondition: the algebra itself
    satisfies the Leibniz law."""
    pre = check_color_leibniz(mb.algebra)
    if not pre.passed:
        return CheckReport("module", precondition_failure=pre)
    subs = tuple(_scan(law_id, mb, B=mb.algebra.bracket, L=mb.act_left, R=mb.act_right)
                 for law_id in LAWS if law_id.startswith("module-"))
    return CheckReport("module", subreports=subs)


def check_endomorphism(f: EvenMap, ops) -> CheckReport:
    """Report version of the endomorphism test: one violation per basis
    tuple where f fails to commute with a structure map."""
    violations = [
        Violation(key, defect, f"operation {opn}")
        for opn, key, defect in endomorphism_defects(f, ops)
    ]
    return CheckReport("endomorphism", sorted_violations(violations))
