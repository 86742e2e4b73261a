"""Constructions: every operation that builds a new bundle from old data.

All constructions validate their preconditions eagerly and re-run the
relevant checker on the output before returning it.  On any failure they
raise ConstructionError with the offending report attached instead of
handing out an unverified bundle.  The single exception is the
experimental tensor-square build, which returns (bundle, report) with no
pass guarantee.
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
    associator_map,
    is_multiplicative,
)
from .checkers import (
    check_akivis_identity,
    check_color_leibniz,
    check_dialgebra,
    check_endomorphism,
    check_evenness,
    check_module,
    check_nhlp,
)
from .errors import ConstructionError, InputError
from .linalg import EvenMap, GradedSpace, MultilinearMap, Vector, commutator_map
from .scalars import Scalar


def _require(report, what):
    if not report.passed:
        raise ConstructionError(f"{what}: {report.identity_id} fails", report)


def _even_endo(beta: EvenMap, b, what):
    """Refuse beta unless it is an even self-map of b's space commuting
    with every operation of b.  The bundle's own twist is even by
    construction and asks the endomorphism test stored on the bundle; the
    report is built only to refuse."""
    if beta.space != b.space:
        raise InputError(f"{what}: twisting map acts on the wrong space")
    if beta is b.twist:
        if is_multiplicative(b):
            return
    elif not check_evenness(beta).passed:
        raise InputError(f"{what}: twisting map is not even")
    _require(check_endomorphism(beta, b.ops()), what)


def akivis_from_algebra(b: NonAssocBundle) -> AkivisBundle:
    """Commutator bracket plus twisted-associator ternary of a graded
    algebra.  The output is re-certified against the Akivis identity;
    multiplicativity of the twist map is NOT required for that."""
    bracket = commutator_map(b.product, b.bichar)
    ternary = associator_map(b.product, b.twist)
    out = AkivisBundle(b.space, b.bichar, bracket, ternary, b.twist)
    _require(check_akivis_identity(out), "akivis_from_algebra output")
    return out


def _twist(b, beta: EvenMap, n: int, check, what):
    """n-th twist along a self-map beta commuting with every operation: a
    k-ary operation becomes beta^(n(k-1)) o op and the twist map becomes
    beta^n o old twist.  n == 0 returns the input shape unchanged."""
    if not isinstance(n, int) or n < 0:
        raise InputError("twist power must be a non-negative integer")
    _even_endo(beta, b, what)
    _require(check(b), f"{what} input")
    bn = beta.power(n)
    out = type(b)(
        b.space,
        b.bichar,
        *(op.map_values(bn.power(op.arity - 1)) for op in b.ops()),
        bn.compose(b.twist),
    )
    if out == b:  # a fixed point: keep the input and the reports stored on it
        out = b
    _require(check(out), f"{what} output")
    return out


def twist_akivis(b: AkivisBundle, beta: EvenMap, n: int) -> AkivisBundle:
    """New bracket = beta^n o bracket, new ternary = beta^(2n) o ternary,
    new twist map = beta^n o old twist."""
    return _twist(b, beta, n, check_akivis_identity, "twist_akivis")


def twist_nhlp(b: NHLPBundle, beta: EvenMap, n: int) -> NHLPBundle:
    """Twist product, bracket and twist map by beta^n."""
    return _twist(b, beta, n, check_nhlp, "twist_nhlp")


def twist_leibniz(b: LeibnizBundle, beta: EvenMap, n: int) -> LeibnizBundle:
    """Bracket-only twist (the zero-product specialization of the
    Leibniz-Poisson twist)."""
    return _twist(b, beta, n, check_color_leibniz, "twist_leibniz")


def nhlp_opposite(b: NHLPBundle) -> NHLPBundle:
    """Same bracket over the opposite product.  Input and output are both
    certified; for genuinely graded bundles the compatibility law of the
    opposite can fail, in which case this refuses with the report."""
    _require(check_nhlp(b), "nhlp_opposite input")
    out = NHLPBundle(b.space, b.bichar, b.product.opposite(), b.bracket, b.twist)
    _require(check_nhlp(out), "nhlp_opposite output")
    return out


def nhlp_scaled(b: NHLPBundle, k: Scalar) -> NHLPBundle:
    """Scale both operations by one nonzero scalar."""
    if not isinstance(k, Scalar):
        k = Scalar.rational(b.space.field, k)
    if k.is_zero():
        raise InputError("scaling by zero is not a structure transport")
    _require(check_nhlp(b), "nhlp_scaled input")
    out = NHLPBundle(
        b.space, b.bichar, b.product.scaled(k), b.bracket.scaled(k), b.twist
    )
    _require(check_nhlp(out), "nhlp_scaled output")
    return out


def trivial_extension(b: LeibnizBundle) -> NHLPBundle:
    """Adjoin a unit line to an ungraded Leibniz bundle:

        product (x + a u)(y + b u) = b x + a y + a b u
        bracket [x + a u, y + b u]  = [x, y]
        twist map = old twist on the algebra part, identity on u

    The product is commutative and the result is checked as a full
    Leibniz-Poisson bundle.  The re-certification is what enforces the
    identity-twist requirement of the underlying example: a bundle whose
    twist map moves the algebra part fails Hom-associativity here and is
    refused."""
    if not b.space.is_trivially_graded():
        raise InputError("trivial_extension needs a trivially graded bundle")
    _require(check_color_leibniz(b), "trivial_extension input")
    space = b.space
    unit_name = "u"
    taken = {name for name, _ in space.basis}
    k = 0
    while unit_name in taken:
        unit_name = f"u{k}"
        k += 1
    zero_deg = space.group.zero()
    ext = GradedSpace(
        space.field, space.group, space.basis + ((unit_name, zero_deg),)
    )
    d = space.dim
    one = Scalar.one(space.field)

    def lift(v: Vector) -> Vector:
        return Vector(ext, dict(v.coeffs))

    prod_table = {}
    for i in range(d):
        prod_table[(i, d)] = Vector(ext, {i: one})
        prod_table[(d, i)] = Vector(ext, {i: one})
    prod_table[(d, d)] = Vector(ext, {d: one})
    br_table = {key: lift(v) for key, v in b.bracket.table.items()}
    twist_rows = []
    zero = Scalar.zero(space.field)
    for i in range(d):
        twist_rows.append(tuple(b.twist.rows[i]) + (zero,))
    twist_rows.append((zero,) * d + (one,))
    out = NHLPBundle(
        ext,
        b.bichar,
        MultilinearMap.internal(ext, 2, prod_table),
        MultilinearMap.internal(ext, 2, br_table),
        EvenMap(ext, tuple(twist_rows)),
    )
    _require(check_nhlp(out), "trivial_extension output")
    return out


def leibniz_from_dialgebra(b: DialgebraBundle) -> NHLPBundle:
    """Derived bracket [x, y] = (x right y) - (y left x) over the left
    product; the pair is a (trivially graded) Leibniz-Poisson bundle."""
    _require(check_dialgebra(b), "leibniz_from_dialgebra input")
    space = b.space
    L, R = tables.table(b.prod_left), tables.table(b.prod_right)
    bracket = tables.materialize((space, space), space, tables.law(
        space, tables.term(1, R, 0, 1), tables.term(-1, L, 1, 0)))
    out = NHLPBundle(space, b.bichar, b.prod_left, bracket, b.twist)
    _require(check_nhlp(out), "leibniz_from_dialgebra output")
    return out


def twist_module(mb: ModuleBundle) -> ModuleBundle:
    """Compose both actions with the square of the algebra twist map:
    new left action (x, m) -> old(t^2 x, m), new right action (m, x) ->
    old(m, t^2 x).  Needs a multiplicative algebra twist and a certified
    input; the output is re-certified."""
    alg = mb.algebra
    if not is_multiplicative(alg):
        _require(check_endomorphism(alg.twist, alg.ops()),
                 "twist_module algebra twist must be multiplicative")
    _require(check_module(mb), "twist_module input")
    t2 = tables.twist(alg.twist.compose(alg.twist))
    A, M = alg.space, mb.module_space
    aL, aR = tables.table(mb.act_left), tables.table(mb.act_right)
    left = tables.materialize((A, M), M, tables.law(M, tables.term(1, aL, (t2, 0), 1)))
    right = tables.materialize((M, A), M, tables.law(M, tables.term(1, aR, 0, (t2, 1))))
    out = ModuleBundle(alg, M, left, right, mb.module_twist)
    if out == mb:  # a fixed point: keep the input and the reports stored on it
        out = mb
    _require(check_module(out), "twist_module output")
    return out


def tensor_square_nhlp(b: NHLPBundle, variant="corrected"):
    """EXPERIMENTAL tensor-square structure; excluded from the certified
    surface.  Returns (bundle, report) and never raises on a failing
    report.

    variant="corrected": product (x1 (x) x2)(y1 (x) y2) = x1 y1 (x) x2 y2.
    variant="as-printed": the slot-repeating form x1 y1 (x) y1 y2, read
    off basis pairs and extended bilinearly.
    Bracket either way: [[x1,x2], y1] (x) y2 + y1 (x) [[x1,x2], y2].
    """
    if variant not in ("corrected", "as-printed"):
        raise InputError(f"unknown tensor-square variant {variant!r}")
    if not b.space.is_trivially_graded():
        raise InputError("tensor square needs a trivially graded bundle")
    if not b.twist.is_identity():
        raise InputError("tensor square needs an identity twist map")
    _require(check_nhlp(b), "tensor_square input")
    space = b.space
    d = space.dim
    zero_deg = space.group.zero()
    names = tuple(
        (f"{space.name(i)}.{space.name(j)}", zero_deg)
        for i in range(d)
        for j in range(d)
    )
    ext = GradedSpace(space.field, space.group, names)

    def tensor(v: Vector, w: Vector) -> Vector:
        out = {}
        for i, a in v.coeffs.items():
            for j, c in w.coeffs.items():
                out[i * d + j] = a * c
        return Vector(ext, out)

    mu, br = b.product, b.bracket
    prod_table = {}
    br_table = {}
    for i1 in range(d):
        for i2 in range(d):
            for j1 in range(d):
                for j2 in range(d):
                    key = (i1 * d + i2, j1 * d + j2)
                    if variant == "corrected":
                        pv = tensor(mu.on_basis(i1, j1), mu.on_basis(i2, j2))
                    else:
                        pv = tensor(mu.on_basis(i1, j1), mu.on_basis(j1, j2))
                    if pv:
                        prod_table[key] = pv
                    inner = br.on_basis(i1, i2)
                    bv = tensor(br(inner, Vector.basis(space, j1)), Vector.basis(space, j2))
                    bv = bv + tensor(Vector.basis(space, j1), br(inner, Vector.basis(space, j2)))
                    if bv:
                        br_table[key] = bv
    out = NHLPBundle(
        ext,
        b.bichar,
        MultilinearMap.internal(ext, 2, prod_table),
        MultilinearMap.internal(ext, 2, br_table),
        EvenMap.identity(ext),
    )
    return out, check_nhlp(out)
