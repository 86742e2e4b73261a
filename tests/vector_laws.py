"""Reference copy of every law as a per-tuple Vector expression.

These are the defect closures the checkers evaluated before they moved
to compiled integer tables (colorhom.tables).  They use only the public
Vector / MultilinearMap / EvenMap arithmetic, one basis tuple at a time,
so tests/test_engine.py can compare the engine with them violation by
violation.  ``laws(bundle)`` gives, per identity id, the keys in scan
order and the defect function; preconditions are not applied.
"""

from colorhom.bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
)
from colorhom.linalg import commutator_map


def cyclic_sum(expr, x, y, z):
    """expr(x,y,z) + expr(y,z,x) + expr(z,x,y) for any Vector-valued expr."""
    return expr(x, y, z) + expr(y, z, x) + expr(z, x, y)


def _vector_associator(product, twist, x, y, z):
    tx = twist.image_of_basis(x)
    tz = twist.image_of_basis(z)
    return product(product.on_basis(x, y), tz) - product(tx, product.on_basis(y, z))


def _ternary_table(product, twist):
    space = product.codomain
    return {
        key: _vector_associator(product, twist, *key) for key in space.tuples(3)
    }


def _bracket_laws(b):
    space, eps, br, tw = b.space, b.bichar, b.bracket, b.twist
    deg = space.degree
    out = {}

    def skew(key):
        i, j = key
        return br.on_basis(i, j) + br.on_basis(j, i).scaled(eps(deg(i), deg(j)))

    out["skew-symmetry"] = (
        [(i, j) for i in range(space.dim) for j in range(i, space.dim)], skew)

    def jacobi_term(x, y, z):
        v = br(br.on_basis(x, y), tw.image_of_basis(z))
        return v.scaled(eps(deg(z), deg(x)))

    out["hom-jacobi"] = (list(space.tuples(3)), lambda key: cyclic_sum(jacobi_term, *key))

    def leibniz(key):
        x, y, z = key
        lhs = br(tw.image_of_basis(x), br.on_basis(y, z))
        rhs = br(br.on_basis(x, y), tw.image_of_basis(z)) + br(
            tw.image_of_basis(y), br.on_basis(x, z)
        ).scaled(eps(deg(x), deg(y)))
        return lhs - rhs

    out["color-hom-leibniz"] = (list(space.tuples(3)), leibniz)

    comm = commutator_map(br, eps)

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

    out["leibniz-symmetrized-action"] = (list(space.tuples(3)), symmetrized)
    out["leibniz-derived-bracket"] = (list(space.tuples(3)), derived)
    return out


def _ternary_laws(space, eps, T):
    """T: callable (x, y, z) -> Vector."""
    deg = space.degree

    def literal(key):
        x, y, z = key
        if x == z:
            return T(x, y, x)
        return T(x, y, z) + T(z, y, x)

    def polarized(key):
        x, y, z = key
        return T(x, y, z) + T(z, y, x).scaled(eps(deg(x), deg(z)))

    def alt_first(key):
        x, y, z = key
        return T(x, y, z) + T(y, x, z).scaled(eps(deg(x), deg(y)))

    def alt_second(key):
        x, y, z = key
        return T(x, y, z) + T(x, z, y).scaled(eps(deg(y), deg(z)))

    n = space.dim
    return {
        "flexible-literal": (
            [(x, y, z) for x in range(n) for y in range(n) for z in range(x, n)
             if x == z or deg(x) == deg(z)],
            literal,
        ),
        "flexible-polarized": (
            [(x, y, z) for x in range(n) for y in range(n) for z in range(x, n)],
            polarized,
        ),
        "alternative-first-pair": (list(space.tuples(3)), alt_first),
        "alternative-second-pair": (list(space.tuples(3)), alt_second),
    }


def _akivis_laws(b):
    space, eps, br, tw, tern = b.space, b.bichar, b.bracket, b.twist, b.ternary
    deg = space.degree

    def lhs(x, y, z):
        v = br(br.on_basis(x, y), tw.image_of_basis(z))
        return v.scaled(eps(deg(z), deg(x)))

    def rhs(x, y, z):
        v = tern.on_basis(x, y, z) - tern.on_basis(y, x, z).scaled(eps(deg(x), deg(y)))
        return v.scaled(eps(deg(z), deg(x)))

    def relation_rhs(x, y, z):
        coeff = eps(deg(z), deg(x)) + eps(deg(x), deg(y)) * eps(deg(y), deg(z))
        return tern.on_basis(x, y, z).scaled(coeff)

    return {
        "hom-akivis": (
            list(space.tuples(3)),
            lambda key: cyclic_sum(lhs, *key) - cyclic_sum(rhs, *key),
        ),
        "flexible-akivis-relation": (
            list(space.tuples(3)),
            lambda key: cyclic_sum(lhs, *key) - cyclic_sum(relation_rhs, *key),
        ),
    }


def _hom_associativity(product, twist):
    space = product.codomain

    def defect(key):
        x, y, z = key
        lhs = product(twist.image_of_basis(x), product.on_basis(y, z))
        rhs = product(product.on_basis(x, y), twist.image_of_basis(z))
        return lhs - rhs

    return {"hom-associativity": (list(space.tuples(3)), defect)}


def _compatibility(b):
    space, eps, br, tw, mu = b.space, b.bichar, b.bracket, b.twist, b.product
    deg = space.degree

    def compat(key):
        x, y, z = key
        lhs = br(tw.image_of_basis(x), mu.on_basis(y, z))
        rhs = mu(br.on_basis(x, y), tw.image_of_basis(z)) + mu(
            tw.image_of_basis(y), br.on_basis(x, z)
        ).scaled(eps(deg(x), deg(y)))
        return lhs - rhs

    return {"leibniz-compatibility": (list(space.tuples(3)), compat)}


def _dialgebra_laws(b):
    L, R, tw = b.prod_left, b.prod_right, b.twist
    t = tw.image_of_basis
    axioms = (
        lambda x, y, z: L(R.on_basis(x, y), t(z)) - R(t(x), L.on_basis(y, z)),
        lambda x, y, z: L(t(x), L.on_basis(y, z)) - L(L.on_basis(x, y), t(z)),
        lambda x, y, z: L(L.on_basis(x, y), t(z)) - L(t(x), R.on_basis(y, z)),
        lambda x, y, z: R(L.on_basis(x, y), t(z)) - R(t(x), R.on_basis(y, z)),
        lambda x, y, z: R(t(x), R.on_basis(y, z)) - R(R.on_basis(x, y), t(z)),
    )
    return {
        f"dialgebra-axiom-{n}": (list(b.space.tuples(3)), lambda key, ax=ax: ax(*key))
        for n, ax in enumerate(axioms, start=1)
    }


def _module_laws(mb):
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

    def bracket_left(key):
        x, y, m = key
        lhs = aL(br.on_basis(x, y), tM.image_of_basis(m))
        rhs = aL(tA.image_of_basis(x), aL.on_basis(y, m)) - aL(
            tA.image_of_basis(y), aL.on_basis(x, m)
        ).scaled(eps(dA(x), dA(y)))
        return lhs - rhs

    def bracket_right(key):
        x, y, m = key
        lhs = aR(tM.image_of_basis(m), br.on_basis(x, y))
        rhs = aR(aL.on_basis(x, m), tA.image_of_basis(y)) + aL(
            tA.image_of_basis(x), aR.on_basis(m, y)
        ).scaled(eps(dA(x), dM(m)))
        return lhs - rhs

    def mixed(key):
        x, m, y = key
        lhs = aL(tA.image_of_basis(x), aR.on_basis(m, y))
        rhs = aR(aL.on_basis(x, m), tA.image_of_basis(y)) + aR(
            tM.image_of_basis(m), br.on_basis(x, y)
        ).scaled(eps(dM(m), dA(x)))
        return lhs - rhs

    xm = [(x, m) for x in range(A.dim) for m in range(M.dim)]
    mx = [(m, x) for m in range(M.dim) for x in range(A.dim)]
    xym = [(x, y, m) for x in range(A.dim) for y in range(A.dim) for m in range(M.dim)]
    xmy = [(x, m, y) for x in range(A.dim) for m in range(M.dim) for y in range(A.dim)]
    return {
        "module-twist-left": (xm, twist_left),
        "module-twist-right": (mx, twist_right),
        "module-bracket-left": (xym, bracket_left),
        "module-bracket-right": (xym, bracket_right),
        "module-mixed": (xmy, mixed),
    }


def laws(b):
    """identity id -> (keys, defect function) for every law the checkers
    scan on a bundle of b's kind."""
    out = {}
    if isinstance(b, (AkivisBundle, LeibnizBundle, NHLPBundle)):
        out.update(_bracket_laws(b))
    if isinstance(b, AkivisBundle):
        tern = b.ternary
        out.update(_ternary_laws(b.space, b.bichar, tern.on_basis))
        out.update(_akivis_laws(b))
    if isinstance(b, (NonAssocBundle, NHLPBundle)):
        table = _ternary_table(b.product, b.twist)
        out.update(_ternary_laws(b.space, b.bichar, lambda *key: table[key]))
        out.update(_hom_associativity(b.product, b.twist))
    if isinstance(b, NHLPBundle):
        out.update(_compatibility(b))
    if isinstance(b, DialgebraBundle):
        out.update(_dialgebra_laws(b))
    if isinstance(b, ModuleBundle):
        out.update(_module_laws(b))
    return out


def violations(keys, defect):
    """[(key, defect)] for the nonzero defects, in key order."""
    out = []
    for key in keys:
        d = defect(key)
        if d:
            out.append((tuple(key), d))
    return out
