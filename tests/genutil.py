"""Random structure generators for the property suites.

Everything takes an explicit random.Random so failures reproduce from the
seed printed by the test.  Generators build only degree-legal tables; any
law beyond evenness is the tested code's business to verify.
"""

import itertools
from fractions import Fraction

from colorhom.bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
)
from colorhom.grading import Bicharacter, GradingGroup, TRIVIAL_GROUP
from colorhom.linalg import EvenMap, GradedSpace, MultilinearMap, Vector
from colorhom.record import replace
from colorhom.scalars import Scalar, cyclotomic_field

FIELD = cyclotomic_field(4)  # Q(i): holds +-1, +-i and all rationals

GRADING_KINDS = ("trivial", "z2", "z2xz2", "z4xz4")


def make_group(kind):
    return {
        "trivial": TRIVIAL_GROUP,
        "z2": GradingGroup(0, (2,)),
        "z2xz2": GradingGroup(0, (2, 2)),
        "z4xz4": GradingGroup(0, (4, 4)),
    }[kind]


def _root_pool(order_i, order_j):
    # valid off-diagonal entries: roots of unity of order dividing both
    one = Scalar.one(FIELD)
    minus = Scalar.rational(FIELD, -1)
    if order_i % 4 == 0 and order_j % 4 == 0:
        i = Scalar.root(FIELD)
        return [one, minus, i, -i]
    return [one, minus]


def make_bicharacter(rng, group):
    """Constructively valid random bicharacter: reciprocal off-diagonal
    pairs, +-1 diagonal."""
    n = group.rank
    orders = group.torsion_orders
    one = Scalar.one(FIELD)
    rows = [[one] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice([one, Scalar.rational(FIELD, -1)])
        for j in range(i + 1, n):
            q = rng.choice(_root_pool(orders[i], orders[j]))
            rows[i][j] = q
            rows[j][i] = q.inverse()
    return Bicharacter(group, FIELD, tuple(tuple(r) for r in rows))


def random_space(rng, group, dim, names=None):
    degs = [tuple(rng.randrange(m) for m in group.torsion_orders) for _ in range(dim)]
    names = names or [f"e{i}" for i in range(dim)]
    return GradedSpace.build(FIELD, group, list(zip(names, degs)))


COEFF_POOL = [1, -1, 2, -2, Fraction(1, 2), 3]


def degree_targets(space):
    """degree -> list of basis indices at that degree"""
    out = {}
    for i in range(space.dim):
        out.setdefault(space.degree(i), []).append(i)
    return out


def random_even_table(rng, space, arity=2, density=0.5, targets=None):
    targets = targets or degree_targets(space)
    table = {}
    for key in itertools.product(range(space.dim), repeat=arity):
        if rng.random() > density:
            continue
        degsum = space.degree(key[0])
        for k in key[1:]:
            degsum = degsum + space.degree(k)
        hits = targets.get(degsum)
        if not hits:
            continue
        coeffs = {
            i: Scalar.rational(FIELD, rng.choice(COEFF_POOL))
            for i in hits
            if rng.random() < 0.7
        }
        if coeffs:
            table[key] = Vector(space, coeffs)
    return MultilinearMap.internal(space, arity, table)


def random_even_map(rng, space, density=0.8):
    zero = Scalar.zero(FIELD)
    rows = [[zero] * space.dim for _ in range(space.dim)]
    for j in range(space.dim):
        for i in range(space.dim):
            if space.degree(i) == space.degree(j) and rng.random() < density:
                rows[i][j] = Scalar.rational(FIELD, rng.choice(COEFF_POOL + [0, 1, 1]))
    return EvenMap(space, tuple(tuple(r) for r in rows))


def random_setup(rng, max_dim=4):
    kind = rng.choice(GRADING_KINDS)
    group = make_group(kind)
    dim = rng.randrange(2, max_dim + 1)
    space = random_space(rng, group, dim)
    bichar = make_bicharacter(rng, group)
    return space, bichar


# ---------------------------------------------------------------------------
# weight-compatible structures: mu only connects weights additively, so
# diag(t^w) is automatically an endomorphism for every nonzero t


def weighted_table(rng, space, weights, arity=2, density=0.6):
    targets = {}
    for i in range(space.dim):
        targets.setdefault((space.degree(i), weights[i]), []).append(i)
    table = {}
    for key in itertools.product(range(space.dim), repeat=arity):
        if rng.random() > density:
            continue
        degsum = space.degree(key[0])
        wsum = weights[key[0]]
        for k in key[1:]:
            degsum = degsum + space.degree(k)
            wsum += weights[k]
        hits = targets.get((degsum, wsum))
        if not hits:
            continue
        coeffs = {i: Scalar.rational(FIELD, rng.choice(COEFF_POOL)) for i in hits}
        table[key] = Vector(space, coeffs)
    return MultilinearMap.internal(space, arity, table)


def weight_endo(space, weights, t):
    """diag(t^w): t an int or a Scalar of FIELD, such as Scalar.root(FIELD)."""
    t = t if isinstance(t, Scalar) else Scalar.rational(FIELD, t)
    return EvenMap.diagonal(space, [t ** w for w in weights])


def random_weights(rng, dim):
    return [rng.randrange(0, 3) for _ in range(dim)]


# ---------------------------------------------------------------------------
# algebra families


def eps_symmetrized(table_map, bichar, sign=1):
    """mu + sign * eps-transpose(mu): sign=+1 gives an eps-commutative
    product, sign=-1 an eps-anticommutative one."""
    space = table_map.codomain
    keys = set(table_map.table)
    keys |= {(j, i) for (i, j) in keys}
    out = {}
    for (i, j) in keys:
        v = table_map.table.get((i, j), Vector.zero(space))
        w = table_map.table.get((j, i), Vector.zero(space))
        factor = bichar(space.degree(i), space.degree(j))
        if sign < 0:
            factor = -factor
        s = v + w.scaled(factor)
        if not s.is_zero():
            out[(i, j)] = s
    return MultilinearMap.internal(space, 2, out)


def cyclic_group_algebra(n, graded=False):
    """Group algebra of Z_n; optionally graded by the index mod 2 with the
    super sign (n must be even for evenness to hold)."""
    if graded:
        assert n % 2 == 0
        group = GradingGroup(0, (2,))
        space = GradedSpace.build(
            FIELD, group, [(f"g{a}", (a % 2,)) for a in range(n)]
        )
        bichar = Bicharacter(
            group, FIELD, ((Scalar.rational(FIELD, -1),),)
        )
    else:
        space = GradedSpace.build(FIELD, TRIVIAL_GROUP, [(f"g{a}", ()) for a in range(n)])
        bichar = Bicharacter.trivial(TRIVIAL_GROUP, FIELD)
    table = {
        (a, b): Vector.basis(space, (a + b) % n)
        for a in range(n)
        for b in range(n)
    }
    product = MultilinearMap.internal(space, 2, table)
    return space, bichar, product


_FANO = ((1, 2, 3), (1, 4, 5), (6, 1, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (5, 3, 6))


def octonion_product():
    """Standard octonion multiplication over Q: unit g0, seven imaginary
    units whose products follow the Fano triads."""
    space = GradedSpace.build(FIELD, TRIVIAL_GROUP, [(f"g{i}", ()) for i in range(8)])
    one = Scalar.one(FIELD)
    minus = Scalar.rational(FIELD, -1)
    table = {}

    def put(i, j, k, s):
        table[(i, j)] = Vector(space, {k: one if s > 0 else minus})

    for i in range(8):
        put(0, i, i, 1)
        if i:
            put(i, 0, i, 1)
            put(i, i, 0, -1)
    for a, b, c in _FANO:
        put(a, b, c, 1)
        put(b, a, c, -1)
        put(b, c, a, 1)
        put(c, b, a, -1)
        put(c, a, b, 1)
        put(a, c, b, -1)
    return space, Bicharacter.trivial(TRIVIAL_GROUP, FIELD), MultilinearMap.internal(space, 2, table)


def random_central_leibniz(rng, max_dim=4):
    """Bracket whose image lies in basis elements that bracket to zero on
    both sides; Leibniz holds identically for any even twist."""
    space, bichar = random_setup(rng, max_dim)
    dim = space.dim
    central = set(range(dim - max(1, dim // 2), dim))
    targets = degree_targets(space)
    table = {}
    for i, j in itertools.product(range(dim), repeat=2):
        if i in central or j in central:
            continue
        if rng.random() > 0.6:
            continue
        degsum = space.degree(i) + space.degree(j)
        hits = [k for k in targets.get(degsum, ()) if k in central]
        if not hits:
            continue
        table[(i, j)] = Vector(
            space, {k: Scalar.rational(FIELD, rng.choice(COEFF_POOL)) for k in hits}
        )
    bracket = MultilinearMap.internal(space, 2, table)
    twist = random_even_map(rng, space)
    return LeibnizBundle(space, bichar, bracket, twist)


def solvable_lie_leibniz(t=1):
    """[e1,e2] = e2 with the diagonal twist diag(1, t); multiplicative."""
    space = GradedSpace.build(FIELD, TRIVIAL_GROUP, [("e1", ()), ("e2", ())])
    bichar = Bicharacter.trivial(TRIVIAL_GROUP, FIELD)
    one = Scalar.one(FIELD)
    table = {
        (0, 1): Vector(space, {1: one}),
        (1, 0): Vector(space, {1: -one}),
    }
    bracket = MultilinearMap.internal(space, 2, table)
    twist = EvenMap.diagonal(space, [1, t])
    return LeibnizBundle(space, bichar, bracket, twist)


# ---------------------------------------------------------------------------
# dialgebras: brute-force enumeration of small tables


def enumerate_dialgebras(dim=2, max_entries=3):
    """All trivially graded dialgebras with identity twist whose two
    products have at most max_entries single-basis-vector entries each.
    Returns certified bundles only (the caller re-checks anyway)."""
    from colorhom.checkers import check_dialgebra

    space = GradedSpace.build(
        FIELD, TRIVIAL_GROUP, [(f"e{i}", ()) for i in range(dim)]
    )
    bichar = Bicharacter.trivial(TRIVIAL_GROUP, FIELD)
    twist = EvenMap.identity(space)
    keys = list(itertools.product(range(dim), repeat=2))
    # an op assigns to each key either nothing or one basis vector
    choices = [None] + list(range(dim))

    def all_ops():
        for values in itertools.product(choices, repeat=len(keys)):
            if sum(v is not None for v in values) > max_entries:
                continue
            table = {
                k: Vector.basis(space, v)
                for k, v in zip(keys, values)
                if v is not None
            }
            yield MultilinearMap.internal(space, 2, table)

    ops = list(all_ops())
    found = []
    for left in ops:
        for right in ops:
            b = DialgebraBundle(space, bichar, left, right, twist)
            if check_dialgebra(b).passed:
                found.append(b)
    return found


# ---------------------------------------------------------------------------
# modules


def regular_module(alg: LeibnizBundle, twist=None):
    """The algebra acting on a renamed copy of itself by its own bracket."""
    space = alg.space
    mspace = GradedSpace.build(
        space.field,
        space.group,
        [(f"m{i}", space.degree(i).coords) for i in range(space.dim)],
    )

    act_left = MultilinearMap(
        (space, mspace),
        mspace,
        {k: Vector(mspace, dict(v.coeffs)) for k, v in alg.bracket.table.items()},
    )
    act_right = MultilinearMap(
        (mspace, space),
        mspace,
        {k: Vector(mspace, dict(v.coeffs)) for k, v in alg.bracket.table.items()},
    )
    mtwist = twist if twist is not None else EvenMap(mspace, alg.twist.rows)
    return ModuleBundle(alg, mspace, act_left, act_right, mtwist)


def one_sided_module(alg: LeibnizBundle):
    """act_right = 0; act_left mirrors the bracket.  The bracket-left law
    is then the only non-vacuous module axiom."""
    space = alg.space
    mspace = GradedSpace.build(
        space.field,
        space.group,
        [(f"m{i}", space.degree(i).coords) for i in range(space.dim)],
    )
    act_left = MultilinearMap(
        (space, mspace),
        mspace,
        {k: Vector(mspace, dict(v.coeffs)) for k, v in alg.bracket.table.items()},
    )
    act_right = MultilinearMap((mspace, space), mspace, {})
    return ModuleBundle(alg, mspace, act_left, act_right, EvenMap(mspace, alg.twist.rows))


# ---------------------------------------------------------------------------
# negative controls


def legal_slots(op: MultilinearMap):
    """(key, target) pairs where a +1 bump keeps evenness."""
    space = op.codomain
    targets = degree_targets(space)
    out = []
    for key in itertools.product(*[range(s.dim) for s in op.spaces]):
        degsum = op.spaces[0].degree(key[0])
        for s, k in zip(op.spaces[1:], key[1:]):
            degsum = degsum + s.degree(k)
        for t in targets.get(degsum, ()):
            out.append((key, t))
    return out


def bump(op: MultilinearMap, key, target):
    """Add +1 to one structure constant."""
    space = op.codomain
    table = dict(op.table)
    v = table.get(key, Vector.zero(space))
    table[key] = v + Vector.basis(space, target)
    table = {k: w for k, w in table.items() if not w.is_zero()}
    return MultilinearMap(op.spaces, op.codomain, table)


def find_breaking_bump(op, rebuild, checker, limit=60):
    """Search legal +1 bumps of op until the rebuilt bundle fails checker.
    Returns the failing report, or None if nothing broke."""
    for key, target in legal_slots(op)[:limit]:
        candidate = rebuild(bump(op, key, target))
        report = checker(candidate)
        if not report.passed:
            return report
    return None


# ---------------------------------------------------------------------------
# bridge into the naive reference implementations in oracles.py


def oracle_field(field):
    from oracles import FieldOracle

    return FieldOracle(list(field.minimal_polynomial))


def oracle_scalar(F, s):
    return F.widen(list(s.coefficients))


def oracle_vec(F, v):
    return {i: oracle_scalar(F, c) for i, c in v.coeffs.items()}


def oracle_table(F, m):
    return {k: oracle_vec(F, v) for k, v in m.table.items()}


def oracle_rows(F, emap, dim):
    return [[oracle_scalar(F, emap.rows[i][j]) for j in range(dim)] for i in range(dim)]


def bundle_oracle(space, bichar):
    """(FieldOracle, BundleOracle) mirroring the given graded setup."""
    from oracles import BundleOracle

    F = oracle_field(space.field)

    def eps(i, j):
        return oracle_scalar(F, bichar(space.degree(i), space.degree(j)))

    return F, BundleOracle(F, space.dim, eps)


def same_defect(F, vec, oracle_vec_dict):
    """Compare a colorhom Vector against an oracle sparse vector."""
    mine = {i: oracle_scalar(F, c) for i, c in vec.coeffs.items()}
    keys = set(mine) | set(oracle_vec_dict)
    for k in keys:
        a = mine.get(k, F.widen([]))
        b = oracle_vec_dict.get(k, F.widen([]))
        if not F.is_zero(F.sub(a, b)):
            return False
    return True


# ---------------------------------------------------------------------------
# Scheunert's cocycle twist (M. Scheunert, "Generalized Lie algebras",
# J. Math. Phys. 20 (1979) 712)


def cocycle(bichar):
    """(sigma, rho) of the bicharacter eps with generator matrix E.
    sigma(g_1, .., g_k) is prod_{p<q} s(g_p, g_q) over degrees in their
    order, where s(a, b) = prod_{i<j} E[j][i]**(a_i b_j); rho is the
    bicharacter with eps's diagonal and 1 off it, so that
    eps(a, b) = rho(a, b) s(b, a) / s(a, b)."""
    E, field = bichar.matrix, bichar.field
    n = len(E)
    one = Scalar.one(field)

    def sigma(*degrees):
        value = one
        for p, a in enumerate(degrees):
            for b in degrees[p + 1:]:
                for i in range(n):
                    for j in range(i + 1, n):
                        if a.coords[i] * b.coords[j]:
                            value = value * E[j][i] ** (a.coords[i] * b.coords[j])
        return value

    rho = Bicharacter(bichar.group, field, tuple(
        tuple(E[i][i] if i == j else one for j in range(n)) for i in range(n)))
    return sigma, rho


def cocycle_twist(bundle):
    """The bundle with each k-ary operation scaled at argument degrees
    g_1..g_k by sigma(g_1, .., g_k) and eps replaced by rho (a module: its
    algebra twisted too).  Twist maps stay as they are.  A law
    written by the Koszul sign rule keeps its violations: its defect at a
    basis tuple is multiplied by the sigma factor of its first term's
    argument order."""
    bichar = bundle.algebra.bichar if isinstance(bundle, ModuleBundle) else bundle.bichar
    sigma, rho = cocycle(bichar)

    def scaled(m):
        table = {}
        for key, v in m.table.items():
            degrees = [sp.degree(i) for sp, i in zip(m.spaces, key)]
            table[key] = v.scaled(sigma(*degrees))
        return MultilinearMap(m.spaces, m.codomain, table)

    changes = {attr: scaled(getattr(bundle, attr)) for _, attr, _ in bundle.OPS}
    if isinstance(bundle, ModuleBundle):
        changes["algebra"] = cocycle_twist(bundle.algebra)
    else:
        changes["bichar"] = rho
    return replace(bundle, **changes)


# ---------------------------------------------------------------------------
# the universal instance: the free color Hom-algebra on x, y, z, truncated
# to the words whose bases are distinct


UNIVERSAL_LETTERS = ("x", "y", "z", "αx", "αy", "αz")
UNIVERSAL_Q = (2, 3, 5)  # eps(e_x, e_y), eps(e_x, e_z), eps(e_y, e_z)


def word_bases(w):
    """The bases of a word, in order: a letter is a str, a product a pair."""
    return w[-1] if isinstance(w, str) else word_bases(w[0]) + word_bases(w[1])


def word_name(w):
    return w if isinstance(w, str) else f"({word_name(w[0])}*{word_name(w[1])})"


def universal_words():
    """The 126 words: the six letters, and every nonassociative word of two
    or three letters whose bases are distinct (24 and 96 of them)."""
    pairs = [(u, v) for u in UNIVERSAL_LETTERS for v in UNIVERSAL_LETTERS
             if u[-1] != v[-1]]
    triples = [w for u in UNIVERSAL_LETTERS for v in pairs if u[-1] not in word_bases(v)
               for w in ((u, v), (v, u))]
    return [*UNIVERSAL_LETTERS, *pairs, *triples]


def universal_instance():
    """(words, NonAssocBundle) of the universal instance over Q: the basis is
    universal_words(), graded by Z^3 (e_x, e_y, e_z summed over a word's
    bases); the product concatenates two words with disjoint bases and is 0
    otherwise; the twist sends x, y, z to their alpha-letters and every other
    word to 0.  The bicharacter takes the values UNIVERSAL_Q off the
    diagonal and 1 on it."""
    field = cyclotomic_field(1)
    group = GradingGroup(3, ())
    words = universal_words()
    index = {w: i for i, w in enumerate(words)}
    space = GradedSpace.build(field, group, [
        (word_name(w), tuple(word_bases(w).count(b) for b in "xyz")) for w in words])
    one = Scalar.one(field)
    product = MultilinearMap.internal(space, 2, {
        (i, j): Vector(space, {index[u, v]: one})
        for u, i in index.items() for v, j in index.items()
        if not set(word_bases(u)) & set(word_bases(v))})
    twist = EvenMap.from_images(space, [
        Vector(space, {index["α" + w]: one} if w in ("x", "y", "z") else {}) for w in words])
    qxy, qxz, qyz = map(Fraction, UNIVERSAL_Q)
    matrix = ((1, qxy, qxz), (1 / qxy, 1, qyz), (1 / qxz, 1 / qyz, 1))
    bichar = Bicharacter(group, field, tuple(
        tuple(Scalar.rational(field, c) for c in row) for row in matrix))
    return words, NonAssocBundle(space, bichar, product, twist)
