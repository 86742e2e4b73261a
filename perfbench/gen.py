"""Deterministic generators for the benchmark's bundle documents.

Everything here is independent of colorhom: the generators carry their own
exact arithmetic in Q(zeta_N) and write colorhom-bundle/1 documents as
plain dicts, so a change to the program cannot change its own inputs.
Each workload's document list is a pure function of the seed.

Every document comes with the outcome its construction guarantees:

* certify-dense: Yau twists of twisted group algebras (and the nhlp,
  leibniz and dialgebra structures derived from them) conjugated by an
  even unimodular change of basis, so every law holds and the report
  passes.
* refute-dense: random dense even tables with a planted failure at the
  tuple (0, 0, 0), so the report fails and most tuples violate.
* cli-pipeline: small documents of all six kinds with the exit code of
  every command run on them.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

SCHEMA = "colorhom-bundle/1"

# --------------------------------------------------------------------------
# exact arithmetic in Q(zeta_N)


def _cyclotomic(order, _memo={}):
    """Integer coefficients (ascending, monic) of the order-th cyclotomic
    polynomial, by exact division of x**order - 1 by the lower ones."""
    if order in _memo:
        return _memo[order]
    num = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d:
            continue
        den = _cyclotomic(d)
        k = len(den) - 1
        out = [0] * (len(num) - k)
        for i in range(len(out) - 1, -1, -1):
            q = num[i + k]
            out[i] = q
            for j in range(k + 1):
                num[i + j] -= q * den[j]
        num = out
    _memo[order] = tuple(num)
    return _memo[order]


class Field:
    """Q(zeta_N); an element is a tuple of phi(N) Fractions, coefficient k
    multiplying zeta**k."""

    def __init__(self, order):
        self.order = order
        self.phi = _cyclotomic(order)
        self.degree = len(self.phi) - 1

    def const(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.degree - 1)

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def _reduce(self, conv):
        d = self.degree
        for k in range(len(conv) - 1, d - 1, -1):
            c = conv[k]
            if c:
                for j in range(d + 1):
                    conv[k - d + j] -= c * self.phi[j]
        return tuple(conv[:d])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        conv = [Fraction(0)] * (2 * self.degree)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return self._reduce(conv)

    def root(self, numerator, denominator):
        """zeta_N ** (N * numerator / denominator); denominator divides N,
        or is 2 (the root -1 lies in every field)."""
        if self.order % denominator:
            return self.const((-1) ** (numerator % 2))
        k = (self.order * numerator // denominator) % self.order
        conv = [Fraction(0)] * max(k + 1, self.degree)
        conv[k] = Fraction(1)
        return self._reduce(conv)

    def text(self, a):
        if self.order == 1:
            return str(a[0])
        return [str(c) for c in a]


def is_zero(a):
    return not any(a)


# --------------------------------------------------------------------------
# sparse vectors {index: element}, tables {key tuple: vector}, maps as
# lists of column vectors


def vadd(F, u, v):
    out = dict(u)
    for i, c in v.items():
        s = F.add(out[i], c) if i in out else c
        if is_zero(s):
            out.pop(i, None)
        else:
            out[i] = s
    return out


def vscale(F, k, v):
    out = {}
    for i, c in v.items():
        s = F.mul(k, c)
        if not is_zero(s):
            out[i] = s
    return out


def apply2(F, table, u, v):
    out = {}
    for a, x in u.items():
        for b, y in v.items():
            w = table.get((a, b))
            if w:
                out = vadd(F, out, vscale(F, F.mul(x, y), w))
    return out


def apply_map(F, cols, v):
    out = {}
    for j, c in v.items():
        out = vadd(F, out, vscale(F, c, cols[j]))
    return out


def compose_table(F, cols, table):
    """The table of (linear map) o (table)."""
    out = {}
    for key, v in table.items():
        w = apply_map(F, cols, v)
        if w:
            out[key] = w
    return out


def conjugate(F, P, Pinv, table=None, cols=None):
    """Rewrite a binary table or a linear map in the basis f_j = P e_j."""
    if table is not None:
        dim = len(P)
        out = {}
        for i in range(dim):
            for j in range(dim):
                w = apply_map(F, Pinv, apply2(F, table, P[i], P[j]))
                if w:
                    out[(i, j)] = w
        return out
    return [apply_map(F, Pinv, apply_map(F, cols, P[j])) for j in range(len(P))]


def unimodular_blocks(F, rng, blocks, dim):
    """Block-diagonal integer matrix of determinant +-1 and its exact
    inverse, both as column lists, dense inside each block: a random
    unit lower triangular factor times a random unit upper one."""
    one = Fraction(1)
    P = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    Pinv = [row[:] for row in P]
    for block in blocks:
        n = len(block)
        # positive entries: no cancellation, so the density of the result
        # does not depend on the draw
        L = [[one if i == j else Fraction(rng.choice((1, 2))) if j < i
              else Fraction(0) for j in range(n)] for i in range(n)]
        U = [[one if i == j else Fraction(rng.choice((1, 2))) if j > i
              else Fraction(0) for j in range(n)] for i in range(n)]
        M = [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        Minv = _inverse(M)
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                P[i][j] = M[a][b]
                Pinv[i][j] = Minv[a][b]
    return _columns(F, P), _columns(F, Pinv)


def _inverse(M):
    n = len(M)
    A = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c])
        A[c], A[p] = A[p], A[c]
        pivot = A[c][c]
        A[c] = [x / pivot for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def _columns(F, rows):
    dim = len(rows)
    return [{i: F.const(rows[i][j]) for i in range(dim) if rows[i][j]} for j in range(dim)]


def blocks_of(degrees, size):
    """Partition the basis into runs of at most `size` consecutive indices
    of equal degree, so a block-diagonal change of basis stays even.  The
    partition, and with it the density of the result, is the same for
    every seed."""
    by_degree = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    blocks = []
    for _, idx in sorted(by_degree.items()):
        for s in range(0, len(idx), size):
            blocks.append(idx[s:s + size])
    return blocks


# --------------------------------------------------------------------------
# gradings and sign bicharacters


class Grading:
    """Z_t1 x ... x Z_tk with a bicharacter given on generator pairs."""

    def __init__(self, F, torsion, matrix):
        self.F = F
        self.torsion = tuple(torsion)
        self.matrix = matrix

    def eps(self, a, b):
        value = self.F.one()
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                for _ in range((ai * bj) % self._order(i, j)):
                    value = self.F.mul(value, self.matrix[i][j])
        return value

    def _order(self, i, j):
        # every entry is a root of unity of order dividing both orders
        return gcd(self.torsion[i], self.torsion[j])

    def doc(self, degrees):
        return {
            "field": {"cyclotomic_order": self.F.order},
            "grading": {"free_rank": 0, "torsion": list(self.torsion)},
            "bicharacter": [[self.F.text(e) for e in row] for row in self.matrix],
            "basis": [{"name": f"e{i}", "degree": list(d)} for i, d in enumerate(degrees)],
        }


def random_grading(F, rng, torsion):
    """Constructively valid bicharacter: diagonal +-1, off-diagonal pairs
    (q, 1/q) with q a root of unity of order dividing gcd of the two orders
    and available in the field."""
    n = len(torsion)
    one, minus = F.one(), F.const(-1)
    rows = [[one] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((one, minus)) if torsion[i] % 2 == 0 else one
        for j in range(i + 1, n):
            g = gcd(torsion[i], torsion[j])
            if g % 4 == 0 and F.order % 4 == 0:
                k = rng.randrange(4)
                rows[i][j], rows[j][i] = F.root(k, 4), F.root(-k, 4)
            elif g % 2 == 0:
                rows[i][j] = rows[j][i] = rng.choice((one, minus))
    return Grading(F, torsion, rows)


def trivial_grading(F, torsion=()):
    n = len(torsion)
    return Grading(F, torsion, [[F.one()] * n for _ in range(n)])


# --------------------------------------------------------------------------
# twisted group algebras: the associative source of certify-dense


def group_algebra(F, orders, grading):
    """Twisted group algebra of Z_m1 x ... x Z_mr over F.

    Returns (degrees, table, alpha) where table is the product e_g e_h =
    c(g, h) e_{g+h} for the bimultiplicative +-1 cocycle with c = -1 on
    pairs of distinct even factors i < j, degrees come from a fixed
    homomorphism onto the grading group, and alpha is the diagonal
    automorphism e_g -> chi(g) e_g for the character sending the generator
    of each factor to a primitive root of its order (1 when F lacks one).
    A fixed shape keeps the cost of a scan the same for every seed; the
    seed varies the change of basis applied afterwards."""
    elems = list(itertools.product(*(range(m) for m in orders)))
    index = {g: i for i, g in enumerate(elems)}
    r = len(orders)
    signs = [[-1 if i < j and orders[i] % 2 == 0 and orders[j] % 2 == 0 else 1
              for j in range(r)] for i in range(r)]
    # coordinate k of the degree is the k-th factor of even order, so the
    # degree classes (and with them the cost of a scan) do not depend on
    # the seed
    even = [i for i in range(r) if orders[i] % 2 == 0]
    proj = [[t // gcd(orders[i], t) if k < len(even) and i == even[k] else 0
             for i in range(r)]
            for k, t in enumerate(grading.torsion)]
    chi = [1 if F.order % m == 0 or m == 2 else 0 for m in orders]

    def degree(g):
        return tuple(sum(a * x for a, x in zip(row, g)) % t
                     for row, t in zip(proj, grading.torsion))

    table = {}
    for g in elems:
        for h in elems:
            sign = 1
            for i in range(r):
                for j in range(r):
                    if signs[i][j] < 0 and (g[i] * h[j]) % 2:
                        sign = -sign
            gh = tuple((a + b) % m for a, b, m in zip(g, h, orders))
            table[(index[g], index[h])] = {index[gh]: F.const(sign)}
    alpha = []
    for g in elems:
        value = F.one()
        for gi, ki, m in zip(g, chi, orders):
            if ki:
                value = F.mul(value, F.root(gi * ki, m))
        alpha.append({index[g]: value})
    return [degree(g) for g in elems], table, alpha


def commutator(F, grading, degrees, table):
    """Sign-twisted commutator [x, y] = xy - eps(x, y) yx on the basis."""
    out = {}
    dim = len(degrees)
    for i in range(dim):
        for j in range(dim):
            e = grading.eps(degrees[i], degrees[j])
            w = vadd(F, table.get((i, j), {}), vscale(F, F.neg(e), table.get((j, i), {})))
            if w:
                out[(i, j)] = w
    return out


# --------------------------------------------------------------------------
# documents


def table_doc(F, table):
    return [
        {"args": list(key), "out": {str(i): F.text(c) for i, c in sorted(v.items())}}
        for key, v in sorted(table.items())
        if v
    ]


def matrix_doc(F, cols, dim):
    zero = F.zero()
    return [[F.text(cols[j].get(i, zero)) for j in range(dim)] for i in range(dim)]


def bundle_doc(kind, F, grading, degrees, ops, alpha):
    doc = {"schema": SCHEMA, "kind": kind}
    doc.update(grading.doc(degrees))
    doc["ops"] = {name: table_doc(F, t) for name, t in ops.items()}
    doc["maps"] = {"alpha": matrix_doc(F, alpha, len(degrees))}
    return doc


def module_doc(F, grading, degrees, bracket, alpha, act_left, act_right):
    algebra = bundle_doc("leibniz", F, grading, degrees, {"bracket": bracket}, alpha)
    dim = len(degrees)
    return {
        "schema": SCHEMA,
        "kind": "module",
        "algebra": algebra,
        "basis": [{"name": f"m{i}", "degree": list(d)} for i, d in enumerate(degrees)],
        "ops": {"action_left": table_doc(F, act_left), "action_right": table_doc(F, act_right)},
        "maps": {"alphaM": matrix_doc(F, alpha, dim)},
    }


# --------------------------------------------------------------------------
# certify-dense


CERTIFY_FIELD = 12
# (kind, group orders): dims 4, 6 and 8, each with every kind, plus one;
# an odd count puts the median latency on one document rather than in
# the gap between two
CERTIFY_SPECS = tuple(
    (kind, orders)
    for orders in ((2, 2), (2, 3), (2, 4))
    for kind in ("nonassociative", "nhlp", "leibniz", "dialgebra")
) + (("leibniz", (2, 2, 2)),)
BLOCK = 2
# +-1 bicharacters on Z_2 x Z_2, taken in turn
SIGNS = (((-1, -1), (-1, 1)), ((1, -1), (-1, -1)), ((-1, 1), (1, -1)))


def certify_dense(seed):
    """Thirteen bundles over Q(zeta_12), graded by Z_2 x Z_2 with a +-1
    bicharacter, that pass by construction.  Returns a list of
    (name, document, expected) with expected = {"passed": True}."""
    F = Field(CERTIFY_FIELD)
    rng = random.Random(f"certify-dense:{seed}")
    out = []
    for n, (kind, orders) in enumerate(CERTIFY_SPECS):
        signs = SIGNS[n % len(SIGNS)]
        grading = Grading(F, (2, 2), [[F.const(e) for e in row] for row in signs])
        if kind == "dialgebra":
            doc = _dialgebra(F, rng, orders, grading)
        else:
            degrees, mu, alpha = group_algebra(F, orders, grading)
            ops = {}
            if kind in ("nonassociative", "nhlp"):
                ops["product"] = compose_table(F, alpha, mu)
            if kind in ("nhlp", "leibniz"):
                ops["bracket"] = compose_table(F, alpha, commutator(F, grading, degrees, mu))
            P, Pinv = unimodular_blocks(F, rng, blocks_of(degrees, BLOCK), len(degrees))
            ops = {name: conjugate(F, P, Pinv, table=t) for name, t in ops.items()}
            alpha = conjugate(F, P, Pinv, cols=alpha)
            doc = bundle_doc(kind, F, grading, degrees, ops, alpha)
        out.append((f"{n:02d}-{kind}-{len(doc['basis'])}", doc, {"passed": True}))
    return out


def _dialgebra(F, rng, orders, grading, project=True, block=BLOCK):
    """x -| y = x f(y), x |- y = f(x) y for an idempotent endomorphism f
    of the group algebra (projection onto the first factor, or the map to
    the unit when project is false), Yau-twisted by a character that
    factors through f.  Ungraded by definition."""
    dim_orders = list(orders)
    elems = list(itertools.product(*(range(m) for m in dim_orders)))
    index = {g: i for i, g in enumerate(elems)}

    def f(g):
        return ((g[0],) if project else (0,)) + (0,) * (len(g) - 1)

    def add(g, h):
        return tuple((a + b) % m for a, b, m in zip(g, h, dim_orders))

    m0 = dim_orders[0]
    k = rng.randrange(1, m0) if project and (F.order % m0 == 0 or m0 == 2) else 0
    alpha = [{index[g]: F.root(g[0] * k, m0)} for g in elems]
    left = {}
    right = {}
    for g in elems:
        for h in elems:
            left[(index[g], index[h])] = {index[add(g, f(h))]: F.one()}
            right[(index[g], index[h])] = {index[add(f(g), h)]: F.one()}
    left = compose_table(F, alpha, left)
    right = compose_table(F, alpha, right)
    degrees = [(0,) * len(grading.torsion)] * len(elems)
    P, Pinv = unimodular_blocks(F, rng, blocks_of(degrees, block), len(elems))
    ops = {
        "left": conjugate(F, P, Pinv, table=left),
        "right": conjugate(F, P, Pinv, table=right),
    }
    return bundle_doc("dialgebra", F, grading, degrees, ops, conjugate(F, P, Pinv, cols=alpha))


# --------------------------------------------------------------------------
# refute-dense

REFUTE_FIELD = 12
# (kind, dim); the four degree classes of Z_2 x Z_2 are filled in turn.
# An odd count, as for certify-dense.
REFUTE_SPECS = (
    ("leibniz", 6),
    ("leibniz", 7),
    ("nhlp", 4),
    ("nhlp", 5),
    ("nhlp", 6),
    ("dialgebra", 3),
    ("dialgebra", 4),
)
COEFFS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))


def random_element(F, rng):
    while True:
        a = tuple(Fraction(rng.choice(COEFFS)) if rng.random() < 0.6 else Fraction(0)
                  for _ in range(F.degree))
        if not is_zero(a):
            return a


def random_even_table(F, rng, degrees, grading):
    """A binary table in which every key gets a value with a nonzero
    component at every basis index of the right degree."""
    targets = {}
    for i, d in enumerate(degrees):
        targets.setdefault(d, []).append(i)
    table = {}
    for key in itertools.product(range(len(degrees)), repeat=2):
        hits = targets.get(_add_degrees(grading, *(degrees[k] for k in key)))
        if hits:
            table[key] = {t: random_element(F, rng) for t in hits}
    return table


def random_even_map(F, rng, degrees):
    """A random diagonal map, so column 0 is c * e_0."""
    return [{j: random_element(F, rng)} for j in range(len(degrees))]


def refute_dense(seed):
    """Random dense even tables over Q(zeta_12) with a planted failure:
    the entry at (0, 0) is e_0 (resp. e_0 and 2 e_0 for the two dialgebra
    products) and the twist map sends e_0 to a multiple of itself, so the
    Leibniz law (resp. dialgebra axiom 3) fails at (0, 0, 0) whatever the
    other entries are.  Returns (name, document, {"passed": False})."""
    F = Field(REFUTE_FIELD)
    rng = random.Random(f"refute-dense:{seed}")
    classes = [(0, 0), (1, 0), (0, 1), (1, 1)]
    out = []
    for n, (kind, dim) in enumerate(REFUTE_SPECS):
        grading = random_grading(F, rng, (2, 2))
        if kind == "dialgebra":
            degrees = [(0, 0)] * dim
        else:
            degrees = [classes[i % 4] for i in range(dim)]
        ops = {}
        if kind == "nhlp":
            ops["product"] = random_even_table(F, rng, degrees, grading)
        if kind in ("leibniz", "nhlp"):
            ops["bracket"] = random_even_table(F, rng, degrees, grading)
            ops["bracket"][(0, 0)] = {0: F.one()}
        if kind == "dialgebra":
            ops["left"] = random_even_table(F, rng, degrees, grading)
            ops["right"] = random_even_table(F, rng, degrees, grading)
            ops["left"][(0, 0)] = {0: F.one()}
            ops["right"][(0, 0)] = {0: F.const(2)}
        alpha = random_even_map(F, rng, degrees)
        doc = bundle_doc(kind, F, grading, degrees, ops, alpha)
        out.append((f"{n:02d}-{kind}-{dim}", doc, {"passed": False}))
    return out


# --------------------------------------------------------------------------
# cli-pipeline

CLI_FIELDS = (1, 4, 5, 7, 9, 12, 15)
CLI_GROUPS = ((), (2,), (4,), (2, 2))
CLI_DOCS_PER_FAMILY = 24
CLI_FAMILIES = (
    "nonassociative", "leibniz-ungraded", "leibniz-weighted", "nhlp",
    "dialgebra", "akivis", "module",
)
# every PLANTED-th document of the leibniz and nhlp families carries a
# defect that breaks the Leibniz law at (0, 0, 0)
PLANTED = 10

# (fixture, ((command, expected exit code), ...)); see argv_for
FIXTURE_COMMANDS = (
    ("leibniz-L2", (("check", 0), ("check-machine", 0),
                    (("construct", "trivext"), 0), (("twist", "--power", "2"), 0))),
    ("leibniz-L2-broken", (("check", 1), ("check-machine", 1))),
    ("leibniz-S1", (("check", 0), ("check-machine", 0), (("twist", "--power", "1"), 0))),
    ("nonassoc-NA2", (("check", 0), ("check-machine", 0), (("construct", "akivis"), 0))),
    ("akivis-A", (("check", 0), ("check-machine", 0),
                  (("twist", "--map", "beta", "--power", "2"), 0))),
    ("dialg-D1", (("check", 0), ("check-machine", 0), (("construct", "dialg2leibniz"), 0))),
    ("dialg-D2", (("check", 0), ("check-machine", 0), (("construct", "dialg2leibniz"), 0))),
    ("nhlp-trivext-L2", (("check", 0), ("check-machine", 0), (("twist", "--power", "1"), 0))),
    ("module-M", (("check", 0), ("check-machine", 0), (("twist", "--module", "--power", "1"), 0))),
)


def argv_for(command, path):
    """cli.main arguments for one command on the document at path."""
    if command == "check":
        return ["check", path]
    if command == "check-machine":
        return ["check", path, "--report", "machine"]
    verb = command[0]
    if verb == "construct":
        return ["construct", command[1], path, "-"]
    return ["twist", path, "-"] + list(command[1:])


def _small_setup(F, shape, rng, dim, torsion):
    grading = random_grading(F, rng, torsion)
    degrees = [tuple(shape.randrange(t) for t in torsion) for _ in range(dim)]
    return grading, degrees


def _add_degrees(grading, *degs):
    return tuple(sum(c) % t for c, t in zip(zip(*degs), grading.torsion))


def _weight_map(F, t, weights):
    """diag(t ** w): an endomorphism of every weight-additive table."""
    cols = []
    for i, w in enumerate(weights):
        value = F.one()
        for _ in range(w):
            value = F.mul(value, t)
        cols.append({i: value})
    return cols


def _weighted_product(F, shape, rng, grading, degrees, weights, density=0.6):
    """Random table whose entries respect both degree and weight sums."""
    dim = len(degrees)
    table = {}
    for i in range(dim):
        for j in range(dim):
            if shape.random() > density:
                continue
            d = _add_degrees(grading, degrees[i], degrees[j])
            hits = {k: random_element(F, rng) for k in range(dim)
                    if degrees[k] == d and weights[k] == weights[i] + weights[j]}
            if hits:
                table[(i, j)] = hits
    return table


def _central_leibniz(F, shape, rng, grading, dim):
    """Brackets of the first half land in the second half, which brackets
    to zero: the Leibniz law holds for every twist map.  Weights make
    diag(t ** w) multiplicative."""
    n_free = (dim + 1) // 2
    degrees = [tuple(shape.randrange(t) for t in grading.torsion) for _ in range(n_free)]
    weights = [shape.randrange(2) for _ in range(n_free)]
    for _ in range(dim - n_free):
        i, j = shape.randrange(n_free), shape.randrange(n_free)
        degrees.append(_add_degrees(grading, degrees[i], degrees[j]))
        weights.append(weights[i] + weights[j])
    table = {}
    for i in range(n_free):
        for j in range(n_free):
            d = _add_degrees(grading, degrees[i], degrees[j])
            hits = {k: random_element(F, rng) for k in range(n_free, dim)
                    if degrees[k] == d and weights[k] == weights[i] + weights[j]
                    and shape.random() < 0.8}
            if hits:
                table[(i, j)] = hits
    return degrees, weights, table


def _twist_scalar(F, rng):
    return rng.choice((F.const(2), F.const(-1), F.const(Fraction(1, 2)), F.const(3)))


def _assoc_table(F, mu, alpha, dim):
    """(xy) alpha(z) - alpha(x) (yz) on basis triples."""
    out = {}
    for x, y, z in itertools.product(range(dim), repeat=3):
        left = apply2(F, mu, mu.get((x, y), {}), alpha[z])
        right = apply2(F, mu, alpha[x], mu.get((y, z), {}))
        w = vadd(F, left, vscale(F, F.const(-1), right))
        if w:
            out[(x, y, z)] = w
    return out


def _plant(F, table):
    """[e_0, e_0] = e_0 with e_0 of degree zero and alpha(e_0) a multiple
    of e_0 breaks the Leibniz law at (0, 0, 0)."""
    table = dict(table)
    table[(0, 0)] = {0: F.one()}
    return table


def _cli_document(family, F, shape, rng, n, planted):
    """One generated document and its commands with expected exit codes.
    `shape` draws the structure (degrees, weights, which entries exist),
    `rng` the values, so the work a document costs is the same for every
    seed."""
    dim = 2 + n % 4
    torsion = CLI_GROUPS[(n // 4) % len(CLI_GROUPS)]
    power = 1 + n % 3
    if family == "nonassociative":
        dim = 2 + n % 3
        grading, degrees = _small_setup(F, shape, rng, dim, torsion)
        mu = {}
        for key, v in random_even_table(F, rng, degrees, grading).items():
            if shape.random() < 0.6:
                k = shape.choice(sorted(v))
                mu[key] = {k: v[k]}
        alpha = [{j: random_element(F, rng)} for j in range(dim)]
        doc = bundle_doc("nonassociative", F, grading, degrees, {"product": mu}, alpha)
        return doc, (("check", 0), ("check-machine", 0), (("construct", "akivis"), 0))
    if family == "leibniz-ungraded":
        grading = trivial_grading(F, torsion)
        degrees, _, bracket = _central_leibniz(F, shape, rng, trivial_grading(F, ()), dim)
        degrees = [(0,) * len(torsion)] * dim
        alpha = [{i: F.one()} for i in range(dim)]
        code = 0
        if planted:
            bracket, code = _plant(F, bracket), 1
        doc = bundle_doc("leibniz", F, grading, degrees, {"bracket": bracket}, alpha)
        return doc, (("check", code), ("check-machine", code),
                     (("construct", "trivext"), code), (("twist", "--power", str(power)), code))
    if family == "leibniz-weighted":
        grading = random_grading(F, rng, torsion)
        degrees, weights, bracket = _central_leibniz(F, shape, rng, grading, dim)
        alpha = _weight_map(F, _twist_scalar(F, rng), weights)
        doc = bundle_doc("leibniz", F, grading, degrees, {"bracket": bracket}, alpha)
        return doc, (("check", 0), ("check-machine", 0), (("twist", "--power", str(power)), 0))
    if family == "nhlp":
        orders = ((2,), (3,), (4,), (2, 2))[n % 4]
        grading = random_grading(F, rng, torsion or (2,))
        degrees, mu, alpha = group_algebra(F, orders, grading)
        ops = {"product": compose_table(F, alpha, mu),
               "bracket": compose_table(F, alpha, commutator(F, grading, degrees, mu))}
        code = 0
        if planted:
            ops["bracket"], code = _plant(F, ops["bracket"]), 1
        doc = bundle_doc("nhlp", F, grading, degrees, ops, alpha)
        return doc, (("check", code), ("check-machine", code),
                     (("twist", "--power", str(power)), code))
    if family == "dialgebra":
        orders = ((2,), (3,), (2, 2), (4,))[n % 4]
        grading = trivial_grading(F, torsion)
        doc = _dialgebra(F, rng, orders, grading, project=bool(n % 2), block=1)
        return doc, (("check", 0), ("check-machine", 0), (("construct", "dialg2leibniz"), 0))
    if family == "akivis":
        grading, degrees = _small_setup(F, shape, rng, dim, torsion)
        weights = [shape.randrange(3) for _ in range(dim)]
        mu = _weighted_product(F, shape, rng, grading, degrees, weights)
        alpha = _weight_map(F, _twist_scalar(F, rng), weights)
        ops = {"bracket": commutator(F, grading, degrees, mu),
               "ternary": _assoc_table(F, mu, alpha, dim)}
        doc = bundle_doc("akivis", F, grading, degrees, ops, alpha)
        return doc, (("check", 0), ("check-machine", 0), (("twist", "--power", str(power)), 0))
    # module: the algebra acting on a copy of itself by its bracket from
    # the left, zero action from the right
    grading = random_grading(F, rng, torsion)
    degrees, weights, bracket = _central_leibniz(F, shape, rng, grading, dim)
    alpha = _weight_map(F, _twist_scalar(F, rng), weights)
    doc = module_doc(F, grading, degrees, bracket, alpha, bracket, {})
    return doc, (("check", 0), ("check-machine", 0),
                 (("twist", "--module", "--power", str(power)), 0))


def cli_pipeline(seed):
    """A few hundred small documents (dims 2 to 5) of all six kinds over
    Q and Q(zeta_N), N in {4, 5, 7, 9, 12, 15}, plus the built-in
    fixtures.  Returns (name, document or None for a fixture, commands)
    where commands pairs each command with its expected exit code."""
    rng = random.Random(f"cli-pipeline:{seed}")
    fields = {N: Field(N) for N in CLI_FIELDS}
    fixtures = list(FIXTURE_COMMANDS)
    out = []
    # families interleaved, fixtures spread through the list: any prefix
    # of it is a fair sample of the whole mix
    for n in range(CLI_DOCS_PER_FAMILY):
        for f, family in enumerate(CLI_FAMILIES):
            F = fields[CLI_FIELDS[(n + f) % len(CLI_FIELDS)]]
            planted = family in ("leibniz-ungraded", "nhlp") and n % PLANTED == PLANTED - 1
            shape = random.Random(f"cli-pipeline-shape:{family}:{n}")
            doc, commands = _cli_document(family, F, shape, rng, n, planted)
            out.append((f"{family}-{n:02d}", doc, commands))
        if n % 3 == 2 and fixtures:
            name, commands = fixtures.pop(0)
            out.append((f"fixture-{name}", None, commands))
    return out


WORKLOADS = {
    "certify-dense": certify_dense,
    "refute-dense": refute_dense,
    "cli-pipeline": cli_pipeline,
}
