"""Compiled integer tables: the engine every identity scan runs on.

A map is compiled once, at the first scan that needs it, and the result
is kept on the map object.  Compilation restricts scalars from
K = Q(zeta_N) to Q: with d = phi(N), a vector with n coordinates becomes
n*d integer numerators over one positive denominator, position k*d + t
holding the zeta**t coefficient of coordinate k.  A K-multilinear map is
Q-multilinear, so every law becomes a sum of integer products:

* ``Table``: an operation, with the flattened value of every basis
  tuple as (position, numerator) pairs over the table's denominator;
* ``Twist``: a twist map, with one flattened column zeta**t * alpha(e_j)
  per position q = j*d + t;
* ``Table.images``: the twisted images L[x][q] = O(alpha e_x, zeta**t e_b)
  and R[z][q] = O(zeta**t e_a, alpha e_z), so that, for example,
  O(alpha e_x, I(e_y, e_z)) = sum_q I[y][z][q] * L[x][q];
* ``Table.scaled``: an operation multiplied by one field scalar (a value
  of eps, or a product of two), for the sign factors of a law;
* ``Signs``: the values eps(deg i, deg j) over their own denominator.

Field products happen only while compiling: a raw integer convolution
folded back by the rows of ``FieldDescriptor.reduction``, with no gcd.
A law is a sum of terms, each a contraction of a flattened table entry
with a row of images (``law``); a scan adds their integer products into
one accumulator per basis tuple.  Only a nonzero accumulator is
normalized, by the scalar kernel, into the exact Vector defect of a
violation, so reports equal those of Scalar arithmetic.

A derived map is a law too, kept as a MultilinearMap by ``materialize``:
the ``commutator`` (``sign_swap``, which also gives the eps-skew law), the
Hom-associator, the dialgebra bracket and the twisted module actions.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from ._backend import kernel as _K
from .linalg import MultilinearMap, Vector
from .scalars import Scalar

FIRST, SECOND = 0, 1  # which argument of a binary operation carries the twist


# --------------------------------------------------------------------------
# compile-time field arithmetic on integer numerator tuples


def _mul(a, b, reduction):
    """a * b for coefficient tuples of length d: the raw convolution, with
    zeta**(d+t) folded back by reduction row t.  No gcd is taken."""
    d = len(a)
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:d]
    for t, row in enumerate(reduction):
        c = conv[d + t]
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return tuple(out)


def _times_zeta(a, reduction):
    """zeta * a (only called when d >= 2, where reduction[0] exists)."""
    out = [0, *a[:-1]]
    top = a[-1]
    if top:
        for j, r in enumerate(reduction[0]):
            out[j] += top * r
    return tuple(out)


def _numerators(s: Scalar, den):
    """Numerators of s over den, a multiple of its denominator."""
    m = den // s.den
    return tuple(n * m for n in s.nums)


def _flatten(coords, d):
    """{coordinate: numerator tuple} -> sorted (position, numerator) pairs."""
    return tuple(
        (k * d + t, c) for k in sorted(coords) for t, c in enumerate(coords[k]) if c
    )


def _unflatten(vec, d):
    """(position, numerator) pairs -> [(coordinate, numerator tuple)]."""
    coords = {}
    for p, c in vec:
        k, t = divmod(p, d)
        coords.setdefault(k, [0] * d)[t] = c
    return [(k, tuple(v)) for k, v in coords.items()]


def _grid(dims, leaf, prefix=()):
    """Nested lists indexed like dims, holding leaf(index tuple)."""
    if not dims:
        return leaf(prefix)
    return [_grid(dims[1:], leaf, prefix + (i,)) for i in range(dims[0])]


def _map_grid(grid, depth, fn):
    if not depth:
        return fn(grid)
    return [_map_grid(g, depth - 1, fn) for g in grid]


def _accumulate(coords, k, value):
    old = coords.get(k)
    coords[k] = value if old is None else tuple(u + v for u, v in zip(old, value))


# --------------------------------------------------------------------------
# compiled maps


class Table:
    """A compiled multilinear map: ``entries`` nests one list level per
    argument, each leaf the flattened value of that basis tuple over
    ``den``."""

    __slots__ = ("field", "dims", "den", "entries", "_memo")

    def __init__(self, field, dims, den, entries):
        self.field = field
        self.dims = tuple(dims)
        self.den = den
        self.entries = entries
        self._memo = {}

    def images(self, twist: "Twist", arg):
        """Twisted images of a binary operation as a Table whose rows are
        indexed by the basis of the twisted argument ``arg`` (FIRST or
        SECOND) and whose columns are the flattened positions of the
        other argument: row x, column q = b*d + t holds
        O(twist e_x, zeta**t e_b) for FIRST and O(zeta**t e_b, twist e_x)
        for SECOND."""
        key = ("images", arg, id(twist))
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        field = self.field
        d, red = field.degree, field.reduction
        coords = _map_grid(self.entries, 2, lambda v: _unflatten(v, d))
        other = self.dims[1 - arg]
        rows = []
        for x in range(self.dims[arg]):
            row = []
            for b in range(other):
                value = {}
                for i, a in twist.columns[x]:
                    entry = coords[i][b] if arg == FIRST else coords[b][i]
                    for k, o in entry:
                        _accumulate(value, k, _mul(a, o, red))
                for t in range(d):
                    if t:
                        value = {k: _times_zeta(c, red) for k, c in value.items()}
                    row.append(_flatten(value, d))
            rows.append(row)
        out = Table(field, (self.dims[arg], other * d), self.den * twist.den, rows)
        self._memo[key] = (twist, out)
        return out

    def scaled(self, nums, den):
        """This table times the field scalar nums / den."""
        if den == 1 and nums[0] == 1 and not any(nums[1:]):
            return self
        key = ("scaled", nums, den)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        field = self.field
        d, red = field.degree, field.reduction
        if not any(nums[1:]):  # a rational scalar scales every numerator alike
            s = nums[0]

            def scale(vec):
                return tuple((p, s * c) for p, c in vec) if s else ()
        else:
            def scale(vec):
                return _flatten({k: _mul(nums, c, red) for k, c in _unflatten(vec, d)}, d)

        out = Table(field, self.dims, self.den * den,
                    _map_grid(self.entries, len(self.dims), scale))
        self._memo[key] = out
        return out

    def scaled_by(self, grid, den, depth=2):
        """Nested lists shaped like ``grid`` (of numerator tuples over
        den, ``depth`` levels deep) holding the entries of this table
        scaled by each scalar; equal scalars share one scaled table."""
        return _map_grid(grid, depth, lambda nums: self.scaled(nums, den).entries)


class Twist:
    """A compiled even map over ``den``: ``columns[j]`` lists the nonzero
    (row, numerator tuple) pairs of column j, and ``flat[j*d + t]`` is the
    flattened column zeta**t * alpha(e_j), so that alpha applied to a
    flattened vector v is sum_q v[q] * flat[q]."""

    __slots__ = ("den", "columns", "flat")

    def __init__(self, emap):
        space = emap.space
        field = space.field
        d, n = field.degree, space.dim
        rows = emap.rows
        self.den = lcm(1, *(s.den for row in rows for s in row))
        self.columns = [
            [(i, _numerators(rows[i][j], self.den)) for i in range(n) if rows[i][j]]
            for j in range(n)
        ]
        self.flat = []
        for col in self.columns:
            value = dict(col)
            for t in range(d):
                if t:
                    value = {k: _times_zeta(c, field.reduction) for k, c in value.items()}
                self.flat.append(_flatten(value, d))


def table(m) -> Table:
    """The compiled form of MultilinearMap m, built at its first use."""
    if m._compiled is None:
        field = m.codomain.field
        d = field.degree
        den = lcm(1, *(s.den for v in m.table.values() for s in v.coeffs.values()))

        def leaf(key):
            v = m.table.get(key)
            if v is None:
                return ()
            return _flatten({k: _numerators(s, den) for k, s in v.coeffs.items()}, d)

        m._compiled = Table(field, [sp.dim for sp in m.spaces], den,
                            _grid([sp.dim for sp in m.spaces], leaf))
    return m._compiled


def twist(emap) -> Twist:
    """The compiled form of EvenMap emap, built at its first use."""
    if emap._compiled is None:
        emap._compiled = Twist(emap)
    return emap._compiled


class Signs:
    """eps(deg i, deg j) for basis index i of space a and j of space b:
    ``at[i][j]`` is its numerator tuple over ``den``."""

    def __init__(self, bichar, a, b):
        values = [[bichar(a.degree(i), b.degree(j)) for j in range(b.dim)]
                  for i in range(a.dim)]
        self.field = a.field
        self.den = lcm(1, *(s.den for row in values for s in row))
        self.at = [[_numerators(s, self.den) for s in row] for row in values]

    def mul(self, u, v):
        """Product of two numerator tuples (over den**2)."""
        return _mul(u, v, self.field.reduction)


# --------------------------------------------------------------------------
# laws as sums of contractions


def unit(space):
    """Images u with u[q] = e_q: contracting a flattened vector with them
    adds the vector itself (a term that is one table entry)."""
    return [((q, 1),) for q in range(space.dim * space.field.degree)]


def sign_swap(sign, op: Table, eps: "Signs", unit):
    """The terms op(e_i, e_j) + sign * eps(i,j) * op(e_j, e_i) of a law on
    basis pairs: sign +1 is the eps-skew defect, -1 the commutator."""
    entries, scaled = op.entries, op.scaled_by(eps.at, eps.den)
    return ((1, op.den, lambda i, j: (entries[i][j], unit)),
            (sign, op.den * eps.den, lambda i, j: (scaled[i][j][j][i], unit)))


def commutator(op, bichar):
    """The law op(e_i, e_j) - eps(i,j) op(e_j, e_i) of a binary
    MultilinearMap op."""
    space = op.codomain
    return law(space, *sign_swap(-1, table(op), Signs(bichar, *op.spaces), unit(space)))


def twisted_left(sign, outer: Table, inner: Table, tw: Twist):
    """The law term sign * outer(t e_x, inner(e_y, e_z))."""
    rows = outer.images(tw, FIRST)
    images, entries = rows.entries, inner.entries
    return sign, inner.den * rows.den, lambda x, y, z: (entries[y][z], images[x])


def twisted_right(sign, outer: Table, inner: Table, tw: Twist):
    """The law term sign * outer(inner(e_x, e_y), t e_z)."""
    rows = outer.images(tw, SECOND)
    images, entries = rows.entries, inner.entries
    return sign, inner.den * rows.den, lambda x, y, z: (entries[x][y], images[z])


def twisted_swap(sign, outer: Table, inner: Table, tw: Twist, eps: "Signs"):
    """The law term sign * eps(x,y) * outer(t e_y, inner(e_x, e_z)), the
    sign-carrying term of the Leibniz-type laws."""
    rows = outer.images(tw, FIRST)
    images, scaled = rows.entries, inner.scaled_by(eps.at, eps.den)
    return (sign, inner.den * eps.den * rows.den,
            lambda x, y, z: (scaled[x][y][x][z], images[y]))


def law(space, *terms):
    """defect(key) -> the Vector sum of the terms at basis tuple key, or
    None when it is zero.  A term is (sign, den, pick): pick(*key) gives
    a flattened vector v and images u, and the term is
    sign * sum_q v[q] * u[q] / den.  The terms are brought over one
    common denominator and summed in one integer accumulator."""
    common = lcm(*(den for _, den, _ in terms))
    plan = [(sign * (common // den), pick) for sign, den, pick in terms]
    n = space.dim * space.field.degree

    def defect(key):
        acc = [0] * n
        for scale, pick in plan:
            vec, images = pick(*key)
            for q, c in vec:
                c *= scale
                for p, v in images[q]:
                    acc[p] += c * v
        if not any(acc):
            return None
        return _vector(acc, common, space)

    return defect


def materialize(spaces, codomain, defect) -> MultilinearMap:
    """The map whose value on each basis tuple of spaces is defect(key):
    a law read as the structure table of a derived map."""
    table = {}
    for key in product(*(range(sp.dim) for sp in spaces)):
        v = defect(key)
        if v is not None:
            table[key] = v
    return MultilinearMap(spaces, codomain, table)


def _vector(acc, den, space):
    """The exact Vector acc / den: each nonzero coordinate normalized by
    the scalar kernel."""
    field = space.field
    d = field.degree
    coeffs = {}
    for k in range(space.dim):
        nums = acc[k * d:(k + 1) * d]
        if any(nums):
            coeffs[k] = Scalar._make(field, *_K.normalize(nums, den))
    return Vector(space, coeffs)
