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
* ``Signs``: the values eps(deg i, deg j) over their own denominator,
  built once per bicharacter and pair of spaces (``signs``).

A law is a sum of terms, each written with ``term`` the way the paper
writes it.  On basis tuples k = (x, y, z),

    term(-1, B, (t, 1), (B, 0, 2), eps=[(E, 0, 1)])

is -eps(x,y) [t(y), [x,z]]: an argument is a key position p (e_k[p]),
(twist, p) (t e_k[p]) or (inner, p, q) (inner(e_k[p], e_k[q])), and the
outer map is an operation, or a twist applied to one inner product.
Only ``term`` knows the layout: it picks the image table of the twisted
argument, the flattened vector contracted with it and the copies of that
vector's table scaled by the eps factors (``Table.signed``, built once
per table and sign shape), and it computes the term's denominator.
``law`` brings the terms over one common denominator and adds their
integer products into one accumulator per basis tuple.  A nonzero
accumulator is kept, split into its nonzero coordinates and over that
denominator, as a ``Defect``: a scan's violation holds it, and a report
writes each coefficient straight from the integers.  Only
``Defect.vector`` normalizes, by the scalar kernel, into the exact
Vector, when ``materialize`` builds a map or the library reads
``Violation.defect``; both equal what Scalar arithmetic gives.

Field products happen only while compiling, through the scalar kernel's
``product`` and ``times_zeta``: an integer convolution folded back by the
rows of ``FieldDescriptor.reduction``, with no gcd.

A derived map is a law too, kept as a MultilinearMap by ``materialize``:
the ``commutator`` (whose zero test is eps-commutativity), the
Hom-associator, the dialgebra bracket and the twisted module actions.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod

from ._backend import kernel as _K
from .linalg import MultilinearMap, Vector
from .scalars import Scalar


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
        indexed by the basis of the twisted argument ``arg`` (0 or 1) and
        whose columns are the flattened positions of the other argument:
        row x, column q = b*d + t holds O(twist e_x, zeta**t e_b) for
        arg 0 and O(zeta**t e_b, twist e_x) for arg 1."""
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
                    entry = coords[i][b] if arg == 0 else coords[b][i]
                    for k, o in entry:
                        _accumulate(value, k, _K.product(a, o, red))
                for t in range(d):
                    if t:
                        value = {k: _K.times_zeta(c, red) for k, c in value.items()}
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
                return _flatten(
                    {k: _K.product(nums, c, red) for k, c in _unflatten(vec, d)}, d)

        out = Table(field, self.dims, self.den * den,
                    _map_grid(self.entries, len(self.dims), scale))
        self._memo[key] = out
        return out

    def signed(self, shape):
        """This table's entries times a product of eps values, for every
        choice of basis indices: ``shape`` lists the factors
        (signs, i, j) = eps(index i, index j), with the indices numbered
        0, 1, ... in order of first appearance, and the grid nests one
        list level per index.  Built once per shape, so the rotations of
        a cyclic sum share it.  Returns (grid, denominator of the scale)."""
        key = ("signed", shape)  # Signs compare by identity
        hit = self._memo.get(key)
        if hit is None:
            ranges = {}  # from the spaces, so an empty basis gives an empty grid
            for e, i, j in shape:
                ranges[i], ranges[j] = e.dims
            den, red = prod(e.den for e, _, _ in shape), self.field.reduction

            def leaf(index):
                nums = None
                for e, i, j in shape:
                    v = e.at[index[i]][index[j]]
                    nums = v if nums is None else _K.product(nums, v, red)
                return self.scaled(nums, den).entries

            grid = _grid([ranges[i] for i in range(len(ranges))], leaf)
            hit = self._memo[key] = (grid, den)
        return hit


class Twist:
    """A compiled even map over ``den``: ``columns[j]`` lists the nonzero
    (row, numerator tuple) pairs of column j, and ``flat[j*d + t]`` is the
    flattened column zeta**t * alpha(e_j), so that alpha applied to a
    flattened vector v is sum_q v[q] * flat[q]."""

    __slots__ = ("den", "columns", "flat")

    def __init__(self, emap):
        space = emap.space
        d, n, red = space.field.degree, space.dim, space.field.reduction
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
                    value = {k: _K.times_zeta(c, red) for k, c in value.items()}
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
        self.dims = (a.dim, b.dim)
        self.den = lcm(1, *(s.den for row in values for s in row))
        self.at = [[_numerators(s, self.den) for s in row] for row in values]


def signs(bichar, a, b) -> Signs:
    """The Signs of bichar on spaces a x b, built at their first use and
    kept on the bicharacter."""
    hit = bichar._compiled.get((a, b))
    if hit is None:
        hit = bichar._compiled[a, b] = Signs(bichar, a, b)
    return hit


# --------------------------------------------------------------------------
# laws as sums of contractions


# _PICK[n](grid, p1, .., pn) is key -> grid[key[p1]]..[key[pn]]: one
# closure per term, called once per basis tuple
_PICK = (
    None,
    lambda g, a: lambda k: g[k[a]],
    lambda g, a, b: lambda k: g[k[a]][k[b]],
    lambda g, a, b, c: lambda k: g[k[a]][k[b]][k[c]],
    lambda g, a, b, c, e: lambda k: g[k[a]][k[b]][k[c]][k[e]],
    lambda g, a, b, c, e, f: lambda k: g[k[a]][k[b]][k[c]][k[e]][k[f]],
    lambda g, a, b, c, e, f, h: lambda k: g[k[a]][k[b]][k[c]][k[e]][k[f]][k[h]],
)


def term(sign, outer, *args, eps=()):
    """The law term sign * eps(..) * .. * outer(*args) on basis tuples k.

    ``outer`` is a Table, or a Twist applied to one inner product.  An
    argument is a key position p (e_k[p]), (twist, p) (twist e_k[p]) or
    (inner, p, q) (inner(e_k[p], e_k[q])); a binary outer with a twisted
    argument takes one other argument, and an outer of any arity takes
    key positions only.  ``eps`` lists factors (signs, p, q) =
    eps(deg k[p], deg k[q]) with signs from ``signs``.  For example
    term(-1, B, (t, 1), (B, 0, 2), eps=[(E, 0, 1)]) is
    -eps(x,y) [t(y), [x,z]]."""
    if isinstance(outer, Twist):  # the images of outer(v) are its columns
        (source,), rows, at, rows_den = args, outer.flat, None, outer.den
    else:
        for i, arg in enumerate(args):
            if isinstance(arg, tuple) and isinstance(arg[0], Twist):
                # the first twisted argument indexes the image rows
                tw, at = arg
                images = outer.images(tw, i)
                source, rows, rows_den = args[1 - i], images.entries, images.den
                break
        else:  # one table entry, itself the value
            source, rows, at, rows_den = (outer, *args), None, None, 1
    if isinstance(source, int):  # the basis vector e_k[p] of outer's argument 1 - i
        n, d = outer.dims[1 - i], outer.field.degree
        source = (Table(outer.field, (n,), 1, [((k * d, 1),) for k in range(n)]), source)
    elif isinstance(source[0], Twist):  # the column twist e_k[p]
        tw, p = source
        n, d = len(tw.columns), outer.field.degree
        source = (Table(outer.field, (n,), tw.den, tw.flat[::d]), p)
    table, positions = source[0], source[1:]
    grid, eps_den = table.entries, 1
    if eps:
        # the key positions of the factors, in order of first appearance
        index = list(dict.fromkeys(r for _, p, q in eps for r in (p, q)))
        grid, eps_den = table.signed(
            tuple([(e, index.index(p), index.index(q)) for e, p, q in eps]))
        positions = (*index, *positions)
    return (sign, table.den * eps_den * rows_den,
            _PICK[len(positions)](grid, *positions), rows, at)


def commutator(op, bichar):
    """The law op(e_i, e_j) - eps(i,j) op(e_j, e_i) of a binary
    MultilinearMap op."""
    O, E = table(op), signs(bichar, *op.spaces)
    return law(op.codomain, term(1, O, 0, 1), term(-1, O, 1, 0, eps=[(E, 0, 1)]))


def law(space, *terms):
    """defect(key) -> the sum of the terms (``term``) at basis tuple key
    as a ``Defect``, or None when it is zero.  A term is (sign, den, pick,
    rows, at): pick(key) gives a flattened vector v, contracted with the
    images u = rows[key[at]] (rows itself when at is None) into
    sign * sum_q v[q] * u[q] / den, or taken as it is when rows is None.
    The terms are brought over one common denominator and summed in one
    integer accumulator."""
    d = space.field.degree
    n, zero = space.dim * d, (0,) * d
    common = lcm(*(den for _, den, *_ in terms))
    plan = [(sign * (common // den), pick, rows, at) for sign, den, pick, rows, at in terms]

    def defect(key):
        acc = [0] * n
        for scale, pick, rows, at in plan:
            if rows is None:  # no images: the term is v itself
                for q, c in pick(key):
                    acc[q] += scale * c
                continue
            images = rows if at is None else rows[key[at]]
            for q, c in pick(key):
                c *= scale
                for p, v in images[q]:
                    acc[p] += c * v
        if not any(acc):
            return None
        return Defect(space, [(k, nums) for k, nums in enumerate(zip(*[iter(acc)] * d))
                              if nums != zero], common)

    return defect


class Defect:
    """The nonzero value of a law at one basis tuple, as the scan found
    it: ``coords`` lists (coordinate, numerators) for each nonzero
    coordinate of a vector of ``space``, in increasing order, over the
    positive common denominator ``den``, none of them reduced.  A report
    writes each coefficient straight from these integers; ``vector``
    builds the exact Vector."""

    __slots__ = ("space", "coords", "den")

    def __init__(self, space, coords, den):
        self.space, self.coords, self.den = space, coords, den

    def vector(self) -> Vector:
        """The exact Vector: each coordinate normalized by the scalar
        kernel."""
        field, den = self.space.field, self.den
        return Vector(self.space, {
            k: Scalar._make(field, *_K.normalize(nums, den)) for k, nums in self.coords
        })


def materialize(spaces, codomain, defect) -> MultilinearMap:
    """The map whose value on each basis tuple of spaces is defect(key):
    a law read as the structure table of a derived map."""
    table = {}
    for key in product(*(range(sp.dim) for sp in spaces)):
        v = defect(key)
        if v is not None:
            table[key] = v.vector()
    return MultilinearMap(spaces, codomain, table)
