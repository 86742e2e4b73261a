"""Compiled integer tables: the engine every identity scan runs on.

A map is compiled once, at the first scan that needs it, and the result
is kept on the map object.  Compilation restricts scalars from
K = Q(zeta_N) to Q: with d = phi(N), a vector with n coordinates becomes
n*d integer numerators over one positive denominator, position k*d + t
holding the zeta**t coefficient of coordinate k.  A K-multilinear map is
Q-multilinear, so every law becomes a sum of integer products:

* ``Table``: an operation, with the flattened value of every basis
  tuple as (position, numerator) pairs over the table's denominator.  A
  twist map alpha is a unary map, so it compiles to a unary Table, entry
  j the flattened alpha(e_j); ``Table.columns`` gives its column
  zeta**t * alpha(e_j) for each position q = j*d + t;
* ``Table.images``: the twisted images L[x][q] = O(alpha e_x, zeta**t e_b)
  and R[z][q] = O(zeta**t e_a, alpha e_z), so that, for example,
  O(alpha e_x, I(e_y, e_z)) = sum_q I[y][z][q] * L[x][q].  Like
  ``columns``, it builds column q = b*d + t only for the phases t that the
  contracted vector (I[y][z]) can fill: 0 for a basis vector, its table's
  own under rational eps, else all d; the others are never read and stay ();
* ``Signs``: the values eps(deg i, deg j) over their own denominator,
  built once per bicharacter and pair of spaces (``signs``).

A law is a sum of terms, each written with ``term`` the way the paper
writes it.  On basis tuples k = (x, y, z),

    term(-1, B, (t, 1), (B, 0, 2), eps=[(E, 0, 1)])

is -eps(x,y) [t(y), [x,z]]: an argument is a key position p (e_k[p]),
(twist, p) (t e_k[p]) or (inner, p, q) (inner(e_k[p], e_k[q])), and the
outer map is an operation, or a twist applied to one inner product: a
twisted argument is the unary twist table read at key position p.
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
Hom-associator, the dialgebra bracket and every map a construction
outputs: ``composed`` builds the twists and the scaling, f o op or op
with f applied to one argument, and the opposite product is one term.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod

from ._backend import kernel as _K
from .linalg import MultilinearMap, Vector
from .record import Record
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
    """(position, numerator) pairs -> ((coordinate, numerator tuple), ..)."""
    coords = {}
    for p, c in vec:
        k, t = divmod(p, d)
        coords.setdefault(k, [0] * d)[t] = c
    return tuple([(k, tuple(v)) for k, v in coords.items()])


def _grid(dims, leaf, prefix=()):
    """Nested tuples indexed like dims, holding leaf(index tuple)."""
    if not dims:
        return leaf(prefix)
    return tuple([_grid(dims[1:], leaf, prefix + (i,)) for i in range(dims[0])])


def _map_grid(grid, depth, fn):
    if not depth:
        return fn(grid)
    return tuple([_map_grid(g, depth - 1, fn) for g in grid])


def _rotations(vectors, d, red, phases):
    """[v, ..], each v [(coordinate, numerator tuple)] -> for each v and
    t = 0, .., d-1 in turn, the flattened zeta**t * v if t is in phases,
    else (); each coordinate is rotated once per phase, up to the largest."""
    out, turns = [], range(max(phases, default=-1) + 1)
    for coords in vectors:
        columns = [[] for _ in range(d)]
        for k, c in coords:
            k *= d
            for t in turns:
                if t:
                    c = _K.times_zeta(c, red)
                if t in phases:
                    columns[t] += [(k + s, n) for s, n in enumerate(c) if n]
        out += map(tuple, columns)
    return out


# --------------------------------------------------------------------------
# compiled maps


class Table(Record):
    """A compiled multilinear map: ``entries`` nests one tuple level per
    argument, each leaf the flattened value of that basis tuple over
    ``den``.  ``_memo`` caches the tables and grids derived from it."""

    FIELDS = ("field", "dims", "den", "entries")
    __slots__ = FIELDS + ("_memo",)

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    def images(self, twist: "Table", arg, phases):
        """Twisted images of a binary operation as a Table whose rows are
        indexed by the basis of the twisted argument ``arg`` (0 or 1) and
        whose columns are the flattened positions of the other argument:
        row x, column q = b*d + t holds O(twist e_x, zeta**t e_b) for
        arg 0 and O(zeta**t e_b, twist e_x) for arg 1, twist a unary
        table.  It builds the columns of the zeta-phases t in ``phases``
        and of those an earlier call built, so one table serves both; the
        others are (): a contraction reads column q only where its source
        is nonzero, and ``term`` passes every phase that source fills."""
        key = ("images", arg, id(twist))
        hit = self._memo.get(key)
        if hit is not None and set(phases) <= set(hit[1]):
            return hit[2]
        phases = tuple(sorted({*phases, *(hit[1] if hit else ())}))
        field = self.field
        d, red = field.degree, field.reduction
        coords = self._memo.get("coords")  # shared by the builds for both arguments
        if coords is None:
            coords = self._memo["coords"] = _map_grid(self.entries, 2, lambda v: _unflatten(v, d))
        other = self.dims[1 - arg]
        rows = []
        for x in range(self.dims[arg]):
            # a rational twist coefficient s scales by integer multiplies
            column = [(i, a, None if any(a[1:]) else a[0])
                      for i, a in _unflatten(twist.entries[x], d)]
            values = [{} for _ in range(other)]
            for b, value in enumerate(values):
                for i, a, s in column:
                    entry = coords[i][b] if arg == 0 else coords[b][i]
                    for k, o in entry:
                        o = _K.product(a, o, red) if s is None else [s * c for c in o]
                        old = value.get(k)
                        value[k] = o if old is None else [u + v for u, v in zip(old, o)]
            rows.append(tuple(_rotations([v.items() for v in values], d, red, phases)))
        out = Table(field, (self.dims[arg], other * d), self.den * twist.den, tuple(rows))
        self._memo[key] = (twist, phases, out)
        return out

    def columns(self, phases):
        """The images of a unary table T at the flattened positions, as a
        unary Table over T's denominator: column q = j*d + t is the
        flattened zeta**t * T(e_j), so that T applied to a flattened vector
        v is sum_q v[q] * columns[q].  As in ``images``, only the columns
        of the phases t in ``phases`` are built, the others are (); one
        table is kept per set of phases."""
        key = ("columns", phases)
        hit = self._memo.get(key)
        if hit is None:
            d, red = self.field.degree, self.field.reduction
            cols = tuple(_rotations([_unflatten(v, d) for v in self.entries], d, red, phases))
            hit = self._memo[key] = Table(self.field, (len(cols),), self.den, cols)
        return hit

    def phases(self):
        """The zeta-phases t of the positions k*d + t its entries fill, sorted."""
        if "phases" not in self._memo:
            d, found = self.field.degree, set()
            _map_grid(self.entries, len(self.dims), lambda v: found.update(p % d for p, _ in v))
            self._memo["phases"] = tuple(sorted(found))
        return self._memo["phases"]

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
        tuple level per index.  Built once per shape, so the rotations of
        a cyclic sum share it.  Returns (grid, denominator of the scale)."""
        key = ("signed", shape)
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


def table(m) -> Table:
    """The compiled form of the MultilinearMap m, built at its first use
    and kept in m's ``_compiled`` slot.  A twist map alpha, an EvenMap, is
    unary, so its table's entry j is alpha(e_j)."""
    try:
        return m._compiled
    except AttributeError:
        pass
    field = m.codomain.field
    values = {key: v.coeffs for key, v in m.table.items()}
    d = field.degree
    den = lcm(1, *(s.den for v in values.values() for s in v.values()))

    def leaf(key):
        v = values.get(key)
        if not v:
            return ()
        return _flatten({k: _numerators(s, den) for k, s in v.items()}, d)

    dims = tuple(sp.dim for sp in m.spaces)
    compiled = Table(field, dims, den, _grid(dims, leaf))
    object.__setattr__(m, "_compiled", compiled)
    return compiled


class Signs(Record):
    """eps(deg i, deg j) for basis index i of space a and j of space b:
    ``at[i][j]`` is its numerator tuple over ``den``."""

    __slots__ = FIELDS = ("dims", "den", "at")


def signs(bichar, a, b) -> Signs:
    """The Signs of bichar on spaces a x b, built at their first use and
    kept on the bicharacter."""
    hit = bichar._compiled.get((a, b))
    if hit is None:
        values = [[bichar(a.degree(i), b.degree(j)) for j in range(b.dim)]
                  for i in range(a.dim)]
        den = lcm(1, *(s.den for row in values for s in row))
        hit = bichar._compiled[a, b] = Signs((a.dim, b.dim), den, tuple(
            tuple(_numerators(s, den) for s in row) for row in values))
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

    ``outer`` is a Table; a unary one, such as a compiled twist, is
    applied to one inner product.  An argument is a key position p
    (e_k[p]), (twist, p) (twist e_k[p]) or (inner, p, q)
    (inner(e_k[p], e_k[q])), twist a unary and inner a binary Table; a
    binary outer with a twisted argument takes one other argument, and
    an outer of any other arity takes key positions only.  ``eps`` lists
    factors (signs, p, q) = eps(deg k[p], deg k[q]) with signs from
    ``signs``.  For example
    term(-1, B, (t, 1), (B, 0, 2), eps=[(E, 0, 1)]) is
    -eps(x,y) [t(y), [x,z]]."""
    d, rows, at, rows_den = outer.field.degree, None, None, 1
    if len(outer.dims) == 1:
        (source,) = args
    else:
        for i, arg in enumerate(args):
            if isinstance(arg, tuple) and len(arg) == 2:
                (tw, at), source = arg, args[1 - i]
                break
        else:  # one table entry, itself the value
            source = (outer, *args)
    if len(outer.dims) == 1 or at is not None:
        # the zeta-phases the contracted source can fill: an eps with a zeta
        # part moves a coefficient into every phase, a rational one keeps it
        if any(any(v[1:]) for e, _, _ in eps for row in e.at for v in row):
            phases = tuple(range(d))
        elif isinstance(source, int):  # a basis vector: numerator 1 at phase 0
            phases = (0,)
        else:
            phases = source[0].phases()
        images = outer.columns(phases) if at is None else outer.images(tw, i, phases)
        rows, rows_den = images.entries, images.den
    if isinstance(source, int):  # the basis vector e_k[p] of outer's argument 1 - i
        n = outer.dims[1 - i]
        source = (Table(outer.field, (n,), 1, tuple(((k * d, 1),) for k in range(n))), source)
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
        return Defect(space, tuple((k, nums) for k, nums in enumerate(zip(*[iter(acc)] * d))
                                   if nums != zero), common)

    return defect


class Defect(Record):
    """The nonzero value of a law at one basis tuple, as the scan found
    it: ``coords`` is a tuple of (coordinate, numerators) for each nonzero
    coordinate of a vector of ``space``, in increasing order, over the
    positive common denominator ``den``, none of them reduced.  A report
    writes each coefficient straight from these integers; ``vector``
    builds the exact Vector."""

    __slots__ = FIELDS = ("space", "coords", "den")

    def __init__(self, space, coords, den):  # as Violation.__init__, for speed
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "den", den)

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


def composed(f, m, at=None) -> MultilinearMap:
    """The map f o m, f an EvenMap and m a MultilinearMap, or with at = p
    the binary m with f applied to its argument p, built from one term."""
    F, M = table(f), table(m)
    if at is None:  # f(m(e_k0, .., e_kn))
        t = term(1, F, (M, *range(m.arity)))
    else:  # m(f e_k0, e_k1) or m(e_k0, f e_k1)
        t = term(1, M, *[(F, p) if p == at else p for p in (0, 1)])
    return materialize(m.spaces, m.codomain, law(m.codomain, t))
