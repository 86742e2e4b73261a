"""Compiled integer tables: the engine every identity scan runs on.

A map is compiled once, at the first scan that needs it, and the result
is kept on the map object.  Compilation restricts scalars from
K = Q(zeta_N) to Q: with d = phi(N), a vector with n coordinates becomes
n*d integer numerators over one positive denominator, position k*d + t
holding the zeta**t coefficient of coordinate k.  A K-multilinear map is
Q-multilinear, so every law becomes a sum of integer products:

* ``Table``: an operation, compiled once from its nonzero values: the
  flattened value of every basis tuple as (position, numerator) pairs
  over the table's denominator, and the zeta-phases t those values fill.
  A twist map alpha is a unary map, so it compiles to a unary Table,
  entry j the flattened alpha(e_j);
* contraction rows (den, rows), which a Table derives and keeps:
  ``Table.columns`` gives column zeta**t * alpha(e_j) of a unary table
  for each position q = j*d + t, and ``Table.images`` the twisted images
  L[x][q] = O(alpha e_x, zeta**t e_b) and R[z][q] = O(zeta**t e_a, alpha e_z)
  of a binary one, so that, for example,
  O(alpha e_x, I(e_y, e_z)) = sum_q I[y][z][q] * L[x][q].  Both build
  column q = b*d + t only for the phases t that the contracted vector
  (I[y][z]) can fill: 0 for a basis vector, its table's own under
  rational eps, else all d; the others are never read and stay ().
  Under a diagonal twist s_x e_x with rational s_x, such as the identity,
  row x is s_x times the operation's own entries, each rotated once;
* ``Signs``: the values eps(deg i, deg j) over their own denominator, in
  the form ``law`` reads them: the numerator n of a rational value, the
  numerator tuple of one with a zeta part; built once per bicharacter
  and pair of spaces (``signs``).

A law is a sum of terms, each built by ``term``; ``checkers.bind_law``
builds them from the formulas of ``checkers.LAWS``.  On basis tuples
k = (x, y, z),

    term(1, B, (t, 0), (B, 1, 2))

is [t(x), [y,z]]: an argument is a key position p (e_k[p]),
(twist, p) (t e_k[p]) or (inner, p, q) (inner(e_k[p], e_k[q])), and the
outer map is an operation, or a twist applied to one inner product: a
twisted argument is the unary twist table read at key position p.  A
sign factor (signs, p, q) multiplies a term by eps(deg k[p], deg k[q]).
Only ``term`` knows the layout: it picks the contraction rows of the
twisted argument and the flattened vector contracted with them, and it
computes the term's denominator.  An eps factor stays one number per
basis tuple: ``law`` reads it at the key and folds a rational value into
the term's integer scale, or multiplies a value with a zeta part into
the picked vector, once per value and vector.  ``law`` brings the terms
over one common denominator and adds their integer products into one
accumulator per basis tuple, allocated at the first nonempty image row
that a picked coordinate reads there: a key where no term reads data,
or where every row read is empty, costs no accumulator.  A nonzero
accumulator is kept, split into its nonzero coordinates and over that
denominator, as a ``Defect``: a scan's violation holds it, and a report
writes each coefficient straight from the integers.  Only
``Defect.vector`` normalizes, by the scalar kernel, into the exact
Vector, when ``materialize`` builds a map or the library reads
``Violation.defect``; both equal what Scalar arithmetic gives.

Field products happen only while building contraction rows, or where an
eps value has a zeta part, through the scalar kernel's ``product`` and
``times_zeta``: an integer convolution folded back by the rows of
``FieldDescriptor.reduction``, with no gcd.

A derived map, such as the commutator (whose zero test is
eps-commutativity) or a twist f o op that a construction outputs, is an
entry of ``checkers.LAWS`` too, kept as a MultilinearMap by
``materialize`` for ``checkers.derive``: this module holds no formula.
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
    ``den``, and ``phases`` lists the zeta-phases t of the positions
    k*d + t those leaves fill, sorted.  ``_memo`` caches the contraction
    rows derived from it."""

    FIELDS = ("field", "dims", "den", "entries", "phases")
    __slots__ = FIELDS + ("_memo",)

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    def images(self, twist: "Table", arg, phases):
        """Contraction rows (den, rows) for the twisted images of a binary
        operation, twist a unary table and ``arg`` (0 or 1) the twisted
        argument: row x, column q = b*d + t of rows is the flattened
        O(twist e_x, zeta**t e_b) for arg 0 and O(zeta**t e_b, twist e_x)
        for arg 1, over den.  It builds the columns of the zeta-phases t
        in ``phases`` and of those an earlier call built, so one set of
        rows serves both; the others are (): a contraction reads column q
        only where its source is nonzero, and ``term`` passes every phase
        that source fills.  A twist whose table is diagonal with rational
        entries, twist e_x = s_x e_x over twist.den, takes row x of
        ``_rotated`` times s_x, with no field product (row x is empty
        when s_x is 0); any other twist sums its products per column."""
        key = ("images", arg, id(twist))
        hit = self._memo.get(key)
        if hit is not None and hit[1].issuperset(phases):
            return hit[2]
        phases = tuple(sorted({*phases, *(hit[1] if hit else ())}))
        field = self.field
        d, red = field.degree, field.reduction
        other = self.dims[1 - arg]
        scales = [(e[0][1] if len(e) == 1 and e[0][0] == x * d else None) if e else 0
                  for x, e in enumerate(twist.entries)]
        if None not in scales:  # row x is s_x times row x of the untwisted images
            grid, empty = self._rotated(arg, phases, {*scales} <= {0, 1}), ((),) * (other * d)
            rows = [grid[x] if s == 1 else empty if s == 0 else
                    tuple([tuple([(p, s * n) for p, n in c]) for c in grid[x]])
                    for x, s in enumerate(scales)]
        else:
            coords = self._memo.get("coords")  # shared by the builds for both arguments
            if coords is None:
                coords = self._memo["coords"] = tuple(
                    [tuple([_unflatten(v, d) for v in row]) for row in self.entries])
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
        out = (self.den * twist.den, tuple(rows))
        self._memo[key] = (twist, frozenset(phases), out)
        return out

    def _rotated(self, arg, phases, keep=True):
        """The rows of ``images`` under the identity twist, per argument
        and set of phases: each entry rotated once, for arg 0, and
        re-indexed for arg 1; the phases (0,) take the entries as they
        are.  Kept for every diagonal twist unless ``keep`` is false: a
        twist with an entry other than 0 and 1 keeps its scaled copy."""
        key = ("rotated", arg, phases)
        hit = self._memo.get(key)
        if hit is None:
            d, red = self.field.degree, self.field.reduction
            if arg:
                by_row = self._rotated(0, phases, keep)
                hit = tuple([tuple([c for row in by_row for c in row[x * d:x * d + d]])
                             for x in range(self.dims[1])])
            elif phases == (0,):
                pad = ((),) * (d - 1)
                hit = tuple([tuple([c for v in row for c in (v, *pad)]) for row in self.entries])
            else:
                hit = tuple([tuple(_rotations([_unflatten(v, d) for v in row], d, red, phases))
                             for row in self.entries])
            if keep:
                self._memo[key] = hit
        return hit

    def columns(self, phases):
        """Contraction rows (den, columns) of a unary table T over T's
        denominator: column q = j*d + t is the flattened zeta**t * T(e_j),
        so that T applied to a flattened vector v is
        sum_q v[q] * columns[q].  As in ``images``, only the columns of
        the phases t in ``phases`` are built, the others are (); one set
        is kept per set of phases."""
        key = ("columns", phases)
        hit = self._memo.get(key)
        if hit is None:
            d, red = self.field.degree, self.field.reduction
            hit = self._memo[key] = (self.den, tuple(
                _rotations([_unflatten(v, d) for v in self.entries], d, red, phases)))
        return hit


def table(m) -> Table:
    """The compiled form of the MultilinearMap m, built at its first use
    and kept in m's ``_compiled`` slot: its nonzero values are flattened
    once, and both the dense entries and the phases are read from them.
    A twist map alpha, an EvenMap, is unary, so its table's entry j is
    alpha(e_j)."""
    try:
        return m._compiled
    except AttributeError:
        pass
    field = m.codomain.field
    d = field.degree
    den = lcm(1, *(s.den for v in m.table.values() for s in v.coeffs.values()))
    flat = {key: _flatten({k: _numerators(s, den) for k, s in v.coeffs.items()}, d)
            for key, v in m.table.items()}
    dims = tuple(sp.dim for sp in m.spaces)
    phases = tuple(sorted({p % d for v in flat.values() for p, _ in v}))
    compiled = Table(field, dims, den, _grid(dims, lambda key: flat.get(key, ())), phases)
    object.__setattr__(m, "_compiled", compiled)
    return compiled


class Signs(Record):
    """eps(deg i, deg j) for basis index i of space a and j of space b,
    over ``den``, in the form ``law`` reads: ``at[i][j]`` is the int
    numerator of a rational value and the numerator tuple of one with a
    zeta part; ``rational`` says that every value is rational."""

    __slots__ = FIELDS = ("dims", "den", "at", "rational")


def signs(bichar, a, b) -> Signs:
    """The Signs of bichar on spaces a x b, built at their first use and
    kept on the bicharacter."""
    hit = bichar._compiled.get((a, b))
    if hit is None:
        values = [[bichar(a.degree(i), b.degree(j)) for j in range(b.dim)]
                  for i in range(a.dim)]
        den = lcm(1, *(s.den for row in values for s in row))
        nums = [[_numerators(s, den) for s in row] for row in values]
        at = tuple([tuple([v if any(v[1:]) else v[0] for v in row]) for row in nums])
        hit = bichar._compiled[a, b] = Signs(
            (a.dim, b.dim), den, at, all(type(v) is int for row in at for v in row))
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
    ``signs``; ``law`` multiplies them in at each key, so the term keeps
    its source table as it is.  The source contracted with the rows of
    the twisted argument, or with a unary outer's columns, is a Table
    read at key positions; a basis vector becomes the unary table of the
    basis, with phase 0 alone.  The rows are built for the source's
    phases, or for every phase when an eps value has a zeta part.  For
    example term(-1, B, (t, 1), (B, 0, 2)) is -[t(y), [x,z]], and the
    factor (E, 0, 1) in ``eps``, E = signs(bichar, S, S), makes it
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
    if isinstance(source, int):  # the basis vector e_k[p] of outer's argument 1 - i
        n = outer.dims[1 - i]
        basis = tuple(((k * d, 1),) for k in range(n))  # numerator 1 at phase 0
        source = (Table(outer.field, (n,), 1, basis, (0,)), source)
    table, positions = source[0], source[1:]
    if len(outer.dims) == 1 or at is not None:
        # the zeta-phases the contracted source can fill: an eps with a zeta
        # part moves a coefficient into every phase, a rational one keeps it
        phases = table.phases if all(e.rational for e, _, _ in eps) else tuple(range(d))
        rows_den, rows = outer.columns(phases) if at is None else outer.images(tw, i, phases)
    return (sign, table.den * prod(e.den for e, _, _ in eps) * rows_den,
            _PICK[len(positions)](table.entries, *positions), rows, at,
            tuple([(e.at, p, q) for e, p, q in eps]))


def law(space, *terms):
    """defect(key) -> the sum of the terms (``term``) at basis tuple key
    as a ``Defect``, or None when it is zero.  A term is (sign, den, pick,
    rows, at, factors): pick(key) gives a flattened vector v, times each
    eps factor (values, p, q) at key, values[key[p]][key[q]] in the form
    of ``Signs.at``, contracted with the images u = rows[key[at]] (rows
    itself when at is None) into sign * sum_q v[q] * u[q] / den, or taken
    as it is when rows is None.  A rational factor joins the integer
    scale; one with a zeta part multiplies v by the kernel's ``product``,
    once per factor value and vector for the life of the law.  The terms
    are brought over one common denominator and summed in one integer
    accumulator, allocated at the first term whose v meets a nonempty
    image row (or whose v is taken as it is): at a key where every v is
    empty, or meets only empty rows, defect allocates and tests
    nothing."""
    field = space.field
    d, red = field.degree, field.reduction
    n, zero = space.dim * d, (0,) * d
    common = lcm(*[t[1] for t in terms])
    plan = [(t[0] * (common // t[1]), *t[2:]) for t in terms]
    # (value, id(vector)) -> value * vector; a vector is a table entry, or
    # a value here, so it lives as long as the law and its id stays its own
    zeta = {}

    def defect(key):
        acc = None
        for scale, pick, rows, at, factors in plan:
            v = pick(key)
            if not v:
                continue
            for values, p, q in factors:
                f = values[key[p]][key[q]]
                if type(f) is int:
                    scale *= f
                    continue
                slot = (f, id(v))
                hit = zeta.get(slot)
                if hit is None:
                    hit = zeta[slot] = _flatten(
                        {k: _K.product(f, c, red) for k, c in _unflatten(v, d)}, d)
                v = hit
            if rows is None:  # no images: the term is v itself
                if acc is None:
                    acc = [0] * n
                for q, c in v:
                    acc[q] += scale * c
                continue
            images = rows if at is None else rows[key[at]]
            if acc is None:  # allocate at the first nonempty row v reads
                for q, _ in v:
                    if images[q]:
                        acc = [0] * n
                        break
                else:
                    continue
            for q, c in v:
                c *= scale
                for p, u in images[q]:
                    acc[p] += c * u
        if acc is None or not any(acc):
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
        _set_space(self, space)
        _set_coords(self, coords)
        _set_den(self, den)

    def vector(self) -> Vector:
        """The exact Vector: each coordinate normalized by the scalar
        kernel."""
        field, den = self.space.field, self.den
        return Vector(self.space, {
            k: Scalar._make(field, *_K.normalize(nums, den)) for k, nums in self.coords
        })


_set_space, _set_coords, _set_den = Defect._setters


def materialize(spaces, codomain, defect) -> MultilinearMap:
    """The map whose value on each basis tuple of spaces is defect(key):
    a law read as the structure table of a derived map."""
    table = {}
    for key in product(*(range(sp.dim) for sp in spaces)):
        v = defect(key)
        if v is not None:
            table[key] = v.vector()
    return MultilinearMap(spaces, codomain, table)
