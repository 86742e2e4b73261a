"""Graded linear algebra over exact cyclotomic scalars.

Spaces carry a named homogeneous basis with degrees in a grading group.
Vectors are sparse {basis index: Scalar} maps.  Multilinear maps are
sparse structure-constant tables on basis tuples, evaluated on general
vectors by multilinear expansion.  Grade-preserving linear maps (used for
all twist maps) are dense matrices with an evenness check.
"""

from __future__ import annotations

from itertools import product

from .errors import InputError
from .grading import GroupElement
from .record import Record
from .report import CheckReport, Violation, sorted_violations
from .scalars import Scalar


class GradedSpace(Record):
    """Finite-dimensional space with a homogeneous named basis."""

    __slots__ = FIELDS = ("field", "group", "basis")  # basis: tuple of (name, GroupElement)

    def __post_init__(self):
        names = [n for n, _ in self.basis]
        if len(set(names)) != len(names):
            raise InputError("basis names must be unique")
        for name, deg in self.basis:
            if not isinstance(deg, GroupElement) or deg.group != self.group:
                raise InputError(f"degree of basis vector {name!r} not in the group")
            if deg.coords != self.group.canon(deg.coords):
                raise InputError(f"degree of basis vector {name!r} not canonical")

    @classmethod
    def build(cls, field, group, names_degrees):
        basis = tuple(
            (name, group.element(coords)) for name, coords in names_degrees
        )
        return cls(field, group, basis)

    @property
    def dim(self):
        return len(self.basis)

    def degree(self, i) -> GroupElement:
        return self.basis[i][1]

    def name(self, i) -> str:
        return self.basis[i][0]

    def index(self, name) -> int:
        for i, (n, _) in enumerate(self.basis):
            if n == name:
                return i
        raise InputError(f"no basis vector named {name!r}")

    def tuples(self, arity):
        return product(range(self.dim), repeat=arity)

    def is_trivially_graded(self):
        return all(deg.is_zero() for _, deg in self.basis)

    def __repr__(self):
        return f"GradedSpace({[n for n, _ in self.basis]})"


def _scalar(field, c):
    """c as a Scalar of field: an int or Fraction is converted, and a
    Scalar of another field is refused."""
    if not isinstance(c, Scalar):
        return Scalar.rational(field, c)
    if c.field is not field:
        raise InputError(f"scalar of {c.field!r} given for a space over {field!r}")
    return c


class Vector:
    """Sparse vector; coefficient dict never stores zeros."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs=None):
        clean = {}
        for i, c in (coeffs or {}).items():
            c = _scalar(space.field, c)
            if not (0 <= i < space.dim):
                raise InputError(f"basis index {i} out of range")
            if not c.is_zero():
                clean[i] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def basis(cls, space, i):
        return cls(space, {i: Scalar.one(space.field)})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if self.space != other.space:
            raise InputError("vector space mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        v = object.__new__(Vector)
        object.__setattr__(v, "space", self.space)
        object.__setattr__(v, "coeffs", out)
        return v

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        v = object.__new__(Vector)
        object.__setattr__(v, "space", self.space)
        object.__setattr__(v, "coeffs", {i: -c for i, c in self.coeffs.items()})
        return v

    def scaled(self, k: Scalar):
        if not isinstance(k, Scalar):
            k = Scalar.rational(self.space.field, k)
        if k.is_zero():
            return Vector.zero(self.space)
        v = object.__new__(Vector)
        object.__setattr__(v, "space", self.space)
        coeffs = {}
        for i, c in self.coeffs.items():
            s = k * c
            if not s.is_zero():
                coeffs[i] = s
        object.__setattr__(v, "coeffs", coeffs)
        return v

    def __rmul__(self, k):
        return self.scaled(k)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in self.items():
            name = self.space.name(i)
            text = str(c)
            if text == "1":
                parts.append(name)
            elif text == "-1":
                parts.append(f"-{name}")
            elif ("+" in text[1:]) or ("-" in text[1:]) or " " in text:
                parts.append(f"({text})*{name}")
            else:
                parts.append(f"{text}*{name}")
        return " + ".join(parts).replace("+ -", "- ")


class EvenMap:
    """Grade-preserving linear endomorphism as a dense matrix.

    Column j is the image of basis vector j; entry (i, j) nonzero demands
    degree(i) == degree(j), which is what check_evenness verifies.
    """

    __slots__ = ("space", "rows", "_compiled")

    def __init__(self, space, rows):
        rows = tuple(tuple(_scalar(space.field, c) for c in row) for row in rows)
        if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
            raise InputError(f"matrix must be {space.dim}x{space.dim}")
        self.space = space
        self.rows = rows
        self._compiled = None  # the unary integer table, built by colorhom.tables.table

    @classmethod
    def identity(cls, space):
        one, zero = Scalar.one(space.field), Scalar.zero(space.field)
        return cls(
            space,
            tuple(
                tuple(one if i == j else zero for j in range(space.dim))
                for i in range(space.dim)
            ),
        )

    @classmethod
    def diagonal(cls, space, values):
        zero = Scalar.zero(space.field)
        return cls(
            space,
            tuple(
                tuple(values[i] if i == j else zero for j in range(space.dim))
                for i in range(space.dim)
            ),
        )

    @classmethod
    def from_images(cls, space, images):
        """Build from the list of image vectors of the basis."""
        zero = Scalar.zero(space.field)
        cols = []
        for v in images:
            cols.append([v.coeffs.get(i, zero) for i in range(space.dim)])
        return cls(space, tuple(tuple(cols[j][i] for j in range(space.dim))
                                for i in range(space.dim)))

    def image_of_basis(self, j) -> Vector:
        return Vector(self.space, {i: self.rows[i][j] for i in range(self.space.dim)})

    def __call__(self, v: Vector) -> Vector:
        if v.space != self.space:
            raise InputError("vector space mismatch")
        out = Vector.zero(self.space)
        for j, c in v.coeffs.items():
            out = out + self.image_of_basis(j).scaled(c)
        return out

    def compose(self, other: "EvenMap") -> "EvenMap":
        """self after other (matrix product self @ other)."""
        if self.space != other.space:
            raise InputError("map space mismatch")
        n = self.space.dim
        zero = Scalar.zero(self.space.field)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    a = self.rows[i][k]
                    b = other.rows[k][j]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return EvenMap(self.space, tuple(rows))

    def power(self, n: int) -> "EvenMap":
        """Exact n-th compositional power, n >= 0 (power 0 is the identity)."""
        if n < 0:
            raise InputError("map power must be >= 0")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return EvenMap.identity(self.space) if result is None else result

    def is_identity(self):
        return self == EvenMap.identity(self.space)

    def __eq__(self, other):
        if not isinstance(other, EvenMap):
            return NotImplemented
        return self.space == other.space and self.rows == other.rows

    def __repr__(self):
        return f"EvenMap({self.rows!r})"


class MultilinearMap:
    """Sparse structure-constant table of a k-linear map.

    ``spaces`` are the per-argument domains and ``codomain`` the target;
    for the algebra operations all of them coincide, while module actions
    mix the algebra and module spaces.  Keys are basis index tuples; zero
    values are never stored.
    """

    __slots__ = ("spaces", "codomain", "table", "_compiled")

    def __init__(self, spaces, codomain, table):
        spaces = tuple(spaces)
        if not spaces:
            raise InputError("multilinear map needs arity >= 1")
        for sp in spaces:
            if sp.field != codomain.field or sp.group != codomain.group:
                raise InputError("argument/codomain field or group mismatch")
        clean = {}
        for key, value in table.items():
            key = tuple(key)
            if len(key) != len(spaces):
                raise InputError(f"key {key} has wrong arity")
            for i, sp in zip(key, spaces):
                if not (0 <= i < sp.dim):
                    raise InputError(f"index {i} out of range in key {key}")
            if not isinstance(value, Vector) or value.space != codomain:
                raise InputError(f"value at {key} is not a codomain vector")
            if value:
                clean[key] = value
        self.spaces = spaces
        self.codomain = codomain
        self.table = clean
        self._compiled = None  # integer tables, built by colorhom.tables.table

    @classmethod
    def internal(cls, space, arity, table):
        return cls((space,) * arity, space, table)

    @property
    def arity(self):
        return len(self.spaces)

    def on_basis(self, *indices) -> Vector:
        if len(indices) != self.arity:
            raise InputError(f"expected {self.arity} indices")
        return self.table.get(tuple(indices)) or Vector.zero(self.codomain)

    def __call__(self, *vectors) -> Vector:
        """Multilinear evaluation on general vectors."""
        if len(vectors) != self.arity:
            raise InputError(f"expected {self.arity} arguments")
        for v, sp in zip(vectors, self.spaces):
            if not isinstance(v, Vector) or v.space != sp:
                raise InputError("argument is not a vector of the right space")
        out = Vector.zero(self.codomain)
        for key in product(*(sorted(v.coeffs) for v in vectors)):
            entry = self.table.get(key)
            if entry is None:
                continue
            coeff = vectors[0].coeffs[key[0]]
            for v, i in zip(vectors[1:], key[1:]):
                coeff = coeff * v.coeffs[i]
            out = out + entry.scaled(coeff)
        return out

    def entries(self):
        return sorted(self.table.items())

    def map_values(self, fn) -> "MultilinearMap":
        """New table with fn applied to every value (fn must be linear for
        the result to stay multilinear; used for composing with even maps
        and for scaling)."""
        return MultilinearMap(
            self.spaces, self.codomain, {k: fn(v) for k, v in self.table.items()}
        )

    def scaled(self, k: Scalar) -> "MultilinearMap":
        return self.map_values(lambda v: v.scaled(k))

    def opposite(self) -> "MultilinearMap":
        """Arguments swapped; only defined for binary maps."""
        if self.arity != 2 or self.spaces[0] != self.spaces[1]:
            raise InputError("opposite needs a binary map on one space")
        return MultilinearMap(
            self.spaces,
            self.codomain,
            {(j, i): v for (i, j), v in self.table.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        return (
            self.spaces == other.spaces
            and self.codomain == other.codomain
            and self.table == other.table
        )

    def __repr__(self):
        return f"MultilinearMap(arity={self.arity}, entries={len(self.table)})"


def check_evenness(obj) -> CheckReport:
    """Verify grade preservation.

    For a MultilinearMap: every output coefficient sits in degree equal to
    the sum of the argument degrees.  For an EvenMap: entry (i, j) nonzero
    requires degree(i) == degree(j).
    """
    violations = []
    if isinstance(obj, EvenMap):
        sp = obj.space
        for i in range(sp.dim):
            for j in range(sp.dim):
                if not obj.rows[i][j].is_zero() and sp.degree(i) != sp.degree(j):
                    violations.append(
                        Violation((i, j), obj.rows[i][j],
                                  "matrix entry crosses degrees")
                    )
    elif isinstance(obj, MultilinearMap):
        for key, value in obj.entries():
            want = obj.spaces[0].degree(key[0])
            for sp, i in zip(obj.spaces[1:], key[1:]):
                want = want + sp.degree(i)
            for i, _ in value.items():
                if obj.codomain.degree(i) != want:
                    violations.append(
                        Violation(key, value,
                                  f"output component {obj.codomain.name(i)} "
                                  "off the expected degree")
                    )
    else:
        raise InputError(f"cannot check evenness of {type(obj).__name__}")
    return CheckReport("evenness", sorted_violations(violations))


def commutator_map(product_map: MultilinearMap, bichar) -> MultilinearMap:
    """Sign-twisted commutator of a binary internal map:
    bracket(x, y) = product(x, y) - eps(x, y) * product(y, x)
    on homogeneous basis vectors, extended bilinearly."""
    from . import tables  # tables builds on this module

    if product_map.arity != 2:
        raise InputError("commutator needs a binary map")
    return tables.materialize(product_map.spaces, product_map.codomain,
                              tables.commutator(product_map, bichar))


def endomorphism_defects(f: EvenMap, ops):
    """Yield (operation index, basis tuple, defect) wherever f fails to
    commute with a structure map in ops, i.e. wherever
    f(op(e_i1 .. e_ik)) != op(f e_i1, .., f e_ik).  Only meaningful for
    internal maps on f's space."""
    space = f.space
    images = [f.image_of_basis(j) for j in range(space.dim)]
    for opn, op in enumerate(ops):
        if any(sp != space for sp in op.spaces) or op.codomain != space:
            raise InputError("endomorphism test needs internal maps on f's space")
        for key in space.tuples(op.arity):
            lhs = f(op.on_basis(*key))
            rhs = op(*(images[i] for i in key))
            if lhs != rhs:
                yield opn, key, lhs - rhs


def is_endomorphism(f: EvenMap, ops) -> bool:
    """Does f commute with every structure map in ops?  Stops at the
    first failing basis tuple."""
    return next(endomorphism_defects(f, ops), None) is None
