"""Graded linear algebra over exact cyclotomic scalars.

Spaces carry a named homogeneous basis with degrees in a grading group.
Vectors are sparse {basis index: Scalar} maps.  Multilinear maps are
sparse structure-constant tables on basis tuples, evaluated on general
vectors by multilinear expansion, and checked for evenness by one degree
rule.  A twist map (EvenMap) is the unary one, built from and compared by
its dense matrix: its value at e_j is column j.

Spaces, vectors and maps are frozen records (``colorhom.record``): they
refuse writes and deletes, a vector's coefficients and a map's table are
read-only views, and the integer table a map compiles to (``_compiled``,
colorhom.tables) is frozen too, so no public field of what a bundle
holds can change after the bundle is certified.
"""

from __future__ import annotations

from itertools import product
from operator import index
from types import MappingProxyType

from ._backend import kernel as _K
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


class Vector(Record):
    """Sparse vector: ``coeffs`` is a read-only {basis index: Scalar} view
    that never stores zeros."""

    __slots__ = FIELDS = ("space", "coeffs")

    def __init__(self, space, coeffs=None):
        clean = {}
        for i, c in (coeffs or {}).items():
            c = _scalar(space.field, c)
            try:
                inside = 0 <= index(i) < space.dim
            except TypeError:  # not an integer
                inside = False
            if not inside:
                raise InputError(f"basis index {i!r} out of range")
            if not c.is_zero():
                clean[i] = c
        # set directly, not through Record.__init__: the endomorphism test
        # builds Vectors per basis tuple, and the generic loop made each
        # construction about two thirds slower
        _set_space(self, space)
        _set_coeffs(self, MappingProxyType(clean))

    @classmethod
    def _make(cls, space, coeffs):
        """A Vector of trusted data: coeffs is a new dict of nonzero
        scalars of space's field."""
        v = object.__new__(cls)
        _set_space(v, space)
        _set_coeffs(v, MappingProxyType(coeffs))
        return v

    @classmethod
    def zero(cls, space):
        return cls._make(space, {})

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
        out = self.coeffs.copy()
        for i, c in other.coeffs.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        return Vector._make(self.space, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Vector._make(self.space, {i: -c for i, c in self.coeffs.items()})

    def scaled(self, k: Scalar):
        if not isinstance(k, Scalar):
            k = Scalar.rational(self.space.field, k)
        if k.is_zero():
            return Vector.zero(self.space)
        coeffs = {}
        for i, c in self.coeffs.items():
            s = k * c
            if not s.is_zero():
                coeffs[i] = s
        return Vector._make(self.space, coeffs)

    def __rmul__(self, k):
        return self.scaled(k)

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


_set_space, _set_coeffs = Vector._setters


class MultilinearMap(Record):
    """Sparse structure-constant table of a k-linear map.

    ``spaces`` are the per-argument domains and ``codomain`` the target;
    for the algebra operations all of them coincide, while module actions
    mix the algebra and module spaces.  ``table`` is a read-only view
    keyed by basis index tuples; zero values are never stored.
    ``_compiled`` holds the integer table, once colorhom.tables.table
    builds it.
    """

    FIELDS = ("spaces", "codomain", "table")
    __slots__ = FIELDS + ("_compiled",)

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
                try:
                    inside = 0 <= index(i) < sp.dim
                except TypeError:  # not an integer
                    inside = False
                if not inside:
                    raise InputError(f"index {i!r} out of range in key {key}")
            if not isinstance(value, Vector) or value.space != codomain:
                raise InputError(f"value at {key} is not a codomain vector")
            if value:
                clean[key] = value
        super().__init__(spaces, codomain, MappingProxyType(clean))

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
        """Multilinear evaluation on general vectors.  Every product
        coeff * c of an expansion term is summed into one {index: (nums,
        den)} dict of canonical kernel pairs (``kernel.mul`` and
        ``kernel.add``, looked up at each call), and a Scalar is built
        only for each nonzero sum at the end, so one Vector is built per
        call and no Scalar per term."""
        if len(vectors) != self.arity:
            raise InputError(f"expected {self.arity} arguments")
        for v, sp in zip(vectors, self.spaces):
            if not isinstance(v, Vector) or v.space != sp:
                raise InputError("argument is not a vector of the right space")
        field = self.codomain.field
        mul, add, reduction = _K.mul, _K.add, field.reduction
        acc = {}
        for key in product(*(sorted(v.coeffs) for v in vectors)):
            entry = self.table.get(key)
            if entry is None:
                continue
            c = vectors[0].coeffs[key[0]]
            nums, den = c.nums, c.den
            for v, i in zip(vectors[1:], key[1:]):
                c = v.coeffs[i]
                nums, den = mul(nums, den, c.nums, c.den, reduction)
            for i, c in entry.coeffs.items():
                term = mul(nums, den, c.nums, c.den, reduction)
                s = acc.get(i)
                acc[i] = term if s is None else add(*s, *term)
        return Vector._make(self.codomain, {
            i: Scalar._make(field, *s) for i, s in acc.items() if any(s[0])})

    def entries(self):
        return sorted(self.table.items())

    def __repr__(self):
        return f"MultilinearMap(arity={self.arity}, entries={len(self.table)})"


class EvenMap(MultilinearMap):
    """Grade-preserving linear endomorphism: the unary internal
    MultilinearMap whose value at e_j is column j of the dense matrix
    ``rows``.  Entry (i, j) nonzero demands degree(i) == degree(j), which
    check_evenness verifies by the one degree rule of every map.  Its
    fields, and so its equality and hash, are (space, rows).
    """

    __slots__ = FIELDS = ("space", "rows")

    def __init__(self, space, rows):
        field, n = space.field, space.dim
        rows = tuple(tuple(_scalar(field, c) for c in row) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError(f"matrix must be {n}x{n}")
        table = {}
        for j, column in enumerate(zip(*rows)):
            column = {i: c for i, c in enumerate(column) if not c.is_zero()}
            if column:
                table[j,] = Vector._make(space, column)
        self._set(space, rows, table)

    def _set(self, space, rows, table):
        # Record.__init__ sets FIELDS only; the inherited slots are set here
        for set_slot, value in zip(EvenMap._setters + MultilinearMap._setters,
                                   (space, rows, (space,), space, MappingProxyType(table))):
            set_slot(self, value)
        return self

    @classmethod
    def identity(cls, space):
        return cls.diagonal(space, [Scalar.one(space.field)] * space.dim)

    @classmethod
    def diagonal(cls, space, values):
        zero, n = Scalar.zero(space.field), space.dim
        return cls(space, [[values[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_images(cls, space, images):
        """Build from the list of image vectors of the basis, each a
        Vector of space, which is kept as its column."""
        images = tuple(images)
        if len(images) != space.dim or any(v.space != space for v in images):
            raise InputError(f"expected {space.dim} images in the space")
        zero = Scalar.zero(space.field)
        rows = tuple(tuple(v.coeffs.get(i, zero) for v in images) for i in range(space.dim))
        return object.__new__(cls)._set(space, rows, {(j,): v for j, v in enumerate(images) if v})

    def compose(self, other: "EvenMap") -> "EvenMap":
        """self after other (matrix product self @ other): the other
        factor itself when one factor is the identity (read off its rows),
        else the law twisted-unary, self o other, derived on their
        compiled tables."""
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        from .checkers import derive  # checkers builds on this module

        m = derive("twisted-unary", {"S": self.space}, M=other, tS=self)
        return EvenMap.from_images(self.space, [m.on_basis(j) for j in range(self.space.dim)])

    def power(self, n: int) -> "EvenMap":
        """Exact n-th compositional power, n >= 0 (power 0 is the identity)."""
        if not isinstance(n, int) or n < 0:
            raise InputError("map power must be an integer >= 0")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return EvenMap.identity(self.space) if result is None else result

    def is_identity(self):
        """Is every diagonal entry of ``rows`` one and every other zero?"""
        return all(c.is_one() if i == j else c.is_zero()
                   for i, row in enumerate(self.rows) for j, c in enumerate(row))

    def __repr__(self):
        return f"EvenMap({self.rows!r})"


def check_evenness(m: MultilinearMap) -> CheckReport:
    """Verify grade preservation: every output coefficient of m sits in
    degree equal to the sum of the argument degrees.  For an EvenMap,
    value (j,) is column j, so entry (i, j) nonzero requires
    degree(i) == degree(j)."""
    if not isinstance(m, MultilinearMap):
        raise InputError(f"cannot check evenness of {type(m).__name__}")
    violations = []
    *args, out = [[deg.coords for _, deg in sp.basis] for sp in (*m.spaces, m.codomain)]
    canon, wants = m.codomain.group.canon, {}  # argument degrees -> their sum
    for key, value in m.table.items():
        degs = [deg[i] for deg, i in zip(args, key)]
        slot = tuple(degs)
        want = wants.get(slot)
        if want is None:
            want = wants[slot] = canon([sum(c) for c in zip(*degs)])
        for i in value.coeffs:
            if out[i] != want:
                violations.append(
                    Violation(key, value,
                              f"output component {m.codomain.name(i)} "
                              "off the expected degree")
                )
    return CheckReport("evenness", sorted_violations(violations))


def commutator_map(product_map: MultilinearMap, bichar) -> MultilinearMap:
    """Sign-twisted commutator of a binary internal map:
    bracket(x, y) = product(x, y) - eps(x, y) * product(y, x)
    on homogeneous basis vectors, extended bilinearly."""
    from .checkers import derive  # checkers builds on this module

    space = product_map.codomain
    if product_map.spaces != (space, space):
        raise InputError("commutator needs a binary internal map")
    return derive("commutator", {"S": space}, bichar, P=product_map)


def endomorphism_defects(f: EvenMap, ops):
    """Yield (operation index, basis tuple, defect) wherever f fails to
    commute with a structure map in ops, i.e. wherever
    f(op(e_i1 .. e_ik)) != op(f e_i1, .., f e_ik).  Only meaningful for
    internal maps on f's space."""
    space = f.space
    images = [f.on_basis(j) for j in range(space.dim)]
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
