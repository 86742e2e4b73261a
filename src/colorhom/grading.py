"""Finitely generated abelian grading groups and sign bicharacters.

A grading group is Z**r x Z_m1 x ... x Z_mk; elements are coordinate
tuples with the torsion part kept reduced.  A bicharacter is stored by its
values on generator pairs and extended to the whole group biadditively,
so the additivity laws hold by construction and only the skew-symmetry
and torsion conditions need checking.
"""

from __future__ import annotations

from itertools import product

from .errors import InputError
from .record import Record
from .report import CheckReport, Violation
from .scalars import Scalar


class GradingGroup(Record):
    __slots__ = FIELDS = ("free_rank", "torsion_orders")

    def __post_init__(self):
        if self.free_rank < 0:
            raise InputError("free rank must be >= 0")
        for m in self.torsion_orders:
            if not isinstance(m, int) or m < 2:
                raise InputError(f"torsion order {m!r} must be an integer >= 2")

    @property
    def rank(self):
        return self.free_rank + len(self.torsion_orders)

    def canon(self, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise InputError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        r = self.free_rank
        return coords[:r] + tuple(
            c % m for c, m in zip(coords[r:], self.torsion_orders)
        )

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, self.canon(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def elements(self):
        """Iterate the whole group; only valid when the free part is trivial."""
        if self.free_rank:
            raise InputError("cannot enumerate a group with free part")
        for coords in product(*(range(m) for m in self.torsion_orders)):
            yield GroupElement(self, coords)

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z_{m}" for m in self.torsion_orders]
        return "GradingGroup(" + (" x ".join(parts) if parts else "trivial") + ")"


TRIVIAL_GROUP = GradingGroup(0, ())


class GroupElement(Record):
    """Canonical coordinate tuple in its group; supports + and -."""

    __slots__ = FIELDS = ("group", "coords")

    def _check(self, other):
        if self.group != other.group:
            raise InputError("group mismatch in degree arithmetic")

    def __add__(self, other):
        self._check(other)
        return GroupElement(
            self.group,
            self.group.canon(tuple(a + b for a, b in zip(self.coords, other.coords))),
        )

    def __sub__(self, other):
        self._check(other)
        return GroupElement(
            self.group,
            self.group.canon(tuple(a - b for a, b in zip(self.coords, other.coords))),
        )

    def __neg__(self):
        return GroupElement(self.group, self.group.canon(tuple(-a for a in self.coords)))

    def is_zero(self):
        return not any(self.coords)

    def __repr__(self):
        return f"deg{self.coords}"


def validate_bicharacter(matrix, group, field) -> CheckReport:
    """Check the generator-pair value matrix of a would-be bicharacter.

    Returns a report whose violations cover: shape errors, zero entries,
    skew-symmetry failures entry(i,j)*entry(j,i) != 1 (including i == j),
    and torsion failures entry(i,j)**m != 1 for generators of finite
    order m.  Biadditivity needs no checking: evaluation extends the
    matrix biadditively by construction.
    """
    n = group.rank
    violations = []
    rows = list(matrix)
    if len(rows) != n or any(len(list(r)) != n for r in rows):
        violations.append(
            Violation((), None, f"matrix must be {n}x{n} for this group")
        )
        return CheckReport("bicharacter-axioms", tuple(violations))
    one = Scalar.one(field)
    entries = [[e for e in row] for row in rows]
    for i in range(n):
        for j in range(n):
            e = entries[i][j]
            if not isinstance(e, Scalar) or e.field != field:
                violations.append(Violation((i, j), None, "entry is not a field scalar"))
                return CheckReport("bicharacter-axioms", tuple(violations))
            if e.is_zero():
                violations.append(Violation((i, j), e, "entry must be nonzero"))
    if violations:
        return CheckReport("bicharacter-axioms", tuple(violations))
    for i in range(n):
        for j in range(i, n):
            p = entries[i][j] * entries[j][i]
            if p != one:
                violations.append(
                    Violation((i, j), p - one, "skew-symmetry: entry(i,j)*entry(j,i) != 1")
                )
    orders = (0,) * group.free_rank + group.torsion_orders
    for i in range(n):
        m = orders[i]
        if not m:
            continue
        for j in range(n):
            if entries[i][j] ** m != one:
                violations.append(
                    Violation((i, j), entries[i][j] ** m - one,
                              f"torsion: entry(i,j)**{m} != 1")
                )
            if entries[j][i] ** m != one:
                violations.append(
                    Violation((j, i), entries[j][i] ** m - one,
                              f"torsion: entry(j,i)**{m} != 1")
                )
    violations = sorted(set(violations), key=lambda v: (v.args, v.note))
    return CheckReport("bicharacter-axioms", tuple(violations))


class Bicharacter:
    """Skew-symmetric bicharacter, stored on generator pairs.

    eval(a, b) = prod over generator pairs of entry(i,j) ** (a_i * b_j);
    negative exponents go through exact inversion.  Construction validates
    the matrix and refuses invalid data.
    """

    __slots__ = ("group", "field", "matrix", "_memo", "_compiled")

    def __init__(self, group, field, matrix):
        matrix = tuple(tuple(row) for row in matrix)
        report = validate_bicharacter(matrix, group, field)
        if not report.passed:
            raise InputError(
                "invalid bicharacter: "
                + "; ".join(v.note for v in report.violations[:3])
            )
        self.group = group
        self.field = field
        self.matrix = matrix
        self._memo = {}
        self._compiled = {}  # tables.Signs per pair of spaces, built by tables.signs

    @classmethod
    def trivial(cls, group, field):
        one = Scalar.one(field)
        n = group.rank
        return cls(group, field, tuple(tuple(one for _ in range(n)) for _ in range(n)))

    def __call__(self, a: GroupElement, b: GroupElement) -> Scalar:
        if a.group != self.group or b.group != self.group:
            raise InputError("bicharacter applied to elements of a different group")
        key = (a.coords, b.coords)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = Scalar.one(self.field)
        for i, ai in enumerate(a.coords):
            if not ai:
                continue
            for j, bj in enumerate(b.coords):
                if not bj:
                    continue
                value = value * self.matrix[i][j] ** (ai * bj)
        self._memo[key] = value
        return value

    def __eq__(self, other):
        if not isinstance(other, Bicharacter):
            return NotImplemented
        return (
            self.group == other.group
            and self.field == other.field
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"Bicharacter({self.group!r}, {self.matrix!r})"
