"""Exact scalars in cyclotomic extensions Q(zeta_N) of the rationals.

Order N = 1 gives plain rationals.  For N > 1 a scalar is a polynomial of
degree < phi(N) in the primitive N-th root of unity, reduced modulo the
N-th cyclotomic polynomial, with exact rational coefficients.  Equality of
scalars is literal equality of canonical forms, so identity checks over
these scalars are exact, never approximate.

A scalar is stored as integer numerators over one denominator, and all
its arithmetic, the inverse included, runs on the integer kernel
(``colorhom._core_py``).  ``Fraction`` appears only where the library API
takes or returns one: ``Scalar(field, coefficients)``, ``Scalar.rational``,
mixed arithmetic with a Fraction, and ``Scalar.coefficients``, which alone imports it.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import gcd, lcm

from ._backend import kernel as _K
from .errors import InputError, too_many_digits
from .record import Record, slot_setters

_FRACTION_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$", re.ASCII)


def _poly_divexact(num, den):
    # long division of integer polynomials; den is monic; remainder must vanish
    num = list(num)
    d = len(den) - 1
    out = [0] * (len(num) - d)
    for k in range(len(out) - 1, -1, -1):
        q = num[k + d]
        out[k] = q
        if q:
            for j in range(d + 1):
                num[k + j] -= q * den[j]
    assert not any(num), "inexact polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order):
    """Monic integer coefficients (ascending) of the order-th cyclotomic
    polynomial, computed by exact division of x**order - 1 by the product
    of the lower cyclotomic polynomials at proper divisors."""
    if order < 1:
        raise InputError("cyclotomic order must be a positive integer")
    if order == 1:
        return (-1, 1)
    num = [0] * (order + 1)
    num[0], num[order] = -1, 1
    for d in range(1, order):
        if order % d == 0:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    return tuple(num)


class FieldDescriptor(Record):
    """Carrier of everything per-field: the order N, the minimal polynomial
    of the root, its degree phi(N), and the integer reduction rows used by
    the multiplication kernel (row t reduces x**(degree+t))."""

    __slots__ = FIELDS = ("cyclotomic_order", "minimal_polynomial", "degree", "reduction")

    def __reduce__(self):  # a copy is the one field object of its order
        return cyclotomic_field, (self.cyclotomic_order,)

    def __repr__(self):
        return f"FieldDescriptor(Q(zeta_{self.cyclotomic_order}))"


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> FieldDescriptor:
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    rows = [tuple(-c for c in phi[:d])] if d > 1 else []
    for _ in range(d - 2):  # x**(d+t+1) = zeta * x**(d+t)
        rows.append(_K.times_zeta(rows[-1], rows))
    return FieldDescriptor(order, phi, d, tuple(rows))


def _ratios(field, pairs):
    """Canonical (nums, den) of the coefficients p/q given as at most
    field.degree (p, q) integer pairs, padded with zeros."""
    if len(pairs) > field.degree:
        raise InputError(
            f"expected at most {field.degree} coefficients, got {len(pairs)}"
        )
    den = lcm(*(q for _, q in pairs))
    nums = [p if q == den else p * (den // q) for p, q in pairs]
    nums += [0] * (field.degree - len(nums))
    return _K.normalize(nums, den)


def _coerce(field, value):
    if isinstance(value, Scalar):
        if value.field is not field and value.field != field:
            raise InputError(
                f"scalar field mismatch: {value.field!r} vs {field!r}"
            )
        return value
    if isinstance(value, int):
        return Scalar._make(field, (value,) + (0,) * (field.degree - 1), 1)
    fractions = sys.modules.get("fractions")  # a Fraction needs fractions imported
    if fractions is not None and isinstance(value, fractions.Fraction):
        return Scalar.rational(field, value)
    return None


class Scalar:
    """Immutable element of Q(zeta_N).

    Stored as integer numerators over one positive denominator; the pair
    is always in canonical reduced form so == and hash are structural.
    Not a Record, for speed: it keeps its own constructor, equality and
    hash, and takes only the record's refusal of writes and deletes.  Its
    three slots are written through their descriptors' ``__set__``
    (``record.slot_setters``).  ``+`` and ``*`` take a Scalar of the
    same field object as it is; any other operand goes through
    ``_coerce``, which refuses a Scalar of another field.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, coefficients):
        """Build from a sequence of ints / Fractions (length <= phi(N),
        coefficient k multiplying zeta**k)."""
        pairs = [(c.numerator, c.denominator) for c in coefficients]
        nums, den = _ratios(field, pairs)
        _set_field(self, field)
        _set_nums(self, nums)
        _set_den(self, den)

    # internal: trusted canonical data, skips re-normalization
    @classmethod
    def _make(cls, field, nums, den):
        self = object.__new__(cls)
        _set_field(self, field)
        _set_nums(self, nums)
        _set_den(self, den)
        return self

    __setattr__ = __delattr__ = Record.__setattr__

    def __reduce__(self):
        return Scalar._make, (self.field, self.nums, self.den)

    @classmethod
    def zero(cls, field):
        return cls._make(field, (0,) * field.degree, 1)

    @classmethod
    def one(cls, field):
        return cls._make(field, (1,) + (0,) * (field.degree - 1), 1)

    @classmethod
    def rational(cls, field, p, q=1):
        """p / q for ints or Fractions p and q."""
        try:
            pair = (p.numerator * q.denominator, p.denominator * q.numerator)
        except AttributeError:
            bad = type(q if hasattr(p, "numerator") else p).__name__
            raise InputError(f"a rational scalar takes ints or Fractions, not {bad}") from None
        if not pair[1]:
            raise InputError(f"a rational scalar takes a nonzero denominator, not {q}")
        return cls._make(field, *_ratios(field, [pair]))

    @classmethod
    def root(cls, field):
        """The primitive N-th root of unity as a field element."""
        d = field.degree
        if d >= 2:
            return cls._make(field, (0, 1) + (0,) * (d - 2), 1)
        # degree-1 fields: N == 1 has root 1, N == 2 has root -1
        return cls.rational(field, 1 if field.cyclotomic_order == 1 else -1)

    @property
    def coefficients(self):
        """Coefficients of zeta**0 .. zeta**(phi(N)-1) as Fractions in
        lowest terms with positive denominators."""
        from fractions import Fraction
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self):
        return not any(self.nums)

    def is_one(self):
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            other = _coerce(self.field, other)
            if other is None:
                return NotImplemented
        return (
            self.field == other.field
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.cyclotomic_order, self.nums, self.den))

    def __add__(self, other):
        if other.__class__ is not Scalar or other.field is not self.field:
            other = _coerce(self.field, other)
            if other is None:
                return NotImplemented
        return Scalar._make(
            self.field, *_K.add(self.nums, self.den, other.nums, other.den)
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return Scalar._make(
            self.field, *_K.sub(self.nums, self.den, other.nums, other.den)
        )

    def __rsub__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar._make(self.field, tuple(-n for n in self.nums), self.den)

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            other = _coerce(field, other)
            if other is None:
                return NotImplemented
        return Scalar._make(
            field, *_K.mul(self.nums, self.den, other.nums, other.den, field.reduction))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        field = self.field
        return Scalar._make(field, *_K.inverse(
            self.nums, self.den, field.cyclotomic_order, field.reduction))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Scalar.one(self.field)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        den = self.den
        if self.field.degree == 1:
            return _ratio_text(self.nums[0], den)
        parts = []
        for k, n in enumerate(self.nums):
            if not n:
                continue
            mag = _ratio_text(abs(n), den)
            if k == 0:
                term = mag
            else:
                zk = "z" if k == 1 else f"z^{k}"
                term = zk if mag == "1" else f"{mag}*{zk}"
            parts.append(("-" if n < 0 else "+", term))
        if not parts:
            return "0"
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


_set_field, _set_nums, _set_den = slot_setters(Scalar, *Scalar.__slots__)


def _ratio_text(n, den):
    """n/den in lowest terms as "p" or "p/q"; den > 0."""
    return _ratio_texts((n,), den)[0]


def _ratio_texts(nums, den):
    """[_ratio_text(n, den) for n in nums]: each n/den reduced on its own."""
    try:
        if den == 1:
            return [str(n) for n in nums]
        return [str(n // g) if (g := gcd(n, den)) == den else f"{n // g}/{den // g}"
                for n in nums]
    except ValueError:  # CPython's int-string limit
        raise too_many_digits("output coefficient") from None


def scalar_from_text(field, data) -> Scalar:
    """Parse the document form of a scalar: a single "p" / "p/q" string for
    N == 1, a list of phi(N) such strings for N > 1."""
    if field.cyclotomic_order == 1:
        if not isinstance(data, str):
            raise InputError(f"expected a rational string, got {data!r}")
        data = [data]
    else:
        if not isinstance(data, list) or len(data) != field.degree:
            raise InputError(
                f"expected a list of {field.degree} rational strings, got {data!r}"
            )
    pairs = []
    for item in data:
        m = _FRACTION_RE.fullmatch(item) if isinstance(item, str) else None
        if m is None:
            raise InputError(f"malformed rational {item!r} (expected 'p' or 'p/q')")
        p, q = m.groups()
        try:
            pairs.append((int(p), int(q) if q else 1))
        except ValueError:
            # only CPython's int-string limit gets past _FRACTION_RE
            raise too_many_digits(f"rational of {len(item)} characters") from None
    return Scalar._make(field, *_ratios(field, pairs))


def scalar_to_text(s: Scalar):
    """Document form: inverse of scalar_from_text."""
    if s.field.cyclotomic_order == 1:
        return _ratio_text(s.nums[0], s.den)
    return _ratio_texts(s.nums, s.den)
