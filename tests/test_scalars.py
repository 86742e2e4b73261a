"""Exact cyclotomic scalar arithmetic against independent oracles."""

import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from colorhom.errors import InputError
from colorhom.scalars import (
    Scalar,
    cyclotomic_field,
    cyclotomic_polynomial,
    scalar_from_text,
    scalar_to_text,
)
from oracles import FieldOracle, poly_invmod

ORDERS = [1, 2, 3, 4, 5, 6, 8, 12]


def oracle_field(order):
    poly = sympy.polys.specialpolys.cyclotomic_poly(order, sympy.Symbol("x"))
    coeffs = list(reversed(sympy.Poly(poly, sympy.Symbol("x")).all_coeffs()))
    return FieldOracle([Fraction(int(c)) for c in coeffs])


@pytest.mark.parametrize("order", range(1, 31))
def test_cyclotomic_polynomial_matches_sympy(order):
    x = sympy.Symbol("x")
    expected = sympy.Poly(
        sympy.polys.specialpolys.cyclotomic_poly(order, x), x
    ).all_coeffs()
    got = list(reversed(cyclotomic_polynomial(order)))
    assert got == [int(c) for c in expected]


def test_field_descriptor_shape():
    f = cyclotomic_field(12)
    assert f.degree == 4
    assert f.minimal_polynomial == (1, 0, -1, 0, 1)  # 1 - x^2 + x^4
    f1 = cyclotomic_field(1)
    assert f1.degree == 1
    assert cyclotomic_field(12) is f  # cached


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def scalars(order):
    field = cyclotomic_field(order)
    return st.lists(rationals, min_size=field.degree, max_size=field.degree).map(
        lambda cs: Scalar(field, cs)
    )


@settings(max_examples=60)
@given(st.sampled_from(ORDERS), st.data())
def test_mul_matches_polynomial_oracle(order, data):
    a = data.draw(scalars(order))
    b = data.draw(scalars(order))
    oracle = oracle_field(order)
    expected = oracle.mul(
        oracle.widen(a.coefficients), oracle.widen(b.coefficients)
    )
    assert list((a * b).coefficients) == expected


@settings(max_examples=60)
@given(st.sampled_from(ORDERS), st.data())
def test_field_axioms(order, data):
    a = data.draw(scalars(order))
    b = data.draw(scalars(order))
    c = data.draw(scalars(order))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Scalar.zero(a.field)
    assert a + Scalar.zero(a.field) == a
    assert a * Scalar.one(a.field) == a


# the degree-6 and degree-8 fields besides ORDERS, where a conjugate
# product and Euclid's algorithm differ most
INVERSE_ORDERS = ORDERS + [7, 9, 15, 16, 20, 24, 30]
huge = st.builds(
    lambda sign, n, q: Fraction(sign * n, q),
    st.sampled_from([1, -1]), st.integers(10**40, 10**45), st.integers(1, 12),
)


@settings(max_examples=120)
@given(st.sampled_from(INVERSE_ORDERS), st.data())
def test_inverse(order, data):
    field = cyclotomic_field(order)
    if data.draw(st.booleans()):
        a = data.draw(scalars(order))
    else:  # coefficients above 10**40
        a = Scalar(field, data.draw(
            st.lists(huge, min_size=field.degree, max_size=field.degree)))
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == Scalar.one(a.field)
    oracle = oracle_field(order)
    expected = poly_invmod(
        [Fraction(c) for c in a.coefficients], oracle.minpoly
    )
    assert list(a.inverse().coefficients) == oracle.widen(expected)


@pytest.mark.parametrize("order", ORDERS)
def test_root_of_unity_is_primitive(order):
    field = cyclotomic_field(order)
    z = Scalar.root(field)
    assert z ** order == Scalar.one(field)
    for k in range(1, order):
        assert z ** k != Scalar.one(field)


def test_root_small_orders():
    assert Scalar.root(cyclotomic_field(1)).is_one()
    minus = Scalar.root(cyclotomic_field(2))
    assert minus == Scalar.rational(cyclotomic_field(2), -1)
    i = Scalar.root(cyclotomic_field(4))
    assert i * i == Scalar.rational(cyclotomic_field(4), -1)


def test_pow_negative_and_zero():
    field = cyclotomic_field(8)
    z = Scalar.root(field)
    assert z ** 0 == Scalar.one(field)
    assert z ** -3 == (z ** 3).inverse()
    two = Scalar.rational(field, 2)
    assert two ** -1 == Scalar.rational(field, Fraction(1, 2))


def test_rational_arithmetic_is_fraction_arithmetic():
    field = cyclotomic_field(1)
    a = Scalar.rational(field, Fraction(1, 2))
    b = Scalar.rational(field, Fraction(1, 3))
    assert (a + b).coefficients == (Fraction(5, 6),)
    assert (a * b).coefficients == (Fraction(1, 6),)
    assert (a / b).coefficients == (Fraction(3, 2),)


@pytest.mark.parametrize("p, q, name", [
    (0.5, 1, "float"), ("1/2", 1, "str"), (None, 1, "NoneType"), (1, 2.0, "float"),
    (1, 0, "0"), (1, Fraction(0), "0"),
])
def test_rational_refuses_what_is_not_an_int_or_fraction(p, q, name):
    with pytest.raises(InputError, match=f"not {name}$"):
        Scalar.rational(cyclotomic_field(4), p, q)


def test_mixed_int_and_fraction_operands():
    field = cyclotomic_field(3)
    z = Scalar.root(field)
    assert 2 * z == z + z
    assert z - 1 == z + (-1)
    assert (z + 1) * Fraction(1, 2) == (z + 1) / 2


def test_cross_field_operations_rejected():
    a = Scalar.one(cyclotomic_field(3))
    b = Scalar.one(cyclotomic_field(4))
    with pytest.raises(InputError):
        a + b


def test_no_shortcut_for_a_scalar_of_another_field():
    """A Scalar of another field never takes the same-field shortcut of
    ``+`` and ``*``: it is refused from either side, and equality says no."""
    a = Scalar.one(cyclotomic_field(3))
    b = Scalar.one(cyclotomic_field(4))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for x, y in ((a, b), (b, a), (Scalar.root(a.field), Scalar.root(b.field))):
            with pytest.raises(InputError):
                op(x, y)
    assert a != b and not a == b
    assert Scalar.one(cyclotomic_field(1)) != Scalar.one(cyclotomic_field(2))


@settings(max_examples=60)
@given(st.sampled_from(ORDERS), st.data())
def test_text_round_trip(order, data):
    a = data.draw(scalars(order))
    assert scalar_from_text(a.field, scalar_to_text(a)) == a


def test_text_format_shapes():
    f1 = cyclotomic_field(1)
    assert scalar_to_text(Scalar.rational(f1, Fraction(-3, 4))) == "-3/4"
    assert scalar_to_text(Scalar.rational(f1, 5)) == "5"
    f4 = cyclotomic_field(4)
    assert scalar_to_text(Scalar.root(f4)) == ["0", "1"]


@pytest.mark.parametrize(
    "bad",
    ["1.5", "1/0", "", "--2", "2/-3", "a", "1/", " 1", "1\n", "0x2"],
)
def test_text_rejects_malformed(bad):
    with pytest.raises(InputError):
        scalar_from_text(cyclotomic_field(1), bad)


def test_text_rejects_wrong_shape_for_field():
    with pytest.raises(InputError):
        scalar_from_text(cyclotomic_field(4), "1")  # needs a 2-list
    with pytest.raises(InputError):
        scalar_from_text(cyclotomic_field(4), ["1"])
    with pytest.raises(InputError):
        scalar_from_text(cyclotomic_field(1), ["1"])  # needs a bare string


def test_scalar_is_immutable_and_hashable():
    field = cyclotomic_field(4)
    z = Scalar.root(field)
    with pytest.raises(AttributeError):
        z.nums = (9, 9)
    with pytest.raises(AttributeError):
        del z.nums
    assert len({z, z ** 1, z ** 5}) == 1  # z^5 = z


def test_zeta12_identity():
    # zeta_12^2 is a primitive 6th root: zeta_12^2 - zeta_12^... check
    # the defining relation z^4 = z^2 - 1 in Q(zeta_12)
    field = cyclotomic_field(12)
    z = Scalar.root(field)
    assert z ** 4 == z ** 2 - 1
    assert z ** 6 == Scalar.rational(field, -1)


# ---------------------------------------------------------------------------
# the integer parser and writer against the Fraction-based path they replaced

TEXT_FIELDS = [cyclotomic_field(1), cyclotomic_field(4), cyclotomic_field(12)]


def fraction_text(f):
    """The writer's former form: str of the Fraction's parts."""
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fraction_str(s):
    """Scalar.__str__ as it was, built from Scalar.coefficients."""
    if s.field.degree == 1:
        return fraction_text(s.coefficients[0])
    parts = []
    for k, c in enumerate(s.coefficients):
        if c == 0:
            continue
        mag = fraction_text(abs(c))
        if k == 0:
            term = mag
        else:
            zk = "z" if k == 1 else f"z^{k}"
            term = zk if mag == "1" else f"{mag}*{zk}"
        parts.append(("-" if c < 0 else "+", term))
    if not parts:
        return "0"
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


# integers up to the 4300-digit int-string limit, small ones most often
magnitudes = st.one_of(
    st.integers(0, 12),
    st.integers(0, 10**30),
    st.integers(10**4290, 10**4300 - 1),
)
coefficient_texts = st.one_of(
    st.sampled_from(["0", "-0", "+0", "0/7", "-0/3", "+5", "6/4", "-10/15", "007/10"]),
    st.builds(
        lambda sign, p, q: f"{sign}{p}" + (f"/{q}" if q else ""),
        st.sampled_from(["", "+", "-"]),
        magnitudes,
        st.one_of(st.none(), st.integers(1, 360), magnitudes.filter(bool)),
    ),
)


def coefficient_lists(field):
    n = field.degree
    return st.one_of(
        st.lists(coefficient_texts, min_size=n, max_size=n),
        st.lists(st.sampled_from(["0", "-0", "0/7"]), min_size=n, max_size=n),
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TEXT_FIELDS), st.data())
def test_text_parser_and_writer_match_fraction_path(field, data):
    texts = data.draw(coefficient_lists(field))
    doc = texts[0] if field.cyclotomic_order == 1 else texts
    s = scalar_from_text(field, doc)
    reference = Scalar(field, [Fraction(t) for t in texts])
    assert s == reference
    assert (s.nums, s.den) == (reference.nums, reference.den)
    written = scalar_to_text(s)
    expected = [fraction_text(Fraction(t)) for t in texts]
    assert written == (expected[0] if field.cyclotomic_order == 1 else expected)
    assert str(s) == fraction_str(reference)
    assert scalar_from_text(field, written) == s


def test_text_writer_refuses_coefficients_past_the_digit_limit():
    f1 = cyclotomic_field(1)
    huge = Scalar.rational(f1, 10**5000)
    with pytest.raises(InputError, match="digits"):
        scalar_to_text(huge)
    with pytest.raises(InputError, match="digits"):
        str(huge)
