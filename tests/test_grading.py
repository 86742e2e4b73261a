"""Grading groups and bicharacter validation.

The sign rules are exhaustively checkable on small torsion groups, so
these tests enumerate rather than sample wherever possible.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorhom.errors import InputError
from colorhom.grading import (
    Bicharacter,
    GradingGroup,
    TRIVIAL_GROUP,
    validate_bicharacter,
)
from colorhom.scalars import Scalar, cyclotomic_field


def rat(field, v):
    return Scalar.rational(field, v)


def matrix(field, rows):
    return tuple(tuple(rat(field, v) for v in row) for row in rows)


def test_group_element_arithmetic():
    g = GradingGroup(1, (2, 3))
    a = g.element((5, 1, 2))
    b = g.element((-2, 1, 2))
    assert (a + b).coords == (3, 0, 1)
    assert (a - b).coords == (7, 0, 0)
    assert (-a).coords == (-5, 1, 1)
    assert g.zero().is_zero()
    assert not a.is_zero()


def test_group_validation():
    with pytest.raises(InputError):
        GradingGroup(-1, ())
    with pytest.raises(InputError):
        GradingGroup("a", ())
    with pytest.raises(InputError):
        GradingGroup(0, (0,))
    with pytest.raises(InputError):
        GradingGroup(0, (2, -3))
    g = GradingGroup(2, (4,))
    assert g.rank == 3
    with pytest.raises(InputError):
        g.element((1, 2))  # wrong length


def test_torsion_enumeration():
    g = GradingGroup(0, (2, 3))
    elems = list(g.elements())
    assert len(elems) == 6
    assert len(set(e.coords for e in elems)) == 6
    with pytest.raises(InputError):
        list(GradingGroup(1, ()).elements())


def test_trivial_group_bicharacter():
    field = cyclotomic_field(1)
    eps = Bicharacter.trivial(TRIVIAL_GROUP, field)
    assert eps(TRIVIAL_GROUP.zero(), TRIVIAL_GROUP.zero()).is_one()


def test_super_sign_on_z2():
    field = cyclotomic_field(1)
    g = GradingGroup(0, (2,))
    eps = Bicharacter(g, field, matrix(field, [[-1]]))
    odd, even = g.element((1,)), g.element((0,))
    assert eps(odd, odd) == rat(field, -1)
    assert eps(odd, even).is_one()
    assert eps(even, even).is_one()


def test_free_rank_one_diagonal_must_square_to_one():
    # a single free generator g: skew-symmetry at (g, g) forces the lone
    # matrix entry q to satisfy q^2 = 1, so no rational q besides +-1 works
    field = cyclotomic_field(1)
    g = GradingGroup(1, ())
    ok = validate_bicharacter(matrix(field, [[-1]]), g, field)
    assert ok.passed
    bad = validate_bicharacter(matrix(field, [[Fraction(3, 2)]]), g, field)
    assert not bad.passed
    assert any("square" in v.note or "skew" in v.note for v in bad.violations)
    with pytest.raises(InputError):
        Bicharacter(g, field, matrix(field, [[2]]))


def test_free_rank_two_off_diagonal_reciprocal():
    field = cyclotomic_field(1)
    g = GradingGroup(2, ())
    good = matrix(field, [[1, 2], [Fraction(1, 2), 1]])
    assert validate_bicharacter(good, g, field).passed
    eps = Bicharacter(g, field, good)
    a, b = g.element((1, 0)), g.element((0, 1))
    assert eps(a, b) == rat(field, 2)
    assert eps(b, a) == rat(field, Fraction(1, 2))
    # biadditivity: eps(2a+3b, a+b) = q^2 * q^-3 = 1/2
    assert eps(g.element((2, 3)), g.element((1, 1))) == rat(field, Fraction(1, 2))
    bad = matrix(field, [[1, 2], [3, 1]])
    assert not validate_bicharacter(bad, g, field).passed


def test_torsion_entry_order():
    # entries touching a Z_m generator must be m-th roots of unity
    field = cyclotomic_field(1)
    g = GradingGroup(0, (2, 2))
    bad = matrix(field, [[1, 2], [Fraction(1, 2), 1]])
    rep = validate_bicharacter(bad, g, field)
    assert not rep.passed
    assert any("torsion" in v.note for v in rep.violations)
    # the same reciprocal pair is fine once both generators are free
    free = GradingGroup(2, ())
    assert validate_bicharacter(bad, free, field).passed


def test_zero_entry_rejected():
    field = cyclotomic_field(1)
    g = GradingGroup(1, ())
    rep = validate_bicharacter(matrix(field, [[0]]), g, field)
    assert not rep.passed


def test_shape_mismatch_reported():
    field = cyclotomic_field(1)
    g = GradingGroup(0, (2, 2))
    rep = validate_bicharacter(matrix(field, [[1]]), g, field)
    assert not rep.passed


def _exhaustive_skew(eps, group):
    for a in group.elements():
        for b in group.elements():
            assert (eps(a, b) * eps(b, a)).is_one()


def test_exhaustive_z2():
    field = cyclotomic_field(1)
    g = GradingGroup(0, (2,))
    for q in (1, -1):
        m = matrix(field, [[q]])
        assert validate_bicharacter(m, g, field).passed
        _exhaustive_skew(Bicharacter(g, field, m), g)
    # any rational entry besides +-1 fails (order or skew)
    for q in (2, Fraction(1, 2), -3):
        assert not validate_bicharacter(matrix(field, [[q]]), g, field).passed


def test_exhaustive_z3_only_trivial():
    # on Z_3 the diagonal must satisfy q^2 = 1 and q^3 = 1, hence q = 1
    field = cyclotomic_field(6)
    g = GradingGroup(0, (3,))
    one = Scalar.one(field)
    zeta6 = Scalar.root(field)
    candidates = [one, -one, zeta6, zeta6 ** 2, zeta6 ** 4]
    passing = [
        q for q in candidates if validate_bicharacter(((q,),), g, field).passed
    ]
    assert passing == [one]
    _exhaustive_skew(Bicharacter(g, field, ((one,),)), g)


def test_exhaustive_z2xz2_sign_matrices():
    # every +-1 matrix with reciprocal (= equal) off-diagonal entries is a
    # bicharacter on Z_2 x Z_2; count them and spot-check values
    field = cyclotomic_field(1)
    g = GradingGroup(0, (2, 2))
    signs = (1, -1)
    passing = []
    for d1, d2, q, p in itertools.product(signs, repeat=4):
        m = matrix(field, [[d1, q], [p, 1 * d2]])
        if validate_bicharacter(m, g, field).passed:
            passing.append((d1, d2, q, p))
            _exhaustive_skew(Bicharacter(g, field, m), g)
    # off-diagonal pair must satisfy q * p = 1, i.e. p = q: 2*2*2 choices
    assert len(passing) == 8
    assert all(q == p for (_, _, q, p) in passing)


def test_fourth_root_on_z4_pair():
    # Z_4 x Z_4 admits a genuinely complex sign: eps(g1,g2) = i
    field = cyclotomic_field(4)
    i = Scalar.root(field)
    one = Scalar.one(field)
    g = GradingGroup(0, (4, 4))
    m = ((one, i), (i.inverse(), one))
    assert validate_bicharacter(m, g, field).passed
    eps = Bicharacter(g, field, m)
    a, b = g.element((1, 0)), g.element((0, 1))
    assert eps(a, b) == i
    assert eps(b, a) == i ** 3
    _exhaustive_skew(eps, g)


def _skew_and_biadditive(eps, a, b):
    assert (eps(a, b) * eps(b, a)).is_one()
    assert (eps(a, a) ** 2).is_one()
    # biadditivity in the first slot
    assert eps(a + b, a) == eps(a, a) * eps(b, a)


@settings(max_examples=50)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 1)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 1)),
)
def test_skew_property_random_elements(ca, cb):
    # Z x Z x Z_2: a real reciprocal pair on the free part, signs on torsion
    field = cyclotomic_field(1)
    g = GradingGroup(2, (2,))
    m = matrix(field, [[1, 2, -1], [Fraction(1, 2), 1, 1], [-1, 1, -1]])
    rep = validate_bicharacter(m, g, field)
    assert rep.passed
    eps = Bicharacter(g, field, m)
    _skew_and_biadditive(eps, g.element(ca), g.element(cb))


@settings(max_examples=50)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
)
def test_skew_property_random_elements_zeta12(ca, cb):
    # Z x Z over Q(zeta_12): eps(g1,g2) = zeta, eps(g2,g1) = zeta^-1, so a
    # negative exponent inverts a degree-4 scalar
    field = cyclotomic_field(12)
    z, one = Scalar.root(field), Scalar.one(field)
    g = GradingGroup(2, ())
    m = ((one, z), (z.inverse(), one))
    assert validate_bicharacter(m, g, field).passed
    eps = Bicharacter(g, field, m)
    a, b = g.element(ca), g.element(cb)
    assert eps(a, b) == z ** (ca[0] * cb[1] - ca[1] * cb[0])
    _skew_and_biadditive(eps, a, b)


def test_bicharacter_group_field_mismatch():
    field = cyclotomic_field(1)
    g = GradingGroup(0, (2,))
    eps = Bicharacter(g, field, matrix(field, [[-1]]))
    other = GradingGroup(0, (3,))
    with pytest.raises(InputError):
        eps(other.element((1,)), g.element((1,)))
