"""The scalar kernel's canonical-form contract, checked against the
polynomial oracle in ``tests/oracles.py``."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colorhom._backend import kernel
from colorhom.scalars import cyclotomic_field


FIELDS = [cyclotomic_field(n) for n in (1, 2, 3, 4, 8, 12)]

ints = st.integers(min_value=-50, max_value=50)
dens = st.integers(min_value=1, max_value=40)


def vec_strategy(width):
    return st.tuples(
        st.lists(ints, min_size=width, max_size=width).map(tuple), dens
    )


@pytest.mark.parametrize("backend", [pytest.param(kernel, id="python")])
def test_normalize_contract(backend):
    assert backend.normalize([2, 4], 6) == ((1, 2), 3)
    assert backend.normalize([-2, 4], -6) == ((1, -2), 3)
    assert backend.normalize([0, 0], 7) == ((0, 0), 1)
    assert backend.normalize([3], 1) == ((3,), 1)
    with pytest.raises(ZeroDivisionError):
        backend.normalize([1], 0)


@settings(max_examples=120)
@given(st.data())
def test_mul_against_polynomial_oracle(data):
    from oracles import FieldOracle

    field = data.draw(st.sampled_from(FIELDS))
    width = field.degree
    a_nums, a_den = data.draw(vec_strategy(width))
    b_nums, b_den = data.draw(vec_strategy(width))
    nums, den = kernel.mul(a_nums, a_den, b_nums, b_den, field.reduction)
    O = FieldOracle(list(field.minimal_polynomial))
    want = O.mul(
        [Fraction(n, a_den) for n in a_nums], [Fraction(n, b_den) for n in b_nums]
    )
    assert [Fraction(n, den) for n in nums] == want


@settings(max_examples=150)
@given(st.data())
def test_results_always_canonical(data):
    from math import gcd

    field = data.draw(st.sampled_from(FIELDS))
    width = field.degree
    a_nums, a_den = data.draw(vec_strategy(width))
    b_nums, b_den = data.draw(vec_strategy(width))
    for nums, den in (
        kernel.add(a_nums, a_den, b_nums, b_den),
        kernel.sub(a_nums, a_den, b_nums, b_den),
        kernel.mul(a_nums, a_den, b_nums, b_den, field.reduction),
    ):
        assert den > 0
        g = den
        for n in nums:
            g = gcd(g, n)
        assert g == 1 or all(n == 0 for n in nums) and den == 1


def factor(width, rational):
    """A (nums, den) pair of the given width; a rational one has no zeta
    part, and a general one has a nonzero numerator past the first."""
    if rational:
        return st.tuples(ints.map(lambda p: (p,) + (0,) * (width - 1)), dens)
    return vec_strategy(width).filter(lambda v: any(v[0][1:]))


# (order, which factors are rational); over Q and Q(zeta_2) both always are
RATIONAL_CASES = [(1, (True, True)), (2, (True, True))] + [
    (order, rational) for order in (4, 12, 15)
    for rational in ((False, False), (True, False), (False, True), (True, True))]


@pytest.mark.parametrize("order, rational", RATIONAL_CASES)
@settings(max_examples=40)
@given(st.data())
def test_mul_scales_by_a_rational_factor_as_product_does(order, rational, data):
    """mul takes a shortcut when a factor is rational; its value is still
    the canonical form of ``product``'s."""
    field = cyclotomic_field(order)
    width = field.degree
    a_nums, a_den = data.draw(factor(width, rational[0]))
    b_nums, b_den = data.draw(factor(width, rational[1]))
    want = kernel.normalize(kernel.product(a_nums, b_nums, field.reduction), a_den * b_den)
    assert kernel.mul(a_nums, a_den, b_nums, b_den, field.reduction) == want


def test_big_integer_territory():
    # far past any fixed-width integer: mul must stay exact
    from oracles import FieldOracle

    F = cyclotomic_field(4)
    a = ((10**40, -(3**50)), 7)
    b = ((-(2**64), 5**30), 11)
    nums, den = kernel.mul(*a, *b, F.reduction)
    want = FieldOracle(list(F.minimal_polynomial)).mul(
        [Fraction(n, a[1]) for n in a[0]], [Fraction(n, b[1]) for n in b[0]]
    )
    assert [Fraction(n, den) for n in nums] == want
    assert abs(nums[0]) > 10**50


def _fractions(nums):
    return [Fraction(n) for n in nums]


@settings(max_examples=120)
@given(st.data())
def test_product_and_times_zeta_against_polynomial_oracle(data):
    from oracles import FieldOracle

    field = data.draw(st.sampled_from(FIELDS))
    width = field.degree
    a = data.draw(st.lists(ints, min_size=width, max_size=width).map(tuple))
    b = data.draw(st.lists(ints, min_size=width, max_size=width).map(tuple))
    O = FieldOracle(list(field.minimal_polynomial))
    got = kernel.product(a, b, field.reduction)
    assert isinstance(got, tuple)
    assert _fractions(got) == O.mul(_fractions(a), _fractions(b))
    if width >= 2:
        zeta = [0, 1] + [0] * (width - 2)
        assert _fractions(kernel.times_zeta(a, field.reduction)) == O.mul(
            _fractions(zeta), _fractions(a)
        )


@settings(max_examples=120)
@given(st.data())
def test_inverse_is_canonical_and_inverts(data):
    from math import gcd

    field = data.draw(st.sampled_from(FIELDS))
    nums, den = data.draw(vec_strategy(field.degree))
    assume(any(nums))
    inv_nums, inv_den = kernel.inverse(
        nums, den, field.cyclotomic_order, field.reduction
    )
    assert inv_den > 0
    g = inv_den
    for n in inv_nums:
        g = gcd(g, n)
    assert g == 1
    one = (1,) + (0,) * (field.degree - 1)
    assert kernel.mul(nums, den, inv_nums, inv_den, field.reduction) == (one, 1)
