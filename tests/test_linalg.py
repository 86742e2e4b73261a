"""Graded spaces, vectors, even maps, multilinear tables."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genutil import COEFF_POOL, FIELD, random_even_map, random_setup
from vector_laws import cyclic_sum
from colorhom import tables
from colorhom.errors import InputError
from colorhom.fixtures import fixture
from colorhom.grading import Bicharacter, GradingGroup, TRIVIAL_GROUP
from colorhom.linalg import (
    EvenMap,
    GradedSpace,
    MultilinearMap,
    Vector,
    check_evenness,
    commutator_map,
)
from colorhom.scalars import Scalar, cyclotomic_field

F1 = cyclotomic_field(1)


def trivial_space(n):
    return GradedSpace.build(F1, TRIVIAL_GROUP, [(f"e{i}", ()) for i in range(n)])


def super_space():
    g = GradingGroup(0, (2,))
    return GradedSpace.build(F1, g, [("e", (1,)), ("f", (0,))])


def test_space_validation():
    with pytest.raises(InputError):
        GradedSpace.build(F1, TRIVIAL_GROUP, [("a", ()), ("a", ())])
    with pytest.raises(InputError):
        GradedSpace.build(F1, TRIVIAL_GROUP, [("a", (1,))])
    g = GradingGroup(0, (2,))
    sp = GradedSpace.build(F1, g, [("a", (3,))])  # canonicalized mod 2
    assert sp.degree(0).coords == (1,)


def test_space_lookup():
    sp = trivial_space(3)
    assert sp.dim == 3
    assert sp.name(1) == "e1"
    assert sp.index("e2") == 2
    with pytest.raises(InputError):
        sp.index("nope")
    assert len(list(sp.tuples(2))) == 9
    assert sp.is_trivially_graded()
    assert not super_space().is_trivially_graded()


coeff = st.integers(-9, 9)


@settings(max_examples=50)
@given(st.lists(coeff, min_size=3, max_size=3), st.lists(coeff, min_size=3, max_size=3))
def test_vector_arithmetic_is_componentwise(a, b):
    sp = trivial_space(3)
    va = Vector(sp, {i: c for i, c in enumerate(a)})
    vb = Vector(sp, {i: c for i, c in enumerate(b)})
    s = va + vb
    for i in range(3):
        got = s.coeffs.get(i, Scalar.zero(F1))
        assert got == Scalar.rational(F1, a[i] + b[i])
    assert va - va == Vector.zero(sp)
    assert -va + va == Vector.zero(sp)
    assert va.scaled(Scalar.rational(F1, 2)) == va + va


def test_vector_zero_coefficients_dropped():
    sp = trivial_space(2)
    v = Vector(sp, {0: 1, 1: 0})
    assert set(v.coeffs) == {0}
    assert Vector(sp, {0: 0}).is_zero()
    assert not v.is_zero()
    assert bool(v)


def test_vector_rejects_foreign_space_and_bad_index():
    sp, other = trivial_space(2), trivial_space(3)
    with pytest.raises(InputError):
        Vector(sp, {5: 1})
    with pytest.raises(InputError):
        Vector(sp, {0: 1}) + Vector(other, {0: 1})


def test_scalar_of_another_field_refused():
    # leibniz-L2 is over Q: a Scalar of Q(i) put in it would be read as
    # two coordinates, z*e1 passing for e2 in tables and in documents
    sp = fixture("leibniz-L2").bundle.space
    i = Scalar.root(cyclotomic_field(4))
    with pytest.raises(InputError, match="scalar of"):
        Vector(sp, {0: i})
    with pytest.raises(InputError, match="scalar of"):
        EvenMap(sp, [[1, 0], [0, i]])
    with pytest.raises(InputError, match="scalar of"):
        EvenMap.diagonal(sp, [1, i])
    assert Vector(sp, {0: Scalar.one(sp.field)}) == Vector.basis(sp, 0)


def test_rmul_syntax():
    sp = trivial_space(2)
    v = Vector.basis(sp, 0)
    assert 3 * v == v + v + v
    assert Fraction(1, 2) * (v + v) == v


def frac_matrix(rows):
    return [[Fraction(c) for c in row] for row in rows]


def naive_matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


@settings(max_examples=40)
@given(
    st.lists(st.lists(coeff, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(coeff, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_compose_matches_matrix_product(ra, rb):
    sp = trivial_space(3)
    ma = EvenMap(sp, tuple(tuple(Scalar.rational(F1, c) for c in row) for row in ra))
    mb = EvenMap(sp, tuple(tuple(Scalar.rational(F1, c) for c in row) for row in rb))
    expected = naive_matmul(frac_matrix(ra), frac_matrix(rb))
    got = ma.compose(mb)
    for i in range(3):
        for j in range(3):
            assert got.rows[i][j] == Scalar.rational(F1, expected[i][j])


def test_power_and_identity():
    sp = trivial_space(2)
    m = EvenMap.diagonal(sp, [2, 3])
    assert m.power(0) == EvenMap.identity(sp)
    assert m.power(3) == EvenMap.diagonal(sp, [8, 27])
    assert EvenMap.identity(sp).is_identity()
    assert not m.is_identity()
    with pytest.raises(InputError):
        m.power(-1)


def test_from_images_round_trip():
    sp = trivial_space(3)
    images = [
        Vector(sp, {0: 1, 2: 5}),
        Vector(sp, {1: Fraction(1, 3)}),
        Vector.zero(sp),
    ]
    m = EvenMap.from_images(sp, images)
    for j, img in enumerate(images):
        assert m.on_basis(j) == img
    assert m(Vector(sp, {0: 2, 1: 3})) == images[0].scaled(
        Scalar.rational(F1, 2)
    ) + images[1].scaled(Scalar.rational(F1, 3))
    for bad in (images[:2], images[:2] + [Vector.zero(trivial_space(2))]):
        with pytest.raises(InputError, match="images"):
            EvenMap.from_images(sp, bad)


def test_even_map_evenness_detection():
    sp = super_space()
    ok = EvenMap.diagonal(sp, [2, 3])
    assert check_evenness(ok).passed
    swap = EvenMap(
        sp,
        (
            (Scalar.zero(F1), Scalar.one(F1)),
            (Scalar.one(F1), Scalar.zero(F1)),
        ),
    )
    rep = check_evenness(swap)
    assert not rep.passed
    assert rep.identity_id == "evenness"
    assert len(rep.violations) == 2


def test_even_map_is_the_unary_multilinear_map():
    """A twist map is the arity-1 MultilinearMap whose value at e_j is
    column j: evaluation, f.compose(g) (f after g) and powers equal matrix
    arithmetic, and it compiles to the table of the same map built as a
    MultilinearMap."""
    rng = random.Random(20)
    zeta = Scalar.root(FIELD)
    noncommuting = 0
    for _ in range(40):
        space, _ = random_setup(rng, max_dim=5)
        n, zero = space.dim, Scalar.zero(FIELD)
        f, g = random_even_map(rng, space), random_even_map(rng, space)
        assert isinstance(f, MultilinearMap) and f.arity == 1
        assert f.spaces == (space,) and f.codomain == space

        def matmul(a, b):
            return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), zero)
                               for j in range(n)) for i in range(n))

        v = Vector(space, {j: Scalar.rational(FIELD, rng.choice(COEFF_POOL)) * zeta ** j
                           for j in range(n) if rng.random() < 0.7})
        assert f(v) == Vector(space, {i: sum((f.rows[i][j] * c for j, c in v.coeffs.items()),
                                             zero) for i in range(n)})
        fg, f3 = f.compose(g), f.power(3)
        assert fg.rows == matmul(f.rows, g.rows)
        assert f3.rows == matmul(f.rows, matmul(f.rows, f.rows))
        noncommuting += fg.rows != matmul(g.rows, f.rows)
        for m in (f, fg, f3):
            columns = {(j,): Vector(space, {i: m.rows[i][j] for i in range(n)})
                       for j in range(n)}
            assert tables.table(m) == tables.table(MultilinearMap((space,), space, columns))
    assert noncommuting > 5


def test_multilinear_map_validation_and_evaluation():
    sp = trivial_space(2)
    table = {(0, 1): Vector.basis(sp, 0), (1, 0): Vector.basis(sp, 1)}
    m = MultilinearMap.internal(sp, 2, table)
    assert m.arity == 2
    assert m.on_basis(0, 1) == Vector.basis(sp, 0)
    assert m.on_basis(1, 1).is_zero()
    with pytest.raises(InputError):
        MultilinearMap.internal(sp, 2, {(0, 5): Vector.basis(sp, 0)})
    with pytest.raises(InputError):
        MultilinearMap.internal(sp, 2, {(0,): Vector.basis(sp, 0)})


@settings(max_examples=40)
@given(coeff, coeff, coeff, coeff)
def test_multilinearity(a, b, c, d):
    sp = trivial_space(2)
    table = {
        (0, 0): Vector(sp, {0: 2}),
        (0, 1): Vector(sp, {1: -1}),
        (1, 1): Vector(sp, {0: 1, 1: 3}),
    }
    m = MultilinearMap.internal(sp, 2, table)
    e0, e1 = Vector.basis(sp, 0), Vector.basis(sp, 1)
    v = e0.scaled(Scalar.rational(F1, a)) + e1.scaled(Scalar.rational(F1, b))
    w = e0.scaled(Scalar.rational(F1, c)) + e1.scaled(Scalar.rational(F1, d))
    expanded = (
        m(e0, e0).scaled(Scalar.rational(F1, a * c))
        + m(e0, e1).scaled(Scalar.rational(F1, a * d))
        + m(e1, e0).scaled(Scalar.rational(F1, b * c))
        + m(e1, e1).scaled(Scalar.rational(F1, b * d))
    )
    assert m(v, w) == expanded


def test_multilinear_evenness_detection():
    sp = super_space()
    # product of two odd vectors must be even; sending (e,e) to e is odd
    bad = MultilinearMap.internal(sp, 2, {(0, 0): Vector.basis(sp, 0)})
    rep = check_evenness(bad)
    assert not rep.passed
    good = MultilinearMap.internal(sp, 2, {(0, 0): Vector.basis(sp, 1)})
    assert check_evenness(good).passed
    with pytest.raises(InputError, match="cannot check evenness of Vector"):
        check_evenness(Vector.basis(sp, 1))


def test_commutator_map_trivial_grading():
    sp = trivial_space(2)
    eps = Bicharacter.trivial(TRIVIAL_GROUP, F1)
    prod = MultilinearMap.internal(
        sp, 2, {(0, 1): Vector.basis(sp, 0), (1, 0): Vector.basis(sp, 1)}
    )
    br = commutator_map(prod, eps)
    assert br.on_basis(0, 1) == Vector(sp, {0: 1, 1: -1})
    assert br.on_basis(1, 0) == Vector(sp, {0: -1, 1: 1})
    assert br.on_basis(0, 0).is_zero()


def test_commutator_map_super_sign():
    sp = super_space()
    g = sp.group
    eps = Bicharacter(g, F1, ((Scalar.rational(F1, -1),),))
    # product (e,e) -> f; the color commutator adds, not cancels, on (e,e)
    prod = MultilinearMap.internal(sp, 2, {(0, 0): Vector.basis(sp, 1)})
    br = commutator_map(prod, eps)
    assert br.on_basis(0, 0) == Vector(sp, {1: 2})


def test_cyclic_sum():
    collected = []
    sp = trivial_space(1)

    def expr(x, y, z):
        collected.append((x, y, z))
        return Vector.basis(sp, 0)

    total = cyclic_sum(expr, 1, 2, 3)
    assert collected == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert total == Vector(sp, {0: 3})
