"""Construction behaviors frozen to exact output tables, refusal paths,
and iterated-twist algebra."""

import inspect
from fractions import Fraction

import pytest

import genutil as G
from colorhom import checkers, constructions
from colorhom.bundles import LeibnizBundle, NHLPBundle
from colorhom.checkers import (
    check_akivis_identity,
    check_color_leibniz,
    check_module,
    check_nhlp,
)
from colorhom.constructions import (
    akivis_from_algebra,
    leibniz_from_dialgebra,
    nhlp_opposite,
    nhlp_scaled,
    tensor_square_nhlp,
    trivial_extension,
    twist_akivis,
    twist_leibniz,
    twist_module,
    twist_nhlp,
)
from colorhom.errors import ConstructionError, InputError
from colorhom.fixtures import fixture
from colorhom.grading import Bicharacter, TRIVIAL_GROUP
from colorhom.linalg import EvenMap, GradedSpace, MultilinearMap, Vector
from colorhom.scalars import Scalar, cyclotomic_field


def table_of(m):
    return {k: {i: str(c) for i, c in v.coeffs.items()} for k, v in m.table.items()}


@pytest.fixture(scope="module")
def L2():
    return fixture("leibniz-L2").bundle


# ---------------------------------------------------------------------------
# commutator / twisted-associator build


def test_akivis_from_NA2_exact_tables():
    b = fixture("nonassoc-NA2").bundle
    ak = akivis_from_algebra(b)
    assert table_of(ak.bracket) == {
        (0, 1): {0: "1", 1: "-1"},
        (1, 0): {0: "-1", 1: "1"},
    }
    assert table_of(ak.ternary) == {
        (0, 1, 0): {0: "-1"},
        (0, 1, 1): {0: "1"},
        (1, 0, 0): {1: "1"},
        (1, 0, 1): {1: "-1"},
    }
    assert ak.twist == b.twist
    assert check_akivis_identity(ak).passed


# ---------------------------------------------------------------------------
# twists


def test_twist_leibniz_power_and_iteration(L2):
    beta = EvenMap.diagonal(L2.space, [4, 2])
    once = twist_leibniz(L2, beta, 1)
    assert table_of(once.bracket) == {(1, 1): {0: "4"}}
    assert once.twist == beta  # old twist was the identity

    twice_iterated = twist_leibniz(once, beta, 1)
    twice_single = twist_leibniz(L2, beta, 2)
    assert twice_iterated == twice_single
    assert table_of(twice_single.bracket) == {(1, 1): {0: "16"}}

    unchanged = twist_leibniz(L2, beta, 0)
    assert unchanged == L2


def test_twist_leibniz_rejects_non_endomorphism(L2):
    beta = EvenMap.diagonal(L2.space, [1, 3])  # beta[e2,e2]=e1 but 9e1 needed
    with pytest.raises(ConstructionError):
        twist_leibniz(L2, beta, 1)


def test_twist_leibniz_rejects_negative_power(L2):
    with pytest.raises(InputError):
        twist_leibniz(L2, EvenMap.identity(L2.space), -1)


def test_twist_akivis_square_exact():
    doc = fixture("akivis-A")
    ak, beta = doc.bundle, doc.extra_maps["beta"]
    out = twist_akivis(ak, beta, 2)
    assert table_of(out.bracket) == {(0, 1): {1: "9"}, (1, 0): {1: "-9"}}
    assert out.twist == EvenMap.diagonal(ak.space, [1, 9])
    assert twist_akivis(twist_akivis(ak, beta, 1), beta, 1) == out


def test_twist_akivis_rejects_non_endomorphism():
    doc = fixture("akivis-A")
    ak = doc.bundle
    bad = EvenMap.diagonal(ak.space, [2, 1])  # scales the bracket wrongly
    with pytest.raises(ConstructionError):
        twist_akivis(ak, bad, 1)


def test_twist_nhlp_on_trivial_extension(L2):
    te = trivial_extension(L2)
    beta = EvenMap.identity(te.space)
    assert twist_nhlp(te, beta, 3) == te  # identity twisting is a no-op
    # a weighted diagonal that is an endomorphism of both operations:
    # the unit must stay fixed and e1 must absorb the square of e2's factor
    gamma = EvenMap.diagonal(te.space, [4, 2, 1])
    out = twist_nhlp(te, gamma, 1)
    assert table_of(out.bracket) == {(1, 1): {0: "4"}}
    # product keeps the unit shape but scales through gamma
    assert out.product.on_basis(0, 2) == Vector(te.space, {0: Scalar.rational(te.space.field, 4)})
    assert check_nhlp(out).passed


# ---------------------------------------------------------------------------
# trivial extension


def test_trivial_extension_exact_product(L2):
    te = trivial_extension(L2)
    sp = te.space
    assert [sp.name(i) for i in range(3)] == ["e1", "e2", "u"]
    F = sp.field
    x = Vector(sp, {0: Scalar.one(F), 2: Scalar.rational(F, 2)})   # e1 + 2u
    y = Vector(sp, {0: Scalar.one(F), 2: Scalar.rational(F, 3)})   # e1 + 3u
    assert te.product(x, y) == Vector(
        sp, {0: Scalar.rational(F, 5), 2: Scalar.rational(F, 6)}
    )
    # bracket is the lifted original, untouched by the unit
    assert table_of(te.bracket) == {(1, 1): {0: "1"}}
    assert check_nhlp(te).passed


def test_trivial_extension_renames_colliding_unit():
    F = cyclotomic_field(1)
    sp = GradedSpace.build(F, TRIVIAL_GROUP, [("u", ()), ("v", ())])
    bc = Bicharacter.trivial(TRIVIAL_GROUP, F)
    b = LeibnizBundle(
        sp, bc, MultilinearMap.internal(sp, 2, {}), EvenMap.identity(sp)
    )
    te = trivial_extension(b)
    assert [te.space.name(i) for i in range(3)] == ["u", "v", "u0"]


def test_trivial_extension_refuses_moving_twist(L2):
    # Leibniz-certified and multiplicative, but the unit construction
    # needs the identity twist; re-certification catches it
    beta = EvenMap.diagonal(L2.space, [4, 2])
    moved = LeibnizBundle(L2.space, L2.bichar, L2.bracket, beta)
    assert check_color_leibniz(moved).passed
    with pytest.raises(ConstructionError) as exc:
        trivial_extension(moved)
    failing = [l.identity_id for l in exc.value.report.leaves() if not l.passed]
    assert failing == ["hom-associativity", "leibniz-compatibility"]


def test_trivial_extension_rejects_graded_input():
    with pytest.raises(InputError):
        trivial_extension(fixture("leibniz-S1").bundle)


# ---------------------------------------------------------------------------
# dialgebra-derived brackets


def test_leibniz_from_D1_zero_bracket():
    out = leibniz_from_dialgebra(fixture("dialg-D1").bundle)
    assert table_of(out.bracket) == {}
    assert out.product == fixture("dialg-D1").bundle.prod_left
    assert check_nhlp(out).passed


def test_leibniz_from_D2_exact_bracket():
    out = leibniz_from_dialgebra(fixture("dialg-D2").bundle)
    assert table_of(out.bracket) == {(0, 1): {1: "1"}}
    assert check_nhlp(out).passed


def test_leibniz_from_dialgebra_refuses_invalid():
    F = cyclotomic_field(1)
    sp = GradedSpace.build(F, TRIVIAL_GROUP, [("e1", ()), ("e2", ())])
    bc = Bicharacter.trivial(TRIVIAL_GROUP, F)
    one = Scalar.one(F)
    from colorhom.bundles import DialgebraBundle

    left = MultilinearMap.internal(
        sp, 2, {(0, 0): Vector(sp, {0: one}), (0, 1): Vector(sp, {0: one})}
    )
    right = MultilinearMap.internal(
        sp, 2, {(0, 0): Vector(sp, {0: one}), (0, 1): Vector(sp, {1: one})}
    )
    bad = DialgebraBundle(sp, bc, left, right, EvenMap.identity(sp))
    with pytest.raises(ConstructionError):
        leibniz_from_dialgebra(bad)


# ---------------------------------------------------------------------------
# opposite and scaling


def _noncommutative_nhlp():
    F = cyclotomic_field(1)
    sp = GradedSpace.build(F, TRIVIAL_GROUP, [("e1", ()), ("e2", ())])
    bc = Bicharacter.trivial(TRIVIAL_GROUP, F)
    one = Scalar.one(F)
    mu = MultilinearMap.internal(
        sp, 2, {(0, 0): Vector(sp, {0: one}), (0, 1): Vector(sp, {1: one})}
    )
    zero_br = MultilinearMap.internal(sp, 2, {})
    return NHLPBundle(sp, bc, mu, zero_br, EvenMap.identity(sp))


def test_nhlp_opposite_flips_the_product():
    b = _noncommutative_nhlp()
    assert check_nhlp(b).passed
    out = nhlp_opposite(b)
    assert table_of(out.product) == {(0, 0): {0: "1"}, (1, 0): {1: "1"}}
    assert out.bracket == b.bracket
    assert check_nhlp(out).passed


def test_nhlp_opposite_on_graded_bundle():
    s1 = fixture("leibniz-S1").bundle
    b = NHLPBundle(
        s1.space,
        s1.bichar,
        MultilinearMap.internal(s1.space, 2, {}),
        s1.bracket,
        s1.twist,
    )
    out = nhlp_opposite(b)
    assert out.bracket == b.bracket
    assert check_nhlp(out).passed


def test_nhlp_scaled_halves_both_operations():
    te = trivial_extension(fixture("leibniz-L2").bundle)
    out = nhlp_scaled(te, Fraction(1, 2))
    F = te.space.field
    assert out.product.on_basis(2, 2) == Vector(
        te.space, {2: Scalar.rational(F, 1, 2)}
    )
    assert table_of(out.bracket) == {(1, 1): {0: "1/2"}}
    assert check_nhlp(out).passed


def test_nhlp_scaled_rejects_zero():
    te = trivial_extension(fixture("leibniz-L2").bundle)
    with pytest.raises(InputError):
        nhlp_scaled(te, 0)


def test_opposite_and_scale_pair():
    b = _noncommutative_nhlp()
    opp, sc = nhlp_opposite(b), nhlp_scaled(b, 3)
    assert table_of(opp.product) == {(0, 0): {0: "1"}, (1, 0): {1: "1"}}
    assert table_of(sc.product) == {(0, 0): {0: "3"}, (0, 1): {1: "3"}}


# ---------------------------------------------------------------------------
# module twisting


def test_twist_module_fixed_point_when_twist_is_identity():
    mb = fixture("module-M").bundle
    assert twist_module(mb) == mb


def test_twist_module_nontrivial_diagonal(L2):
    beta = EvenMap.diagonal(L2.space, [4, 2])
    alg = LeibnizBundle(L2.space, L2.bichar, L2.bracket, beta)
    mb = G.regular_module(alg)
    assert check_module(mb).passed
    out = twist_module(mb)
    # actions compose with the twist square: t^2 e2 = 4 e2
    assert table_of(out.act_left) == {(1, 1): {0: "4"}}
    assert table_of(out.act_right) == {(1, 1): {0: "4"}}
    assert check_module(out).passed


def test_twist_module_requires_multiplicative_algebra(L2):
    bad = EvenMap.diagonal(L2.space, [1, 3])  # not an endomorphism of [,]
    alg = LeibnizBundle(L2.space, L2.bichar, L2.bracket, bad)
    mb = G.regular_module(alg)
    with pytest.raises(ConstructionError):
        twist_module(mb)


# ---------------------------------------------------------------------------
# experimental tensor square: returns (bundle, report), never raises on
# a failing report


def test_tensor_square_corrected_passes_on_unit_extension(L2):
    te = trivial_extension(L2)
    out, rep = tensor_square_nhlp(te, variant="corrected")
    assert rep.passed
    assert out.space.dim == 9
    assert out.space.name(0) == "e1.e1" and out.space.name(8) == "u.u"
    assert len(out.product.table) == 25
    assert len(out.bracket.table) == 0


def test_tensor_square_as_printed_fails_associativity(L2):
    te = trivial_extension(L2)
    out, rep = tensor_square_nhlp(te, variant="as-printed")
    assert not rep.passed
    leaf = rep.find("hom-associativity")
    assert len(leaf.violations) == 48
    first = leaf.violations[0]
    assert first.args == (6, 0, 8)
    assert {i: str(c) for i, c in first.defect.coeffs.items()} == {0: "1"}
    # the slot-repeating variant also produces a larger table
    assert len(out.product.table) == 33


def test_tensor_square_variants_agree_when_product_vanishes():
    lb = G.solvable_lie_leibniz()
    b = NHLPBundle(
        lb.space,
        lb.bichar,
        MultilinearMap.internal(lb.space, 2, {}),
        lb.bracket,
        EvenMap.identity(lb.space),
    )
    for variant in ("corrected", "as-printed"):
        out, rep = tensor_square_nhlp(b, variant=variant)
        assert rep.passed, variant


def test_tensor_square_input_validation(L2):
    te = trivial_extension(L2)
    with pytest.raises(InputError):
        tensor_square_nhlp(te, variant="mystery")
    s1 = fixture("leibniz-S1").bundle
    graded = NHLPBundle(
        s1.space,
        s1.bichar,
        MultilinearMap.internal(s1.space, 2, {}),
        s1.bracket,
        s1.twist,
    )
    with pytest.raises(InputError):
        tensor_square_nhlp(graded)


# ---------------------------------------------------------------------------
# no job count below the CLI


@pytest.mark.parametrize("module, kept", [(checkers, ["scan_identity"]), (constructions, [])],
                         ids=["checkers", "constructions"])
def test_only_scan_identity_takes_jobs(module, kept):
    # scan_identity keeps an ignored jobs: the perfbench scan wrapper passes it
    takes_jobs = [name for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and not name.startswith("_")
                  and "jobs" in inspect.signature(fn).parameters]
    assert takes_jobs == kept
