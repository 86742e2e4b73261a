"""Checker verdicts on the shipped fixtures, frozen to exact violation
lists, plus agreement with the naive reference evaluators in oracles.py
on randomly generated structures."""

import itertools
import random

import pytest

import genutil as G
from colorhom.bundles import AkivisBundle, DialgebraBundle, LeibnizBundle, NHLPBundle
from colorhom.checkers import (
    check_akivis_identity,
    check_color_leibniz,
    check_dialgebra,
    check_endomorphism,
    check_evenness,
    check_flexible_akivis_relation,
    check_flexible_alternative,
    check_hom_associativity,
    check_hom_lie,
    check_leibniz_consequences,
    check_module,
    check_nhlp,
    check_skew_symmetry,
    scan_identity,
)
from colorhom.constructions import akivis_from_algebra
from colorhom.errors import InputError
from colorhom.fixtures import fixture
from colorhom.grading import Bicharacter, TRIVIAL_GROUP
from colorhom.linalg import EvenMap, GradedSpace, MultilinearMap, Vector
from colorhom.record import replace
from colorhom.scalars import Scalar, cyclotomic_field


def frozen(rep):
    """Flatten a report leaf into comparable literals."""
    if rep.passed:
        return "PASS"
    assert rep.precondition_failure is None
    return [
        (v.args, {i: str(c) for i, c in v.defect.coeffs.items()})
        for v in rep.violations
    ]


@pytest.fixture(scope="module")
def L2():
    return fixture("leibniz-L2").bundle


@pytest.fixture(scope="module")
def NA2():
    return fixture("nonassoc-NA2").bundle


@pytest.mark.parametrize("name, changes, message", [
    ("leibniz-L2", {"bichar": fixture("leibniz-S1").bundle.bichar},
     "bicharacter group/field does not match"),
    ("module-M", {"module_space": fixture("leibniz-S1").bundle.space},
     "module space must share the algebra's field and group"),
], ids=["bicharacter-of-another-group", "module-space-of-another-group"])
def test_bundle_refuses_spaces_of_another_group(name, changes, message):
    with pytest.raises(InputError, match=message):
        replace(fixture(name).bundle, **changes)


# ---------------------------------------------------------------------------
# Leibniz fixtures


def test_L2_passes_leibniz(L2):
    assert check_color_leibniz(L2).passed


def test_L2_fails_skew_at_the_square(L2):
    # [e2,e2] = e1 is not skew: defect [x,x] + eps(x,x)[x,x] = 2 e1
    assert frozen(check_skew_symmetry(L2)) == [((1, 1), {0: "2"})]


def test_L2_consequences_pass(L2):
    rep = check_leibniz_consequences(L2)
    assert rep.passed
    assert [leaf.identity_id for leaf in rep.leaves()] == [
        "leibniz-symmetrized-action",
        "leibniz-derived-bracket",
    ]


def test_broken_L2_exact_violations():
    rep = check_color_leibniz(fixture("leibniz-L2-broken").bundle)
    assert frozen(rep) == [
        ((0, 1, 1), {0: "-2"}),
        ((1, 0, 1), {0: "1"}),
        ((1, 1, 1), {1: "-1"}),
    ]


def test_broken_L2_consequences_refuse_to_run():
    rep = check_leibniz_consequences(fixture("leibniz-L2-broken").bundle)
    assert not rep.passed
    assert rep.precondition_failure is not None
    assert rep.precondition_failure.identity_id == "color-hom-leibniz"


def test_super_line_fixture_passes_both():
    b = fixture("leibniz-S1").bundle
    assert check_color_leibniz(b).passed
    # [e,e] = -eps(e,e)[e,e] holds because eps(odd,odd) = -1
    assert check_skew_symmetry(b).passed


# ---------------------------------------------------------------------------
# non-associative fixture


def test_NA2_hom_associativity_exact(NA2):
    rep = check_hom_associativity(NA2)
    assert frozen(rep) == [
        ((0, 1, 0), {0: "1"}),
        ((0, 1, 1), {0: "-1"}),
        ((1, 0, 0), {1: "-1"}),
        ((1, 0, 1), {1: "1"}),
    ]


def test_NA2_flexible_alternative_classifier(NA2):
    rep = check_flexible_alternative(NA2)
    assert rep.flags == {
        "flexible": False,
        "flexible_literal": False,
        "flexible_polarized": False,
        "alternative": False,
    }
    assert frozen(rep.find("flexible-literal")) == [
        ((0, 0, 1), {1: "1"}),
        ((0, 1, 0), {0: "-1"}),
        ((0, 1, 1), {0: "1"}),
        ((1, 0, 1), {1: "-1"}),
    ]
    # polarized doubles the repeated-endpoint defects
    assert frozen(rep.find("flexible-polarized")) == [
        ((0, 0, 1), {1: "1"}),
        ((0, 1, 0), {0: "-2"}),
        ((0, 1, 1), {0: "1"}),
        ((1, 0, 1), {1: "-2"}),
    ]
    assert not rep.find("alternative-first-pair").passed
    assert not rep.find("alternative-second-pair").passed


# ---------------------------------------------------------------------------
# Akivis fixture


def test_akivis_fixture_all_green():
    b = fixture("akivis-A").bundle
    assert check_skew_symmetry(b).passed
    assert check_akivis_identity(b).passed
    assert check_hom_lie(b).passed
    assert check_flexible_akivis_relation(b).passed


def test_akivis_identity_refuses_non_skew_bracket():
    F = cyclotomic_field(1)
    sp = GradedSpace.build(F, TRIVIAL_GROUP, [("e1", ()), ("e2", ())])
    bc = Bicharacter.trivial(TRIVIAL_GROUP, F)
    one = Scalar.one(F)
    bracket = MultilinearMap.internal(sp, 2, {(0, 1): Vector(sp, {1: one})})
    ternary = MultilinearMap.internal(sp, 3, {})
    b = AkivisBundle(sp, bc, bracket, ternary, EvenMap.identity(sp))
    rep = check_akivis_identity(b)
    assert not rep.passed
    assert rep.precondition_failure.identity_id == "skew-symmetry"


def test_flexible_relation_refuses_inflexible_akivis(NA2):
    ak = akivis_from_algebra(NA2)
    rep = check_flexible_akivis_relation(ak)
    assert not rep.passed
    assert rep.precondition_failure is not None


# ---------------------------------------------------------------------------
# dialgebras


def test_dialgebra_fixtures_pass():
    assert check_dialgebra(fixture("dialg-D1").bundle).passed
    assert check_dialgebra(fixture("dialg-D2").bundle).passed


def test_dialgebra_two_sided_sample_exact_verdict():
    # dim 2: e1-|e1 = e1|-e1 = e1, e1-|e2 = e1, e1|-e2 = e2, rest zero
    F = cyclotomic_field(1)
    sp = GradedSpace.build(F, TRIVIAL_GROUP, [("e1", ()), ("e2", ())])
    bc = Bicharacter.trivial(TRIVIAL_GROUP, F)
    one = Scalar.one(F)
    left = MultilinearMap.internal(
        sp, 2, {(0, 0): Vector(sp, {0: one}), (0, 1): Vector(sp, {0: one})}
    )
    right = MultilinearMap.internal(
        sp, 2, {(0, 0): Vector(sp, {0: one}), (0, 1): Vector(sp, {1: one})}
    )
    rep = check_dialgebra(DialgebraBundle(sp, bc, left, right, EvenMap.identity(sp)))
    assert not rep.passed
    by_id = {leaf.identity_id: frozen(leaf) for leaf in rep.leaves()}
    assert by_id == {
        "dialgebra-axiom-1": "PASS",
        "dialgebra-axiom-2": [((0, 1, 0), {0: "-1"}), ((0, 1, 1), {0: "-1"})],
        "dialgebra-axiom-3": [((0, 1, 0), {0: "1"}), ((0, 1, 1), {0: "1"})],
        "dialgebra-axiom-4": [((0, 1, 0), {0: "1"}), ((0, 1, 1), {1: "1"})],
        "dialgebra-axiom-5": "PASS",
    }


def test_dialgebra_rejects_graded_input():
    b = fixture("leibniz-S1").bundle
    with pytest.raises(InputError):
        DialgebraBundle(b.space, b.bichar, b.bracket, b.bracket, b.twist)


# ---------------------------------------------------------------------------
# module fixture


def test_module_fixture_passes_every_law():
    rep = check_module(fixture("module-M").bundle)
    assert rep.passed
    assert [leaf.identity_id for leaf in rep.leaves()] == [
        "module-twist-left",
        "module-twist-right",
        "module-bracket-left",
        "module-bracket-right",
        "module-mixed",
    ]


def test_module_requires_leibniz_algebra():
    mb = fixture("module-M").bundle
    broken = fixture("leibniz-L2-broken").bundle
    from colorhom.bundles import ModuleBundle

    bad = ModuleBundle(broken, mb.module_space, mb.act_left, mb.act_right, mb.module_twist)
    rep = check_module(bad)
    assert not rep.passed
    assert rep.precondition_failure.identity_id == "color-hom-leibniz"


# ---------------------------------------------------------------------------
# endomorphism report


def test_endomorphism_positive_on_akivis_fixture():
    doc = fixture("akivis-A")
    b = doc.bundle
    beta = doc.extra_maps["beta"]
    assert check_endomorphism(beta, [b.bracket, b.ternary]).passed


def test_endomorphism_negative_names_the_operation(L2):
    sp = L2.space
    one = Scalar.one(sp.field)
    swap = EvenMap(sp, ((Scalar.zero(sp.field), one), (one, Scalar.zero(sp.field))))
    rep = check_endomorphism(swap, [L2.bracket])
    assert not rep.passed
    assert all(v.note == "operation 0" for v in rep.violations)
    # swap([e2,e2]) = e2 but [swap e2, swap e2] = [e1,e1] = 0
    assert ((1, 1), {1: "1"}) in [
        (v.args, {i: str(c) for i, c in v.defect.coeffs.items()})
        for v in rep.violations
    ]


def test_endomorphism_rejects_foreign_operation(L2):
    other = fixture("leibniz-S1").bundle  # different space entirely
    with pytest.raises(InputError):
        check_endomorphism(EvenMap.identity(L2.space), [other.bracket])


# ---------------------------------------------------------------------------
# scan_identity plumbing


def test_scan_identity_jobs_equivalence():
    F = cyclotomic_field(1)
    sp = GradedSpace.build(F, TRIVIAL_GROUP, [(f"e{i}", ()) for i in range(3)])

    def defect(key):
        i, j = key
        if (i + j) % 3 == 1:
            return Vector(sp, {0: Scalar.rational(F, i - j + 5)})
        return Vector.zero(sp)

    keys = list(itertools.product(range(3), repeat=2))
    solo = scan_identity("probe", keys, defect, jobs=1)
    multi = scan_identity("probe", keys, defect, jobs=3)
    assert [(v.args, v.defect) for v in solo.violations] == [
        (v.args, v.defect) for v in multi.violations
    ]
    assert len(solo.violations) == 3


# ---------------------------------------------------------------------------
# evenness


def test_evenness_passes_on_fixture_ops():
    b = fixture("leibniz-S1").bundle
    assert check_evenness(b.bracket).passed
    assert check_evenness(b.twist).passed


def test_evenness_catches_odd_matrix_and_odd_entry():
    b = fixture("leibniz-S1").bundle
    sp = b.space
    one = Scalar.one(sp.field)
    zero = Scalar.zero(sp.field)
    swap = EvenMap(sp, ((zero, one), (one, zero)))
    # a twist map is unary: column j (args (j,)) with odd output component i
    rep = check_evenness(swap)
    assert [(v.args, v.note.split()[2]) for v in rep.violations] == [
        ((0,), sp.name(1)), ((1,), sp.name(0))]

    # (odd, odd) lands in degree 0, so an odd output component violates
    odd = MultilinearMap.internal(sp, 2, {(0, 0): Vector(sp, {0: one})})
    rep2 = check_evenness(odd)
    assert [v.args for v in rep2.violations] == [(0, 0)]

    # every output component is checked, and the report is sorted
    mixed = MultilinearMap.internal(sp, 2, {(1, 0): Vector(sp, {1: one}),
                                            (0, 0): Vector(sp, {1: one, 0: one})})
    rep3 = check_evenness(mixed)
    assert [(v.args, v.note.split()[2]) for v in rep3.violations] == [
        ((0, 0), sp.name(0)), ((1, 0), sp.name(1))]


# ---------------------------------------------------------------------------
# agreement with the independent oracle on fixtures


def test_broken_L2_matches_oracle_exactly():
    b = fixture("leibniz-L2-broken").bundle
    F, O = G.bundle_oracle(b.space, b.bichar)
    table = G.oracle_table(F, b.bracket)
    rows = G.oracle_rows(F, b.twist, b.space.dim)
    rep = check_color_leibniz(b)
    viol = {v.args: v.defect for v in rep.violations}
    for t in itertools.product(range(b.space.dim), repeat=3):
        d = O.leibniz_defect(table, rows, *t)
        assert bool(d) == (t in viol)
        if d:
            assert G.same_defect(F, viol[t], d)


def test_NA2_defect_is_negated_associator(NA2):
    # the report's defect is lhs - rhs of mu(a x, mu(y,z)) == mu(mu(x,y), a z),
    # i.e. the negative of the associator convention used for ternary maps
    F, O = G.bundle_oracle(NA2.space, NA2.bichar)
    table = G.oracle_table(F, NA2.product)
    rows = G.oracle_rows(F, NA2.twist, NA2.space.dim)
    rep = check_hom_associativity(NA2)
    viol = {v.args: v.defect for v in rep.violations}
    for t in itertools.product(range(NA2.space.dim), repeat=3):
        d = O.associator(table, rows, *t)
        assert bool(d) == (t in viol)
        if d:
            assert G.same_defect(F, -viol[t], d)


def test_akivis_fixture_identity_zero_by_oracle():
    b = fixture("akivis-A").bundle
    F, O = G.bundle_oracle(b.space, b.bichar)
    tb = G.oracle_table(F, b.bracket)
    tt = G.oracle_table(F, b.ternary)
    rows = G.oracle_rows(F, b.twist, b.space.dim)
    for t in itertools.product(range(b.space.dim), repeat=3):
        assert not O.akivis_defect(tb, tt, rows, *t)


# ---------------------------------------------------------------------------
# agreement with the oracle on random structures


def _random_leibniz_like(rng, max_dim=4):
    space, bichar = G.random_setup(rng, max_dim)
    bracket = G.random_even_table(rng, space, density=0.8)
    twist = G.random_even_map(rng, space)
    return LeibnizBundle(space, bichar, bracket, twist)


def test_random_leibniz_defects_match_oracle():
    rng = random.Random(42)
    checked_violating = 0
    for _ in range(25):
        b = _random_leibniz_like(rng)
        F, O = G.bundle_oracle(b.space, b.bichar)
        table = G.oracle_table(F, b.bracket)
        rows = G.oracle_rows(F, b.twist, b.space.dim)
        viol = {v.args: v.defect for v in check_color_leibniz(b).violations}
        checked_violating += bool(viol)
        for t in itertools.product(range(b.space.dim), repeat=3):
            d = O.leibniz_defect(table, rows, *t)
            assert bool(d) == (t in viol), (t, b.space.dim)
            if d:
                assert G.same_defect(F, viol[t], d)
    assert checked_violating >= 5  # the sample must exercise real failures


def test_random_nhlp_compatibility_matches_oracle():
    rng = random.Random(2)
    seen = 0
    for _ in range(20):
        space, bichar = G.random_setup(rng, 4)
        prod = G.random_even_table(rng, space, density=0.9)
        brk = G.random_even_table(rng, space, density=0.9)
        alpha = G.random_even_map(rng, space)
        b = NHLPBundle(space, bichar, prod, brk, alpha)
        leaf = check_nhlp(b).find("leibniz-compatibility")
        F, O = G.bundle_oracle(space, bichar)
        tp = G.oracle_table(F, prod)
        tb = G.oracle_table(F, brk)
        rows = G.oracle_rows(F, alpha, space.dim)
        viol = {v.args: v.defect for v in leaf.violations}
        seen += bool(viol)
        for t in itertools.product(range(space.dim), repeat=3):
            d = O.compat_defect(tb, tp, rows, *t)
            assert bool(d) == (t in viol)
            if d:
                assert G.same_defect(F, viol[t], d)
    assert seen >= 5


def test_random_akivis_identity_matches_oracle():
    from colorhom.bundles import NonAssocBundle

    rng = random.Random(5)
    for _ in range(20):
        space, bichar = G.random_setup(rng, 3)
        mu = G.random_even_table(rng, space, density=0.8)
        alpha = G.random_even_map(rng, space)
        ak = akivis_from_algebra(NonAssocBundle(space, bichar, mu, alpha))
        F, O = G.bundle_oracle(space, bichar)
        tb = G.oracle_table(F, ak.bracket)
        tt = G.oracle_table(F, ak.ternary)
        rows = G.oracle_rows(F, ak.twist, space.dim)
        assert check_akivis_identity(ak).passed
        for t in itertools.product(range(space.dim), repeat=3):
            assert not O.akivis_defect(tb, tt, rows, *t)
