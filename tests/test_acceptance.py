"""Acceptance gate: the eleven property suites the package must clear.

Each test runs one suite over freshly generated random structures with a
fixed seed, asserts the property exactly (no tolerances), and records a
one-line verdict that pytest prints in the terminal summary block.
"""

import itertools
import random

import pytest

import genutil as G
from conftest import record_criterion
from vector_laws import cyclic_sum
from colorhom import cli, io
from colorhom.bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
)
from colorhom.checkers import (
    check_akivis_identity,
    check_color_leibniz,
    check_dialgebra,
    check_endomorphism,
    check_flexible_akivis_relation,
    check_flexible_alternative,
    check_hom_associativity,
    check_hom_lie,
    check_leibniz_consequences,
    check_module,
    check_nhlp,
)
from colorhom.constructions import (
    akivis_from_algebra,
    leibniz_from_dialgebra,
    nhlp_opposite,
    nhlp_scaled,
    trivial_extension,
    twist_akivis,
    twist_module,
    twist_nhlp,
)
from colorhom.fixtures import fixture, fixture_document, fixture_names
from colorhom.grading import (
    Bicharacter,
    GradingGroup,
    TRIVIAL_GROUP,
    validate_bicharacter,
)
from colorhom.linalg import EvenMap, GradedSpace, MultilinearMap, Vector
from colorhom.scalars import Scalar, cyclotomic_field

FIELD = G.FIELD


def record(number, ok, detail):
    record_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


def zero_product(b):
    """Leibniz bundle -> Leibniz-Poisson bundle with the zero product."""
    return NHLPBundle(
        b.space,
        b.bichar,
        MultilinearMap.internal(b.space, 2, {}),
        b.bracket,
        b.twist,
    )


# ---------------------------------------------------------------------------
# shared pools (module-scoped: built once, reused across criteria)


def _flexible_candidates(rng, count):
    """Algebra bundles likely to be flexible: sign-symmetrized products,
    associative group-algebra tables, octonions.  No filtering here."""
    pool = []
    sp, bc, prod = G.octonion_product()
    pool.append(NonAssocBundle(sp, bc, prod, EvenMap.identity(sp)))
    for n, graded in ((2, False), (3, False), (5, False), (4, True), (2, True), (6, True)):
        sp, bc, prod = G.cyclic_group_algebra(n, graded=graded)
        pool.append(NonAssocBundle(sp, bc, prod, EvenMap.identity(sp)))
    while len(pool) < count:
        space, bichar = G.random_setup(rng, 3)
        t = G.random_even_table(rng, space, density=0.7)
        mu = G.eps_symmetrized(t, bichar, sign=rng.choice((1, -1)))
        pool.append(NonAssocBundle(space, bichar, mu, EvenMap.identity(space)))
    return pool


@pytest.fixture(scope="module")
def leibniz_pool():
    rng = random.Random(404)
    pool = [fixture("leibniz-L2").bundle, fixture("leibniz-S1").bundle]
    pool.append(G.solvable_lie_leibniz())
    pool.append(G.solvable_lie_leibniz(t=3))
    while len(pool) < 104:
        b = G.random_central_leibniz(rng)
        if check_color_leibniz(b).passed:
            pool.append(b)
    return pool


@pytest.fixture(scope="module")
def dialgebra_pool():
    pool = G.enumerate_dialgebras(dim=1, max_entries=1)
    pool += G.enumerate_dialgebras(dim=2, max_entries=2)
    pool += G.enumerate_dialgebras(dim=3, max_entries=1)[:20]
    pool.append(fixture("dialg-D1").bundle)
    pool.append(fixture("dialg-D2").bundle)
    return pool


def _nhlp_pool(rng):
    """Certified Leibniz-Poisson bundles from several families."""
    pool = []
    # unit extensions of ungraded Leibniz bundles (commutative product)
    pool.append(trivial_extension(fixture("leibniz-L2").bundle))
    pool.append(trivial_extension(G.solvable_lie_leibniz()))
    # zero bracket over associative products, graded and ungraded
    for n, graded in ((2, False), (4, True), (3, False)):
        sp, bc, prod = G.cyclic_group_algebra(n, graded=graded)
        pool.append(
            NHLPBundle(sp, bc, prod, MultilinearMap.internal(sp, 2, {}), EvenMap.identity(sp))
        )
    # zero product over Leibniz brackets, including a graded one
    pool.append(zero_product(fixture("leibniz-S1").bundle))
    pool.append(zero_product(G.solvable_lie_leibniz(t=2)))
    while len(pool) < 18:
        b = G.random_central_leibniz(rng)
        if check_color_leibniz(b).passed:
            pool.append(zero_product(b))
    return [b for b in pool if check_nhlp(b).passed]


# ---------------------------------------------------------------------------
# 1. commutator/associator construction always lands on the Akivis identity


_C1_GROUPS = (GradingGroup(0, ()), GradingGroup(0, (2,)), GradingGroup(0, (2, 2)))


def _c1_bicharacter(rng, group):
    """Rejection-sample a generator matrix with entries among the fourth
    roots of unity until it validates on the group."""
    if group.rank == 0:
        return Bicharacter.trivial(group, FIELD)
    i = Scalar.root(FIELD)
    values = (Scalar.one(FIELD), -Scalar.one(FIELD), i, -i)
    n = group.rank
    while True:
        matrix = tuple(
            tuple(rng.choice(values) for _ in range(n)) for _ in range(n)
        )
        if validate_bicharacter(matrix, group, FIELD).passed:
            return Bicharacter(group, FIELD, matrix)


def test_criterion_01_akivis_construction_suite():
    rng = random.Random(101)
    built = nonzero = graded = 0
    while built < 200:
        group = rng.choice(_C1_GROUPS)
        space = G.random_space(rng, group, rng.randrange(1, 5))
        bichar = _c1_bicharacter(rng, group)
        assert validate_bicharacter(bichar.matrix, group, FIELD).passed
        mu = G.random_even_table(rng, space, density=rng.choice((0.3, 0.5, 0.7)))
        alpha = G.random_even_map(rng, space)
        ak = akivis_from_algebra(NonAssocBundle(space, bichar, mu, alpha))
        rep = check_akivis_identity(ak)
        assert rep.passed and not rep.violations
        built += 1
        nonzero += bool(mu.table)
        graded += not space.is_trivially_graded()
    ok = built >= 200 and nonzero >= 100 and graded >= 60
    record(
        1,
        ok,
        f"{built} random algebras -> Akivis identity exact "
        f"({nonzero} nonzero products, {graded} graded)",
    )


# ---------------------------------------------------------------------------
# 2. twisting along verified endomorphisms, iterated == single


def test_criterion_02_akivis_twist_suite():
    rng = random.Random(202)
    cases = nontrivial_beta = 0
    while cases < 54:
        space, bichar = G.random_setup(rng, 4)
        weights = G.random_weights(rng, space.dim)
        mu = G.weighted_table(rng, space, weights, density=0.7)
        t = rng.choice((2, 3, -1, 1))
        beta = G.weight_endo(space, weights, t)
        alpha = G.weight_endo(space, weights, rng.choice((1, 2)))
        ak = akivis_from_algebra(NonAssocBundle(space, bichar, mu, alpha))
        assert check_endomorphism(beta, [ak.bracket, ak.ternary]).passed
        n = rng.choice((1, 2, 3))
        out = twist_akivis(ak, beta, n)
        assert check_akivis_identity(out).passed
        iterated = ak
        for _ in range(n):
            iterated = twist_akivis(iterated, beta, 1)
        assert iterated == out
        cases += 1
        nontrivial_beta += t != 1
    ok = cases >= 50 and nontrivial_beta >= 25
    record(
        2,
        ok,
        f"{cases} (bundle, endomorphism, power) twists re-certified; "
        f"iterated single twists match the n-fold twist each time",
    )


# ---------------------------------------------------------------------------
# 3. flexibility and alternativity transfer to the associated Akivis bundle


def test_criterion_03_flexible_alternative_transfer():
    rng = random.Random(303)
    flexible_cases = alternative_cases = nonassoc_cases = 0
    for b in _flexible_candidates(rng, 120):
        flags = check_flexible_alternative(b).flags
        if not (flags["flexible"] or flags["alternative"]):
            continue  # rejection sampling: keep only classified inputs
        ak = akivis_from_algebra(b)
        ak_flags = check_flexible_alternative(ak).flags
        if flags["flexible"]:
            assert ak_flags["flexible"], "flexibility must transfer (polarized)"
            flexible_cases += 1
        if flags["flexible_literal"]:
            assert ak_flags["flexible_literal"]
        if flags["alternative"]:
            assert ak_flags["alternative"], "alternativity must transfer"
            alternative_cases += 1
        if not check_hom_associativity(b.product, b.twist).passed:
            nonassoc_cases += 1
    ok = flexible_cases >= 40 and alternative_cases >= 5 and nonassoc_cases >= 1
    record(
        3,
        ok,
        f"{flexible_cases} flexible and {alternative_cases} alternative inputs "
        f"transfer ({nonassoc_cases} genuinely non-associative)",
    )


# ---------------------------------------------------------------------------
# 4. Leibniz consequences follow from the Leibniz law alone


def test_criterion_04_leibniz_consequences_suite(leibniz_pool):
    checked = graded = nonzero = 0
    for b in leibniz_pool:
        assert check_color_leibniz(b).passed
        assert check_leibniz_consequences(b).passed
        checked += 1
        graded += not b.space.is_trivially_graded()
        nonzero += bool(b.bracket.table)
    ok = checked >= 102 and graded >= 10 and nonzero >= 30
    record(
        4,
        ok,
        f"{checked} certified Leibniz bundles all pass the consequence pair "
        f"({graded} graded, {nonzero} nonzero brackets)",
    )


# ---------------------------------------------------------------------------
# 5. flexible collapse of the Akivis identity, with the doubled ternary sum


def _lhs_fn(b):
    br, tw = b.bracket, b.twist

    def lhs(x, y, z):
        return br(br.on_basis(x, y), tw.image_of_basis(z))

    return lhs


def test_criterion_05_flexible_akivis_relation():
    rng = random.Random(505)
    pool = []
    for b in _flexible_candidates(rng, 60):
        if not b.space.is_trivially_graded():
            continue
        if check_flexible_alternative(b).flags["flexible"]:
            pool.append(akivis_from_algebra(b))
    # anticommutative products: flexible, not Lie-admissible from dim 3 on
    while len(pool) < 40:
        sp = GradedSpace.build(
            FIELD, TRIVIAL_GROUP, [(f"e{i}", ()) for i in range(rng.randrange(2, 4))]
        )
        bc = Bicharacter.trivial(TRIVIAL_GROUP, FIELD)
        t = G.random_even_table(rng, sp, density=0.8)
        mu = G.eps_symmetrized(t, bc, sign=-1)
        pool.append(akivis_from_algebra(NonAssocBundle(sp, bc, mu, EvenMap.identity(sp))))

    passed_relation = lie_true = lie_false = 0
    for ak in pool:
        rel = check_flexible_akivis_relation(ak)
        assert rel.passed, "flexible Akivis bundles satisfy the collapsed relation"
        passed_relation += 1
        two = Scalar.rational(ak.space.field, 2)
        lhs = _lhs_fn(ak)
        tern = ak.ternary.on_basis
        doubled_zero = True
        for key in ak.space.tuples(3):
            rhs2 = cyclic_sum(tern, *key).scaled(two)
            assert cyclic_sum(lhs, *key) == rhs2, "coefficient must reduce to 2"
            doubled_zero = doubled_zero and rhs2.is_zero()
        assert check_hom_lie(ak).passed == doubled_zero, "iff clause"
        lie_true += doubled_zero
        lie_false += not doubled_zero
    ok = passed_relation >= 40 and lie_true >= 3 and lie_false >= 3
    record(
        5,
        ok,
        f"{passed_relation} flexible Akivis bundles: collapsed relation with "
        f"coefficient 2 exact, iff clause exercised both ways "
        f"({lie_true} Lie-admissible / {lie_false} not)",
    )


# ---------------------------------------------------------------------------
# 6. twisted, opposite, and scaled Leibniz-Poisson bundles re-certify


def test_criterion_06_nhlp_transport_suite(dialgebra_pool):
    rng = random.Random(606)
    pool = _nhlp_pool(rng)
    assert len(pool) >= 14

    twisted = 0
    te = pool[0]  # unit extension: diag(t^2, t, 1) endomorphism family
    for t in (2, 3, -1, 5, 7):
        gamma = EvenMap.diagonal(te.space, [t * t, t, 1])
        for n in (1, 2, 3):
            assert check_nhlp(twist_nhlp(te, gamma, n)).passed
            twisted += 1
    zb = zero_product(G.solvable_lie_leibniz())  # diag(1, t) family
    for t in (2, 3, -2, 5, -1, 7, 11):
        beta = EvenMap.diagonal(zb.space, [1, t])
        for n in (1, 2, 3):
            assert check_nhlp(twist_nhlp(zb, beta, n)).passed
            twisted += 1
    for b in pool:
        out = twist_nhlp(b, EvenMap.identity(b.space), rng.choice((1, 2, 3)))
        assert check_nhlp(out).passed
        twisted += 1

    opposed = noncomm = 0
    for b in pool:
        assert check_nhlp(nhlp_opposite(b)).passed
        opposed += 1
    # dialgebra-derived bundles contribute noncommutative products to flip
    for d in dialgebra_pool:
        nb = leibniz_from_dialgebra(d)
        out = nhlp_opposite(nb)
        assert check_nhlp(out).passed
        opposed += 1
        noncomm += nb.product != out.product

    scaled = 0
    per_bundle = max(1, -(-50 // len(pool)))
    for b in pool:
        for k in (2, -1, 3, 7, -5)[:per_bundle]:
            assert check_nhlp(nhlp_scaled(b, k)).passed
            scaled += 1
    sp, bc, prod = G.cyclic_group_algebra(4, graded=True)
    gb = NHLPBundle(sp, bc, prod, MultilinearMap.internal(sp, 2, {}), EvenMap.identity(sp))
    assert check_nhlp(nhlp_scaled(gb, Scalar.root(FIELD))).passed  # irrational unit
    scaled += 1

    ok = twisted >= 50 and opposed >= 50 and scaled >= 50 and noncomm >= 3
    record(
        6,
        ok,
        f"twists {twisted}, opposites {opposed} ({noncomm} noncommutative), "
        f"scalings {scaled}: all re-certified",
    )


# ---------------------------------------------------------------------------
# 7. the unit-extension example, exactly


def test_criterion_07_unit_extension_example():
    te = trivial_extension(fixture("leibniz-L2").bundle)
    assert check_nhlp(te).passed
    results, flags = io.full_check(te, 1)
    assert flags["commutative"] is True
    sp = te.space
    F = sp.field
    x = Vector(sp, {0: Scalar.one(F), 2: Scalar.rational(F, 2)})
    y = Vector(sp, {0: Scalar.one(F), 2: Scalar.rational(F, 3)})
    want = Vector(sp, {0: Scalar.rational(F, 5), 2: Scalar.rational(F, 6)})
    ok = te.product(x, y) == want
    record(7, ok, "unit extension certified, commutative, (e1+2u)(e1+3u) = 5e1+6u")


# ---------------------------------------------------------------------------
# 8. dialgebra-derived brackets are Leibniz-Poisson, compatibility included


def test_criterion_08_dialgebra_suite(dialgebra_pool):
    derived = two_sided = 0
    for d in dialgebra_pool:
        assert check_dialgebra(d).passed
        rep = check_nhlp(leibniz_from_dialgebra(d))
        assert rep.passed
        assert rep.find("leibniz-compatibility").passed
        derived += 1
        two_sided += d.prod_left != d.prod_right
    ok = derived >= 25 and two_sided >= 5
    record(
        8,
        ok,
        f"{derived} brute-forced dialgebras derive certified brackets "
        f"({two_sided} with distinct left/right products)",
    )


# ---------------------------------------------------------------------------
# 9. module twisting over multiplicative algebras


def _module_pool(rng):
    pool = [fixture("module-M").bundle]
    # two-sided regular modules over central-image algebras, identity twist
    count = 0
    while count < 13:
        b = G.random_central_leibniz(rng)
        b = LeibnizBundle(b.space, b.bichar, b.bracket, EvenMap.identity(b.space))
        if not check_color_leibniz(b).passed:
            continue
        mb = G.regular_module(b)
        if check_module(mb).passed:
            pool.append(mb)
            count += 1
    # one-sided modules over a non-central algebra with diagonal twists
    for t in (1, 2, 3, -1, 5, 7, 11):
        mb = G.one_sided_module(G.solvable_lie_leibniz(t=t))
        assert check_module(mb).passed
        pool.append(mb)
    pool.append(G.one_sided_module(fixture("leibniz-S1").bundle))
    # central algebra rebuilt with nontrivial multiplicative twists
    L2 = fixture("leibniz-L2").bundle
    for a, c in ((4, 2), (9, 3), (1, -1)):
        alg = LeibnizBundle(
            L2.space, L2.bichar, L2.bracket, EvenMap.diagonal(L2.space, [a, c])
        )
        assert check_color_leibniz(alg).passed
        mb = G.regular_module(alg)
        assert check_module(mb).passed
        pool.append(mb)
    return pool


def test_criterion_09_module_twist_suite():
    rng = random.Random(909)
    pool = _module_pool(rng)
    twisted = fixed_points = 0
    for mb in pool:
        assert check_endomorphism(mb.algebra.twist, [mb.algebra.bracket]).passed
        out = twist_module(mb)
        assert check_module(out).passed
        twisted += 1
        if mb.algebra.twist == EvenMap.identity(mb.algebra.space):
            assert out == mb, "identity algebra twist must be an exact fixed point"
            fixed_points += 1
    ok = twisted >= 25 and fixed_points >= 12
    record(
        9,
        ok,
        f"{twisted} certified modules re-certify after twisting "
        f"({fixed_points} exact fixed points)",
    )


# ---------------------------------------------------------------------------
# 10. negative controls: one bumped structure constant must be caught


def _all_violations(report):
    for leaf in report.leaves():
        yield from leaf.violations
        if leaf.precondition_failure is not None:
            yield from _all_violations(leaf.precondition_failure)


def _named(report):
    return report is not None and any(v.args for v in _all_violations(report))


def test_criterion_10_negative_controls(leibniz_pool, dialgebra_pool):
    rng = random.Random(1010)
    caught = []

    # akivis identity: bump the ternary table of a certified bundle
    # (dim >= 3: on 2 basis vectors the ungraded alternating ternary sum
    # vanishes identically, so no ternary bump can break the identity)
    space, bichar = G.random_setup(rng, 3)
    while space.dim < 3:
        space, bichar = G.random_setup(rng, 3)
    ak = akivis_from_algebra(
        NonAssocBundle(
            space, bichar, G.random_even_table(rng, space, 2, 0.8), G.random_even_map(rng, space)
        )
    )
    rep = G.find_breaking_bump(
        ak.ternary,
        lambda t: AkivisBundle(ak.space, ak.bichar, ak.bracket, t, ak.twist),
        check_akivis_identity,
    )
    caught.append(("akivis-identity", _named(rep)))

    # twisted bundle: bump the bracket of the twisted output (a ternary
    # bump is invisible on this dim-2 fixture, see above; a bracket bump
    # is caught by the skew precondition, which names the tuple)
    doc = fixture("akivis-A")
    tw = twist_akivis(doc.bundle, doc.extra_maps["beta"], 2)
    rep = G.find_breaking_bump(
        tw.bracket,
        lambda br: AkivisBundle(tw.space, tw.bichar, br, tw.ternary, tw.twist),
        check_akivis_identity,
    )
    caught.append(("twisted-akivis", _named(rep)))

    # flexibility/alternativity classifier: bump the octonion product
    sp, bc, prod = G.octonion_product()
    rep = G.find_breaking_bump(
        prod,
        lambda p: NonAssocBundle(sp, bc, p, EvenMap.identity(sp)),
        check_flexible_alternative,
        limit=20,
    )
    caught.append(("flexible-alternative", _named(rep)))

    # Leibniz law on a bundle with a nonzero bracket
    lb = next(b for b in leibniz_pool if b.bracket.table)
    rep = G.find_breaking_bump(
        lb.bracket,
        lambda br: LeibnizBundle(lb.space, lb.bichar, br, lb.twist),
        check_color_leibniz,
    )
    caught.append(("color-hom-leibniz", _named(rep)))

    # flexible collapse: bump the bracket so the cyclic sums disagree
    oct_ak = akivis_from_algebra(NonAssocBundle(sp, bc, prod, EvenMap.identity(sp)))
    rep = G.find_breaking_bump(
        oct_ak.bracket,
        lambda br: AkivisBundle(oct_ak.space, oct_ak.bichar, br, oct_ak.ternary, oct_ak.twist),
        check_flexible_akivis_relation,
        limit=10,
    )
    caught.append(("flexible-akivis-relation", _named(rep)))

    # Leibniz-Poisson composite: bump the unit-extension product
    te = trivial_extension(fixture("leibniz-L2").bundle)
    rep = G.find_breaking_bump(
        te.product,
        lambda p: NHLPBundle(te.space, te.bichar, p, te.bracket, te.twist),
        check_nhlp,
    )
    caught.append(("nhlp", _named(rep)))

    # dialgebra axioms: bump one product of a valid two-sided dialgebra
    d = next(b for b in dialgebra_pool if b.prod_left != b.prod_right)
    rep = G.find_breaking_bump(
        d.prod_left,
        lambda l: DialgebraBundle(d.space, d.bichar, l, d.prod_right, d.twist),
        check_dialgebra,
    )
    caught.append(("dialgebra", _named(rep)))

    # module laws: bump the left action of the module fixture
    mb = fixture("module-M").bundle
    rep = G.find_breaking_bump(
        mb.act_left,
        lambda a: ModuleBundle(mb.algebra, mb.module_space, a, mb.act_right, mb.module_twist),
        check_module,
    )
    caught.append(("module", _named(rep)))

    misses = [name for name, hit in caught if not hit]
    ok = not misses
    record(
        10,
        ok,
        f"{len(caught)} suites each caught a +1 bump with a named tuple"
        + (f" (missed: {misses})" if misses else ""),
    )


# ---------------------------------------------------------------------------
# 11. infrastructure: bicharacter exhaustives, round-trip, determinism


def _exhaustive_bicharacters(group, field, candidates):
    """All candidate generator matrices that validate on the group."""
    n = group.rank
    good = []
    for entries in itertools.product(candidates, repeat=n * n):
        matrix = tuple(
            tuple(entries[i * n + j] for j in range(n)) for i in range(n)
        )
        if validate_bicharacter(matrix, group, field).passed:
            good.append(matrix)
    return good


def test_criterion_11_infrastructure(capsys):
    one = Scalar.one(FIELD)
    i = Scalar.root(FIELD)
    fourth = [one, -one, i, -i]

    good_z2 = _exhaustive_bicharacters(GradingGroup(0, (2,)), FIELD, fourth)
    assert [m[0][0] for m in good_z2] == [one, -one]  # only the signs survive

    F3 = cyclotomic_field(3)
    zeta = Scalar.root(F3)
    third = [Scalar.one(F3), zeta, zeta * zeta, -Scalar.one(F3)]
    good_z3 = _exhaustive_bicharacters(GradingGroup(0, (3,)), F3, third)
    assert len(good_z3) == 1 and good_z3[0][0][0].is_one()  # only trivial

    good_z2z2 = _exhaustive_bicharacters(GradingGroup(0, (2, 2)), FIELD, fourth)
    assert len(good_z2z2) == 8  # free sign diagonal, off-diagonal pair tied

    # round-trip identity on every fixture document
    for name in fixture_names():
        doc = fixture_document(name)
        parsed = io.parse_document(doc)
        assert io.serialize_bundle(parsed.bundle, extra_maps=parsed.extra_maps) == doc

    # machine reports byte-identical across repeated runs
    deterministic = True
    for name in ("leibniz-L2-broken", "nonassoc-NA2", "module-M"):
        outs = []
        for _ in range(2):
            code = cli.main(["check", f"fixtures/{name}", "--report", "machine"])
            assert code in (0, 1)
            outs.append(capsys.readouterr().out)
        deterministic = deterministic and outs[0] == outs[1]
    ok = deterministic
    record(
        11,
        ok,
        "exhaustive bicharacter counts (2 on Z_2, 1 on Z_3, 8 on Z_2xZ_2), "
        "round-trips exact, reports byte-stable across repeated runs",
    )
