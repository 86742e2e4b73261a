"""The compiled-table scan engine against independent references.

* tests/vector_laws.py: every law as the per-tuple Vector expression the
  checkers used before the engine, compared violation by violation
  (basis tuple and exact defect).
* the same Vector arithmetic, one tuple at a time, for the derived maps
  the engine materializes (commutator, dialgebra bracket, twisted module
  actions).
* tests/oracles.py: the naive Fraction-polynomial evaluators of the
  Leibniz law, the associator, the Akivis identity and the
  compatibility law, compared on every basis tuple.

Random bundles cover the fields Q (N=1), Q(i) (N=4) and Q(zeta_12)
(N=12); trivial, Z2xZ2 (signs +-1), Z4xZ4 (signs +-i) and free rank-2
gradings whose bicharacter has entries 2 and 1/2 (so eps has
denominators); twist maps with fractional entries; tables and twists
with rational values over Q(i) and Q(zeta_12); modules whose dimension
differs from the algebra's; and both passing bundles and bundles with
one planted +1 in a structure constant.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

import genutil as G
import vector_laws
from colorhom import checkers, constructions, io, tables
from colorhom.bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
    associator_map,
    is_sign_commutative,
)
from colorhom.grading import Bicharacter, GradingGroup, TRIVIAL_GROUP
from colorhom.linalg import EvenMap, GradedSpace, MultilinearMap, Vector, commutator_map
from colorhom.report import CheckReport, Violation
from colorhom.scalars import Scalar, cyclotomic_field, scalar_to_text

# grading kind -> (group, degree pool, bicharacter matrix builder)
GRADINGS = {
    "trivial": (TRIVIAL_GROUP, [()], lambda F: ()),
    "z2xz2": (
        GradingGroup(0, (2, 2)),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        lambda F: ((-1, -1), (-1, 1)),
    ),
    "z4xz4": (
        GradingGroup(0, (4, 4)),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        lambda F: ((1, Scalar.root(F) ** (F.cyclotomic_order // 4)),
                   (Scalar.root(F) ** (3 * F.cyclotomic_order // 4), -1)),
    ),
    "free2": (
        GradingGroup(2, ()),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        lambda F: ((1, 2), (Fraction(1, 2), 1)),
    ),
}

# dimension 4 puts every degree of the pool in the space, so that every
# value of the bicharacter meets nonzero entries; the trivial grading has
# one sign and dense tables, so 3 is enough there
DIM = {"trivial": 3, "z2xz2": 4, "z4xz4": 4, "free2": 4}

CASES = [
    (1, "trivial"), (1, "z2xz2"), (1, "free2"),
    (4, "z2xz2"), (4, "z4xz4"), (4, "free2"),
    (12, "trivial"), (12, "z2xz2"), (12, "z4xz4"), (12, "free2"),
]

# rational tables and twists under the +-1 and the +-i bicharacter: a
# rational source fills phase 0 only, until an eps with a zeta part scales it
RATIONAL_CASES = [(4, "z2xz2"), (4, "z4xz4"), (12, "z2xz2"), (12, "z4xz4")]

ALL_LAWS = {
    "skew-symmetry", "hom-akivis", "hom-jacobi", "flexible-literal",
    "flexible-polarized", "alternative-first-pair", "alternative-second-pair",
    "flexible-akivis-relation", "hom-associativity", "color-hom-leibniz",
    "leibniz-symmetrized-action", "leibniz-derived-bracket",
    "leibniz-compatibility",
    *(f"dialgebra-axiom-{n}" for n in range(1, 6)),
    "module-twist-left", "module-twist-right", "module-bracket-left",
    "module-bracket-right", "module-mixed",
}


# ---------------------------------------------------------------------------
# random structures over any field


def scalar(F, value):
    return value if isinstance(value, Scalar) else Scalar(F, [value])


def random_scalar(rng, F, rational=False):
    """A nonzero element with small fractional coefficients on every power
    of zeta, or on 1 alone when rational."""
    while True:
        s = Scalar(F, [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
                       for _ in range(1 if rational else F.degree)])
        if s:
            return s


def setup(rng, N, grading, dim):
    F = cyclotomic_field(N)
    group, pool, matrix = GRADINGS[grading]
    bichar = Bicharacter(group, F, tuple(tuple(scalar(F, v) for v in row)
                                         for row in matrix(F)))
    space = GradedSpace.build(F, group, degrees(rng, pool, dim, "e"))
    return space, bichar


def degrees(rng, pool, dim, names):
    """Basis names with degrees: the whole pool first (degree zero leads,
    so that every table has a degree-legal entry, and at dimension 4
    every sign of the bicharacter meets nonzero entries), then random
    picks from it."""
    return [(f"{names}{i}", pool[i] if i < len(pool) else rng.choice(pool))
            for i in range(dim)]


def random_table(rng, spaces, codomain, density=0.7, rational=False):
    table = {}
    for key in itertools.product(*(range(sp.dim) for sp in spaces)):
        if rng.random() > density:
            continue
        want = spaces[0].degree(key[0])
        for sp, i in zip(spaces[1:], key[1:]):
            want = want + sp.degree(i)
        coeffs = {k: random_scalar(rng, codomain.field, rational) for k in range(codomain.dim)
                  if codomain.degree(k) == want and rng.random() < 0.8}
        if coeffs:
            table[key] = Vector(codomain, coeffs)
    return MultilinearMap(spaces, codomain, table)


def random_twist(rng, space, rational=False):
    """An even map with fractional entries."""
    zero = Scalar.zero(space.field)
    return EvenMap(space, tuple(
        tuple(random_scalar(rng, space.field, rational)
              if space.degree(i) == space.degree(j) and rng.random() < 0.8 else zero
              for j in range(space.dim))
        for i in range(space.dim)))


def eps_flexible(T, bichar):
    """T(x,y,z) - eps(x,z) T(z,y,x): polarized-flexible."""
    space = T.codomain
    table = {}
    for x, y, z in space.tuples(3):
        v = T.on_basis(x, y, z) - T.on_basis(z, y, x).scaled(
            bichar(space.degree(x), space.degree(z)))
        if v:
            table[(x, y, z)] = v
    return MultilinearMap.internal(space, 3, table)


def central_bracket(rng, space, rational=False):
    """A bracket whose image brackets to zero on both sides, so the
    Leibniz law holds for every twist."""
    central = set(range(space.dim // 2, space.dim))
    table = {}
    for i, j in space.tuples(2):
        if i in central or j in central:
            continue
        want = space.degree(i) + space.degree(j)
        coeffs = {k: random_scalar(rng, space.field, rational) for k in central
                  if space.degree(k) == want}
        if coeffs:
            table[(i, j)] = Vector(space, coeffs)
    return MultilinearMap.internal(space, 2, table)


def planted(rng, m):
    """m with +1 added to one degree-legal structure constant."""
    slots = G.legal_slots(m)
    return G.bump(m, *rng.choice(slots)) if slots else m


def random_bundles(rng, N, grading, dim, rational=False):
    """(kind, bundle) pairs: random (mostly failing), passing, and passing
    with one planted +1; with rational, every random table and twist has
    rational values."""
    space, bichar = setup(rng, N, grading, dim)
    table = functools.partial(random_table, rng, rational=rational)
    twist = functools.partial(random_twist, rng, rational=rational)
    mu = table((space,) * 2, space)
    tw = twist(space)
    skew = vector_laws.eps_antisymmetrized(table((space,) * 2, space), bichar)
    T = table((space,) * 3, space, density=0.5)
    central = central_bracket(rng, space, rational)
    out = [
        ("nonassoc", NonAssocBundle(space, bichar, mu, tw)),
        ("leibniz", LeibnizBundle(space, bichar, table((space,) * 2, space), tw)),
        ("leibniz-passing", LeibnizBundle(space, bichar, central, tw)),
        ("leibniz-planted", LeibnizBundle(space, bichar, planted(rng, central), tw)),
        ("akivis", AkivisBundle(space, bichar, skew, T, tw)),
        ("akivis-flexible", AkivisBundle(space, bichar, skew, eps_flexible(T, bichar), tw)),
        ("nhlp", NHLPBundle(space, bichar, mu, skew, tw)),
    ]
    if grading == "trivial":
        _, _, cyclic = G.cyclic_group_algebra(dim)
        F = space.field
        prod = MultilinearMap.internal(space, 2, {
            k: Vector(space, {i: scalar(F, 1) for i in v.coeffs})
            for k, v in cyclic.table.items()})
        one = EvenMap.identity(space)
        out += [
            ("dialgebra", DialgebraBundle(space, bichar, mu, table(
                (space,) * 2, space), tw)),
            ("dialgebra-passing", DialgebraBundle(space, bichar, prod, prod, one)),
            ("dialgebra-planted", DialgebraBundle(space, bichar, prod, planted(rng, prod), one)),
            ("nonassoc-passing", NonAssocBundle(space, bichar, prod, one)),
        ]
    # a module of another dimension over the passing Leibniz algebra
    alg = LeibnizBundle(space, bichar, central, tw)
    mspace = GradedSpace.build(
        space.field, space.group, degrees(rng, GRADINGS[grading][1], dim + 1, "m"))
    out.append(("module", ModuleBundle(
        alg, mspace,
        table((space, mspace), mspace),
        table((mspace, space), mspace),
        twist(mspace))))
    zero_left = MultilinearMap((space, mspace), mspace, {})
    zero_right = MultilinearMap((mspace, space), mspace, {})
    out.append(("module-planted", ModuleBundle(
        alg, mspace, planted(rng, zero_left), zero_right, twist(mspace))))
    # a module over a random bracket: [x,y] is nonzero in non-central
    # degrees, so eps(m,x) t(m)*[x,y] meets signs other than 1
    noncentral = LeibnizBundle(space, bichar, table((space,) * 2, space), tw)
    out.append(("module-noncentral", ModuleBundle(
        noncentral, mspace,
        table((space, mspace), mspace),
        table((mspace, space), mspace),
        twist(mspace))))
    return out


# ---------------------------------------------------------------------------
# engine vs the per-tuple Vector expressions


def checks_for(b, originals):
    skew, leibniz, classify = originals
    out = []
    if isinstance(b, (AkivisBundle, LeibnizBundle, NHLPBundle)):
        out += [skew, leibniz, checkers.check_hom_lie, checkers.check_leibniz_consequences]
    if isinstance(b, AkivisBundle):
        out += [checkers.check_akivis_identity, classify,
                checkers.check_flexible_akivis_relation]
    if isinstance(b, NonAssocBundle):
        out += [classify, lambda b: checkers.check_hom_associativity(b.product, b.twist)]
    if isinstance(b, NHLPBundle):
        out += [checkers.check_nhlp, classify]
    if isinstance(b, DialgebraBundle):
        out.append(checkers.check_dialgebra)
    if isinstance(b, ModuleBundle):
        out.append(checkers.check_module)
    return out


@pytest.fixture
def scans(monkeypatch):
    """run(bundle) -> the report of every scan the checkers make on it.
    Preconditions are replaced by passing reports, so that every law is
    scanned on every bundle, failing ones included."""
    originals = (checkers.check_skew_symmetry, checkers.check_color_leibniz,
                 checkers.check_flexible_alternative)
    monkeypatch.setattr(checkers, "check_skew_symmetry",
                        lambda b: CheckReport("skew-symmetry"))
    monkeypatch.setattr(checkers, "check_color_leibniz",
                        lambda b: CheckReport("color-hom-leibniz"))
    monkeypatch.setattr(
        checkers, "check_flexible_alternative",
        lambda b: CheckReport(
            "flexible-alternative", flags={"flexible": True}))
    scan = checkers.scan_identity
    captured = []

    def capture(identity_id, keys, defect_fn, jobs=1, note=""):
        report = scan(identity_id, keys, defect_fn, jobs, note)
        captured.append(report)
        return report

    monkeypatch.setattr(checkers, "scan_identity", capture)

    def run(b):
        captured.clear()
        for check in checks_for(b, originals):
            check(b)
        return list(captured)

    return run


def compare(b, reports):
    """Each report's violations equal the reference's, tuple and defect."""
    laws = vector_laws.laws(b)
    for report in reports:
        keys, defect = laws[report.identity_id]
        expected = sorted(vector_laws.violations(keys, defect), key=lambda kv: kv[0])
        got = [(v.args, v.defect) for v in report.violations]
        assert got == expected, report.identity_id


@pytest.mark.parametrize("N,grading,rational", [
    *(pytest.param(N, grading, False, id=f"{N}-{grading}") for N, grading in CASES),
    *(pytest.param(N, grading, True, id=f"{N}-{grading}-rational")
      for N, grading in RATIONAL_CASES)])
def test_engine_matches_vector_expressions(scans, N, grading, rational):
    rng = random.Random(f"{N}-{grading}" + "-rational" * rational)
    seen = set()
    for dim in (0, 1, DIM[grading]):
        for kind, b in random_bundles(rng, N, grading, dim, rational):
            reports = scans(b)
            assert reports, kind
            compare(b, reports)
            seen |= {report.identity_id for report in reports}
    expected = ALL_LAWS if grading == "trivial" else {
        law for law in ALL_LAWS if not law.startswith("dialgebra")}
    assert set(seen) == expected


def test_every_law_fails_somewhere(scans):
    """Across these cases each law is compared on nonzero defects, not
    only on zeros."""
    failing = set()
    for N, grading in [(4, "trivial"), (12, "z4xz4"), (1, "free2")]:
        rng = random.Random(f"fail-{N}-{grading}")
        for kind, b in random_bundles(rng, N, grading, DIM[grading]):
            reports = scans(b)
            compare(b, reports)
            failing |= {report.identity_id for report in reports if report.violations}
    assert failing == ALL_LAWS


# ---------------------------------------------------------------------------
# a scan's violations keep the integer defect


def exact(defect):
    """The Vector of a Defect, each coefficient a Fraction."""
    field = defect.space.field
    return Vector(defect.space, {
        k: Scalar(field, [Fraction(n, defect.den) for n in nums]) for k, nums in defect.coords})


def denominators(text):
    """The distinct denominators of one defect's report text."""
    coefs = [c for coef in text.values() for c in (coef if isinstance(coef, list) else [coef])]
    return {c.partition("/")[2] for c in coefs} - {""}


@pytest.mark.parametrize("N,grading", [(1, "free2"), (4, "z2xz2"), (12, "z4xz4")])
def test_defect_text_from_integers(scans, N, grading):
    """On random failing laws, the report text written from a violation's
    integers equals scalar_to_text of its exact Vector; the Vector built
    on demand equals one built from Fractions, and is kept; describe()
    reads as it does with Vectors built eagerly."""
    rng = random.Random(f"text-{N}-{grading}")
    mixed = 0
    for kind, b in random_bundles(rng, N, grading, DIM[grading]):
        for report in scans(b):
            eager = []
            for v in report.violations:
                assert isinstance(v.raw, tables.Defect)
                want = exact(v.raw)
                text = io._defect_doc(v.raw)
                assert text == {str(i): scalar_to_text(c) for i, c in want.items()}
                assert v.defect == want and v.defect is v.defect
                eager.append(Violation(v.args, want, v.note))
                mixed += len(denominators(text)) > 1
            again = CheckReport(report.identity_id, tuple(eager), note=report.note)
            assert again.describe(limit=len(eager)) == report.describe(limit=len(eager))
    assert mixed  # coefficients of one defect reduce to different denominators


@pytest.mark.parametrize("N,coords,text", [
    (1, [(0, (3,)), (2, (-4,))], {"0": "1/2", "2": "-2/3"}),
    (4, [(0, (3, 4)), (2, (6, -2))], {"0": ["1/2", "2/3"], "2": ["1", "-1/3"]}),
])
def test_defect_text_reduces_each_coefficient(N, coords, text):
    """Over den 6, each coefficient reduces on its own; over Q a
    coefficient is one string, not a list."""
    F = cyclotomic_field(N)
    space = GradedSpace.build(F, TRIVIAL_GROUP, [(f"e{i}", ()) for i in range(3)])
    defect = tables.Defect(space, coords, 6)
    assert io._defect_doc(defect) == text
    assert io._defect_doc(defect.vector()) == text


# ---------------------------------------------------------------------------
# derived maps vs their Vector builds


@pytest.mark.parametrize("N,grading", CASES)
def test_derived_maps_match_vector_builds(monkeypatch, N, grading):
    """The commutator, the eps-commutativity test, the dialgebra bracket
    and the twisted module actions, built on the law engine, equal the
    same maps built one tuple at a time with Vector arithmetic.  The
    constructions' certification gates are lifted, so that random inputs
    with fractional entries, most of them failing their laws, reach the
    builds."""
    monkeypatch.setattr(constructions, "_require", lambda report, what: None)
    build = vector_laws.nonzero_map
    rng = random.Random(f"derived-{N}-{grading}")
    dim = DIM[grading]
    space, bichar = setup(rng, N, grading, dim)

    m = random_table(rng, (space,) * 2, space)
    comm = vector_laws.eps_antisymmetrized(m, bichar)
    assert comm.table
    assert commutator_map(m, bichar) == comm
    assert not is_sign_commutative(m, bichar)
    sym = G.eps_symmetrized(m, bichar)
    assert not vector_laws.eps_antisymmetrized(sym, bichar).table
    assert is_sign_commutative(sym, bichar)

    # dialgebras are ungraded: a trivially graded space over the same field
    flat, trivial = setup(rng, N, "trivial", dim)
    L, R = (random_table(rng, (flat,) * 2, flat) for _ in range(2))
    derived = constructions.leibniz_from_dialgebra(
        DialgebraBundle(flat, trivial, L, R, random_twist(rng, flat)))
    bracket = build((flat, flat), flat, lambda i, j: R.on_basis(i, j) - L.on_basis(j, i))
    assert bracket.table and derived.bracket == bracket

    alg = LeibnizBundle(space, bichar, random_table(rng, (space,) * 2, space),
                        random_twist(rng, space))
    M = GradedSpace.build(space.field, space.group,
                          degrees(rng, GRADINGS[grading][1], dim + 1, "m"))
    mb = ModuleBundle(alg, M, random_table(rng, (space, M), M),
                      random_table(rng, (M, space), M), random_twist(rng, M))
    for power in (1, 3):  # along t^2 and t^6
        out = constructions.twist_module(mb, power)
        t2n = alg.twist.power(2 * power)
        left = build((space, M), M, lambda x, n: mb.act_left(
            t2n.on_basis(x), Vector.basis(M, n)))
        right = build((M, space), M, lambda n, x: mb.act_right(
            Vector.basis(M, n), t2n.on_basis(x)))
        assert left.table and out.act_left == left
        assert right.table and out.act_right == right


# ---------------------------------------------------------------------------
# engine vs the independent oracles


def oracle_setup(b):
    F, O = G.bundle_oracle(b.space, b.bichar)
    return F, O, G.oracle_rows(F, b.twist, b.space.dim)


def agree(F, got, oracle_defect, space, sign=1):
    """got: {basis tuple: Vector}; every tuple must match the oracle.
    Returns the number of nonzero defects compared."""
    for key in itertools.product(range(space.dim), repeat=3):
        d = oracle_defect(*key)
        assert bool(d) == (key in got), key
        if d:
            assert G.same_defect(F, got[key].scaled(sign), d), key
    return len(got)


def found(report):
    return {v.args: v.defect for v in report.violations}


@pytest.mark.parametrize("N,grading", CASES)
def test_engine_matches_oracles(N, grading):
    rng = random.Random(f"oracle-{N}-{grading}")
    failing = 0
    # the oracle's Fraction polynomials are slow over Q(zeta_12)
    for kind, b in random_bundles(rng, N, grading, 3 if N == 12 else DIM[grading]):
        if kind.startswith(("leibniz", "nhlp")):
            F, O, rows = oracle_setup(b)
            tb = G.oracle_table(F, b.bracket)
            failing += agree(F, found(checkers.check_color_leibniz(b)),
                             lambda *k: O.leibniz_defect(tb, rows, *k), b.space)
        if kind.startswith(("nonassoc", "nhlp")):
            F, O, rows = oracle_setup(b)
            tp = G.oracle_table(F, b.product)
            failing += agree(F, associator_map(b.product, b.twist).table,
                             lambda *k: O.associator(tp, rows, *k), b.space)
            failing += agree(
                F, found(checkers.check_hom_associativity(b.product, b.twist)),
                lambda *k: O.associator(tp, rows, *k), b.space, sign=-1)
        if kind == "nhlp":
            F, O, rows = oracle_setup(b)
            tb, tp = G.oracle_table(F, b.bracket), G.oracle_table(F, b.product)
            leaf = checkers.check_nhlp(b).find("leibniz-compatibility")
            failing += agree(F, found(leaf),
                             lambda *k: O.compat_defect(tb, tp, rows, *k), b.space)
        if kind.startswith("akivis"):
            F, O, rows = oracle_setup(b)
            tb, tt = G.oracle_table(F, b.bracket), G.oracle_table(F, b.ternary)
            report = checkers.check_akivis_identity(b)
            assert report.precondition_failure is None
            failing += agree(F, found(report),
                             lambda *k: O.akivis_defect(tb, tt, rows, *k), b.space)
    assert failing
