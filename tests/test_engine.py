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
* linalg.is_endomorphism, the Vector multiplicativity test, for the
  closed form that bundles.is_multiplicative applies to rational
  diagonal twists.

Random bundles cover the fields Q (N=1), Q(i) (N=4) and Q(zeta_12)
(N=12); trivial, Z2xZ2 (signs +-1), Z4xZ4 (signs +-i) and free rank-2
gradings whose bicharacter has entries 2 and 1/2 (so eps has
denominators) or, over Q(i) and Q(zeta_12), 1+zeta and its inverse (so
eps has a zeta part and is no root of unity, and a two-factor eps
multiplies two such values); twist maps with fractional entries, the
identity, rational diagonal twists and diagonal twists with a zeta part
(``TWIST_SHAPES``), the first off the diagonal on graded spaces of
dimension ``WIDE``, where a degree repeats; tables and twists with
rational values over Q(i) and Q(zeta_12); modules whose
dimension differs from the algebra's; and both passing bundles and
bundles with one planted +1 in a structure constant.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

import genutil as G
import vector_laws
from colorhom import bundles, checkers, constructions, io, linalg, tables
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
from colorhom.fixtures import fixture
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
    "free2-zeta": (
        GradingGroup(2, ()),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        lambda F: ((1, 1 + Scalar.root(F)), ((1 + Scalar.root(F)).inverse(), 1)),
    ),
}

# dimension 4 puts every degree of the pool in the space, so that every
# value of the bicharacter meets nonzero entries; the trivial grading has
# one sign and dense tables, so 3 is enough there
DIM = {"trivial": 3, "z2xz2": 4, "z4xz4": 4, "free2": 4, "free2-zeta": 4}

# one above the graded pools: a degree repeats, so an even twist of a graded
# algebra can be off the diagonal, as it cannot at DIM
WIDE = 6

CASES = [
    (1, "trivial"), (1, "z2xz2"), (1, "free2"),
    (4, "z2xz2"), (4, "z4xz4"), (4, "free2"),
    (12, "trivial"), (12, "z2xz2"), (12, "z4xz4"), (12, "free2"),
    (4, "free2-zeta"), (12, "free2-zeta"),
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


# the twists of random_bundles: random matrices (diagonal where no two basis
# vectors share a degree), the identity, rational diagonals with a zero and
# a fractional entry, and diagonals with a zeta part in every entry.  Table.images
# builds the rows of a rational diagonal twist from the operation's own
# rotated entries, and those of any other twist in its general loop.
TWIST_SHAPES = ("general", "identity", "diagonal", "zeta-diagonal")


def random_twist(rng, space, rational=False, shape="general"):
    """An even map of the given shape (``TWIST_SHAPES``); a general one
    has fractional entries."""
    F, n = space.field, space.dim
    if shape == "identity":
        return EvenMap.identity(space)
    if shape == "diagonal":
        # e_0 scales by +-1/3, a non-unit denominator, and e_1 by 0
        values = [Fraction(rng.choice((-1, 1)), 3), 0]
        values += [Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2)))
                   for _ in range(n - 2)]
        return EvenMap.diagonal(space, values[:n])
    if shape == "zeta-diagonal":  # over Q(zeta_N), N > 1
        return EvenMap.diagonal(
            space, [random_scalar(rng, F, True) + Scalar.root(F) for _ in range(n)])
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


def random_bundles(rng, N, grading, dim, rational=False, shape="general"):
    """(kind, bundle) pairs: random (mostly failing), passing, and passing
    with one planted +1; with rational, every random table and twist has
    rational values.  Every random twist has the given shape."""
    space, bichar = setup(rng, N, grading, dim)
    table = functools.partial(random_table, rng, rational=rational)
    twist = functools.partial(random_twist, rng, rational=rational, shape=shape)
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
        out += [classify, checkers.check_hom_associativity]
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


def rational_diagonal(f):
    """Is the EvenMap f diagonal with rational entries?  Read off its rows."""
    return all(not any(c.nums[1:]) if i == j else c.is_zero()
               for i, row in enumerate(f.rows) for j, c in enumerate(row))


def off_diagonal_in_general_loop(bundles):
    """Did some algebra bundle (no module) whose twist is off the diagonal
    have an operation imaged with that twist in ``Table.images``' general
    loop (which keeps the unflattened entries as ``coords``)?"""
    for _, b in bundles:
        if isinstance(b, ModuleBundle) or not any(
                not c.is_zero() for i, row in enumerate(b.twist.rows)
                for j, c in enumerate(row) if i != j):
            continue
        twist = tables.table(b.twist)
        for op in b.ops():
            memo = tables.table(op)._memo
            if "coords" in memo and any(
                    key[0] == "images" and hit[0] is twist for key, hit in memo.items()):
                return True
    return False


def image_paths(bundles, rotated):
    """The paths the image rows of the bundles' operations took: True for
    the rotated entries of a rational diagonal twist (``rotated`` maps
    the id of each table whose ``_rotated`` ran to it), False for the general
    loop (which keeps the unflattened entries as ``coords``).  Each table
    must have taken the first exactly when it was imaged with a rational
    diagonal twist, and the second exactly when it was imaged with
    another."""
    twists, ops = {}, []
    for _, b in bundles:
        for owner in (b, getattr(b, "algebra", b)):
            twist = getattr(owner, owner.TWIST[1])
            twists[id(tables.table(twist))] = twist
            ops += owner.ops()
    paths = set()
    for op in ops:
        memo = tables.table(op)._memo
        imaged = {rational_diagonal(twists[id(hit[0])])
                  for key, hit in memo.items() if key[0] == "images"}
        assert (id(tables.table(op)) in rotated) == (True in imaged)
        assert ("coords" in memo) == (False in imaged)
        paths |= imaged
    return paths


@pytest.mark.parametrize("N,grading,rational", [
    *(pytest.param(N, grading, False, id=f"{N}-{grading}") for N, grading in CASES),
    *(pytest.param(N, grading, True, id=f"{N}-{grading}-rational")
      for N, grading in RATIONAL_CASES)])
def test_engine_matches_vector_expressions(monkeypatch, scans, N, grading, rational):
    rng = random.Random(f"{N}-{grading}" + "-rational" * rational)
    rotated, build = {}, tables.Table._rotated

    def spy(table, *args):
        rotated[id(table)] = table  # kept alive, so that no other table takes its id
        return build(table, *args)

    monkeypatch.setattr(tables.Table, "_rotated", spy)
    expected = ALL_LAWS if grading == "trivial" else {
        law for law in ALL_LAWS if not law.startswith("dialgebra")}
    for shape in TWIST_SHAPES if N > 1 else TWIST_SHAPES[:3]:
        seen, violations = set(), 0
        wide = [WIDE] if grading != "trivial" and shape == "general" else []
        for dim in (0, 1, DIM[grading], *wide):
            bundles = random_bundles(rng, N, grading, dim, rational, shape)
            for kind, b in bundles:
                reports = scans(b)
                assert reports, kind
                compare(b, reports)
                seen |= {report.identity_id for report in reports}
                violations += sum(len(report.violations) for report in reports)
            paths = image_paths(bundles, rotated)
            # at the full dimension each shape reaches its own path (the
            # identity twists of the passing dialgebras take the rotated
            # rows under any)
            if dim == DIM[grading] and shape != "general":
                assert (shape != "zeta-diagonal") in paths, shape
            # above it, a graded algebra's general twist leaves the diagonal
            # and is compared through the general loop
            if dim == WIDE:
                assert off_diagonal_in_general_loop(bundles)
        assert set(seen) == expected, shape
        assert violations, shape


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
# the shapes a term contracts


def test_every_law_binds():
    """Every LAWS entry binds on nonassoc-NA2's space, each name bound to a
    nonzero map of its arity, and its defect evaluates at every key."""
    b = fixture("nonassoc-NA2").bundle
    S, P, t = b.space, b.product, b.twist
    by_arity = {1: t, 2: P, 3: associator_map(P, t)}
    assert all(m.table for m in by_arity.values())
    for law_id, (spaces, _, _) in checkers.LAWS.items():
        defect = checkers.bind_law(law_id, {"S": S, "A": S}, b.bichar, B=P, P=P, L=P, R=P,
                                   T=by_arity[3], M=by_arity[len(spaces)], tS=t, tA=t)
        for key in S.tuples(len(spaces)):
            defect(key)


def test_term_refuses_shapes_it_cannot_contract():
    """A twisted argument needs a binary outer, and a lookup key positions
    only: a term of any other shape is refused when it is built, by name."""
    b = fixture("nonassoc-NA2").bundle
    P, t = tables.table(b.product), tables.table(b.twist)
    T = tables.table(associator_map(b.product, b.twist))
    with pytest.raises(ValueError, match=r"arity 3 with arguments \['twist', 'twist', 'twist'\]"):
        tables.term(1, T, (t, 0), (t, 1), (t, 2))
    with pytest.raises(ValueError, match=r"arity 2 with arguments \['inner', 'inner'\]"):
        tables.term(1, P, (P, 0, 1), (P, 1, 2))


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
# the closed-form multiplicativity test vs the Vector one


def weighted(m, weights):
    """m keeping, at each basis tuple, the coordinates whose weight is the
    sum of the tuple's weights: diag(t**w) commutes with it for every t,
    0 included (0**0 is 1)."""
    table = {}
    for key, v in m.table.items():
        want = sum(weights[i] for i in key)
        coeffs = {k: c for k, c in v.coeffs.items() if weights[k] == want}
        if coeffs:
            table[key] = Vector(m.codomain, coeffs)
    return MultilinearMap(m.spaces, m.codomain, table)


def every_algebra(rng, space, bichar, tw, weights):
    """(kind, bundle) of each algebra kind on space with twist tw, its
    operations random tables kept to ``weights``; a module's algebra is
    the Leibniz bundle it acts through, and a dialgebra needs a trivially
    graded space."""
    def op(arity):
        return weighted(random_table(rng, (space,) * arity, space), weights)

    out = [("nonassoc", NonAssocBundle(space, bichar, op(2), tw)),
           ("akivis", AkivisBundle(space, bichar, op(2), op(3), tw)),
           ("leibniz", LeibnizBundle(space, bichar, op(2), tw)),
           ("nhlp", NHLPBundle(space, bichar, op(2), op(2), tw))]
    if space.is_trivially_graded():
        out.append(("dialgebra", DialgebraBundle(space, bichar, op(2), op(2), tw)))
    mspace = GradedSpace.build(space.field, space.group, [("m0", space.degree(0).coords)])
    module = ModuleBundle(LeibnizBundle(space, bichar, op(2), tw), mspace,
                          MultilinearMap((space, mspace), mspace, {}),
                          MultilinearMap((mspace, space), mspace, {}), EvenMap.identity(mspace))
    return out + [("module", module.algebra)]


@pytest.fixture
def scanned(monkeypatch):
    """The twist of every Vector endomorphism test is_multiplicative runs."""
    tested = []
    is_endomorphism = bundles.is_endomorphism
    monkeypatch.setattr(bundles, "is_endomorphism",
                        lambda f, ops: tested.append(f) or is_endomorphism(f, ops))
    return tested


# rational twist entries t**w: one, a sign, an integer, p/q with q > 1 and
# a negative one, and zero (weight-0 entries stay 1)
POWERS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 0)


@pytest.mark.parametrize("N,grading", [(1, "trivial"), (4, "z2xz2"), (12, "z4xz4"),
                                       (4, "free2"), (12, "free2-zeta")])
def test_closed_form_multiplicativity_matches_vector_test(scanned, N, grading):
    """On rational diagonal twists of every algebra kind, bundles.is_multiplicative
    decides on the compiled tables, with no Vector scan, what
    linalg.is_endomorphism decides by evaluating: multiplicative twists
    diag(t**w) of weighted operations and the same twists with one entry
    moved, with zero, negative and fractional entries and twist
    denominators above 1."""
    rng = random.Random(f"multiplicative-{N}-{grading}")
    space, bichar = setup(rng, N, grading, DIM[grading])
    seen = set()
    for _ in range(4):
        weights = [rng.randrange(3) for _ in range(space.dim)]
        for t in POWERS:
            values = [Fraction(t) ** w for w in weights]
            moved = list(values)
            moved[rng.randrange(space.dim)] += rng.choice((-1, Fraction(1, 3)))
            for entries in (values, moved):
                tw = EvenMap.diagonal(space, entries)
                for kind, b in every_algebra(rng, space, bichar, tw, weights):
                    want = linalg.is_endomorphism(tw, b.ops())
                    scanned.clear()
                    assert bundles.is_multiplicative(b) is want, (kind, entries)
                    assert scanned == []
                    features = {kind, tables.table(tw).den > 1 and "den",
                                0 in entries and "zero", min(entries) < 0 and "negative",
                                any(Fraction(v).denominator > 1 for v in entries) and "p/q"}
                    seen |= {(f, want) for f in features if f}
    kinds = {"nonassoc", "akivis", "leibniz", "nhlp", "module"} | (
        {"dialgebra"} if grading == "trivial" else set())
    for feature in (*kinds, "den", "zero", "negative", "p/q"):
        assert {(feature, True), (feature, False)} <= seen, feature


def test_zeta_diagonal_twist_is_scanned_once(scanned):
    """A diagonal twist with a zeta part, such as diag(1, zeta), keeps the
    Vector test: one scan per bundle, stored, with the reference's answer."""
    F = cyclotomic_field(4)
    space, bichar = setup(random.Random("zeta-diagonal"), 4, "trivial", 2)
    one = Scalar.one(F)
    # [e0, e1] = e1 commutes with diag(1, zeta); [e1, e1] = e0 does not
    for table, want in (({(0, 1): {1: one}}, True), ({(1, 1): {0: one}}, False)):
        bracket = MultilinearMap.internal(
            space, 2, {k: Vector(space, v) for k, v in table.items()})
        b = LeibnizBundle(space, bichar, bracket, EvenMap.diagonal(space, [1, Scalar.root(F)]))
        assert tables.table(b.twist).scales() is None
        scanned.clear()
        assert bundles.is_multiplicative(b) is want
        assert bundles.is_multiplicative(b) is want  # stored
        assert scanned == [b.twist]
        assert linalg.is_endomorphism(b.twist, b.ops()) is want


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
                F, found(checkers.check_hom_associativity(b)),
                lambda *k: O.associator(tp, rows, *k), b.space, sign=-1)
            # the classifier's, read off that report
            failing += agree(F, checkers._ternary_of(b).table,
                             lambda *k: O.associator(tp, rows, *k), b.space)
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
