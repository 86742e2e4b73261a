"""Each law is scanned at most once per bundle object, and bundles are
frozen so that a stored report cannot go stale."""

import contextlib
import io as stdio
import sys
from collections import Counter

import pytest

from colorhom import bundles, checkers, cli, grading, io, linalg, tables
from colorhom.checkers import check_flexible_alternative
from colorhom.constructions import twist_leibniz
from colorhom.errors import FrozenError
from colorhom.fixtures import fixture, fixture_document, fixture_names
from colorhom.linalg import EvenMap, Vector
from colorhom.record import replace


def fresh_bundle(name):
    """A newly parsed bundle, so no report stored by another test is
    reused (fixture() hands out one shared object per name)."""
    return io.parse_document(fixture_document(name)).bundle


@pytest.fixture
def scan_ledger(monkeypatch):
    """(bundle object, identity id) of every scan_identity call.  The
    bundle is the first argument of the innermost check_* or full_check
    call that received one; the ledger keeps each bundle alive, so ids
    are never reused within a test."""
    stack, ledger = [], []

    def enclosing(fn):
        def wrapper(*args, **kwargs):
            bundle = args[0] if args and hasattr(args[0], "kind") else None
            stack.append(bundle if bundle is not None else (stack[-1] if stack else None))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    scan = checkers.scan_identity

    def counting_scan(identity_id, keys, defect_fn, jobs=1, note=""):
        bundle = stack[-1] if stack else None
        ledger.append((bundle, identity_id))
        return scan(identity_id, keys, defect_fn, jobs, note)

    monkeypatch.setattr(checkers, "scan_identity", counting_scan)
    for modname in ("checkers", "constructions", "io", "cli"):
        mod = sys.modules[f"colorhom.{modname}"]
        for name, value in list(vars(mod).items()):
            if callable(value) and (name.startswith("check_") or name == "full_check"):
                monkeypatch.setattr(mod, name, enclosing(value))
    return ledger


def patch_everywhere(monkeypatch, fn, replacement):
    """Point every colorhom module attribute bound to fn at replacement."""
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("colorhom"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def repeats(ledger):
    counts = Counter((id(bundle), identity) for bundle, identity in ledger)
    return {identity: n for (_, identity), n in counts.items() if n > 1}


def test_full_check_scans_skew_symmetry_once(scan_ledger):
    io.full_check(fresh_bundle("akivis-A"))
    ids = Counter(identity for _, identity in scan_ledger)
    assert ids["skew-symmetry"] == 1
    assert ids["flexible-polarized"] == 1
    assert repeats(scan_ledger) == {}


@pytest.mark.parametrize("name", ["nonassoc-NA2", "nhlp-trivext-L2"])
def test_hom_associativity_is_scanned_once(scan_ledger, name):
    """full_check scans a product's hom-associativity once, and the
    classifier reads its Hom-associator off that stored report: asking
    either again scans nothing."""
    b = fresh_bundle(name)
    io.full_check(b)
    assert Counter(identity for _, identity in scan_ledger)["hom-associativity"] == 1
    check_flexible_alternative(b)
    before = len(scan_ledger)
    checkers.check_hom_associativity(b)
    check_flexible_alternative(b)
    assert len(scan_ledger) == before
    assert Counter(identity for _, identity in scan_ledger)["hom-associativity"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["twist", "fixtures/nhlp-trivext-L2", "-"],
        ["construct", "akivis", "fixtures/nonassoc-NA2", "-"],
    ],
)
def test_cli_scans_no_pair_twice(scan_ledger, argv):
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert cli.main(argv) == 0
    assert scan_ledger
    assert repeats(scan_ledger) == {}


def test_twist_fixed_point_returns_input(scan_ledger):
    b = fresh_bundle("leibniz-L2")
    checkers.check_color_leibniz(b)
    before = len(scan_ledger)
    assert twist_leibniz(b, EvenMap.identity(b.space), 1) is b
    assert len(scan_ledger) == before


def test_stored_report_is_keyed_by_check():
    b = fresh_bundle("akivis-A")
    classify = check_flexible_alternative(b)
    assert check_flexible_alternative(b) is classify
    assert checkers.check_skew_symmetry(b) is not classify


@pytest.mark.parametrize("name", fixture_names())
def test_bundle_fields_are_frozen(name):
    bundle = fixture(name).bundle
    field = bundle.FIELDS[-1]
    with pytest.raises(FrozenError):
        setattr(bundle, field, getattr(bundle, field))


def test_stored_report_cannot_go_stale():
    """Nothing inside a certified bundle, its compiled tables or its stored
    report takes a write, so the stored PASS still matches a fresh parse's report."""
    b = fresh_bundle("leibniz-L2")
    stored = checkers.check_color_leibniz(b)
    value = b.bracket.table[min(b.bracket.table)]
    with pytest.raises(TypeError):
        b.bracket.table[(0, 1)] = Vector(b.space, {1: 1})
    with pytest.raises(TypeError):
        value.coeffs[0] = value.coeffs[min(value.coeffs)]
    with pytest.raises(TypeError):
        stored.flags["passed"] = False
    with pytest.raises(FrozenError):
        b.bichar.matrix = b.bichar.matrix[::-1]
    compiled = tables.table(b.bracket)  # what every later scan of the bracket reads
    with pytest.raises(TypeError):
        compiled.entries[0][1] = ()
    with pytest.raises(FrozenError):
        compiled.entries = ()
    assert checkers.check_color_leibniz(b) is stored and stored.passed

    def report(bundle):
        return io.dumps_document(io.report_document(io.serialize_bundle(bundle),
                                                    *io.full_check(bundle)))

    assert report(b) == report(fresh_bundle("leibniz-L2"))


@pytest.mark.parametrize("name", ["akivis-A", "module-M"])
def test_full_check_does_not_revalidate(monkeypatch, name):
    """Building a bundle checks evenness and the bicharacter axioms;
    full_check reports both from that guarantee without checking again."""
    bundle = fresh_bundle(name)
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (linalg.check_evenness, grading.validate_bicharacter):
        patch_everywhere(monkeypatch, fn, counting(fn))
    results, _ = io.full_check(bundle)
    assert calls == Counter()
    lines = {rep.identity_id: rep.passed for rep, _ in results[:2]}
    assert lines == {"evenness": True, "bicharacter-axioms": True}


def test_parse_checks_each_map_for_evenness_once(monkeypatch):
    """The bundle constructor checks alpha and the bracket; parsing checks
    only maps the bundle does not hold (such as beta)."""
    doc = fixture_document("leibniz-L2")
    checked = Counter()
    check_evenness = linalg.check_evenness

    def counting(obj):
        checked[id(obj)] += 1
        return check_evenness(obj)

    patch_everywhere(monkeypatch, check_evenness, counting)
    bundle = io.parse_document(doc).bundle
    assert checked == Counter({id(bundle.bracket): 1, id(bundle.twist): 1})

    doc["maps"]["beta"] = doc["maps"]["alpha"]
    checked.clear()
    parsed = io.parse_document(doc)
    assert sorted(checked.values()) == [1, 1, 1]
    assert id(parsed.extra_maps["beta"]) in checked


@pytest.mark.parametrize(
    "argv,scans",
    [
        pytest.param(["twist", "fixtures/module-M", "-", "--module", "--power", "3"], 0,
                     id="argv0"),
        pytest.param(["twist", "fixtures/leibniz-L2", "-", "--power", "2"], 0, id="argv1"),
        pytest.param(["twist", "fixtures/akivis-A", "-", "--map", "beta", "--power", "2"], 1,
                     id="argv2"),
    ],
)
def test_cli_tests_the_twist_for_multiplicativity_once(monkeypatch, argv, scans):
    """The twist constructions and the embedded report ask one stored
    multiplicativity test of the bundle.  An identity twist (module-M's
    and leibniz-L2's alpha, and so their outputs') is multiplicative
    without a scan; beta = diag(1, 3) on akivis-A, an extra map, is
    scanned once to refuse or accept it, and the output's twist
    beta^2 = diag(1, 9), rational diagonal, is decided on the operations'
    tables for its report, with no scan."""
    tested = []
    endomorphism_defects = linalg.endomorphism_defects

    def counting(f, ops):
        tested.append(f)
        return endomorphism_defects(f, ops)

    patch_everywhere(monkeypatch, endomorphism_defects, counting)
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert cli.main(argv) == 0
    assert len(tested) == scans


def test_identity_twist_is_multiplicative_without_a_scan(monkeypatch):
    """is_multiplicative decides a twist that is diagonal with rational
    entries, the identity and a multiple of it included, on the
    operations' compiled tables and scans nothing, with the right
    answer."""
    tested = []
    endomorphism_defects = linalg.endomorphism_defects

    def counting(f, ops):
        tested.append(f)
        return endomorphism_defects(f, ops)

    patch_everywhere(monkeypatch, endomorphism_defects, counting)
    base = fresh_bundle("akivis-A")  # [e1, e2] = e2
    space = base.space
    assert base.twist.is_identity()
    for twist, multiplicative, scans in [
            (base.twist, True, 0),
            (EvenMap.diagonal(space, [1, 3]), True, 0),
            (EvenMap.diagonal(space, [2, 2]), False, 0)]:  # 2 [x,y] != [2x, 2y]
        tested.clear()
        bundle = replace(base, twist=twist)
        assert bundles.is_multiplicative(bundle) is multiplicative
        assert bundles.is_multiplicative(bundle) is multiplicative  # stored
        assert len(tested) == scans


def test_twist_along_own_twist_skips_evenness(monkeypatch):
    """A bundle's own twist is even by construction, so twisting along it
    checks evenness only where a bundle is built: the bracket and alpha
    of the parsed input and of the twisted output."""
    fixture_document("leibniz-L2")  # built once per session, outside the count
    calls = []
    check_evenness = linalg.check_evenness

    def counting(obj):
        calls.append(obj)
        return check_evenness(obj)

    patch_everywhere(monkeypatch, check_evenness, counting)
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert cli.main(["twist", "fixtures/leibniz-L2", "-", "--power", "2"]) == 0
    assert len(calls) == 4
