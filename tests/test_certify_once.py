"""Each law is scanned at most once per bundle object, and bundles are
frozen so that a stored report cannot go stale."""

import contextlib
import dataclasses
import io as stdio
import sys
from collections import Counter

import pytest

from colorhom import checkers, cli, grading, io, linalg
from colorhom.checkers import check_flexible_alternative
from colorhom.constructions import twist_leibniz
from colorhom.fixtures import fixture, fixture_document, fixture_names
from colorhom.linalg import EvenMap


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


def repeats(ledger):
    counts = Counter((id(bundle), identity) for bundle, identity in ledger)
    return {identity: n for (_, identity), n in counts.items() if n > 1}


def test_full_check_scans_skew_symmetry_once(scan_ledger):
    io.full_check(fresh_bundle("akivis-A"))
    ids = Counter(identity for _, identity in scan_ledger)
    assert ids["skew-symmetry"] == 1
    assert ids["flexible-polarized"] == 1
    assert repeats(scan_ledger) == {}


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


def test_stored_report_is_keyed_by_mode():
    b = fresh_bundle("akivis-A")
    polarized = check_flexible_alternative(b)
    literal = check_flexible_alternative(b, mode="literal")
    assert polarized.note == "mode=polarized"
    assert literal.note == "mode=literal"
    assert check_flexible_alternative(b, "polarized") is polarized


@pytest.mark.parametrize("name", fixture_names())
def test_bundle_fields_are_frozen(name):
    bundle = fixture(name).bundle
    field = dataclasses.fields(bundle)[-1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(bundle, field, getattr(bundle, field))


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
        wrapped = counting(fn)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("colorhom"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapped)
    results, _ = io.full_check(bundle)
    assert calls == Counter()
    lines = {rep.identity_id: rep.passed for rep, _ in results[:2]}
    assert lines == {"evenness": True, "bicharacter-axioms": True}
