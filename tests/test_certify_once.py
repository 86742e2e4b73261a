"""Each law is scanned at most once per bundle object, and bundles are
frozen so that a stored report cannot go stale."""

import contextlib
import dataclasses
import io as stdio
import sys
from collections import Counter

import pytest

from colorhom import checkers, cli, io
from colorhom.checkers import check_flexible_alternative
from colorhom.fixtures import fixture, fixture_document, fixture_names


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


def test_stored_report_is_keyed_by_mode():
    b = fresh_bundle("akivis-A")
    polarized = check_flexible_alternative(b)
    literal = check_flexible_alternative(b, mode="literal", jobs=3)
    assert polarized.note == "mode=polarized"
    assert literal.note == "mode=literal"
    assert check_flexible_alternative(b, "polarized", 2) is polarized


@pytest.mark.parametrize("name", fixture_names())
def test_bundle_fields_are_frozen(name):
    bundle = fixture(name).bundle
    field = dataclasses.fields(bundle)[-1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(bundle, field, getattr(bundle, field))
