"""The record contract (colorhom.record): records built from two parses of
one document are equal, hash alike and share a tables.signs entry; every
field refuses a write; record.replace validates again; CheckReport
compares by identity and ParsedDocument stays mutable.  Equal records are
mostly distinct objects here, so the ``is`` shortcut and the cached hash
cannot hide a broken value comparison."""

import copy
import pickle

import pytest

from colorhom import io, record, tables
from colorhom.errors import FrozenError, InputError
from colorhom.fixtures import fixture, fixture_document, fixture_names
from colorhom.grading import GradingGroup
from colorhom.linalg import EvenMap, GradedSpace
from colorhom.report import CheckReport
from colorhom.scalars import cyclotomic_field

# the first fixture of each bundle kind
ONE_PER_KIND = sorted({fixture(n).bundle.kind: n for n in reversed(fixture_names())}.values())


def parse_twice(name):
    return [io.parse_document(fixture_document(name)) for _ in range(2)]


def space_of(bundle):
    return bundle.module_space if bundle.kind == "module" else bundle.space


def records(parsed):
    """label -> one record of each frozen type reachable from a parse."""
    bundle = parsed.bundle
    space = space_of(bundle)
    found = {"bundle": bundle, "space": space, "group": space.group,
             "degree": space.degree(space.dim - 1), "field": space.field}
    if bundle.kind == "module":
        found["algebra"] = bundle.algebra
    return found


@pytest.mark.parametrize("name", ONE_PER_KIND)
def test_two_parses_build_equal_records(name):
    one, two = parse_twice(name)
    assert one == two and one is not two
    for label, a in records(one).items():
        b = records(two)[label]
        copied = record.replace(a)
        assert copied is not a, label
        for other in (b, copied):
            assert a == other and not a != other, label
            if label in ("bundle", "algebra"):  # a Bicharacter has no hash
                with pytest.raises(TypeError):
                    hash(a)
            else:
                assert hash(a) == hash(other), label


@pytest.mark.parametrize("name", ONE_PER_KIND)
def test_equal_spaces_share_one_signs_entry(name):
    one, two = (parsed.bundle for parsed in parse_twice(name))
    bichar = (one.algebra if one.kind == "module" else one).bichar
    a, b = space_of(one), space_of(two)
    assert a is not b
    assert tables.signs(bichar, a, a) is tables.signs(bichar, b, b)


def test_unequal_records_compare_unequal():
    field = cyclotomic_field(12)
    group = GradingGroup(0, (2, 2))
    space = GradedSpace.build(field, group, [("x", (0, 0)), ("y", (1, 0))])
    renamed = GradedSpace.build(field, group, [("x", (0, 0)), ("z", (1, 0))])
    assert space != renamed and not space == renamed
    assert space.degree(0) != space.degree(1)
    assert group != GradingGroup(0, (2, 4)) and group != GradingGroup(1, (2, 2))
    assert field != cyclotomic_field(4)
    good, broken = (io.parse_document(fixture_document(n)).bundle
                    for n in ("leibniz-L2", "leibniz-L2-broken"))
    assert good != broken
    assert space != group and space.__eq__(group) is NotImplemented


@pytest.mark.parametrize("name", ONE_PER_KIND)
def test_every_field_is_frozen(name):
    reports = [report for report, _ in io.full_check(io.parse_document(
        fixture_document(name)).bundle)[0]]
    for label, rec in [*records(io.parse_document(fixture_document(name))).items(),
                       *(("report", r) for r in reports)]:
        for field in rec.FIELDS:
            value = getattr(rec, field)
            with pytest.raises(FrozenError):
                setattr(rec, field, value)
            with pytest.raises(FrozenError):
                delattr(rec, field)
            assert getattr(rec, field) is value, (label, field)
        with pytest.raises(AttributeError):  # FrozenError is an AttributeError
            rec.unknown = 1


def test_parsed_document_stays_mutable_and_unhashable():
    parsed = io.parse_document(fixture_document("akivis-A"))
    parsed.extra_maps = {}
    del parsed.extra_maps
    parsed.extra_maps = {"beta": None}
    assert parsed.extra_maps == {"beta": None}
    with pytest.raises(TypeError):
        hash(parsed)
    assert io.ParsedDocument(parsed.bundle).extra_maps == {}
    assert io.ParsedDocument(parsed.bundle).extra_maps is not io.ParsedDocument(
        parsed.bundle).extra_maps


@pytest.mark.parametrize("name", ONE_PER_KIND)
def test_replace_validates_again(name):
    bundle = io.parse_document(fixture_document(name)).bundle
    space = space_of(bundle)
    other = GradedSpace.build(space.field, space.group, [("w", (0,) * space.group.rank)])
    with pytest.raises(InputError, match="must act on the bundle space"):
        record.replace(bundle, **{bundle.FIELDS[-1]: EvenMap.identity(other)})
    with pytest.raises(InputError, match="unique"):
        record.replace(space, basis=space.basis + space.basis)
    with pytest.raises(InputError, match="free rank"):
        record.replace(space.group, free_rank=-1)
    with pytest.raises(TypeError):
        record.replace(space, dimension=3)


def test_check_reports_compare_by_identity():
    one, two = (parsed.bundle for parsed in parse_twice("akivis-A"))
    for (a, _), (b, _) in zip(io.full_check(one)[0], io.full_check(two)[0]):
        assert a.describe() == b.describe()
        if a is not b:  # evenness and bicharacter reports are shared constants
            assert a != b and len({a, b}) == 2
        assert a == a and hash(a) == object.__hash__(a)
    assert CheckReport("x").flags is not CheckReport("x").flags
    assert CheckReport("x", note="n").note == "n" and CheckReport("x").violations == ()


def test_keywords_name_fields_and_mistakes_are_refused():
    assert GradingGroup(free_rank=0, torsion_orders=(2,)) == GradingGroup(0, (2,))
    assert GradingGroup(0, torsion_orders=(2,)) == GradingGroup(0, (2,))
    for args, kwargs in [((0,), {}), ((0, (2,), 5), {}), ((0, (2,)), {"free_rank": 0}),
                         ((), {"free_rank": 0, "torsion": (2,)})]:
        with pytest.raises(TypeError):
            GradingGroup(*args, **kwargs)


def test_copy_and_pickle_rebuild_equal_records():
    space = io.parse_document(fixture_document("akivis-A")).bundle.space
    for rec in (space, space.group, space.degree(0), space.field):
        assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec
