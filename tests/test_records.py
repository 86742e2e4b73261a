"""The record contract (colorhom.record): records built from two parses of
one document are equal, hash alike and share a tables.signs entry; every
field of every value a bundle holds, scalars, vectors, maps, compiled
tables and reports included, refuses a write and a delete, a read-only
view refuses an item write, and no field nests a list, dict or set;
record.replace validates again; CheckReport compares by identity and
ParsedDocument stays mutable; copy and pickle rebuild equal bundles that
check alike.  Equal records are mostly distinct objects
here, so the ``is`` shortcut and the cached hash cannot hide a broken
value comparison."""

import copy
import pickle
from types import MappingProxyType

import pytest

from colorhom import io, record, tables
from colorhom.checkers import check_color_leibniz
from colorhom.errors import FrozenError, InputError
from colorhom.fixtures import fixture, fixture_document, fixture_names
from colorhom.grading import GradingGroup
from colorhom.linalg import EvenMap, GradedSpace, Vector
from colorhom.report import CheckReport
from colorhom.scalars import Scalar, cyclotomic_field

# the first fixture of each bundle kind
ONE_PER_KIND = sorted({fixture(n).bundle.kind: n for n in reversed(fixture_names())}.values())


def parse_twice(name):
    return [io.parse_document(fixture_document(name)) for _ in range(2)]


def space_of(bundle):
    return bundle.module_space if bundle.kind == "module" else bundle.space


def bichar_of(bundle):
    return (bundle.algebra if bundle.kind == "module" else bundle).bichar


def records(parsed):
    """label -> one value of each frozen type reachable from a parse; a
    violation from a parse of leibniz-L2-broken stands for the reports, and
    the compiled tables are built here."""
    bundle = parsed.bundle
    space = space_of(bundle)
    operation = bundle.ops()[0]
    value = operation.table[min(operation.table)]
    twist = getattr(bundle, bundle.TWIST[1])
    broken = io.parse_document(fixture_document("leibniz-L2-broken")).bundle
    found = {"bundle": bundle, "space": space, "group": space.group,
             "degree": space.degree(space.dim - 1), "field": space.field,
             "scalar": twist.rows[0][0], "vector": value + value,  # by Vector._make
             "twist": twist, "operation": operation, "bicharacter": bichar_of(bundle),
             "violation": check_color_leibniz(broken).violations[0],
             "compiled": tables.table(operation),
             "signs": tables.signs(bichar_of(bundle), space, space)}
    if bundle.kind == "module":
        found["algebra"] = bundle.algebra
    return found


def nested(value):
    """value and, if it is a tuple, everything nested in it."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from nested(item)


def fields_of(value):
    """The fields of a record; a Scalar, not a record, lists its slots."""
    return value.FIELDS if isinstance(value, record.Record) else value.__slots__


UNHASHABLE = ("bundle", "algebra", "vector", "operation")  # they hold read-only views


@pytest.mark.parametrize("name", ONE_PER_KIND)
def test_two_parses_build_equal_records(name):
    one, two = parse_twice(name)
    assert one == two and one is not two
    for label, a in records(one).items():
        b = records(two)[label]
        copied = record.replace(a) if label != "scalar" else copy.copy(a)
        assert copied is not a, label
        for other in (b, copied):
            assert a == other and not a != other, label
            if label in UNHASHABLE:
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
        for field in fields_of(rec):
            value = getattr(rec, field)
            with pytest.raises(FrozenError):
                setattr(rec, field, value)
            with pytest.raises(FrozenError):
                delattr(rec, field)
            assert getattr(rec, field) is value, (label, field)
            if isinstance(value, (dict, MappingProxyType)):  # a view, never a dict
                with pytest.raises(TypeError):
                    value[0] = value
            assert not any(isinstance(v, (list, dict, set)) for v in nested(value)), (
                label, field)  # tuples all the way down
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
    for label, rec in records(io.parse_document(fixture_document("akivis-A"))).items():
        assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec, label
        assert pickle.loads(pickle.dumps(rec)) == rec, label


def report_bytes(bundle):
    return io.dumps_document(io.report_document(io.serialize_bundle(bundle),
                                                *io.full_check(bundle)))


def scalars_of(bundle):
    for b in (bundle.algebra, bundle) if bundle.kind == "module" else (bundle,):
        yield from (s for row in getattr(b, b.TWIST[1]).rows for s in row)
        for op in b.ops():
            yield from (s for v in op.table.values() for s in v.coeffs.values())
    yield from (s for row in bichar_of(bundle).matrix for s in row)


@pytest.mark.parametrize("name", ONE_PER_KIND)
@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copied_bundle_checks_alike(name, how):
    """A copied or unpickled bundle equals its original and writes the
    same report; its scalars keep the one field object of their order,
    so its space takes that field's scalars."""
    bundle = io.parse_document(fixture_document(name)).bundle
    order = space_of(bundle).field.cyclotomic_order
    want = report_bytes(bundle)
    copied = {"copy": copy.copy, "deepcopy": copy.deepcopy,
              "pickle": lambda b: pickle.loads(pickle.dumps(b))}[how](bundle)
    assert copied == bundle
    assert report_bytes(copied) == want
    field = cyclotomic_field(order)
    assert all(s.field is field for s in scalars_of(copied))
    space = space_of(copied)
    assert space.field is field
    assert Vector(space, {0: Scalar.one(field)}).coeffs[0] == 1
