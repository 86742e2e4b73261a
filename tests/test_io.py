"""Document round-trips, digest stability, malformed-input diagnostics,
and the composite verdicts produced by full_check."""

import copy
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from colorhom import grading, io, record
from colorhom.bundles import BUNDLE_TYPES, NonAssocBundle
from colorhom.errors import InputError
from colorhom.fixtures import fixture, fixture_document, fixture_names
from colorhom.grading import GradingGroup
from colorhom.linalg import EvenMap
from colorhom.scalars import Scalar, cyclotomic_field
from genutil import (
    make_bicharacter,
    make_group,
    random_even_map,
    random_even_table,
    random_space,
    regular_module,
)


def reparse(doc):
    return io.parse_document(json.loads(json.dumps(doc)))


# ---------------------------------------------------------------------------
# round-trips


@pytest.mark.parametrize("name", fixture_names())
def test_parse_serialize_round_trip(name):
    parsed = fixture(name)
    doc = io.serialize_bundle(parsed.bundle, extra_maps=parsed.extra_maps)
    again = reparse(doc)
    assert again.bundle == parsed.bundle
    assert again.extra_maps == parsed.extra_maps


@pytest.mark.parametrize("name", fixture_names())
def test_serialize_parse_idempotent(name):
    doc = fixture_document(name)
    parsed = io.parse_document(doc)
    doc2 = io.serialize_bundle(parsed.bundle, extra_maps=parsed.extra_maps)
    assert doc == doc2


def test_round_trip_cyclotomic_scalars():
    F = cyclotomic_field(12)
    z = Scalar.root(F)
    from colorhom.bundles import LeibnizBundle
    from colorhom.grading import Bicharacter, TRIVIAL_GROUP
    from colorhom.linalg import GradedSpace, MultilinearMap, Vector

    sp = GradedSpace.build(F, TRIVIAL_GROUP, [("a", ()), ("b", ())])
    bc = Bicharacter.trivial(TRIVIAL_GROUP, F)
    coeff = z ** 2 - z.inverse() * Scalar.rational(F, 3, 7)
    bracket = MultilinearMap.internal(sp, 2, {(1, 1): Vector(sp, {0: coeff})})
    b = LeibnizBundle(sp, bc, bracket, EvenMap.identity(sp))
    doc = io.serialize_bundle(b)
    assert reparse(doc).bundle == b
    entry = doc["ops"]["bracket"][0]["out"]["0"]
    assert isinstance(entry, list) and len(entry) == 4  # phi(12) components


def test_loads_dumps_round_trip():
    doc = fixture_document("akivis-A")
    assert io.loads_document(io.dumps_document(doc)) == doc
    assert io.dumps_document(doc).endswith("\n")


# ---------------------------------------------------------------------------
# digests


def test_digest_ignores_whitespace_and_key_order():
    doc = fixture_document("leibniz-L2")
    d1 = io.document_digest(doc)
    shuffled = json.loads(json.dumps(doc))
    # rebuild with reversed key insertion order
    shuffled = {k: shuffled[k] for k in reversed(list(shuffled))}
    assert io.document_digest(shuffled) == d1
    assert d1.startswith("sha256:")


def test_digest_excludes_embedded_report():
    doc = copy.deepcopy(fixture_document("leibniz-L2"))
    base = io.document_digest(doc)
    doc["report"] = {"schema": io.REPORT_SCHEMA, "passed": True}
    assert io.document_digest(doc) == base
    doc["basis"][0]["name"] = "other"
    assert io.document_digest(doc) != base


# ---------------------------------------------------------------------------
# malformed documents fail with the offending path in the message


def broken(name, mutate):
    doc = copy.deepcopy(fixture_document(name))
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.update(schema="nope/9"), "schema"),
        (lambda d: d.update(kind="ring"), "kind"),
        (lambda d: d["field"].update(cyclotomic_order=0), "field"),
        (lambda d: d["grading"].update(torsion=[0]), "torsion"),
        (lambda d: d["basis"].append({"name": "e1", "degree": []}), "basis"),
        (lambda d: d["basis"].append({"name": "x", "degree": [1]}), "degree"),
        (lambda d: d["ops"].update(extra=[]), "ops"),
        (
            lambda d: d["ops"]["bracket"].append({"args": [0, 9], "out": {"0": "1"}}),
            "args",
        ),
        (
            lambda d: d["ops"]["bracket"].append({"args": [1, 1], "out": {"0": "2"}}),
            "bracket",
        ),
        (
            lambda d: d["ops"]["bracket"].append({"args": [0, 0], "out": {"7": "1"}}),
            "out",
        ),
        (
            lambda d: d["ops"]["bracket"].append({"args": [0, 0], "out": {"0": "1.5"}}),
            "malformed",
        ),
        (lambda d: d["maps"].pop("alpha"), "alpha"),
    ],
)
def test_malformed_leibniz_documents(mutate, needle):
    doc = broken("leibniz-L2", mutate)
    with pytest.raises(InputError) as exc:
        io.parse_document(doc)
    assert needle in str(exc.value)


def test_malformed_bicharacter_shape_and_value():
    doc = broken("leibniz-S1", lambda d: d.update(bicharacter=[["1", "1"]]))
    with pytest.raises(InputError) as exc:
        io.parse_document(doc)
    assert "bicharacter" in str(exc.value)

    doc = broken("leibniz-S1", lambda d: d.update(bicharacter=[["2"]]))
    with pytest.raises(InputError) as exc:
        io.parse_document(doc)
    assert "bicharacter" in str(exc.value)


def test_odd_alpha_rejected():
    def mutate(d):
        d["maps"]["alpha"] = [["0", "1"], ["1", "0"]]  # swaps degrees on S1

    with pytest.raises(InputError) as exc:
        io.parse_document(broken("leibniz-S1", mutate))
    assert "alpha" in str(exc.value)


def test_odd_extra_map_rejected():
    def mutate(d):
        d["maps"]["beta"] = [["0", "1"], ["1", "0"]]

    with pytest.raises(InputError) as exc:
        io.parse_document(broken("leibniz-S1", mutate))
    assert "document.maps.beta" in str(exc.value)


def test_odd_module_twist_rejected():
    doc = io.serialize_bundle(regular_module(fixture("leibniz-S1").bundle))
    io.parse_document(doc)
    doc["maps"]["alphaM"] = [["0", "1"], ["1", "0"]]
    with pytest.raises(InputError) as exc:
        io.parse_document(doc)
    assert "alphaM" in str(exc.value)


def test_module_documents_reject_extra_maps():
    def mutate(d):
        d["maps"]["beta"] = [["1", "0"], ["0", "1"]]

    with pytest.raises(InputError) as exc:
        io.parse_document(broken("module-M", mutate))
    assert "maps" in str(exc.value) or "beta" in str(exc.value)


def test_module_algebra_refuses_extra_maps():
    """The serializer writes a module's algebra with alpha alone, so an
    extra algebra map would be lost, giving one bundle two documents."""
    def mutate(d):
        d["algebra"]["maps"]["beta"] = [["1", "0"], ["0", "1"]]

    with pytest.raises(InputError) as exc:
        io.parse_document(broken("module-M", mutate))
    assert "document.algebra.maps.beta" in str(exc.value)


def test_module_serializer_refuses_extra_maps():
    module = fixture("module-M").bundle
    beta = EvenMap.identity(module.module_space)
    with pytest.raises(InputError) as exc:
        io.serialize_bundle(module, extra_maps={"beta": beta})
    assert "alphaM" in str(exc.value)


def test_graded_module_round_trip():
    module = regular_module(fixture("leibniz-S1").bundle)
    assert not module.module_space.is_trivially_graded()
    doc = io.serialize_bundle(module)
    again = reparse(doc)
    assert again.bundle == module and again.extra_maps == {}
    assert io.serialize_bundle(again.bundle) == doc


@pytest.mark.parametrize("name", ["module-M", "leibniz-L2"])
def test_parse_validates_the_bicharacter_once(monkeypatch, name):
    """A module document's algebra is parsed once; its basis is read on
    that algebra's field and group, not on a second parse of them."""
    calls = []
    validate = grading.validate_bicharacter

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(grading, "validate_bicharacter", counting)
    io.parse_document(fixture_document(name))
    assert len(calls) == 1


def test_module_algebra_must_be_leibniz():
    def mutate(d):
        d["algebra"]["kind"] = "nonassociative"
        d["algebra"]["ops"]["product"] = d["algebra"]["ops"].pop("bracket")

    with pytest.raises(InputError):
        io.parse_document(broken("module-M", mutate))


def test_extra_map_allowed_on_plain_kind_round_trips():
    parsed = fixture("akivis-A")
    assert set(parsed.extra_maps) == {"beta"}
    assert parsed.extra_maps["beta"] == EvenMap.diagonal(parsed.bundle.space, [1, 3])


def test_strict_scalar_strings_in_documents():
    def mutate(d):
        d["ops"]["bracket"][0]["out"]["0"] = " 1"

    with pytest.raises(InputError):
        io.parse_document(broken("leibniz-L2", mutate))


@pytest.mark.parametrize(
    "out, path",
    [
        # "00" would overwrite "0" and the entry would read 5*e1
        ({"0": "1", "00": "5"}, "document.ops.bracket[0].out"),
        ({" 0 ": "1"}, "document.ops.bracket[0].out"),
        ({"0_1": "1"}, "document.ops.bracket[0].out"),  # int() reads 1
        ({"\u0660": "1"}, "document.ops.bracket[0].out"),  # ARABIC-INDIC ZERO
        ({"0": "\u0661\u0662"}, "document.ops.bracket[0].out.0"),  # "12"
    ],
)
def test_one_ascii_spelling_per_index_and_scalar(out, path):
    def mutate(d):
        d["ops"]["bracket"][0]["out"] = out

    with pytest.raises(InputError) as exc:
        io.parse_document(broken("leibniz-L2", mutate))
    assert str(exc.value).startswith(path + ":")


def test_oversized_basis_index_is_out_of_range():
    def mutate(d):
        d["ops"]["bracket"][0]["out"] = {"1" * 5000: "1"}

    with pytest.raises(InputError) as exc:
        io.parse_document(broken("leibniz-L2", mutate))
    assert "out of range" in str(exc.value)


def cyclotomic_leibniz():
    """A Leibniz bundle over Q(zeta_12) whose twist and bracket repeat
    scalar texts, two of them sharing their first coefficient string."""
    from colorhom.bundles import LeibnizBundle
    from colorhom.grading import Bicharacter, TRIVIAL_GROUP
    from colorhom.linalg import GradedSpace, MultilinearMap, Vector

    F = cyclotomic_field(12)
    sp = GradedSpace.build(F, TRIVIAL_GROUP, [("a", ()), ("b", ())])
    coeff = Scalar.one(F) + Scalar.root(F)
    bracket = MultilinearMap.internal(sp, 2, {(1, 1): Vector(sp, {0: coeff})})
    return LeibnizBundle(sp, Bicharacter.trivial(TRIVIAL_GROUP, F), bracket,
                         EvenMap.identity(sp))


def scalar_texts(doc):
    """Every scalar text of a bundle document, an embedded algebra's
    included, in no particular order."""
    texts = [e for row in doc.get("bicharacter", ()) for e in row]
    texts += [t for entries in doc["ops"].values() for entry in entries
              for t in entry["out"].values()]
    texts += [e for rows in doc["maps"].values() for row in rows for e in row]
    return texts + (scalar_texts(doc["algebra"]) if "algebra" in doc else [])


@pytest.mark.parametrize("make", [
    lambda: io.serialize_bundle(cyclotomic_leibniz()),
    lambda: io.serialize_bundle(regular_module(cyclotomic_leibniz())),
    lambda: fixture_document("module-M"),
])
def test_each_distinct_scalar_text_parsed_once_per_document(monkeypatch, make):
    """A parse reads each distinct text once, across an embedded algebra
    too, and a second parse of the same document reads them all again:
    nothing is kept across calls."""
    doc = make()
    texts = scalar_texts(doc)
    distinct = {tuple(t) if isinstance(t, list) else t for t in texts}
    assert len(distinct) < len(texts)
    calls = []
    parse = io.scalar_from_text

    def counting(field, data):
        calls.append(data)
        return parse(field, data)

    monkeypatch.setattr(io, "scalar_from_text", counting)
    first = io.parse_document(doc)
    assert len(calls) == len(distinct)
    second = io.parse_document(doc)
    assert len(calls) == 2 * len(distinct)
    assert first.bundle == second.bundle
    assert io.serialize_bundle(first.bundle) == doc


@pytest.mark.parametrize("bundle, text, path", [
    # an unhashable item, and an unhashable text over Q, are refused uncached
    (cyclotomic_leibniz, ["1", ["0"], "0", "0"], "document.ops.bracket[0].out.0"),
    (lambda: fixture("leibniz-L2").bundle, {"p": "1"}, "document.ops.bracket[0].out.0"),
    # a malformed text that repeats is refused where it first occurs
    (cyclotomic_leibniz, ["1", "x", "0", "0"], "document.ops.bracket[0].out.0"),
    (lambda: fixture("leibniz-L2").bundle, "1/x", "document.ops.bracket[0].out.0"),
])
def test_unparsable_scalar_texts_name_their_first_path(bundle, text, path):
    doc = io.serialize_bundle(bundle())
    doc["ops"]["bracket"][0]["out"]["0"] = text
    doc["maps"]["alpha"][1][1] = copy.deepcopy(text)
    for _ in range(2):
        with pytest.raises(InputError) as exc:
            io.parse_document(doc)
        assert str(exc.value).startswith(path + ":")


@pytest.mark.parametrize(
    "name, mutate, path",
    [
        ("leibniz-L2", lambda d: d["field"].update(cyclotomic_order=True),
         "document.field.cyclotomic_order"),
        ("leibniz-L2", lambda d: d["grading"].update(free_rank=False),
         "document.grading.free_rank"),
        ("leibniz-S1", lambda d: d["basis"][0].update(degree=[True]),
         "document.basis[0].degree"),
        ("leibniz-L2", lambda d: d["ops"]["bracket"][0].update(args=[True, True]),
         "document.ops.bracket[0].args"),
    ],
)
def test_json_booleans_are_not_integers(name, mutate, path):
    """true and false parsed as 1 and 0 would give one bundle two
    documents (serializing writes the integers back)."""
    with pytest.raises(InputError) as exc:
        io.parse_document(broken(name, mutate))
    assert str(exc.value).startswith(path + ":")


@pytest.mark.parametrize("kind", io.KINDS)
def test_ops_declare_each_kind_once(kind):
    """OPS names the fields between the two head fields and the twist, in
    order, TWIST names the last field, the document carries each map
    under its declared name, and each parsed operation acts on the spaces
    its OPS entry names."""
    bundle_type = BUNDLE_TYPES[kind]
    fields = list(bundle_type.FIELDS)
    assert fields[:2] == (["algebra", "module_space"] if kind == "module"
                          else ["space", "bichar"])
    assert [attr for _, attr, _ in bundle_type.OPS] == fields[2:-1]
    assert bundle_type.TWIST[1] == fields[-1]
    name = next(n for n in fixture_names() if fixture(n).bundle.kind == kind)
    doc = io.serialize_bundle(reparse(fixture_document(name)).bundle)
    assert list(doc["ops"]) == [doc_name for doc_name, _, _ in bundle_type.OPS]
    assert list(doc["maps"]) == [bundle_type.TWIST[0]]
    bundle = reparse(doc).bundle
    if kind == "module":
        spaces = {"S": bundle.module_space, "A": bundle.algebra.space}
    else:
        spaces = {"S": bundle.space}
    for (_, _, args), op in zip(bundle_type.OPS, bundle.ops()):
        assert op.spaces == tuple(spaces[s] for s in args)
        assert op.codomain == spaces["S"]


def test_operation_on_wrong_spaces_names_the_attribute():
    module = fixture("module-M").bundle
    with pytest.raises(InputError, match="act_right must map S x A"):
        record.replace(module, act_right=module.act_left)
    akivis = fixture("akivis-A").bundle
    with pytest.raises(InputError, match="bracket must map S x S"):
        record.replace(akivis, bracket=akivis.ternary)


# ---------------------------------------------------------------------------
# full_check verdicts per kind


def run_full(name, jobs=1):
    parsed = fixture(name)
    results, flags = io.full_check(parsed.bundle, jobs)
    return results, flags


def non_advisory_pass(results):
    return all(rep.passed for rep, advisory in results if not advisory)


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_passes_unless_marked_broken(name):
    results, _ = run_full(name)
    if name.endswith("-broken"):
        assert not non_advisory_pass(results)
    else:
        assert non_advisory_pass(results)


def test_leibniz_full_check_contents():
    results, flags = run_full("leibniz-L2")
    ids = [rep.identity_id for rep, _ in results]
    assert "evenness" in ids[0]
    advisory_ids = {rep.identity_id for rep, adv in results if adv}
    assert "skew-symmetry" in advisory_ids
    # L2's square bracket is not skew, but that is advisory only
    skew = next(rep for rep, adv in results if rep.identity_id == "skew-symmetry")
    assert not skew.passed
    assert flags["multiplicative"] is True
    assert flags["skew_symmetric"] is False


def test_nonassoc_full_check_flags():
    _, flags = run_full("nonassoc-NA2")
    assert flags == {
        "multiplicative": True,
        "hom_associative": False,
        "commutative": False,
        "flexible": False,
        "alternative": False,
    }


def test_akivis_full_check_flags():
    results, flags = run_full("akivis-A")
    assert flags["hom_lie"] is True
    assert non_advisory_pass(results)


def test_dialgebra_full_check_flags():
    _, flags = run_full("dialg-D1")
    assert flags["products_coincide"] is True
    _, flags2 = run_full("dialg-D2")
    assert flags2["products_coincide"] is False


def test_module_full_check_flags():
    _, flags = run_full("module-M")
    assert flags["algebra_multiplicative"] is True


def test_full_check_deterministic_across_jobs():
    r1, f1 = run_full("nonassoc-NA2", jobs=1)
    r4, f4 = run_full("nonassoc-NA2", jobs=4)
    assert f1 == f4
    assert [(rep.identity_id, rep.passed) for rep, _ in r1] == [
        (rep.identity_id, rep.passed) for rep, _ in r4
    ]


# ---------------------------------------------------------------------------
# report documents


def test_report_document_shape_and_rendering():
    parsed = fixture("leibniz-L2-broken")
    bundle_doc = io.serialize_bundle(parsed.bundle)
    results, flags = io.full_check(parsed.bundle, 1)
    rdoc = io.report_document(bundle_doc, results, flags)
    assert rdoc["schema"] == io.REPORT_SCHEMA
    assert rdoc["passed"] is False
    assert rdoc["input_digest"] == io.document_digest(bundle_doc)
    assert rdoc["kind"] == "leibniz"
    entry = next(e for e in rdoc["results"] if e["identity"] == "color-hom-leibniz")
    assert entry["passed"] is False and entry["advisory"] is False
    assert entry["violations"][0]["args"] == [0, 1, 1]
    assert entry["violations"][0]["defect"] == {"0": "-2"}
    skew = next(e for e in rdoc["results"] if e["identity"] == "skew-symmetry")
    assert skew["advisory"] is True
    text = io.render_report_text(rdoc)
    assert "FAIL" in text and "color-hom-leibniz" in text
    assert "result: FAIL" in text


def test_report_document_green_path():
    parsed = fixture("leibniz-S1")
    bundle_doc = io.serialize_bundle(parsed.bundle)
    results, flags = io.full_check(parsed.bundle, 1)
    rdoc = io.report_document(bundle_doc, results, flags)
    assert rdoc["passed"] is True
    text = io.render_report_text(rdoc)
    assert "result: PASS" in text


# ---------------------------------------------------------------------------
# fuzz: a mutated document parses or raises InputError, nothing else


def _graded_document():
    """A Z4xZ4-graded nonassociative bundle over Q(i), so the fuzz also
    meets scalar lists and a bicharacter with entries other than 1."""
    rng = random.Random(8)
    group = make_group("z4xz4")
    space = random_space(rng, group, 3)
    bundle = NonAssocBundle(space, make_bicharacter(rng, group),
                            random_even_table(rng, space), random_even_map(rng, space))
    return io.serialize_bundle(bundle, extra_maps={"beta": random_even_map(rng, space)})


FUZZ_SEEDS = [fixture_document(name) for name in fixture_names()] + [_graded_document()]

# Number literals stay small: a large cyclotomic order or free degree is
# slow to build and has no budget yet (oversized literals are covered by
# the int-string-limit text below).
fuzz_numbers = st.integers(-3, 13)
fuzz_strings = st.one_of(
    st.sampled_from(["", "0", "-0", "+1", "0/7", "1/0", "2/-3", "1.5", "1e3", " 1",
                     "1_0", "--1", "x", "7" * 5000, "1/" + "3" * 5000]),
    st.text(max_size=6),
)
fuzz_values = st.one_of(
    fuzz_numbers, fuzz_strings, st.none(), st.booleans(), st.builds(list), st.builds(dict),
    st.lists(fuzz_strings, max_size=5),
)


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _nodes(value, path + (k,))


def _mutate(doc, data):
    path, node = data.draw(st.sampled_from(list(_nodes(doc))))
    if isinstance(node, list) and data.draw(st.booleans()):
        # change a list's length: drop, repeat or add an element
        how = data.draw(st.sampled_from(["drop", "repeat", "add"]))
        if how == "drop" and node:
            del node[data.draw(st.integers(0, len(node) - 1))]
        elif how == "repeat" and node:
            node.append(copy.deepcopy(data.draw(st.sampled_from(node))))
        else:
            node.append(data.draw(fuzz_values))
        return
    if isinstance(node, dict) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(node)))
        node[data.draw(fuzz_strings)] = node.pop(key)
        return
    if not path:
        return
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if isinstance(node, str):
        parent[path[-1]] = data.draw(fuzz_strings)
    elif isinstance(node, int) and not isinstance(node, bool):
        parent[path[-1]] = data.draw(fuzz_numbers)
    else:
        parent[path[-1]] = data.draw(fuzz_values)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_SEEDS), st.integers(1, 4), st.integers(0, 9), st.data())
def test_fuzzed_documents_raise_only_input_error(seed_doc, mutations, one_in_ten, data):
    doc = copy.deepcopy(seed_doc)
    for _ in range(mutations):
        _mutate(doc, data)
    text = json.dumps(doc)
    if one_in_ten == 0:
        # a number literal past the int-string limit, wherever the first one is
        text = re.sub(r"(?<=[\[:,] )(-?\d+)(?=[,\]}])", lambda m: m.group(1) + "0" * 4400,
                      text, count=1)
    try:
        io.parse_document(io.loads_document(text))
    except InputError:
        pass
