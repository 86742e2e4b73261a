"""io.indented_json, the writer dumps_document uses where json's C
encoder cannot indent, against json.dumps(sort_keys=True, indent=1).

The writer is called directly, so these tests run on every Python, also
where dumps_document itself takes json's C path."""

import json
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from colorhom import io
from colorhom.fixtures import fixture_document, fixture_names

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=1)


def same_text(obj):
    assert io.indented_json(obj) == reference(obj)
    assert io.dumps_document(obj) == reference(obj) + "\n"


# digit keys, so that "10" sorts before "2" as json sorts them
keys = st.one_of(st.integers(0, 30).map(str), st.text(max_size=5))
strings = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\t\bé \U0001f600', max_size=6),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10**4000, 10**4000),
    strings,
)
coefficients = st.one_of(strings, st.lists(strings, max_size=3))
violations = st.fixed_dictionaries({
    "args": st.lists(st.one_of(st.integers(-5, 40), st.booleans()), max_size=4),
    "defect": st.one_of(st.none(), strings, st.lists(strings, max_size=2),
                        st.dictionaries(keys, coefficients, max_size=4)),
    "note": strings,
})


def documents(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(keys, children, max_size=4),
        # report-shaped lists, with items of other shapes mixed in
        st.fixed_dictionaries({"violations": st.lists(st.one_of(violations, children),
                                                      max_size=4)}),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(leaves, documents, max_leaves=40))
def test_writer_matches_json(obj):
    same_text(obj)


@pytest.mark.parametrize("obj", [
    {}, [], {"a": [], "b": {}}, {"violations": []}, {"violations": ()},
    {"10": 1, "2": [{}], "": None},
    [1.5, float("inf")], {1: "int key"}, {"a": {2: 3}},
    {"violations": [{"args": [1], "defect": {"0": []}, "note": ""},
                    {"args": [True], "defect": None, "note": ""},
                    {"args": [0], "defect": {"0": [1]}, "note": ""},
                    {"args": [0], "defect": {}, "note": "", "extra": 1}]},
])
def test_writer_edge_cases(obj):
    """Empty containers, values json writes itself (floats, non-string
    keys) and violation-like items that do not fit the template."""
    same_text(obj)


@pytest.mark.parametrize("name", fixture_names())
def test_writer_on_fixture_documents_and_reports(name):
    doc = fixture_document(name)
    parsed = io.parse_document(doc)
    results, flags = io.full_check(parsed.bundle)
    report = io.report_document(doc, results, flags)
    for obj in (doc, io.serialize_bundle(parsed.bundle, parsed.extra_maps), report,
                {**doc, "report": report}):
        same_text(obj)


@pytest.mark.parametrize("workload", ["certify-dense", "refute-dense", "cli-pipeline"])
def test_writer_on_perfbench_reports(workload):
    """The reports of the default-seed benchmark documents, the passing
    and the refuted ones, alone and embedded in their documents."""
    sys.path.insert(0, BENCH)
    try:
        import gen
    finally:
        sys.path.remove(BENCH)
    written = 0
    for _, doc, _ in gen.WORKLOADS[workload](0):
        if doc is None:  # a built-in fixture, covered above
            continue
        results, flags = io.full_check(io.parse_document(doc).bundle)
        report = io.report_document(doc, results, flags)
        same_text(report)
        same_text({**doc, "report": report})
        written += 1
    assert written
