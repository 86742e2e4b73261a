"""The benchmark's tracing still finds every name it wraps, every law
check full_check runs goes through a wrapped name, and the fine layers it
samples still see work, and that full_check builds no derived map to feed
a Leibniz law.

perfbench/tracing.py patches colorhom functions by name (``Spans``) and
counts and samples calls on the kernel, Scalar, Vector, MultilinearMap
and Bicharacter layers (``Counters``).  A renamed function breaks the
traced benchmark run; a sampled layer that no longer runs prints its
per-operation time as n/a."""

import os
import sys

from colorhom import io, tables
from colorhom.fixtures import fixture_document

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import tracing  # noqa: E402


def test_full_check_under_spans_and_counters():
    # certify-dense's 06-leibniz-6 has a twist that is not diagonal, so its
    # endomorphism test adds Scalars; no fixture's full_check does: every
    # fixture's twist is the identity, which is_multiplicative does not scan
    name, doc, _ = gen.certify_dense(0)[6]
    assert name == "06-leibniz-6"
    bundles = [io.parse_document(d).bundle
               for d in (fixture_document("nhlp-trivext-L2"), doc)]
    spans, counters = tracing.Spans(), tracing.Counters()
    spans.install()
    counters.install()
    try:
        results = [io.full_check(bundle)[0] for bundle in bundles]
    finally:
        counters.uninstall()
        spans.uninstall()
    assert all(results)
    names = {span[2] for span in spans.spans}
    assert {"io.full_check", "checkers.scan_identity"} <= names
    # every fine layer the benchmark samples sees work
    for name in tracing.SAMPLED:
        assert counters.samples[name], name


# one fixture per bundle kind; akivis-A is trivially graded and flexible,
# and leibniz-L2 passes its law, so full_check runs every conditional check
ONE_PER_KIND = ("nonassoc-NA2", "akivis-A", "leibniz-L2", "nhlp-trivext-L2",
                "dialg-D1", "module-M")


def test_every_law_check_full_check_reaches_is_spanned():
    """full_check must reach each law check through the module attribute
    perfbench wraps, so no check runs outside its span."""
    bundles = [io.parse_document(fixture_document(name)).bundle for name in ONE_PER_KIND]
    assert {b.kind for b in bundles} == set(io.KINDS)
    spans = tracing.Spans()
    spans.install()
    try:
        for bundle in bundles:
            io.full_check(bundle)
    finally:
        spans.uninstall()
    names = {span[2] for span in spans.spans}
    checks = {f"{layer}.{name}" for layer, module, name in tracing.COARSE
              if module == "colorhom.checkers" and name.startswith("check_")}
    # check_endomorphism is the library's report of the endomorphism test;
    # full_check asks bundles.is_multiplicative instead
    assert checks - {"checkers.check_endomorphism"} <= names


def test_full_check_of_leibniz_documents_materializes_no_map(monkeypatch):
    """The Leibniz consequences are laws in the bracket alone: full_check
    on a Leibniz bundle whose law passes builds no derived map."""
    docs = [fixture_document("leibniz-L2"), fixture_document("leibniz-S1")]
    docs += [doc for _, doc, _ in gen.certify_dense(0) if doc["kind"] == "leibniz"]
    bundles = [io.parse_document(doc).bundle for doc in docs]
    calls = []
    materialize = tables.materialize
    monkeypatch.setattr(tables, "materialize", lambda *a: calls.append(a) or materialize(*a))
    for bundle in bundles:
        results, _ = io.full_check(bundle)
        assert any(r.find("leibniz-derived-bracket") is not None for r, _ in results)
    assert len(bundles) > 2 and calls == []
