"""The benchmark's tracing still finds every name it wraps, and the fine
layers it samples still see work.

perfbench/tracing.py patches colorhom functions by name (``Spans``) and
counts and samples calls on the kernel, Scalar, Vector, MultilinearMap
and Bicharacter layers (``Counters``).  A renamed function breaks the
traced benchmark run; a sampled layer that no longer runs prints its
per-operation time as n/a."""

import os
import sys

from colorhom import io
from colorhom.fixtures import fixture_document

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import tracing  # noqa: E402


def test_full_check_under_spans_and_counters():
    # certify-dense's 06-leibniz-6 has a twist that is not diagonal, so its
    # endomorphism test adds Scalars; no fixture's full_check does
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
