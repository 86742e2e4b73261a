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

import tracing  # noqa: E402


def test_full_check_under_spans_and_counters():
    bundle = io.parse_document(fixture_document("nhlp-trivext-L2")).bundle
    spans, counters = tracing.Spans(), tracing.Counters()
    spans.install()
    counters.install()
    try:
        results, _ = io.full_check(bundle)
    finally:
        counters.uninstall()
        spans.uninstall()
    assert results
    names = {span[2] for span in spans.spans}
    assert {"io.full_check", "checkers.scan_identity"} <= names
    # the endomorphism test still multiplies Scalars through MultilinearMap
    for name in ("kernel.mul", "linalg.MultilinearMap.call"):
        assert counters.samples[name], name
