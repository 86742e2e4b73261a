"""Benchmark worker: runs in a fresh interpreter started by run.py.

    python3 worker.py setup     MANIFEST
    python3 worker.py reference MANIFEST
    python3 worker.py measure   MANIFEST SECONDS
    python3 worker.py trace     MANIFEST SPANS_PATH

MANIFEST (written by run.py) lists the workload's documents, the job
count and, for every document, the outcome its construction guarantees.
The worker prints one JSON object on its last line of standard output.
colorhom is imported from the checkout's src directory only.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibrate

MIN_SAMPLES = 100  # so that at least ten latencies lie beyond p90
HARD_CAP_S = 120.0  # a run stops here even short of MIN_SAMPLES


def _import_colorhom(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import colorhom

    where = os.path.dirname(os.path.abspath(colorhom.__file__))
    if where != os.path.join(os.path.abspath(src), "colorhom"):
        raise SystemExit(f"colorhom imported from {where}, not from {src}")
    return colorhom


def _load_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_texts(manifest):
    texts = {}
    for item in manifest["items"]:
        if not item["fixture"]:
            with open(item["path"], encoding="utf-8") as fh:
                texts[item["name"]] = fh.read()
    return texts


# --------------------------------------------------------------------------
# set-up: import colorhom and parse every document, in a fresh interpreter


def setup(manifest):
    texts = _read_texts(manifest)
    t0 = time.perf_counter()
    _import_colorhom(manifest["root"])
    from colorhom.io import loads_document, parse_document

    if manifest["workload"] == "cli-pipeline":
        from colorhom.fixtures import fixture_document
    for item in manifest["items"]:
        if item["fixture"]:
            doc = fixture_document(item["fixture"])
        else:
            doc = loads_document(texts[item["name"]])
        parse_document(doc)
    raw = time.perf_counter() - t0
    # calibrated after the clock stops, so its imports are not set-up work
    return {"setup_s": calibrate.scale(raw, calibrate.speed_s()), "setup_raw_s": raw}


# --------------------------------------------------------------------------
# per-document pipelines


class Pipeline:
    """One document end to end.  __call__(item, jobs) returns (output
    bytes, verdict_ok)."""

    def __init__(self, manifest):
        self.workload = manifest["workload"]
        self.texts = _read_texts(manifest)
        import colorhom.cli
        import colorhom.io

        self.io = colorhom.io
        self.cli = colorhom.cli

    def __call__(self, item, jobs):
        if self.workload == "cli-pipeline":
            return self._cli(item)
        io_ = self.io
        doc = io_.loads_document(self.texts[item["name"]])
        parsed = io_.parse_document(doc)
        results, flags = io_.full_check(parsed.bundle, jobs=jobs)
        report = io_.report_document(doc, results, flags)
        out = io_.dumps_document(report).encode()
        return out, report["passed"] == item["expected"]["passed"]

    def _cli(self, item):
        chunks = []
        ok = True
        for argv, code in item["commands"]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
            chunks.append(f"{argv[0]} exit={rc}\n".encode())
            chunks.append(stdout.getvalue().encode())
            ok = ok and rc == code
        return b"".join(chunks), ok


class Tally:
    """Latencies and failures of one run of passes.  After each document
    the host speed is calibrated; a latency is scaled by the mean of the
    calibrations just before and just after it (calibrate.py)."""

    def __init__(self):
        self.latencies = []
        self.scaled = []
        self.failed = 0
        self.first_error = None
        self._calibration = calibrate.calibration_s()

    def attempt(self, pipeline, item, jobs, reference, wrap=None):
        t0 = time.perf_counter()
        try:
            if wrap is None:
                out, ok = pipeline(item, jobs)
            else:
                out, ok = wrap(item["name"], lambda: pipeline(item, jobs))
            digest = hashlib.sha256(out).hexdigest()
        except Exception:
            ok, digest = False, None
            if self.first_error is None:
                self.first_error = traceback.format_exc()
        latency = time.perf_counter() - t0
        calibration = calibrate.calibration_s()
        self.latencies.append(latency)
        self.scaled.append(calibrate.scale(latency, (self._calibration + calibration) / 2))
        self._calibration = calibration
        if not ok or (reference is not None and digest != reference[item["name"]]):
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{item['name']}: wrong verdict, exit code or digest"
        return digest


def reference_pass(pipeline, items):
    """Every document once at jobs=1: the digests later passes must
    reproduce, whatever their job count.  Also warms every cache."""
    tally = Tally()
    digests = {}
    for item in items:
        digests[item["name"]] = tally.attempt(pipeline, item, 1, None)
    return digests, tally


def timed_loop(pipeline, items, jobs, reference, seconds):
    """Closed loop, one client: the next document starts when the last
    one is done.  Whole passes over the documents, until `seconds` have
    passed and at least MIN_SAMPLES documents are done, so every document
    weighs the same in the percentiles."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(tally.latencies)
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and done >= MIN_SAMPLES):
            break
        for item in items:
            tally.attempt(pipeline, item, jobs, reference)
    return tally, time.perf_counter() - start


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(manifest, seconds):
    colorhom = _import_colorhom(manifest["root"])
    pipeline = Pipeline(manifest)
    items = manifest["items"]
    reference, ref_tally = reference_pass(pipeline, items)
    tally, wall = timed_loop(pipeline, items, manifest["jobs"], reference, seconds)
    n = len(tally.latencies)
    result = {
        "backend": colorhom.BACKEND,
        "reference": reference,
        "attempted": n + len(items),
        "failed": tally.failed + ref_tally.failed,
        "first_error": ref_tally.first_error or tally.first_error,
        "samples": n,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
    }
    for suffix, lat in (("", tally.scaled), ("_raw", tally.latencies)):
        result["docs_per_s" + suffix] = n / sum(lat)
        result["doc_latency_p50_ms" + suffix] = statistics.median(lat) * 1e3
        result["doc_latency_p90_ms" + suffix] = statistics.quantiles(lat, n=10)[8] * 1e3
    return result


# --------------------------------------------------------------------------
# traced run


def _ns_per_op(fn, calls, budget_s=0.25, repeats=5):
    """Median over `repeats` of the time per call of fn over the captured
    argument tuples, each repeat looping over them for about budget_s."""
    if not calls:
        return None
    t0 = time.perf_counter()
    for args in calls:
        fn(*args)
    once = max(time.perf_counter() - t0, 1e-9)
    loops = max(1, int(budget_s / once))
    per_op = []
    for _ in range(repeats):
        before = calibrate.calibration_s()
        t0 = time.perf_counter()
        for _ in range(loops):
            for args in calls:
                fn(*args)
        elapsed = time.perf_counter() - t0
        after = calibrate.calibration_s()
        per_op.append(calibrate.scale(elapsed, (before + after) / 2) / (loops * len(calls)))
    return statistics.median(per_op) * 1e9


def trace(manifest, spans_path):
    """Fixed passes, not a time budget, so that every count repeats."""
    colorhom = _import_colorhom(manifest["root"])
    import tracing

    pipeline = Pipeline(manifest)
    items = manifest["items"]
    jobs = manifest["jobs"]
    reference, ref_tally = reference_pass(pipeline, items)

    # one untraced and one traced pass over the same documents give the
    # tracing overhead; the traced pass gives the spans
    plain = Tally()
    for item in items:
        plain.attempt(pipeline, item, jobs, reference)

    spans = tracing.Spans()
    spans.install()
    traced = Tally()
    try:
        for item in items:
            traced.attempt(pipeline, item, jobs, reference, wrap=spans.run_doc)
    finally:
        spans.uninstall()
    spans.bundle_digests(colorhom.io.serialize_bundle, colorhom.io.document_digest)
    spans.write_jsonl(spans_path)

    # counted at jobs=1: at jobs=2 the scan threads race to fill each
    # bicharacter's memo, which adds a varying number of scalar operations
    counters = tracing.Counters()
    counters.install()
    fine = Tally()
    try:
        for item in items:
            fine.attempt(pipeline, item, 1, reference)
    finally:
        counters.uninstall()

    from colorhom._backend import kernel
    from colorhom.linalg import MultilinearMap

    timings = {
        "kernel.mul.ns_per_op": _ns_per_op(kernel.mul, counters.samples["kernel.mul"]),
        "kernel.add.ns_per_op": _ns_per_op(kernel.add, counters.samples["kernel.add"]),
        "linalg.MultilinearMap.call.ns_per_op": _ns_per_op(
            MultilinearMap.__call__, counters.samples["linalg.MultilinearMap.call"]),
    }
    tallies = (ref_tally, plain, traced, fine)
    return {
        "backend": colorhom.BACKEND,
        "reference": reference,
        "attempted": sum(len(t.latencies) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "first_error": next((t.first_error for t in tallies if t.first_error), None),
        "untraced_s": sum(plain.scaled),
        "traced_s": sum(traced.scaled),
        # span times at the reference host speed of the traced pass
        "layers": layer_metrics(spans, sum(traced.scaled) / sum(traced.latencies)),
        "counts": counters.totals(),
        "timings": timings,
    }


def layer_metrics(spans, speed):
    """Per-layer figures from the traced pass: self ms per span name
    (raw times multiplied by `speed`), call counts, and the scan ledger
    totals."""
    import tracing

    selfs = spans.self_times()
    self_ms = {}
    calls = {}
    for s in spans.spans:
        self_ms[s[2]] = self_ms.get(s[2], 0.0) + speed * selfs[s[0]] / 1e6
        calls[s[2]] = calls.get(s[2], 0) + 1
    scans = [s for s in spans.spans if s[2] == tracing.SCAN]
    built = [s for s in spans.spans if s[2].startswith("constructions.")]
    pairs = {(s[6]["bundle"], s[6]["id"]) for s in scans}
    roots = [s for s in spans.spans if s[1] is None]
    return {
        "self_ms": self_ms,
        "calls": calls,
        "root_ms": speed * sum(s[4] - s[3] for s in roots) / 1e6,
        "scans": len(scans),
        "scans_distinct": len(pairs),
        "tuples": sum(s[6]["tuples"] for s in scans),
        "violations": sum(s[6]["violations"] for s in scans),
        "constructions": len(built),
        "refusals": sum(1 for s in built if s[6].get("error") == "ConstructionError"),
        "report_bytes": sum(s[6].get("bytes", 0) for s in spans.spans
                            if s[2] == "io.dumps_document"),
    }


def main(argv):
    mode, manifest_path = argv[0], argv[1]
    manifest = _load_manifest(manifest_path)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if mode == "setup":
        result = setup(manifest)
    elif mode == "reference":
        _import_colorhom(manifest["root"])
        reference, tally = reference_pass(Pipeline(manifest), manifest["items"])
        result = {"reference": reference, "failed": tally.failed,
                  "first_error": tally.first_error}
    elif mode == "measure":
        result = measure(manifest, float(argv[2]))
    elif mode == "trace":
        result = trace(manifest, argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
