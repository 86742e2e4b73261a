"""colorhom benchmark: one command, three workloads, closed loop.

    python3 perfbench/run.py --workload certify-dense|refute-dense|cli-pipeline
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: colorhom is imported from ./src, so
the benchmark measures the source tree it sits in.  The seed alone fixes
the generated documents (perfbench/gen.py); colorhom receives nothing but
those documents.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh interpreters that import colorhom and parse every document),
documents per second, per-document latency p50/p90 and peak RSS of the
measuring worker, and the error rate.  --trace 1 runs the documents once
untraced, once with layer spans and once with fine-layer counters, and
prints the per-layer metrics; the spans go to
perfbench/out/spans-<workload>-<seed>.jsonl.

Every time is scaled to a reference host speed by a calibration timed
next to it (perfbench/calibrate.py); the raw figures are printed too.

Every line before the last names a metric with its unit; the last line
is one JSON object {"correct", "attempted", "failed", "metrics"}.  The
exit code is 0 only when every document kept the verdict or exit code
its construction guarantees and every output matched its reference:
the jobs=1 output of the same run, and for the default seed the digests
recorded in perfbench/digests.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_REPS = 11
JOBS = {"certify-dense": 1, "refute-dense": 2, "cli-pipeline": 1}
DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
WORKER_TIMEOUT_S = 170


def prepare(root, workload, seed, work):
    """Generate the workload's documents into `work` and write the
    manifest the workers read; returns its path."""
    os.makedirs(work)
    items = []
    for name, doc, expected in gen.WORKLOADS[workload](seed):
        item = {"name": name, "fixture": None}
        if doc is None:
            item["fixture"] = name[len("fixture-"):]
            path = "fixtures/" + item["fixture"]
        else:
            path = os.path.join(work, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
        item["path"] = path
        if workload == "cli-pipeline":
            item["commands"] = [[gen.argv_for(cmd, path), code] for cmd, code in expected]
        else:
            item["expected"] = expected
        items.append(item)
    manifest = {"root": root, "workload": workload, "seed": seed,
                "jobs": JOBS[workload], "items": items}
    path = os.path.join(work, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return path


def run_worker(*args):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("COLORHOM_JOBS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def recorded_digests(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def digest_mismatches(reference, recorded):
    if recorded is None:
        return []
    names = sorted(set(reference) | set(recorded))
    return [n for n in names if reference.get(n) != recorded.get(n)]


def show(name, value, unit, note=""):
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"{name}: {text} {unit}" + (f"  ({note})" if note else ""))


def end_to_end(manifest, seconds):
    setups = [run_worker("setup", manifest) for _ in range(SETUP_REPS)]
    result = run_worker("measure", manifest, seconds)
    for key in ("setup_s", "setup_raw_s"):
        result[key] = statistics.median(s[key] for s in setups)
    return result


# end-to-end metrics in the result line: name -> unit
END_TO_END = {"setup_s": "s", "docs_per_s": "1/s", "doc_latency_p50_ms": "ms",
              "doc_latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def print_end_to_end(r):
    print("times are scaled to the reference host speed (perfbench/calibrate.py);"
          " raw figures in brackets")
    show("setup_s", r["setup_s"], "s",
         f"[{r['setup_raw_s']:.6g}] median of {SETUP_REPS} fresh interpreters")
    show("docs_per_s", r["docs_per_s"], "1/s",
         f"[{r['docs_per_s_raw']:.6g}] {r['samples']} documents, "
         f"{r['wall_s']:.1f} s wall, closed loop, one client")
    show("doc_latency_p50_ms", r["doc_latency_p50_ms"], "ms",
         f"[{r['doc_latency_p50_ms_raw']:.6g}] {r['samples']} samples")
    beyond = r["samples"] - int(0.9 * r["samples"])
    show("doc_latency_p90_ms", r["doc_latency_p90_ms"], "ms",
         f"[{r['doc_latency_p90_ms_raw']:.6g}] {r['samples']} samples, {beyond} beyond p90")
    show("peak_rss_mb", r["peak_rss_mb"], "MB", "measuring worker")
    show("error_rate", r["failed"] / r["attempted"], "ratio",
         f"{r['failed']} failed of {r['attempted']} documents attempted; "
         "not in the result line, which carries failed and attempted")
    return {k: r[k] for k in END_TO_END}


# per-layer metrics: name -> (unit, function of the trace result)
def _self_ms(span):
    return lambda t: t["layers"]["self_ms"].get(span, 0.0)


def _layer_total(layer):
    return lambda t: sum(v for k, v in t["layers"]["self_ms"].items()
                         if k.startswith(layer + "."))


PER_LAYER = {
    "checkers.scan_identity.calls": ("count", lambda t: t["layers"]["scans"]),
    "checkers.scan_identity.ms": ("ms", _self_ms("checkers.scan_identity")),
    "checkers.tuples": ("count", lambda t: t["layers"]["tuples"]),
    "checkers.us_per_tuple": ("us", lambda t: 1e3 * t["layers"]["self_ms"].get(
        "checkers.scan_identity", 0.0) / max(t["layers"]["tuples"], 1)),
    "checkers.violations": ("count", lambda t: t["layers"]["violations"]),
    "checkers.scans_distinct": ("count", lambda t: t["layers"]["scans_distinct"]),
    "checkers.scan_useful_ratio": ("ratio", lambda t: t["layers"]["scans_distinct"]
                                   / max(t["layers"]["scans"], 1)),
    "constructions.calls": ("count", lambda t: t["layers"]["constructions"]),
    "constructions.refusals": ("count", lambda t: t["layers"]["refusals"]),
    "report.sorted_violations.ms": ("ms", _self_ms("report.sorted_violations")),
    "io.report_document.ms": ("ms", _self_ms("io.report_document")),
    "io.dumps_document.ms": ("ms", _self_ms("io.dumps_document")),
    "io.report_bytes": ("bytes", lambda t: t["layers"]["report_bytes"]),
    "io.parse_document.ms": ("ms", _self_ms("io.parse_document")),
    "io.document_digest.ms": ("ms", _self_ms("io.document_digest")),
    "io.full_check.ms": ("ms", _self_ms("io.full_check")),
    "scalars.cyclotomic_field.ms": ("ms", _self_ms("scalars.cyclotomic_field")),
    "grading.validate_bicharacter.ms": ("ms", _self_ms("grading.validate_bicharacter")),
    "linalg.MultilinearMap.call.calls": ("count", lambda t: t["counts"]["linalg.MultilinearMap.call"]),
    "linalg.Vector.add.calls": ("count", lambda t: t["counts"]["linalg.Vector.add"]),
    "linalg.Vector.scaled.calls": ("count", lambda t: t["counts"]["linalg.Vector.scaled"]),
    "grading.Bicharacter.call.calls": ("count", lambda t: t["counts"]["grading.Bicharacter.call"]),
    "scalars.Scalar.make.calls": ("count", lambda t: t["counts"]["scalars.Scalar.make"]),
    "kernel.mul.calls": ("count", lambda t: t["counts"]["kernel.mul"]),
    "kernel.add.calls": ("count", lambda t: t["counts"]["kernel.add"]),
    "kernel.sub.calls": ("count", lambda t: t["counts"]["kernel.sub"]),
    "kernel.normalize.calls": ("count", lambda t: t["counts"]["kernel.normalize"]),
    "kernel.mul.ns_per_op": ("ns", lambda t: t["timings"]["kernel.mul.ns_per_op"]),
    "kernel.add.ns_per_op": ("ns", lambda t: t["timings"]["kernel.add.ns_per_op"]),
    "linalg.MultilinearMap.call.ns_per_op": (
        "ns", lambda t: t["timings"]["linalg.MultilinearMap.call.ns_per_op"]),
    "trace.overhead_ratio": ("ratio", lambda t: t["traced_s"] / t["untraced_s"]),
}

# printed for every workload but kept out of the result line: these
# layers are never entered on some workloads, where the value is 0
PRINT_ONLY = {
    "cli.main.ms": ("ms", _self_ms("cli.main")),
    "constructions.ms": ("ms", _layer_total("constructions")),
    "io.serialize_bundle.ms": ("ms", _self_ms("io.serialize_bundle")),
}


def print_per_layer(t):
    metrics = {}
    for name, (unit, get) in PER_LAYER.items():
        metrics[name] = get(t)
        show(name, metrics[name], unit)
    for name, (unit, get) in PRINT_ONLY.items():
        show(name, get(t), unit, "not in the result line")
    print(f"layer self times (ms, sum {sum(t['layers']['self_ms'].values()):.3f}"
          f" = root spans {t['layers']['root_ms']:.3f}):")
    for span, ms in sorted(t["layers"]["self_ms"].items()):
        print(f"  {span}: {ms:.3f} ms over {t['layers']['calls'][span]} calls")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "colorhom", "__init__.py")):
        print(f"error: no colorhom source tree at {root}/src/colorhom; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    try:
        manifest = prepare(root, args.workload, args.seed, work)
        print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}"
              f"  jobs: {JOBS[args.workload]}")
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            result = run_worker("trace", manifest, spans_path)
        else:
            result = end_to_end(manifest, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"backend: {result['backend']}")
    mismatched = digest_mismatches(result["reference"],
                                   recorded_digests(args.workload, args.seed))
    for name in mismatched:
        print(f"digest mismatch against perfbench/digests.json: {name}", file=sys.stderr)
    if result["first_error"]:
        print(f"first failure: {result['first_error']}", file=sys.stderr)
    failed = result["failed"] + len(mismatched)
    if args.trace:
        metrics = print_per_layer(result)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        print(f"spans: {os.path.relpath(spans_path, root)}")
    else:
        metrics = print_end_to_end(dict(result, failed=failed))
        units = END_TO_END
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
