"""Self-tests of the benchmark (not of colorhom).

    python3 -m pytest perfbench/tests        (from the root of a checkout)

They check that inputs are a pure function of the seed, that generated
documents keep the outcome their construction guarantees, that the metric
names fit BENCHMARK.json, and that the traced run is internally
consistent and its counts repeat.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _dump(workload, seed):
    return json.dumps(gen.WORKLOADS[workload](seed), sort_keys=True)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_documents(workload):
    assert _dump(workload, 5) == _dump(workload, 5)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_other_seed_other_documents_same_verdicts(workload, tmp_path):
    assert _dump(workload, 5) != _dump(workload, 6)
    manifest = run.prepare(ROOT, workload, 6, str(tmp_path / "work"))
    result = run.run_worker("reference", manifest)
    assert result["failed"] == 0, result["first_error"]


def test_metric_names_and_counts():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert sorted(layer) == sorted(run.PER_LAYER)
    assert sorted(e2e) == sorted(run.END_TO_END)
    assert "setup_s" in e2e
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(gen.WORKLOADS)


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_traced_counts_repeat_and_self_times_sum_to_root():
    _, first = _traced("refute-dense", 3)
    _, second = _traced("refute-dense", 3)
    assert first["correct"] and second["correct"]
    counted = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
    assert "checkers.tuples" in counted and "kernel.mul.calls" in counted
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name

    spans_path = os.path.join(BENCH, "out", "spans-refute-dense-3.jsonl")
    with open(spans_path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(s["span"] == "bench.document" for s in roots)
    assert sum(s["self_ns"] for s in spans) == sum(s["end_ns"] - s["start_ns"] for s in roots)
    scans = [s for s in spans if s["span"] == "checkers.scan_identity"]
    assert len(scans) == first["metrics"]["checkers.scan_identity.calls"]["value"]
    for s in scans:
        assert s["bundle"].startswith("sha256:") and s["tuples"] > 0
        assert {"id", "tuples", "violations", "wall_ms", "engine", "cache_hit", "jobs"} <= set(s)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
