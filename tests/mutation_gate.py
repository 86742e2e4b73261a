"""Mutation gate: each fault of ``tests/mutants.py``, applied alone to a
copy of ``src/`` in a temporary directory, must make the test suite fail.

    python tests/mutation_gate.py

The copy holds ``src/``, ``tests/``, ``perfbench/`` (whose tracing a test
imports), ``README.md`` and ``pyproject.toml``; there
``python -m pytest -q -x tests`` (less ``tests/test_mutants.py``, whose
rule the gate applies first) runs with the copy's ``src`` first on
PYTHONPATH, once unchanged (it must pass, or no verdict means
anything) and once per fault.  Exit 0 when every fault fails the suite,
1 when one survives or the unchanged copy fails, 2 when a fault's old
text does not occur exactly once.  Each run takes from a few seconds to
the whole suite's time, so the gate is a CI job of its own, not part of
tier-1 (pytest does not collect this file); ``tests/test_mutants.py``
checks in tier-1 that every old text still occurs once."""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import FAULTS

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")


def check_faults(faults):
    """(path, old text, count) of each fault whose old text does not occur
    exactly once in its file."""
    offenders = []
    for path, old, _, _ in faults:
        count = (ROOT / "src" / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            offenders.append((path, old, count))
    return offenders


def run_suite(fault=None):
    """(passed, seconds, first failing test) of the suite on a fresh copy,
    with fault applied when given."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tmp / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(source, tmp / name)
        if fault is not None:
            path, old, new, _ = fault
            target = tmp / "src" / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tmp / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        start = time.perf_counter()
        # test_mutants.py asks that each fault's old text occur once, which
        # a mutated copy breaks by design; main() applies that rule itself
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py", "tests"],
            cwd=tmp, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = [line.split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, seconds, failed[0] if failed else f"exit {proc.returncode}"


def main():
    offenders = check_faults(FAULTS)
    for path, old, count in offenders:
        print(f"{path}: {old!r} occurs {count} times, not once", file=sys.stderr)
    if offenders:
        return 2
    passed, seconds, failure = run_suite()
    print(f"unchanged copy: {'passes' if passed else 'FAILS'} ({seconds:.0f} s)", flush=True)
    if not passed:
        print(f"  {failure}")
        return 1
    survivors = []
    for index, fault in enumerate(FAULTS):
        path, _, _, what = fault
        passed, seconds, failure = run_suite(fault)
        verdict = f"SURVIVES ({what})" if passed else f"caught by {failure}"
        print(f"{index:2d} {path}: {verdict} ({seconds:.0f} s)", flush=True)
        if passed:
            survivors.append(fault)
    print(f"{len(FAULTS) - len(survivors)} of {len(FAULTS)} faults caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
