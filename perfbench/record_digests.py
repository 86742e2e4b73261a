"""Record the reference output digests of every workload at the default
seed into perfbench/digests.json.

    python3 perfbench/record_digests.py     (from the root of a checkout)

run.py checks every default-seed run against this file, so a change that
alters report or output bytes fails the benchmark until the file is
recorded again.  Record only when such a change is intended, and say so
in the change.
"""

import json
import os
import shutil
import sys

import run


def main():
    root = os.getcwd()
    recorded = {}
    for workload in sorted(run.gen.WORKLOADS):
        work = os.path.join(run.HERE, "out", f"record-{workload}-{os.getpid()}")
        try:
            manifest = run.prepare(root, workload, run.DEFAULT_SEED, work)
            result = run.run_worker("reference", manifest)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result["failed"]:
            print(f"{workload}: {result['failed']} documents failed; nothing recorded\n"
                  f"{result['first_error']}", file=sys.stderr)
            return 1
        recorded[workload] = result["reference"]
        print(f"{workload}: {len(result['reference'])} digests")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
