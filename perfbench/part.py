"""One part of a measured run: a fresh interpreter measures one workload
for a share of the run's seconds and prints its tallies, slice times and
peak memory as one JSON line.  run.py starts the parts, each with its own
PYTHONHASHSEED, and combines them.

Usage, from the repository root: python3 perfbench/part.py WORKLOAD SEED PART SECONDS
"""

import json
import os
import shutil
import sys

import run  # sets one BLAS thread before numpy is imported


def main() -> int:
    run.import_program()
    from workloads import BenchError

    workload, seed, part, seconds = sys.argv[1:5]
    work_dir = os.path.join(".bench_out", f"part-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        result = run.measure_part(workload, int(seed), int(part), float(seconds), work_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
