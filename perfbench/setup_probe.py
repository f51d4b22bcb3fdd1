"""Set-up probe: a fresh interpreter imports otto3.cli and builds one
workload's inputs, then exits.  run.py times it from spawn to exit.

Usage, from the repository root: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import sys

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import otto3.cli  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), os.path.join(".bench_out", "probe"))
