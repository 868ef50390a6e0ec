"""The benchmark's self-test, run from the test suite.

bench/worker.py reads internals of the library on every run, among them
detrep._rank_profile, detrep._kernel_data and the traced _bulk functions.
Running bench/selftest.py here makes a change that drops one of those names
fail the tests instead of only the benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
