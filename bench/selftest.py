"""Self-test of the benchmark at a tiny size; runs in seconds.

    python3 bench/selftest.py

1. With --inject, the run meets one wrong answer (a witness checked against
   the wrong target) and one operation that raises; both must be counted as
   failures, and the run must still finish and print its result.
2. A traced run must report exactly the per-layer metrics that
   BENCHMARK.json and bench/layers.json declare, in BENCHMARK.json's units,
   and no failure.
3. In a directory that holds only BENCHMARK.json and bench/, run.py must
   exit with a code other than 0 and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TINY = ["--workload", "census-reps", "--seed", "0", "--seconds", "1", "--tiny"]


def run(*extra: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *TINY, *extra],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    injected = run("--trace", "0", "--inject")
    assert injected["failed"] == 2, injected
    assert injected["correct"] is False, injected
    assert injected["attempted"] > 2, injected

    traced = run("--trace", "1")
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert declared == list(layers), (declared, list(layers))
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for name, layer in layers.items():
        for workload, moved in layer["moves"].items():
            assert workload in workloads and set(moved) <= e2e, (name, workload, moved)
    assert list(traced["metrics"]) == declared, sorted(set(traced["metrics"]) ^ set(declared))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in traced["metrics"].items()), traced
    assert traced["failed"] == 0 and traced["correct"], traced

    scratch = HERE.parent / ".bench_results"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", *TINY], cwd=bare,
                              capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("selftest ok: 2 injected failures counted in "
          f"{injected['attempted']} operations; {len(declared)} per-layer metrics; "
          "a directory without sources is refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
