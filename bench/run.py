"""Benchmark of cubicrep, end to end and per layer.

    python3 bench/run.py --workload census-reps --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1    # every workload, one table
    python3 bench/selftest.py                       # tiny run with injected faults

Run it from the root of a checkout: it uses the library in ./src, needs
nothing built, and exits with code 2 when ./src/cubicrep is missing.

Workloads (BENCHMARK.json says why each is there):

* census-reps: sessions on random smooth cubics over F_2, F_3, F_4, F_5, F_7;
* large-field: sessions on random smooth cubics over F_31 (7 in 10), F_64 (1 in
  10) and F_101 (2 in 10).  Sessions over F_31 are the fastest and those over
  F_101 the slowest, so p50 falls well inside the F_31 band and p90 at the
  middle of the F_101 band, not on the sparse upper tail of a band.

A run is ``reps`` repetitions of the same inputs, one after another, each in
a fresh worker process (bench/worker.py), so library caches start cold and the
load comes from one process: a closed loop with one client.  A worker first
times its set-up (``import cubicrep`` plus the first ``rational_points`` call
in every field it will use).  The first worker then runs curve sessions for
its share of ``--seconds`` and until it has done ``min_sessions`` of them, so
that p90 has ten samples beyond it; the other workers replay exactly those
sessions.  A session is is_smooth -> rational_points -> all_reps -> is_ldr_of
on every rep -> a seeded sample of same-curve pairs, which must be
inequivalent -> one pair (m, A m B), whose witness must verify.  Every worker
then runs ``classify --q 2`` and ``--q 3`` through ``cli.main``.  Inputs are
drawn from the seed, never twice in one process.  Every answer is checked
against bench/reference.py, which shares no code with the library, and the
census against the paper's class counts; a raise or a wrong answer counts as
a failure and the run goes on.

On a shared 2-core Xeon VM the CPU speed changes by 20-40 % from one
stretch of seconds to the next, so a call timed once measures the host as
much as the library.  Every library call is therefore timed in each of the
``reps`` workers, which run seconds apart, and counts at its best time.  On
that VM, six workers over a 45 s run kept the run-to-run spread of
curve_p50_ms at about half that of three workers over 20 s.

End-to-end metrics (``--trace 0``): setup_s is the median set-up time of the
workers; curves_per_s, curve_p50_ms and curve_p90_ms are over the session
latencies, each the sum of the session's best call times; census_s is the sum
over q of the best time of ``classify --q <q>``; peak_rss_mb is the median
over workers of ru_maxrss taken when the worker has done ``min_sessions``
sessions, so that it does not grow with the number of sessions a faster
program fits into ``--seconds``.  fail_frac is printed in the table and
carried by ``attempted``/``failed``.

``--trace 1`` adds one traced replay of the first worker's inputs and prints
the per-layer metrics of bench/layers.json from it, including the overhead of
tracing against the first worker's untraced timings.  The last line of
standard output is the JSON result; the full record (run metadata, the
per-field breakdown ``<metric>.q<q>``, raw spans) goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170

# setup_fields: the workload's fields plus the extensions F_{q^2} (and F_8
# for q = 2) that the equivalence certificate moves to on curves with few
# points, so that their table builds count as set-up, not as one slow session.
# reps: workers per run, so timings per call.  Each large-field worker redoes
# 100 long sessions after 4-7 s of set-up, so two are what the time allows.
WORKLOADS = {
    "census-reps": {
        "fields": [2, 3, 4, 5, 7],
        "setup_fields": [2, 3, 4, 5, 7, 8, 9, 16, 25, 49],
        "pairs": 3,
        "reps": 6,
        "min_sessions": 100,
    },
    "large-field": {
        "fields": [31, 31, 31, 101, 31, 31, 64, 31, 31, 101],
        "setup_fields": [31, 64, 101],
        "pairs": 1,
        "reps": 2,
        "min_sessions": 100,
    },
}


# ---------------------------------------------------------------------------
# workers


def worker_env() -> dict:
    """Cap numpy/BLAS/OpenMP threads at the number of usable CPUs, and keep
    numpy off transparent huge pages: whether the kernel had any free moved
    the peak RSS of a ``classify --q 4`` worker between 88 and 108 MB from
    run to run on a 2-core Xeon VM."""
    env = dict(os.environ)
    n = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = n
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(cfg: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, inject: bool = False) -> tuple[list, list]:
    """(untraced results, traced results) of one run."""
    spec = WORKLOADS[name]
    reps = 1 if tiny else spec["reps"]
    cfg = {
        "root": str(ROOT), "workload": name, "seed": seed,
        "fields": spec["fields"], "setup_fields": spec["setup_fields"],
        "pairs": spec["pairs"], "seconds": seconds / reps,
        "min_sessions": 5 if tiny else spec["min_sessions"],
        "sessions": None, "trace": False, "inject": inject,
    }
    plain = [run_worker(cfg)]
    replay = dict(cfg, sessions=len(plain[0]["calls"]))  # the same calls again
    plain += [run_worker(replay) for _ in range(reps - 1)]
    traced = [run_worker(dict(replay, trace=True))] if trace else []
    return plain, traced


def latencies(result: dict) -> list:
    """Session latencies of one worker; None for a failed session."""
    return [None if c is None else sum(c) for c in result["calls"]]


def best_of(results: list) -> list:
    """Session latencies with every call timed at the best of its timings in
    the workers.  A session that failed in any worker has no latency."""
    lat = []
    for sessions in zip(*(r["calls"] for r in results)):
        if None in sessions:
            continue
        if len({len(c) for c in sessions}) > 1:  # not the same calls: whole sessions
            lat.append(min(map(sum, sessions)))
        else:
            lat.append(sum(map(min, zip(*sessions))))
    return lat


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(results: list) -> tuple[dict, dict]:
    """(metrics, sample info) over the repetitions of one run."""
    lat = best_of(results)
    if not lat:
        raise SystemExit("no curve session completed")
    census = [r["census_s"] for r in results]
    qs = {q for c in census for q in c}
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "curves_per_s": (len(lat) / sum(lat), "1/s"),
        "curve_p50_ms": (nearest_rank(lat, 50) * 1e3, "ms"),
        "curve_p90_ms": (nearest_rank(lat, 90) * 1e3, "ms"),
        "census_s": (sum(min(c[q] for c in census if q in c) for q in qs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    info = {"sessions": len(lat), "timings_per_session": len(results),
            "setups": [r["setup_s"] for r in results], "census_samples": census,
            "beyond_p90": len(lat) - math.ceil(0.9 * len(lat)),
            "rejected_draws": sum(r["rejected"] for r in results),
            "sessions_per_q": Counter(str(q) for q in results[0]["session_q"])}
    return metrics, info


def per_layer(plain: list, traced: list) -> tuple[dict, dict]:
    """(per-layer metrics over every field, the same split by field as
    <name>.q<q> plus extra detail) from the traced repetitions."""
    durs: dict = {}   # (span name, q) -> durations in s
    selfs: dict = {}  # (span name, q) -> summed self time in s
    for r in traced:
        raw = r["spans"]
        child = [0.0] * len(raw)
        for name, q, _, parent, _, dur in raw:
            if parent >= 0:
                child[parent] += dur
        for (name, q, _, _, _, dur), c in zip(raw, child):
            durs.setdefault((name, q), []).append(dur)
            selfs[name, q] = selfs.get((name, q), 0.0) + dur - c
    names = sorted({name for name, _ in durs})
    qs = sorted({q for _, q in durs})

    def pooled(table, name, q):
        keys = [(name, q)] if q is not None else [(name, k) for k in qs]
        return [table[k] for k in keys if k in table]

    def p50(name, scale):
        def fn(q):
            d = [x for xs in pooled(durs, name, q) for x in xs]
            return statistics.median(d) * scale if d else None
        return fn

    per_rep = 1e3 / len(traced)  # totals are per repetition, in ms

    def total_ms(name):
        def fn(q):
            d = pooled(durs, name, q)
            return sum(map(sum, d)) * per_rep if d else None
        return fn

    agg: dict = {}
    detail: dict = {}

    def put(name, unit, fn):
        agg[name] = (fn(None), unit)
        for q in qs:
            v = fn(q)
            if v is not None:
                detail[f"{name}.q{q}"] = (v, unit)

    # tables: first call in a fresh field minus the same call made warm
    first = {q: statistics.median(r["first_ms"][q] - r["warm_ms"][q] for r in traced)
             for q in traced[0]["first_ms"]}
    agg["tables.first_touch_ms"] = (sum(first.values()), "ms")
    for q, v in first.items():
        detail[f"tables.first_touch_ms.q{q}"] = (v, "ms")

    for name, scale, unit in (("plane.is_smooth", 1e6, "us"),
                              ("plane.rational_points", 1e6, "us"),
                              ("detrep.is_ldr_of", 1e6, "us"),
                              ("detrep.equivalent.inequiv", 1e3, "ms"),
                              ("detrep.equivalent.witness", 1e3, "ms")):
        put(f"{name}.p50_{unit}", unit, p50(name, scale))

    def ms_per_rep(q):
        built = pooled(durs, "detrep.is_ldr_of", q)  # one check per rep built
        n = sum(map(len, built))
        return total_ms("detrep.all_reps")(q) * len(traced) / n if n else None
    put("detrep.all_reps.ms_per_rep", "ms", ms_per_rep)

    for name in ("bulk.smooth_mask", "bulk.point_counts", "bulk.pgl3_cubic_action",
                 "bulk.orbit_of", "oracle.census", "oracle.crosscheck",
                 "counting.cubics_with_points"):
        put(f"{name}.ms", "ms", total_ms(name))
    put("bulk.orbit_of.calls", "count",
        lambda q: sum(map(len, pooled(durs, "bulk.orbit_of", q))) / len(traced) or None)
    for name in names:
        put(f"{name}.self_ms", "ms",
            lambda q, n=name: sum(pooled(selfs, n, q)) * per_rep if pooled(selfs, n, q) else None)

    for cache in ("rank_profile", "kernel_data"):
        hits = sum(r["cache"][cache][0] for r in traced)
        misses = sum(r["cache"][cache][1] for r in traced)
        base = f"detrep.cache.{cache}"
        agg[f"{base}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        agg[f"{base}.hits"] = (hits / len(traced), "count")
        agg[f"{base}.misses"] = (misses / len(traced), "count")

    # the sessions every worker completed; untraced: the median worker's total
    rows = [row for row in zip(*map(latencies, plain + traced)) if None not in row]
    if not rows:
        raise SystemExit("no curve session completed in every worker")
    untraced = statistics.median(map(sum, zip(*[row[:-1] for row in rows])))
    with_spans = sum(row[-1] for row in rows)
    agg["trace.overhead_ratio"] = (with_spans / untraced, "ratio")
    detail["trace.overhead_ms_per_session"] = ((with_spans - untraced) * 1e3 / len(rows), "ms")
    detail["trace.untraced_session_s"] = (untraced, "s")
    detail["trace.traced_session_s"] = (with_spans, "s")
    return agg, detail


# ---------------------------------------------------------------------------
# metadata and output


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def metadata(args, name: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": nproc(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "seed": args.seed, "workload": name,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "params": WORKLOADS[name],
    }


def declared_metrics() -> tuple[list, list]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def measure(args, name: str) -> dict:
    plain, traced = run_workload(name, args.seed, args.seconds, args.trace,
                                 tiny=args.tiny, inject=args.inject)
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    e2e, info = end_to_end(plain)
    record = {"meta": metadata(args, name), "samples": info,
              "fail_frac": failed / attempted,
              "errors": [e for r in plain + traced for e in r["errors"]],
              "end_to_end": e2e}
    e2e_names, layer_names = declared_metrics()
    if args.trace:
        agg, detail = per_layer(plain, traced)
        record.update(per_layer=agg, per_layer_detail=detail,
                      spans=[r["spans"] for r in traced])
        shown = {k: agg[k] for k in layer_names}
    else:
        shown = {k: e2e[k] for k in e2e_names}
    record["result"] = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    return record


def print_table(name: str, record: dict) -> None:
    print(f"== {name}  (seed {record['meta']['seed']}, {record['samples']['sessions']} "
          f"sessions, {record['samples']['beyond_p90']} beyond p90)")
    rows = dict(record["end_to_end"])
    rows["fail_frac"] = (record["fail_frac"], "ratio")
    for key, (value, unit) in rows.items():
        print(f"  {key:<34} {value:>14.6g} {unit}")
    for key, (value, unit) in sorted(record.get("per_layer_detail", {}).items()):
        print(f"  {key:<34} {value:>14.6g} {unit}")
    for err in record["errors"][:5]:
        print("  error:", err.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one worker, five sessions, one census (self-test)")
    parser.add_argument("--inject", action="store_true",
                        help="inject one wrong answer and one raise (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubicrep" / "__init__.py").is_file():
        print(f"error: no cubicrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        record = measure(args, name)
        print_table(name, record)
        results.append(record["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
