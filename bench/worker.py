"""One repetition of a benchmark workload, in a fresh process.

run.py starts this file with one JSON argument (the repetition's settings)
and reads one JSON object from the last line of its standard output.  The
process measures its own set-up first (``import cubicrep`` plus the first
``rational_points`` call in every field the workload uses), then runs curve
sessions in a closed loop and the census through ``cli.main``, checking every
answer against bench/reference.py and the paper's class counts.  Every library
call of a session is timed on its own.  Inputs depend only on the workload
and the seed, so a replay (``sessions`` set) makes exactly the calls of the
first repetition again.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import tempfile
import traceback
from itertools import combinations
from pathlib import Path
from time import perf_counter

# classes of smooth plane cubics over F_q (the paper's census table)
CENSUS_CLASSES = {2: 6, 3: 10}
FIXED_CURVE = (1, 0, 0, 0, 1, 0, 1, 0, 0, 1)  # X^3 + XYZ + Y^3 + Z^3
MAX_ERRORS = 20


class Tracer:
    """Spans kept in memory as [name, q, session, parent, start, duration].
    When off, call() is a plain call."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.session = -1

    def call(self, name: str, q: int, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        span = [name, q, self.session, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4], span[5] = start, perf_counter() - start
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, q_of):
        """Record a span around every call of module.attr, which is how a
        layer reaches another across a module boundary."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, q_of(*args), fn, *args, **kwargs)

        setattr(module, attr, traced)


class Worker:
    def __init__(self, cfg: dict, cr, cli, specs, ref, tracer: Tracer):
        self.cfg = cfg
        self.cr, self.cli, self.specs, self.ref, self.tr = cr, cli, specs, ref, tracer
        self.rng = random.Random(f"{cfg['workload']}/{cfg['seed']}")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.calls: list = []  # per session, its call times; None if it failed
        self.session_q: list[int] = []
        self.rejected = 0
        self.seen: set = set()  # drawn cubics, up to scalars
        self.drawn: dict[int, int] = {}  # per field
        self.rss_mb = None  # peak RSS once this worker's quota of sessions is done
        self._calls: list[float] = []
        self.inject = cfg.get("inject", False)

    # -- bookkeeping ---------------------------------------------------------

    def op(self, name: str, q: int, fn, *args):
        """A timed library call; its time goes to the current session."""
        self.attempted += 1
        start = perf_counter()
        try:
            return self.tr.call(name, q, fn, *args)
        finally:
            self._calls.append(perf_counter() - start)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(f"wrong answer: {what}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    # -- inputs --------------------------------------------------------------

    def curve(self, q: int, coeffs):
        spec, f = self.specs[q], self.ref.field(q)
        return self.cr.TernaryCubic(spec, [spec.element(f.digits(c)) for c in coeffs])

    def key(self, q: int, coeffs) -> tuple:
        """The curve up to scalars: coefficients scaled to lead with 1."""
        f = self.ref.field(q)
        inv = int(f.inv[next(c for c in coeffs if c)])
        return q, tuple(f.mul_l[c][inv] for c in coeffs)

    def mark(self, q: int, coeffs) -> bool:
        """Record a drawn cubic; False if it was drawn before, up to scalars."""
        key = self.key(q, coeffs)
        if key in self.seen:
            return False
        self.seen.add(key)
        self.drawn[q] = self.drawn.get(q, 0) + 1
        return True

    def draw_curve(self, q: int):
        """A nonzero cubic not drawn before in this process, or None once
        every cubic over F_q has been drawn."""
        if self.drawn.get(q, 0) == (q ** 10 - 1) // (q - 1):
            return None
        while True:
            coeffs = tuple(self.rng.randrange(q) for _ in range(10))
            if any(coeffs) and self.mark(q, coeffs):
                return coeffs

    def invertible(self, q: int):
        f = self.ref.field(q)
        while True:
            m = [[self.rng.randrange(q) for _ in range(3)] for _ in range(3)]
            if f.det3(m):
                return m

    def rep_ints(self, q: int, rep):
        f = self.ref.field(q)
        return [[[f.to_int(c) for c in row] for row in mv]
                for mv in rep.coefficient_matrices()]

    # -- the curve session ---------------------------------------------------

    def session(self, q: int, coeffs) -> None:
        """is_smooth -> rational_points -> all_reps -> is_ldr_of on every rep
        -> same-curve pairs (inequivalent) -> one witness pair (m, A m B)."""
        F = self.curve(q, coeffs)
        self._calls = []
        self.tr.session = len(self.calls)
        failed_before = self.failed
        try:
            self.tr.call("session", q, self._session_body, q, coeffs, F)
        except Exception:
            self.fail(traceback.format_exc(limit=4))
        self.calls.append(self._calls if self.failed == failed_before else None)
        self.session_q.append(q)
        if self.rss_mb is None and len(self.calls) >= self.cfg["min_sessions"]:
            # measured after a fixed amount of work: the library's caches grow
            # with every session, so a reading at the end would grow with speed
            self.rss_mb = peak_rss_mb()

    def _session_body(self, q, coeffs, F):
        cr, ref = self.cr, self.ref
        self.check(self.op("plane.is_smooth", q, cr.is_smooth, F) is True,
                   f"is_smooth({coeffs}) over F_{q} should be True")
        pts = self.op("plane.rational_points", q, cr.rational_points, F)
        expected = ref.points(q, coeffs)
        self.check([ref.point_index(q, P) for P in pts] == expected,
                   f"rational_points({coeffs}) over F_{q}")
        reps = self.op("detrep.all_reps", q, cr.all_reps, F)
        self.check(len(reps) == len(expected) - 1,
                   f"all_reps({coeffs}) over F_{q} has {len(reps)} reps, "
                   f"expected {len(expected) - 1}")
        for _, rep, lam in reps:
            got = self.op("detrep.is_ldr_of", q, cr.is_ldr_of, rep, F)
            self.check(got is not None and got == lam, f"is_ldr_of over F_{q}")
        all_pairs = list(combinations(range(len(reps)), 2))
        for i, j in self.rng.sample(all_pairs, min(self.cfg["pairs"], len(all_pairs))):
            got = self.op("detrep.equivalent.inequiv", q, cr.equivalent,
                          reps[i][1], reps[j][1])
            self.check(got is None, f"reps {i}, {j} of one curve over F_{q} "
                                    "must be inequivalent")
        if reps:
            self._witness_pair(q, reps)

    def _witness_pair(self, q, reps):
        cr, f = self.cr, self.ref.field(q)
        spec = self.specs[q]
        m = reps[self.rng.randrange(len(reps))][1]
        a, b = self.invertible(q), self.invertible(q)
        target_ints = [f.matmul(f.matmul(a, mv), b) for mv in self.rep_ints(q, m)]
        target = cr.LinearMatrixRep(spec, *[
            [[spec.element(f.digits(c)) for c in row] for row in mv] for mv in target_ints])
        w = self.op("detrep.equivalent.witness", q, cr.equivalent, m, target)
        self.check(w is not None, f"equivalent(m, A m B) over F_{q} found no witness")
        if w is None:
            return
        checked = target
        if self.inject:  # self-test: check the witness against the wrong target
            checked = m if m != target else reps[0][1]
        self.check(w.verify(m, checked), f"witness does not verify over F_{q}")
        wa = [[f.to_int(c) for c in row] for row in w.a.rows]
        wb = [[f.to_int(c) for c in row] for row in w.b.rows]
        got = [f.matmul(f.matmul(wa, mv), wb) for mv in self.rep_ints(q, m)]
        self.check(got == target_ints, f"A m B recomputed from the witness over F_{q}")
        if self.inject:  # self-test: an operation that raises
            self.inject = False
            other = self.curve(3 if q != 3 else 2, FIXED_CURVE)
            self.op("detrep.is_ldr_of", q, cr.is_ldr_of, m, other)

    def screen(self, q: int, coeffs) -> bool:
        """Singular draws get one checked is_smooth call and no session."""
        if self.ref.is_smooth(q, coeffs):
            return True
        self._calls = []
        try:
            got = self.op("plane.is_smooth", q, self.cr.is_smooth, self.curve(q, coeffs))
            self.check(got is False, f"is_smooth({coeffs}) over F_{q} should be False")
        except Exception:
            self.fail(traceback.format_exc(limit=4))
        self.rejected += 1
        return False

    def random_sessions(self) -> None:
        """Sessions on random smooth cubics, cycling through the workload's
        fields, until the time is up and enough sessions are done."""
        cfg = self.cfg
        schedule = cfg["fields"]
        start = perf_counter()
        k = 0
        while True:
            n = len(self.calls)
            if cfg.get("sessions") is not None:
                if n >= cfg["sessions"]:
                    break
            elif n >= cfg["min_sessions"] and perf_counter() - start >= cfg["seconds"]:
                break
            if not schedule:
                break
            q = schedule[k % len(schedule)]
            coeffs = self.draw_curve(q)
            if coeffs is None:
                schedule = [x for x in schedule if x != q]
            elif self.screen(q, coeffs):
                k += 1
                self.session(q, coeffs)

    # -- the census ----------------------------------------------------------

    def census(self, tmp: Path) -> dict:
        """classify --q <q> through cli.main; returns seconds per q."""
        seconds = {}
        for q in CENSUS_CLASSES:
            out = tmp / f"classify-{q}.json"
            argv = ["classify", "--q", str(q), "--out", str(out)]
            buf = io.StringIO()
            self.attempted += 1
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.tr.call("cli.classify", q, self.cli.main, argv)
            except Exception:
                self.fail(traceback.format_exc(limit=4))
                continue
            seconds[q] = perf_counter() - start
            if code != 0 or "formula crosscheck: ok" not in buf.getvalue():
                self.fail(f"classify --q {q}: exit {code}, crosscheck not ok")
                continue
            obj = json.loads(out.read_text())
            self.check(obj["class_count"] == CENSUS_CLASSES[q],
                       f"classify --q {q}: {obj['class_count']} classes")
        return seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def field_spec(cr, q: int):
    from reference import factor_prime_power
    p, m = factor_prime_power(q)
    return cr.mk_field(p, m)


def main() -> None:
    cfg = json.loads(sys.argv[1])
    root = Path(cfg["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    start = perf_counter()
    import cubicrep as cr
    from cubicrep import cli
    first_ms = {}
    specs = {}
    for q in cfg["setup_fields"]:
        spec = specs[q] = field_spec(cr, q)
        curve = cr.TernaryCubic(spec, [spec.element(c) for c in FIXED_CURVE])
        t = perf_counter()
        cr.rational_points(curve)
        first_ms[q] = (perf_counter() - t) * 1e3
    setup_s = perf_counter() - start

    if Path(cr.__file__).resolve().parent != (src / "cubicrep").resolve():
        raise SystemExit(f"imported cubicrep from {cr.__file__}, not from {src}")
    warm_ms = {}
    for q, spec in specs.items():
        curve = cr.TernaryCubic(spec, [spec.element(c) for c in FIXED_CURVE])
        t = perf_counter()
        cr.rational_points(curve)
        warm_ms[q] = (perf_counter() - t) * 1e3

    from reference import Reference
    specs = _SpecCache(cr, specs)
    ref = Reference(specs.__getitem__)
    tracer = Tracer(cfg["trace"])
    if cfg["trace"]:
        from cubicrep import _bulk, counting, oracle
        tracer.wrap(oracle, "census", "oracle.census", lambda q, *a, **k: q)
        tracer.wrap(oracle, "crosscheck", "oracle.crosscheck", lambda q, *a, **k: q)
        tracer.wrap(counting, "cubics_with_points", "counting.cubics_with_points",
                    lambda q, *a: q)
        for attr in ("smooth_mask", "point_counts", "pgl3_cubic_action", "orbit_of"):
            tracer.wrap(_bulk, attr, f"bulk.{attr}", lambda spec, *a: spec.q)

    w = Worker(cfg, cr, cli, specs, ref, tracer)
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        w.random_sessions()
        census_s = w.census(Path(tmp))
    cache = {name: getattr(cr.detrep, f"_{name}").cache_info()[:2]
             for name in ("rank_profile", "kernel_data")}

    result = {
        "setup_s": setup_s,
        "first_ms": first_ms,
        "warm_ms": warm_ms,
        "calls": w.calls,
        "session_q": w.session_q,
        "rejected": w.rejected,
        "census_s": census_s,
        "peak_rss_mb": w.rss_mb or peak_rss_mb(),
        "attempted": w.attempted,
        "failed": w.failed,
        "errors": w.errors,
        "cache": cache,
        "spans": tracer.spans,
    }
    print(json.dumps(result))


class _SpecCache(dict):
    def __init__(self, cr, specs):
        super().__init__(specs)
        self._cr = cr

    def __missing__(self, q):
        self[q] = field_spec(self._cr, q)
        return self[q]


if __name__ == "__main__":
    main()
