"""Pieces shared by the benchmark's main process (run.py) and its
in-process worker (inproc.py): thread pinning, the README command lines,
the span recorder, the closed loop with its machine-speed calibration,
statistics, golden-answer comparison and run-environment facts.

Standard library only: run.py imports this module and must never load numpy.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = ".bench_out"          # results and span files, inside the checkout
DEFAULT_SEED = 0                # golden answers are recorded for this seed

# BLAS thread pools must be pinned before numpy loads: unpinned, eigh
# timings swing by an order of magnitude between calls in one process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The README's command lines: one question each per pass of the cli
# workload. The in-process layer probes evaluate the same expressions.
COMMANDS = (
    ("certify", ("certify", "--expr", "Q:3", "--from", "0", "--to", "7")),
    ("scan", ("scan", "--expr", "weak(Q:2,K:4)", "--from", "0", "--to", "12",
              "--tmax", "6.2832")),
    ("fidelity", ("fidelity", "--expr", "P:3", "--from", "0", "--to", "2",
                  "--tmax", "2", "--pi-units", "--steps", "500")),
    ("spectrum", ("spectrum", "--expr", "gluedcone(circ:15:1,2,4; circ:15:1,2,4,7)")),
    ("collapse", ("collapse", "--expr", "Q:4", "--from", "0", "--to", "15",
                  "--format", "json")),
    ("condition_gluedcone", ("condition", "gluedcone", "--n", "15", "--k", "6",
                             "--gamma", "8")),
    ("condition_cylcone", ("condition", "cylcone", "--n", "3", "--k", "2", "--m", "2")),
    ("build", ("build", "--expr", "weak(Q:2,K:4)")),
    ("table", ("table",)),
)


def flag(argv, name):
    """Value following `name` in an argument tuple, or None."""
    return argv[argv.index(name) + 1] if name in argv else None


FLOAT_TOL = 1e-9                # golden comparison of floats (fmax, times)
FMAX_CEIL = 1.0 + 1e-12         # |F| can never exceed 1
COLLAPSE_TOL = 1e-8             # collapse deviation on distance-regular graphs


def pin_threads(env=os.environ) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


# ---------------------------------------------------------------------------
# spans


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


class Tracer:
    """In-memory span recorder: one span per public call, with name, start,
    end, parent span and question id. Disabled, `span` costs one attribute
    test and returns a shared no-op context manager."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []     # [name, start, end, parent, qid]
        self._stack = []

    def span(self, name: str, qid=None):
        if not self.enabled:
            return _NO_SPAN
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, qid])
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Span(self, index)

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _root(self, index):
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return index

    def per_pass_sums(self, name: str):
        """Seconds spent in spans called `name`, summed per top-level "pass"
        span, in pass order. Layer spans have no children, so this is their
        self time. Only traced passes have spans."""
        sums = {i: 0.0 for i, s in enumerate(self.spans)
                if s[0] == "pass" and s[3] is None}
        for i, (nm, t0, t1, _, _) in enumerate(self.spans):
            if nm == name:
                root = self._root(i)
                if root in sums:
                    sums[root] += t1 - t0
        return [sums[k] for k in sorted(sums)]

    def durations(self, name: str, qid_part: str = ""):
        return [t1 - t0 for nm, t0, t1, _, qid in self.spans
                if nm == name and qid_part in (qid or "")]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, qid in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "qid": qid}) + "\n")


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared machine the CPU speed drifts over minutes: a fixed pure-Python
# loop timed in 25 s windows spread by 23% (quartile distance / median),
# while the ratio of its time to a numpy kernel's spread by 2%. Times are
# therefore reported at a reference speed: each raw time is multiplied by
# CAL_REF_S / (the calibration loop's time measured around it). Raw times
# are kept in the result file.

CAL_REF_S = 0.008               # calibration loop time at the reference speed
CAL_EVERY_S = 0.2               # calibrate after a piece of work once this passed
MIN_QUESTIONS = 100             # p90 then has at least ten samples beyond it
PASS_LIMIT_S = 110.0            # start no pass later than this into the loop


def _calibration_loop():
    s = 0
    d = {}
    for i in range(40000):
        s = (s + i * i) % 1000003
        d[i & 1023] = s
    return s + sum(sorted(d.values()))


def calibrate(reps: int = 3) -> float:
    """Fastest of `reps` timings of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale(*calibrations) -> float:
    """Factor taking raw seconds to reference-speed seconds."""
    return CAL_REF_S / statistics.mean(calibrations)


class SpeedClock:
    """Calibration marks taken between pieces of work, at most every
    CAL_EVERY_S, so that each timed piece can be scaled by the machine speed
    measured just before and just after it."""

    def __init__(self):
        self.times = []
        self.cals = []
        self.mark()

    def mark(self) -> None:
        self.times.append(time.perf_counter())
        self.cals.append(calibrate())

    def tick(self) -> None:
        if time.perf_counter() - self.times[-1] >= CAL_EVERY_S:
            self.mark()

    def scale_at(self, t_end: float) -> float:
        """Scale for work that ended at `t_end`, which a later mark follows."""
        i = bisect.bisect_left(self.times, t_end)
        return speed_scale(self.cals[i - 1], self.cals[i])


def closed_loop(run_pass, seconds, min_questions, trace):
    """Closed loop with one client: whole passes until `seconds` have passed
    and `min_questions` were timed untraced.

    `run_pass(p, traced, clock)` returns the pass's timed pieces of work as
    (end time, seconds, is a question), calling clock.tick() after each.
    Each pass is stored as pieces [seconds, is a question, speed scale].
    In a traced run every second pass is traced; the others are the
    untraced reference for the tracing overhead."""
    clock = SpeedClock()
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        timed = run_pass(len(passes), traced, clock)
        clock.mark()
        pieces = [[sec, question, clock.scale_at(t_end)] for t_end, sec, question in timed]
        passes.append({"traced": traced, "pieces": pieces,
                       "scale": pass_work(pieces, True) / pass_work(pieces, False)})
        elapsed = time.perf_counter() - start
        asked = sum(q for x in passes if not x["traced"] for _, q, _ in x["pieces"])
        enough = len(passes) >= 2 if trace else asked >= min_questions
        if (elapsed >= seconds and enough) or elapsed >= PASS_LIMIT_S:
            return passes


def pass_work(pieces, scaled: bool) -> float:
    return sum(sec * (k if scaled else 1.0) for sec, _, k in pieces)


def loop_metrics(passes, scaled: bool) -> dict:
    """Throughput and latency percentiles of the untraced passes."""
    plain = [x["pieces"] for x in passes if not x["traced"]]
    lat = [1000.0 * sec * (k if scaled else 1.0)
           for pieces in plain for sec, question, k in pieces if question]
    rates = [sum(q for _, q, _ in pieces) / pass_work(pieces, scaled) for pieces in plain]
    return {"answers_per_s": p50(rates), "latency_p50_ms": p50(lat), "latency_p90_ms": p90(lat)}


def overhead_ratio(passes) -> float:
    """Median traced pass work over median untraced pass work, both scaled."""
    def work(traced):
        return p50([pass_work(x["pieces"], True) for x in passes if x["traced"] == traced])
    return work(True) / work(False)


# ---------------------------------------------------------------------------
# statistics


def p50(values):
    return statistics.median(values)


def p90(values):
    """90th percentile (exclusive method); needs >= 100 samples to leave at
    least ten beyond it."""
    return statistics.quantiles(values, n=10)[-1]


def median_ms(seconds):
    return 1000.0 * statistics.median(seconds)


# ---------------------------------------------------------------------------
# answers


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def same_answer(got, want, tol: float = FLOAT_TOL) -> bool:
    """Structural equality with floats compared to an absolute tolerance."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return math.isclose(got, want, rel_tol=0.0, abs_tol=tol)
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same_answer(g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_answer(got[k], want[k], tol) for k in want))
    return got == want


class Checker:
    """Counts attempted and failed questions and keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, qid: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"qid": qid, "problems": problems})


# ---------------------------------------------------------------------------
# environment and output


def git_sha(root: str = ".") -> str:
    """HEAD commit read from .git without running git; the benchmark
    checkout is usually not a repository, then 'unknown'."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def base_env_info() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_last_line(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
