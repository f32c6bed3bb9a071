"""In-process half of the pstwalk benchmark: the two size ladders, and the
in-process layer probes of a traced run.

run.py starts this file as a child process with the thread pins and
PYTHONPATH already set, from the root of a source checkout:

    python3 perfbench/inproc.py --workload ladder-structured --seed 0 \
        --seconds 30 --trace 0 [--setup-only] [--smoke]

It prints one JSON object as the last line of its standard output. Only
public functions of the package are called; every call is checked.
"""

import time

T_START = time.perf_counter()   # set-up time starts before numpy loads

import argparse  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

common.pin_threads()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import pstwalk as pw  # noqa: E402

SCAN_TMAX = 2.0 * math.pi
SCAN_STEPS = 20001
COLLAPSE_GRID = 1000
SUPPORT_TOL = 1e-8              # same tolerance pst_certificate projects with
RANDOM_SIZES = (32, 64, 128, 192, 256)   # odd question count: see README
RANDOM_DENSITY = 0.2            # fixed so that every seed costs about the same
PROBE_REPS = 5


class Instance:
    """A graph recipe and a vertex pair. `build(tracer)` returns the graph,
    wrapping each builder call in a span named after its module."""

    def __init__(self, name, build, a, b, hypercube=False):
        self.name = name
        self.build = build
        self.a = a
        self.b = b
        self.hypercube = hypercube


def _built(tracer, layer, make):
    with tracer.span(layer + ".build"):
        return make()


def _hypercube(d):
    return Instance(f"Q{d}", lambda tr: _built(tr, "graphs", lambda: pw.hypercube(d)),
                    0, 2 ** d - 1, hypercube=True)


def _glued(index):
    n, k, gamma = pw.glued_cone_family(index)

    def build(tr):
        with tr.span("graphs.build"):
            half = pw.circulant(n, range(1, k // 2 + 1))
            conn = pw.circulant(n, range(1, gamma // 2 + 1))
        return _built(tr, "cones", lambda: pw.glued_double_cone(half, half, conn))

    return Instance(f"gluedcone{index}", build, 0, 2 * n + 1)


def _composite(name, layer, factors, combine, a, b):
    def build(tr):
        parts = _built(tr, "graphs", factors)
        return _built(tr, layer, lambda: combine(*parts))

    return Instance(name, build, a, b)


def structured_instances():
    """Smallest first: the first instance is the warm-up and smoke case."""
    return [
        _composite("lex(K:2,Q:2)", "products",
                   lambda: (pw.complete(2), pw.hypercube(2)), pw.lexicographic_product, 0, 3),
        _composite("cylcone(3,2,2)", "cones",
                   lambda: (pw.complete(3), pw.empty_graph(2), pw.complete(3)),
                   pw.cylindrical_cone, 0, 9),
        _composite("weak(Q:2,K:4)", "products",
                   lambda: (pw.hypercube(2), pw.complete(4)), pw.weak_product, 0, 12),
        _glued(2),
        _hypercube(6),
        _glued(3),
        _hypercube(7),
        _hypercube(8),
        _hypercube(9),
    ]


def _random_adjacency(rng, n):
    """Shaped like the test-suite corpus generator: uniform(0.2, 3) weights
    on a random edge set, and loops on about 30% of vertices."""
    upper = np.triu(rng.random((n, n)) < RANDOM_DENSITY, 1)
    adj = np.where(upper, rng.uniform(0.2, 3.0, size=(n, n)), 0.0)
    adj = adj + adj.T
    return adj + np.diag(np.where(rng.random(n) < 0.3, rng.uniform(0.5, 2.0, size=n), 0.0))


def random_instances(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in RANDOM_SIZES:
        adj = _random_adjacency(rng, n)
        while not pw.is_connected(pw.Graph(adj)):
            adj = _random_adjacency(rng, n)
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        out.append(Instance(f"random{n}",
                            lambda tr, adj=adj: _built(tr, "graphs", lambda: pw.Graph(adj)),
                            a, b))
    return out


def readme_instances():
    """The README graphs that the cli workload's pair commands use."""
    out = []
    for _, argv in common.COMMANDS:
        if common.flag(argv, "--from") is None:
            continue
        text = common.flag(argv, "--expr")
        out.append(Instance(
            text,
            lambda tr, text=text: _built(tr, "expr", lambda: pw.eval_expr(pw.parse_expr(text))),
            int(common.flag(argv, "--from")), int(common.flag(argv, "--to"))))
    return out


# ---------------------------------------------------------------------------
# questions: (answer key, span name, call) — each returns a JSON-able answer


def collapse_grid():
    return np.linspace(0.0, SCAN_TMAX, COLLAPSE_GRID)


def _certificate(g, inst, grid):
    c = pw.pst_certificate(g, inst.a, inst.b)
    return {"verdict": c.verdict, "support": list(c.support), "signs": list(c.signs),
            "time_exact": None if c.time_exact is None else list(c.time_exact),
            "time_num": c.time_num}


def _scan(g, inst, grid):
    return {"fmax": pw.max_fidelity_scan(g, inst.a, inst.b, SCAN_TMAX, SCAN_STEPS)[1]}


def _cells(part):
    return None if part is None else [list(c) for c in part.cells]


def _distance_partition(g, inst, grid):
    return _cells(pw.distance_partition(g, inst.a))


def _refinement(g, inst, grid):
    rest = [v for v in range(g.n) if v not in (inst.a, inst.b)]
    return _cells(pw.coarsest_equitable_refinement(g, [[inst.a], [inst.b], rest]))


def _collapse(g, inst, grid):
    try:
        return {"deviation": pw.collapse_fidelity_check(g, inst.a, inst.b, grid)}
    except pw.NotEquitableError:
        return {"raises": "NotEquitableError"}


QUESTIONS = (
    ("certificate", "transfer.certificate", _certificate),
    ("scan", "transfer.scan", _scan),
    ("distance_partition", "partitions.distance_partition", _distance_partition),
    ("refinement", "partitions.refinement", _refinement),
    ("collapse", "partitions.collapse", _collapse),
)


def invariant_problems(inst, g, ans):
    """Checks that hold for any seed; `ans` maps question -> answer for the
    questions that returned."""
    probs = {q: [] for q in ans}
    a, b = inst.a, inst.b
    if "scan" in ans and not ans["scan"]["fmax"] <= common.FMAX_CEIL:
        probs["scan"].append(f"fmax {ans['scan']['fmax']!r} exceeds 1")
    if "certificate" in ans:
        cert = ans["certificate"]
        signs = pw.strong_cospectrality(g, a, b)
        if signs is None and not (cert["verdict"] == "no" and cert["support"] == []):
            probs["certificate"].append("strong_cospectrality says no, certificate disagrees")
        if signs is not None and cert["signs"] != list(signs):
            probs["certificate"].append("signs differ from strong_cospectrality")
        if inst.hypercube and not (
                cert["verdict"] == "yes" and cert["time_exact"] == [1, 2, 1.0]
                and math.isclose(cert["time_num"], math.pi / 2, abs_tol=common.FLOAT_TOL)):
            probs["certificate"].append("hypercube antipodes must transfer at pi/2")
    dist = ans.get("distance_partition")
    if dist is not None and dist[0] != [a]:
        probs["distance_partition"].append("first cell is not the source")
    if "refinement" in ans:
        cells = ans["refinement"]
        if ([a] not in cells or [b] not in cells
                or sorted(v for c in cells for v in c) != list(range(g.n))
                or pw.is_equitable(g, cells) is None):
            probs["refinement"].append("not an equitable refinement with a, b alone")
    if "collapse" in ans and "distance_partition" in ans:
        usable = dist is not None and dist[-1] == [b]
        got = ans["collapse"]
        if usable and not got.get("deviation", math.inf) <= common.COLLAPSE_TOL:
            probs["collapse"].append(f"collapse deviation {got} above tolerance")
        if not usable and got != {"raises": "NotEquitableError"}:
            probs["collapse"].append("collapse must refuse a non-equitable partition")
    return probs


def golden_answers(workload, seed, golden):
    """Golden answers per instance, or {} where the inputs depend on a seed
    other than the recorded one."""
    entry = golden.get(workload, {})
    if "seed" in entry:
        return entry["answers"] if entry["seed"] == seed else {}
    return entry


# ---------------------------------------------------------------------------
# the closed loop


class LayerTotals:
    """Per-instance facts for the traced run that need no timing."""

    def __init__(self):
        self.n = {}
        self.supported = {}
        self.projectors_mb = {}

    def support_ratio(self):
        return sum(self.supported.values()) / sum(self.n.values())

    def scan_terms(self):
        return SCAN_STEPS * sum(self.n.values())


def probe_layers(g, inst, tr, qid, totals):
    """Spectral layer calls that the questions make internally, timed alone."""
    with tr.span("spectral.eigh_floor", qid):
        np.linalg.eigh(g.adj)
    with tr.span("spectral.eigendecompose", qid):
        dec = pw.eigendecompose(g)
    with tr.span("spectral.projectors", qid):
        projs = pw.spectral_projectors(dec)
    totals.n[inst.name] = g.n
    totals.supported[inst.name] = sum(
        1 for p in projs.projectors
        if np.linalg.norm(p[:, inst.a]) > SUPPORT_TOL or np.linalg.norm(p[:, inst.b]) > SUPPORT_TOL)
    totals.projectors_mb[inst.name] = len(projs) * g.n * g.n * 8 / 1e6


def answer_instance(inst, tr, grid, qprefix, timed, tick=lambda: None):
    """Build one instance and ask its questions. Returns (graph, answers,
    errors); `timed` receives (end time, seconds, is a question) for the
    build and each question, and `tick` is called after each."""
    t0 = time.perf_counter()
    g = inst.build(tr)
    t1 = time.perf_counter()
    timed.append((t1, t1 - t0, False))
    tick()
    answers, errors = {}, {}
    for key, span_name, call in QUESTIONS:
        t0 = time.perf_counter()
        try:
            with tr.span(span_name, f"{qprefix}/{key}"):
                got = call(g, inst, grid)
        except Exception as exc:  # a question that raises is a failed answer
            errors[key] = f"{type(exc).__name__}: {exc}"
        else:
            answers[key] = got
        t1 = time.perf_counter()
        timed.append((t1, t1 - t0, True))
        tick()
    return g, answers, errors


def run_loop(instances, args, tracer, checker, golden, totals):
    """Whole passes over every instance, in a seeded order; see
    common.closed_loop. Building a graph is timed work but not a question.
    Traced passes also time the spectral layers alone."""
    grid = collapse_grid()
    order = random.Random(args.seed)
    untraced = common.Tracer(False)
    reference = {}

    def run_pass(p, traced, clock):
        tr = tracer if traced else untraced
        timed = []
        with tr.span("pass", f"p{p}"):
            for inst in order.sample(instances, len(instances)):
                qprefix = f"p{p}/{inst.name}"
                with tr.span("instance", qprefix):
                    g, answers, errors = answer_instance(inst, tr, grid, qprefix, timed,
                                                         clock.tick)
                    if traced:
                        probe_layers(g, inst, tr, qprefix, totals)
                _check_instance(inst, g, answers, errors, reference, golden, checker, qprefix)
        return timed

    return common.closed_loop(run_pass, args.seconds,
                              1 if args.smoke else common.MIN_QUESTIONS, args.trace)


def _check_instance(inst, g, answers, errors, reference, golden, checker, qprefix):
    """First sight of an instance: invariants and golden answers. Later
    passes: the same answers as the first."""
    if inst.name not in reference:
        probs = invariant_problems(inst, g, answers)
        want = golden.get(inst.name, {})
        for key, got in answers.items():
            if key in want and not common.same_answer(got, want[key]):
                probs[key].append(f"differs from golden answer {want[key]!r}: {got!r}")
        reference[inst.name] = answers
    else:
        first = reference[inst.name]
        probs = {key: [] if common.same_answer(got, first.get(key, "missing"))
                 else [f"changed between passes: {got!r}"]
                 for key, got in answers.items()}
    for key, _, _ in QUESTIONS:
        problems = [errors[key]] if key in errors else probs.get(key, [])
        checker.record(f"{qprefix}/{key}", problems)


# ---------------------------------------------------------------------------
# traced-run probes of layers that no ladder question reaches


def _timed(call):
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result


def fixed_probes(tr, reps, checker):
    """pst_table, the cone conditions and README expression parsing, each
    warm and repeated: raw median seconds per probe, and the first (cold)
    pst_table() call in seconds."""
    exprs = sorted({common.flag(argv, "--expr") for _, argv in common.COMMANDS} - {None})
    cold, rows = _timed(pw.pst_table)
    checker.record("probe/table", [] if len(rows) == 8 and all(r.matches for r in rows)
                   else ["pst_table rows do not all match"])
    samples = {"transfer.table": [], "cones.condition": [], "expr.parse_eval": []}
    for _ in range(reps):
        with tr.span("transfer.table"):
            samples["transfer.table"].append(_timed(pw.pst_table)[0])
        with tr.span("cones.condition"):
            dt, (glued, cyl) = _timed(lambda: (pw.glued_cone_pst_condition(15, 6, 8),
                                               pw.cylindrical_no_pst_check(3, 2, 2)))
            samples["cones.condition"].append(dt)
        with tr.span("expr.parse_eval"):
            samples["expr.parse_eval"].append(
                _timed(lambda: [pw.eval_expr(pw.parse_expr(e)) for e in exprs])[0])
    checker.record("probe/conditions", [] if glued.holds and cyl.verdict == "no"
                   else ["gluedcone (15,6,8) must hold and cylcone (3,2,2) say no"])
    return {name: common.p50(values) for name, values in samples.items()}, cold


def fallback_builds(tr, name, reps):
    """Raw median seconds to build the structured instances that use builder
    layer `name`, for workloads whose own instances never call it."""
    users = []
    for inst in structured_instances():
        probe = common.Tracer(True)
        inst.build(probe)
        if probe.durations(name):
            users.append(inst)
    totals = []
    for _ in range(reps):
        first = len(tr.spans)
        with tr.span("fallback"):
            for inst in users:
                inst.build(tr)
        totals.append(sum(t1 - t0 for nm, t0, t1, _, _ in tr.spans[first:] if nm == name))
    return common.p50(totals)


LOOP_LAYERS = ("graphs.build", "products.build", "cones.build",
               "spectral.eigendecompose", "spectral.eigh_floor", "spectral.projectors",
               "transfer.certificate", "transfer.scan",
               "partitions.distance_partition", "partitions.refinement",
               "partitions.collapse")


def layer_metrics(tracer, totals, passes, reps, checker):
    """Per-layer metrics of a traced run (times at reference speed), the
    builder layers measured on fallback instances, and raw figures for the
    comparison with the ROADMAP baselines."""
    m, fallbacks = {}, []
    scales = [x["scale"] for x in passes if x["traced"]]
    probe_scale = common.speed_scale(common.calibrate())
    for name in LOOP_LAYERS:
        sums = tracer.per_pass_sums(name)
        if max(sums) > 0:
            m[name + "_ms"] = 1000.0 * common.p50([s * k for s, k in zip(sums, scales)])
        else:
            m[name + "_ms"] = 1000.0 * probe_scale * fallback_builds(tracer, name, reps)
            fallbacks.append(name)
    m["spectral.projectors_mb"] = max(totals.projectors_mb.values())
    m["transfer.scan_terms"] = totals.scan_terms()
    m["transfer.support_ratio"] = totals.support_ratio()
    probes, table_cold = fixed_probes(tracer, reps, checker)
    for name, seconds in probes.items():
        m[name + "_ms"] = 1000.0 * probe_scale * seconds
    if any(not x["traced"] for x in passes):
        m["trace.overhead_ratio"] = common.overhead_ratio(passes)
    raw = {"table_ms": 1000.0 * probes["transfer.table"], "table_cold_ms": 1000.0 * table_cold}
    return m, fallbacks, raw


# ---------------------------------------------------------------------------


def library_info():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ladder-structured", "ladder-random", "cli"))
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args(argv)


def make_instances(workload, seed):
    if workload == "ladder-structured":
        return structured_instances()
    if workload == "ladder-random":
        return random_instances(seed)
    return readme_instances()


def baseline_figures(tracer, instances, totals):
    """Raw warm medians that the ROADMAP's single-run figures compare with."""
    out = {}
    q9 = {name: common.median_ms(tracer.durations(name, "/Q9")) for name in
          ("transfer.scan", "partitions.distance_partition", "partitions.refinement",
           "spectral.eigendecompose", "transfer.certificate")
          if tracer.durations(name, "/Q9")}
    if q9:
        out["q9_ms"] = q9
    largest = max(instances, key=lambda i: totals.n.get(i.name, 0))
    out["largest"] = {"name": largest.name, "n": totals.n.get(largest.name),
                      "certificate_ms": common.median_ms(
                          tracer.durations("transfer.certificate", "/" + largest.name + "/"))}
    return out


def main(argv=None):
    args = parse_args(argv)
    instances = make_instances(args.workload, args.seed)
    if args.smoke:
        instances = instances[:1]
    golden = {} if args.workload == "cli" else golden_answers(
        args.workload, args.seed, common.load_golden())
    # warm-up: one untimed round of every question on the smallest instance
    answer_instance(instances[0], common.Tracer(False), collapse_grid(), "warmup", [])
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s, "setup_scale": common.speed_scale(common.calibrate())}
    if args.setup_only:
        common.emit_last_line(out)
        return 0

    tracer = common.Tracer(bool(args.trace))
    checker = common.Checker()
    totals = LayerTotals()
    if args.workload == "cli":
        # the traced cli run's in-process layers, on the README graphs
        args.seconds = 1.0
    passes = run_loop(instances, args, tracer, checker, golden, totals)
    out.update(passes=passes, libraries=library_info())
    if args.trace:
        out["layers"], out["layer_fallbacks"], out["raw"] = layer_metrics(
            tracer, totals, passes, 1 if args.smoke else PROBE_REPS, checker)
        out["raw"].update(baseline_figures(tracer, instances, totals))
        tracer.write(os.path.join(common.OUT_DIR,
                                  f"spans-{args.workload}-seed{args.seed}-inproc.jsonl"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(attempted=checker.attempted, failed=checker.failed, failures=checker.failures)
    common.emit_last_line(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
