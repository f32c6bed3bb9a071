"""pstwalk benchmark: CLI latency and size-ladder throughput, timed from
outside the package.

Run from the root of a source checkout (the directory holding src/pstwalk):

    python3 perfbench/run.py --workload cli --seed 0 --seconds 30 --trace 0

Workloads: cli (the README's command lines as subprocesses of
`python -m pstwalk.cli`), ladder-structured and ladder-random (public calls
in a child process, see inproc.py). With --trace 0 the last line of standard
output is a JSON object holding the end-to-end metrics; with --trace 1 it
holds the per-layer metrics. Results and spans are also written under
.bench_out/. See perfbench/README.md for what each metric means.

This file imports no numpy: thread pins must be set before any process of
the benchmark loads it.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import common

WORKLOADS = ("cli", "ladder-structured", "ladder-random")
DEADLINE_S = 170               # the whole run, set-up and probes included
SETUP_REPS = 5                 # set-up is measured this many times; median
CLI_PROBE_REPS = 3
WARMUP_ARGS = ("build", "--expr", "K:2")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pstwalk.cli; "
                "print(time.perf_counter() - t)")

# ROADMAP single-run figures that the traced run sets its own numbers beside
ROADMAP_BASELINES = {
    "table_ms": "665 ms (one cold pst_table() call, BLAS threads not pinned)",
    "q9_ms": {"transfer.scan": "573-854 ms (20001 steps)",
              "partitions.distance_partition": "1500 ms",
              "partitions.refinement": "307 ms",
              "spectral.eigendecompose": "36 ms",
              "transfer.certificate": "53 ms"},
    "random_certificate": "288 ms and 247 MB peak RSS at n = 300",
    "cli_certify": "320 ms for `pst certify` on Q3, of which 250 ms numpy import",
}


class Deadline(Exception):
    pass


class Children:
    """Starts child processes with the pinned environment, waits for each
    with os.wait4 so that its peak RSS is known, and kills a live child
    when the run's deadline passes."""

    def __init__(self, env):
        self.env = env
        self.live = None
        self.peak_rss_kb = 0
        os.makedirs(common.OUT_DIR, exist_ok=True)
        self.err_path = os.path.join(common.OUT_DIR, f"stderr-{os.getpid()}.txt")
        self.err = open(self.err_path, "w+b")

    def close(self):
        self.err.close()
        os.unlink(self.err_path)

    def kill_live(self):
        if self.live is not None and self.live.returncode is None:
            self.live.kill()
            self.live.wait()

    def run(self, argv):
        """(exit code, stdout bytes, stderr text, wall seconds, max RSS kB)."""
        self.err.seek(0)
        self.err.truncate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.err, env=self.env)
        self.live = proc
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.live = None
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.err.seek(0)
        err = self.err.read().decode("utf-8", "replace")
        return proc.returncode, out, err, seconds, usage.ru_maxrss


def child_env():
    """This process's environment with the BLAS pins and src/ on the path."""
    env = dict(os.environ)
    common.pin_threads(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_argv(args):
    return [sys.executable, "-m", "pstwalk.cli", *args]


# ---------------------------------------------------------------------------
# cli answers


def cli_answer(name, stdout):
    """The checkable content of one command's output."""
    text = stdout.decode("utf-8")
    if name == "build":
        return {"sha256": hashlib.sha256(stdout).hexdigest()}
    if name == "fidelity":
        rows = text.splitlines()[1:]
        return {"rows": len(rows), "max_abs": max(float(r.split(",")[3]) for r in rows)}
    if name == "table":
        lines = text.splitlines()
        return {"rows": len(lines), "ok": sum("[ok]" in line for line in lines)}
    doc = json.loads(text)
    if name == "certify":
        return {k: doc[k] for k in ("verdict", "time_exact", "support", "signs", "time_num")}
    if name == "scan":
        return {"fmax": doc["fmax"], "band": doc["band"]}
    if name == "spectrum":
        return {"n": doc["n"], "spectrum": doc["spectrum"]}
    if name == "collapse":
        return {"cells": doc["cells"], "max_deviation": doc["max_deviation"]}
    if name == "condition_gluedcone":
        return {"holds": doc["holds"], "time": doc["witness"]["time"]}
    return {"verdict": doc["verdict"]}            # condition_cylcone


def cli_invariants(name, ans):
    if name == "scan" and not ans["fmax"] <= common.FMAX_CEIL:
        return ["fmax exceeds 1"]
    if name == "collapse" and not ans["max_deviation"] <= common.COLLAPSE_TOL:
        return ["collapse deviation above tolerance"]
    if name == "table" and not ans["rows"] == ans["ok"] == 8:
        return ["pst table: not 8/8 rows ok"]
    if name == "certify" and not (ans["verdict"] == "yes" and ans["time_exact"]
                                  == {"a": 1, "b": 2, "scale": 1.0}):
        return ["Q3 antipodes must transfer at pi/2"]
    if name == "condition_gluedcone" and not ans["holds"]:
        return ["gluedcone (15,6,8) must hold"]
    if name == "condition_cylcone" and ans["verdict"] != "no":
        return ["cylcone (3,2,2) must say no"]
    return []


def cli_problems(name, rc, stdout, err, golden):
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-200:]}"]
    try:
        ans = cli_answer(name, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    probs = cli_invariants(name, ans)
    if name in golden and not common.same_answer(ans, golden[name]):
        probs.append(f"differs from golden answer: {ans!r}")
    return probs


def ask_cli(children, name, argv, golden, checker, qid):
    rc, out, err, seconds, _ = children.run(cli_argv(argv))
    checker.record(qid, cli_problems(name, rc, out, err, golden))
    return seconds


# ---------------------------------------------------------------------------
# workloads


def cli_workload(args, children, checker, tracer, golden):
    """Whole passes over the README commands in a seeded order; see
    common.closed_loop. Set-up is one warm-up command, repeated."""
    order = random.Random(args.seed)
    setups = []
    for _ in range(1 if args.smoke else SETUP_REPS):
        t0 = time.perf_counter()
        rc, _, err, _, _ = children.run(cli_argv(WARMUP_ARGS))
        if rc != 0:
            raise RuntimeError(f"warm-up command failed: {err.strip()[-200:]}")
        setups.append((time.perf_counter() - t0, common.speed_scale(common.calibrate())))
    untraced = common.Tracer(False)

    def run_pass(p, traced, clock):
        tr = tracer if traced else untraced
        timed = []
        with tr.span("pass", f"p{p}"):
            for name, argv in order.sample(common.COMMANDS, len(common.COMMANDS)):
                qid = f"p{p}/{name}"
                t0 = time.perf_counter()
                with tr.span("cli." + name, qid):
                    rc, out, err, _, _ = children.run(cli_argv(argv))
                t1 = time.perf_counter()
                timed.append((t1, t1 - t0, True))
                clock.tick()
                checker.record(qid, cli_problems(name, rc, out, err, golden))
        return timed

    passes = common.closed_loop(run_pass, args.seconds,
                                1 if args.smoke else common.MIN_QUESTIONS, args.trace)
    result = {"setups": setups, "passes": passes,
              "peak_rss_mb": children.peak_rss_kb / 1024.0}
    if args.trace:
        scales = [x["scale"] for x in passes if x["traced"]]
        result["layers"], result["raw"] = {}, {}
        for name, _ in common.COMMANDS:
            durations = tracer.durations("cli." + name)
            result["layers"][f"cli.cmd_ms.{name}"] = 1000.0 * common.p50(
                [d * k for d, k in zip(durations, scales)])
            result["raw"][f"cli.cmd_ms.{name}"] = common.median_ms(durations)
        result["layers"]["trace.overhead_ratio"] = common.overhead_ratio(passes)
    return result


def run_worker(args, children, extra):
    argv = [sys.executable, os.path.join(common.HERE, "inproc.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        argv.append("--smoke")
    rc, out, err, _, _ = children.run(argv)
    if rc != 0:
        raise RuntimeError(f"worker {' '.join(extra) or 'run'} exited {rc}: {err.strip()[-2000:]}")
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def add_counts(checker, worker):
    checker.attempted += worker["attempted"]
    checker.failed += worker["failed"]
    checker.failures.extend(worker["failures"])


def ladder_workload(args, children, checker):
    """The worker does its own set-up, loop and checks; set-up is repeated
    in setup-only workers."""
    setups = [] if args.smoke else [
        run_worker(args, children, ["--setup-only"]) for _ in range(SETUP_REPS - 1)]
    result = run_worker(args, children, [])
    result["setups"] = [(w["setup_s"], w["setup_scale"]) for w in setups + [result]]
    add_counts(checker, result)
    return result


def cli_probes(args, children, checker, golden, commands):
    """Interpreter start, package import, and each of `commands`, each
    repeated in fresh child processes. Returns median milliseconds at
    reference speed, and raw."""
    reps = 1 if args.smoke else CLI_PROBE_REPS
    scale = common.speed_scale(common.calibrate())
    startup, imports = [], []
    for _ in range(reps + 2):
        startup.append(children.run([sys.executable, "-c", "pass"])[3])
        rc, out, err, _, _ = children.run([sys.executable, "-c", IMPORT_PROBE])
        if rc != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-200:]}")
        imports.append(float(out.decode().strip()))
    raw = {"cli.startup_ms": common.median_ms(startup),
           "cli.import_ms": common.median_ms(imports)}
    for name, argv in commands:
        times = [ask_cli(children, name, argv, golden, checker, f"probe/{name}")
                 for _ in range(reps)]
        raw[f"cli.cmd_ms.{name}"] = common.median_ms(times)
    return {name: ms * scale for name, ms in raw.items()}, raw


# ---------------------------------------------------------------------------
# results


def end_to_end(result, checker, scaled):
    setup = [raw * (k if scaled else 1.0) for raw, k in result["setups"]]
    loop = common.loop_metrics(result["passes"], scaled)
    return {
        "setup_s": common.metric(statistics.median(setup), "s"),
        "answers_per_s": common.metric(loop["answers_per_s"], "1/s"),
        "latency_p50_ms": common.metric(loop["latency_p50_ms"], "ms"),
        "latency_p90_ms": common.metric(loop["latency_p90_ms"], "ms"),
        "peak_rss_mb": common.metric(result["peak_rss_mb"], "MB"),
        "success_frac": common.metric(1.0 - checker.failed / checker.attempted, "frac"),
    }


LAYER_UNITS = {"_ms": "ms", "_mb": "MB", "_terms": "count", "_ratio": "ratio"}


def per_layer(layers):
    out = {}
    for name in sorted(layers):
        unit = next(u for suffix, u in LAYER_UNITS.items()
                    if name.endswith(suffix) or f"{suffix}." in name)
        out[name] = common.metric(layers[name], unit)
    return out


def baseline_lines(workload, result):
    """The traced run's raw numbers beside the ROADMAP's single-run figures."""
    layers, raw = result["layers"], result["raw"]
    warm = raw["table_ms"]
    fresh = raw["cli.cmd_ms.table"] - raw["cli.import_ms"] - raw["cli.startup_ms"]
    lines = [f"pst_table(): {warm:.0f} ms warm (median); {raw['table_cold_ms']:.0f} ms for "
             f"the first call in the worker, after its loop; about {fresh:.0f} ms cold in a "
             f"fresh `pst table` process (command less import and interpreter start). "
             f"ROADMAP {ROADMAP_BASELINES['table_ms']}: a cold call explains about "
             f"{fresh - warm:.0f} ms of the {665 - warm:.0f} ms gap."]
    for name, value in raw.get("q9_ms", {}).items():
        lines.append(f"Q9 {name}: {value:.0f} ms (warm median); "
                     f"ROADMAP {ROADMAP_BASELINES['q9_ms'][name]}")
    if workload == "ladder-random":
        big = raw["largest"]
        lines.append(
            f"random n = {big['n']}: certificate {big['certificate_ms']:.0f} ms, projectors "
            f"{layers['spectral.projectors_mb']:.0f} MB (8*n^3 bytes; n = 300 would need "
            f"{8 * 300 ** 3 / 1e6:.0f} MB), worker peak RSS {result['peak_rss_mb']:.0f} MB; "
            f"ROADMAP {ROADMAP_BASELINES['random_certificate']}")
    lines.append(
        f"cli certify on Q3: {raw['cli.cmd_ms.certify']:.0f} ms, of which "
        f"{raw['cli.import_ms']:.0f} ms importing pstwalk.cli (numpy included) and "
        f"{raw['cli.startup_ms']:.0f} ms interpreter start; "
        f"ROADMAP {ROADMAP_BASELINES['cli_certify']}")
    return lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="pstwalk benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest case: one ladder instance, no repeated set-up or probes")
    return ap.parse_args(argv)


def run(args, children):
    checker = common.Checker()
    tracer = common.Tracer(bool(args.trace))
    golden = common.load_golden().get("cli", {})
    if args.workload == "cli":
        result = cli_workload(args, children, checker, tracer, golden)
        probed = ()
        if args.trace:
            worker = run_worker(args, children, [])
            add_counts(checker, worker)
            result["layers"].update(worker["layers"])
            result["raw"].update(worker["raw"])
            result["libraries"] = worker["libraries"]
    else:
        result = ladder_workload(args, children, checker)
        probed = common.COMMANDS
    if args.trace:
        layers, raw = cli_probes(args, children, checker, golden, probed)
        result["layers"].update(layers)
        result["raw"].update(raw)
        tracer.write(os.path.join(common.OUT_DIR,
                                  f"spans-{args.workload}-seed{args.seed}-run.jsonl"))
        metrics, raw_metrics = per_layer(result["layers"]), None
    else:
        metrics = end_to_end(result, checker, scaled=True)
        raw_metrics = end_to_end(result, checker, scaled=False)
    return result, checker, metrics, raw_metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pstwalk", "cli.py")):
        print("error: run from the root of a pstwalk source checkout "
              "(src/pstwalk/cli.py not found)", file=sys.stderr)
        return 2
    common.pin_threads()
    # One CPU for this process and every child, so that the calibration
    # loop run here measures the speed of the CPU the commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    children = Children(child_env())

    def on_deadline(signum, frame):
        children.kill_live()
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        result, checker, metrics, raw_metrics = run(args, children)
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        children.kill_live()
        children.close()

    info = common.base_env_info()
    info.update(result.get("libraries", {}))
    passes = result["passes"]
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": info, "metrics": metrics, "raw_metrics": raw_metrics,
               "attempted": checker.attempted, "failed": checker.failed,
               "failures": checker.failures,
               "samples": {"questions": sum(q for x in passes if not x["traced"]
                                            for _, q, _ in x["pieces"]),
                           "passes": len(passes),
                           "pass_scales": [x["scale"] for x in passes],
                           "pass_work_s": [common.pass_work(x["pieces"], False) for x in passes],
                           "setups": result["setups"]}}
    if args.trace:
        summary["baselines"] = baseline_lines(args.workload, result)
        summary["layer_fallbacks"] = result.get("layer_fallbacks", [])
    common.write_json(os.path.join(
        common.OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), summary)

    print("# env " + json.dumps(info, sort_keys=True))
    print(f"# samples {summary['samples']['questions']} timed questions over "
          f"{summary['samples']['passes']} passes; reference-speed factors "
          f"{min(summary['samples']['pass_scales']):.3f}-{max(summary['samples']['pass_scales']):.3f}")
    if raw_metrics:
        print("# raw (unscaled) " + json.dumps({k: v["value"] for k, v in raw_metrics.items()}))
    for line in summary.get("baselines", []):
        print("# baseline " + line)
    for failure in checker.failures:
        print("# failed " + json.dumps(failure))
    common.emit_last_line({"correct": checker.failed == 0, "attempted": checker.attempted,
                           "failed": checker.failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
