"""Smoke test of the benchmark harness on its smallest case. Not part of the
package's test suite (pytest does not collect this file); run it from the
root of a source checkout:

    python3 perfbench/smoke.py

For every workload, untraced and traced, it runs run.py with --smoke and
checks the contract of the last output line: correct answers, and exactly
the metrics BENCHMARK.json names, each positive and in its unit. It also
checks that the harness refuses to run outside a source checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import common

RUN = os.path.join(common.HERE, "run.py")


def run(args, cwd="."):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_result(spec, workload, trace):
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(last)}")
    if not (last["correct"] and last["failed"] == 0 and last["attempted"] >= 1):
        problems.append(f"answers: {proc.stdout[-1500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = last["metrics"]
    if set(got) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        if not (isinstance(m["value"], (int, float)) and m["value"] > 0):
            problems.append(f"{name} = {m['value']!r}")
        if name in wanted and m["unit"] != wanted[name]:
            problems.append(f"{name} unit {m['unit']} != {wanted[name]}")
    return problems


def check_refuses_outside_checkout():
    """The benchmark alone, without src/, must exit non-zero and print no
    result."""
    bare = os.path.abspath(os.path.join(common.OUT_DIR, "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran outside a checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(spec, workload, trace)
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace} {problems or ''}")
    problems = check_refuses_outside_checkout()
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run outside a checkout {problems or ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
