"""Regenerate perfbench/golden.json, the reference answers the benchmark
checks every run against. Run from the root of a source checkout:

    python3 perfbench/make_golden.py

Every answer must first pass the benchmark's own invariants; nothing is
written otherwise. Golden answers pin current behaviour, so review the diff
of golden.json before committing it.
"""

import json
import re
import sys

import common
import inproc
import run


def ladder_answers(instances):
    out = {}
    for inst in instances:
        g, answers, errors = inproc.answer_instance(
            inst, common.Tracer(False), inproc.collapse_grid(), inst.name, [])
        problems = {k: v for k, v in inproc.invariant_problems(inst, g, answers).items() if v}
        if errors or problems:
            sys.exit(f"{inst.name}: {errors or problems}")
        out[inst.name] = answers
    return out


def cli_answers():
    children = run.Children(run.child_env())
    out = {}
    try:
        for name, argv in common.COMMANDS:
            rc, stdout, err, _, _ = children.run(run.cli_argv(argv))
            problems = run.cli_problems(name, rc, stdout, err, {})
            if problems:
                sys.exit(f"{name}: {problems}")
            out[name] = run.cli_answer(name, stdout)
    finally:
        children.close()
    return out


def main():
    golden = {
        "cli": cli_answers(),
        "ladder-structured": ladder_answers(inproc.structured_instances()),
        "ladder-random": {"seed": common.DEFAULT_SEED,
                          "answers": ladder_answers(inproc.random_instances(common.DEFAULT_SEED))},
    }
    text = json.dumps(golden, indent=1, sort_keys=True)
    # one line per list of numbers, then per list of such lists (cells)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    text = re.sub(r"\[\s+((?:\[[^\[\]]*\],?\s*)+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(common.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {common.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
