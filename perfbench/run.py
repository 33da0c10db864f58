#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the library from ../src) into the directory
named by CARGO_TARGET_DIR, or .bench_build/ when it is unset; later calls
only rebuild what changed.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.  The result
is checked against BENCHMARK.json: every metric of the mode must be
present with the declared unit, or the run fails without printing one.

--selfcheck runs every workload at a tiny scale, traced and untraced,
checks that each named metric is emitted with its unit, and checks that a
deliberately corrupted output is caught (failed > 0, exit status 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_traced"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {r.returncode}")
    return out


def run_binary(out, args):
    exe = os.path.join(out, "perfbench_traced" if args.trace else "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed nothing (exit {r.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1][:200]}")
    return r.returncode, lines, result


def validate(spec, result, trace):
    """Returns a list of contract violations of one result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} unit {m.get('unit')} != {unit}")
        elif not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} value {m.get('value')} is not a number")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
    return problems


def selfcheck(spec, out):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=7, seconds=1,
                                      trace=trace, scale=0.02, corrupt=False)
            code, _, result = run_binary(out, args)
            problems = validate(spec, result, trace)
            if code != 0 or not result.get("correct"):
                problems.append(f"exit {code}, correct={result.get('correct')}")
            print(f"selfcheck {w['name']} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
        args = argparse.Namespace(workload=w["name"], seed=7, seconds=1,
                                  trace=0, scale=0.02, corrupt=True)
        code, _, result = run_binary(out, args)
        caught = code == 1 and result.get("failed", 0) > 0 \
            and result.get("correct") is False
        print(f"selfcheck {w['name']} corrupted output: "
              f"{'caught' if caught else f'NOT caught (exit {code})'}")
        ok = ok and caught
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every input (self-check and smoke runs)")
    p.add_argument("--corrupt", action="store_true",
                   help="damage one output so the checker must catch it")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    if args.selfcheck:
        sys.exit(0 if selfcheck(spec, build()) else 1)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")

    out = build()
    code, lines, result = run_binary(out, args)
    problems = validate(spec, result, args.trace)
    if problems:
        fail("result breaks the BENCHMARK.json contract: " + "; ".join(problems))
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
