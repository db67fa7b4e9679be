#!/usr/bin/env python3
"""Builds and runs the campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload quick-dense --seed 24301 --seconds 20 --trace 0

It builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload, checks that the result line
names exactly the metrics BENCHMARK.json declares for the mode, and prints
the benchmark's output. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def tool_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.join(ROOT, target_dir)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    env["PERFBENCH_GIT_SHA"] = (
        tool_output(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git"))
        else "unknown"
    )
    # Relative, so the daemon's Unix socket path stays short.
    work = os.path.relpath(os.path.join(target_dir, "perfbench-work"), ROOT)
    binary = os.path.join(target_dir, "release", "perfbench")
    try:
        run = subprocess.run(
            [
                binary,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--work", work,
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("no result line")
    declared = declared_metrics(args.trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        fail(f"reported metrics {sorted(reported)} differ from BENCHMARK.json {sorted(declared)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
