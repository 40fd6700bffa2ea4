#!/usr/bin/env python3
"""The repository's benchmark: one command per named workload.

    python3 perfbench/run.py --workload fig10-8m --seed 1 --seconds 10 --trace 0

Builds perfbench_driver from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build; a no-op once built), runs it, and
relays its output. The driver generates the workload's inputs from the
seed, drives queries through the engine's public front doors, verifies
every result against an independent reference and prints the metrics;
the last line of stdout is the JSON result. The exit code is non-zero
when the build fails or any query fails verification.

The driver alone decides which workloads exist and prints the run
context. This wrapper supplies each workload's default seed and compares
the plan codes in the driver's context line with the ones recorded in
perfbench/workloads.json, so a planner change shows in the output instead
of passing silently.

    python3 perfbench/run.py --self-check

runs every workload at tiny size with and without tracing, checks that
each metric BENCHMARK.json names prints with its unit and that every
kernel replay matches the engine's result, and checks that a doctored
result (one flipped checksum) is counted as failed and makes the command
exit non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        try:
            code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if code != 0:
            log(f"perfbench: build step failed ({code}): {' '.join(cmd)}")
            return None
    return out / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace, tiny=False,
               doctor=False, spans=None):
    """Runs one driver process; returns (exit code, stdout lines)."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if doctor:
        cmd.append("--doctor")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {DRIVER_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def plan_code_notes(lines, recorded):
    """Lines saying where Explain()'s plan codes differ from the record."""
    notes = []
    for line in lines:
        if not line.startswith("context "):
            continue
        ctx = json.loads(line[len("context "):])
        expected = recorded.get(ctx["workload"], {}).get("plan_codes", {})
        for shape in ctx["shapes"]:
            want = expected.get(shape["name"])
            got = shape["plan_code"]
            if want is not None and want != got:
                notes.append(f"NOTE: plan code changed: {ctx['workload']}/"
                             f"{shape['name']} plans {got}, recorded {want}")
    return notes


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_check(driver, bench, recorded):
    problems = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in recorded:
        for trace, want in ((False, e2e), (True, layers)):
            code, lines = run_driver(driver, name, recorded[name]["default_seed"],
                                     1, trace, tiny=True)
            result = result_of(lines)
            tag = f"{name} trace={int(trace)}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{tag}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {got} != {want}")
            if not any(l.startswith("error_rate ") for l in lines):
                problems.append(f"{tag}: no error_rate line")
            if any(l.startswith("replay:") and "MISMATCH" in l for l in lines):
                problems.append(f"{tag}: kernel replay disagrees with the engine")
            log(f"self-check: {tag}: {len(got)} metrics with units, "
                f"{result['attempted']} queries verified")
    name = bench["workloads"][0]["name"]
    code, lines = run_driver(driver, name, recorded[name]["default_seed"], 1,
                             False, tiny=True, doctor=True)
    result = result_of(lines)
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"doctored {name}: exit {code}, result {result}")
    else:
        log(f"self-check: doctored {name}: exit {code}, "
            f"{result['failed']} failed of {result['attempted']}")
    for p in problems:
        log(f"self-check FAILED: {p}")
    if not problems:
        log("self-check: ok")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke runs)")
    ap.add_argument("--doctor", action="store_true",
                    help="flip one result checksum before verification")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads((HERE / "workloads.json").read_text())
    driver = build()
    if driver is None:
        return 1
    if args.self_check:
        return self_check(driver, bench, recorded)
    seed = args.seed if args.seed is not None else \
        recorded.get(args.workload, {}).get("default_seed", 1)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    spans = None
    if args.trace:
        spans = build_dir() / "spans" / f"{args.workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)

    code, lines = run_driver(driver, args.workload, seed, seconds,
                             bool(args.trace), tiny=args.tiny,
                             doctor=args.doctor, spans=spans)
    result = result_of(lines)
    if result is None:
        log(f"perfbench: driver exited {code} without a result")
        return code or 1
    for line in lines[:-1]:
        print(line)
    for note in plan_code_notes(lines, recorded):
        print(note)
    if spans:
        print(f"spans written to {spans}")
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
