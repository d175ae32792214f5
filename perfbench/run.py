#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve_paced --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the program and the benchmark binary from source into
.bench_build/perfbench (first run only; later runs rebuild incrementally),
runs one workload and forwards the binary's output. The last stdout line is
the run's JSON result; the exit code is non-zero when a correctness check
failed or nothing could be measured. --self-test proves every check can fail
by injecting faults and expecting each injected run to be refused.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "m2ai_perfbench")
MODEL = os.path.join(HERE, "served_model.bin")
WORKLOADS = ("serve_paced", "serve_saturate", "train_offline")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no m2ai source tree next to perfbench/; nothing to measure")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "m2ai_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)


def run_binary(workload, seed, seconds, trace, extra=()):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--model", MODEL,
           "--trace-out", os.path.join(BUILD, "traces", f"{workload}-{seed}.json"), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2, ""
    return proc.returncode, proc.stdout


def self_test():
    """Each injected fault must make its run fail; the clean runs must pass."""
    cases = [
        ("serve_paced", "", 0),
        ("serve_paced", "flip-label", 1),
        ("serve_paced", "drop-report", 1),
        ("serve_paced", "drop-prediction", 1),
        ("serve_saturate", "", 0),
        ("serve_saturate", "drop-report", 1),
        ("serve_saturate", "drop-prediction", 1),
        ("train_offline", "", 0),
        ("train_offline", "flip-label", 1),
    ]
    ok = True
    for workload, inject, want in cases:
        extra = ["--inject", inject] if inject else []
        seconds = 10 if workload == "train_offline" else 2
        code, out = run_binary(workload, 7, seconds, 0, extra)
        lines = out.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if lines else None
        passed = code == want and correct == (want == 0)
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {workload:15s} inject={inject or 'none':16s} "
              f"exit={code} correct={correct} (want exit {want})")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    code, out = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
