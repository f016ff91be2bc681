#!/usr/bin/env python3
"""CrashTuner campaign benchmark.

Builds perfbench/ (the repository's src/ libraries plus perfbench.cc) into
.bench_build/perfbench, runs one workload, and prints one JSON object as the
last line of stdout:

  python3 perfbench/run.py --workload paper|scale8 [--seed N] \
      [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --smoke

With --trace 0 the result holds the end-to-end metrics; setup_s is the median
over SETUP_SAMPLES processes, each timed from the start of main() to its first
timed pass. With --trace 1 it holds the per-layer metrics, and the spans go to
.bench_build/spans-<workload>-<seed>.json. --smoke runs one short pass of
every workload in both modes and checks that every metric BENCHMARK.json
names is printed with its unit and that the output checks run and catch a
wrong expected value. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DEFAULT_SEED = 2019
SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run must end within 180 s


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CrashTuner sources in " + os.path.join(ROOT, "src"))
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        commands.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    commands.append(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))])
    for command in commands:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(command))


def run_binary(arguments, deadline, cpu=None):
    """Runs the benchmark binary, pinned to `cpu` if given; returns its stdout lines."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        done = subprocess.run([BINARY] + arguments, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), preexec_fn=pin)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(arguments))
    if done.returncode != 0:
        fail("exit code %d: %s" % (done.returncode, " ".join(arguments)))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no output: " + " ".join(arguments))
    return lines


def run_workload(workload, seed, seconds, trace, extra=()):
    deadline = time.monotonic() + DEADLINE_S
    arguments = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)] + list(extra)
    setup_s = []
    if trace == 0:
        # The host's vCPUs slow down independently, so each extra set-up runs
        # on another one (README.md, "Host noise").
        cpus = sorted(os.sched_getaffinity(0))
        for i in range(SETUP_SAMPLES - 1):
            lines = run_binary(arguments + ["--setup-only"], deadline, cpus[i % len(cpus)])
            setup_s.append(json.loads(lines[-1])["setup_s"])
    else:
        arguments += ["--spans-out", os.path.join(
            ROOT, ".bench_build", "spans-%s-%d.json" % (workload, seed))]
    lines = run_binary(arguments, deadline)
    result = json.loads(lines[-1])
    if trace == 0:
        setup_s.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_s)
    return lines[:-1], result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _, result = run_workload(workload, DEFAULT_SEED, 0, trace, ["--smoke"])
            label = "%s --trace %d" % (workload, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d failed=%d" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            metrics = result["metrics"]
            for metric in expected[trace]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: %s missing or not in %s" % (
                        label, metric["name"], metric["unit"]))
            extra = set(metrics) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (label, sorted(extra)))
            print("smoke: %s printed %d metrics" % (label, len(metrics)))
    # A wrong expected value must fail every pass.
    _, result = run_workload("paper", DEFAULT_SEED, 0, 0, ["--smoke", "--inject-mismatch"])
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append("--inject-mismatch: the output checks did not fail the passes")
    for problem in problems:
        print("smoke: FAIL " + problem, file=sys.stderr)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "scale8"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.smoke:
        return smoke()
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
