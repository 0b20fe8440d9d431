#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload sweep|steady|faults --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark program, swapram_perfbench,
is built from perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default
.bench_build). One run launches it again and again, each time in a
fresh process with its own seed derived from --seed, until --seconds
have passed; every process runs the whole campaign once and checks
every cell's output. The metrics are medians over those processes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, from the program's traced pass, and
writes the last process's spans to <build dir>/spans-<workload>.json.
The last line of standard output is the result object; the line before
it holds the per-process samples and the host fingerprint.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep", "steady", "faults")
PROCESS_TIMEOUT_S = 150
# Model totals: identical in every process (the seed only reorders cells).
EXACT = ("sim_cycles", "sim_energy_uj")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configure (once) and build swapram_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full "
             "checkout of the repository")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", "2"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "swapram_perfbench")


def run_once(binary, workload, seed, traced, extra=()):
    """One fresh process: one whole campaign."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--harvest-dir", os.path.join(ROOT, "examples", "harvest")]
    if traced:
        cmd.append("--traced")
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"swapram_perfbench timed out after {PROCESS_TIMEOUT_S} s: {cmd}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"swapram_perfbench exited with {proc.returncode}: "
             f"{' '.join(cmd)}")
    return json.loads(lines[-1])


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def measure(binary, spec, workload, seed, seconds, trace):
    """Run processes for `seconds`; return (result, detail)."""
    samples = []
    spans = os.path.join(build_dir(), f"spans-{workload}.json")
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        extra = ["--spans", spans] if trace else []
        sub_seed = (seed * 1000 + len(samples)) % 2**32
        samples.append(run_once(binary, workload, sub_seed, trace,
                                extra))

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for message in s["failures"]:
            print(f"perfbench: seed {s['seed']}: {message}",
                  file=sys.stderr)
    correct = failed == 0
    for key in EXACT:
        if len({s[key] for s in samples}) != 1:
            print(f"perfbench: {key} differs between processes",
                  file=sys.stderr)
            correct = False

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        values = [(s["layers"] if trace else s).get(m["name"])
                  for s in samples]
        if not all(finite(v) for v in values):
            print(f"perfbench: {m['name']} missing or not finite",
                  file=sys.stderr)
            correct = False
            continue
        value = values[0] if m["name"] in EXACT else \
            statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    detail = {
        "workload": workload,
        "processes": len(samples),
        "fingerprint": samples[0]["fingerprint"],
        "campaign_s": [s["campaign_s"] for s in samples],
        "campaign_cpu_s": [s["campaign_cpu_s"] for s in samples],
        "steal_frac": [s["steal_frac"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
    }
    result = {"correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def self_test(binary, spec):
    """Checks the benchmark itself; returns a list of problems."""
    problems = []
    for workload in WORKLOADS:
        plain = None
        for trace in (0, 1):
            result, _ = measure(binary, spec, workload, 1, 0, trace)
            if trace == 0:
                plain = result
            names = spec["per_layer" if trace else "end_to_end"]
            for m in names:
                got = result["metrics"].get(m["name"])
                if (got is None or got["unit"] != m["unit"] or
                        not finite(got["value"]) or got["value"] < 0):
                    problems.append(f"{workload}: metric {m['name']} "
                                    f"bad: {got}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{result['failed']} failed runs")
            # The traced pass decomposes every cell and compares its
            # Stats with runOne's; a mismatch counts as a failed run.
            if trace and result["attempted"] != 2 * plain["attempted"]:
                problems.append(f"{workload}: traced pass covered "
                                f"{result['attempted']} runs, expected "
                                f"{2 * plain['attempted']}")
        sample = run_once(binary, workload, 1, False,
                          ["--corrupt-check", "0"])
        if sample["failed"] != 1:
            problems.append(f"{workload}: a wrong expected checksum "
                            f"counted {sample['failed']} failed runs, "
                            "expected 1")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")

    if args.self_test:
        problems = self_test(build(), spec)
        for p in problems:
            print(f"perfbench self-test: {p}", file=sys.stderr)
        print("self-test " + ("FAILED" if problems else "ok"))
        sys.exit(1 if problems else 0)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    binary = build()
    result, detail = measure(binary, spec, args.workload, args.seed,
                             args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
