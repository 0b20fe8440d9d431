#!/usr/bin/env python3
"""CI smoke: validate a `bench_simperf --json` document — schema id,
the execution-tier enum (every variant name must be a known tier, every
expected tier must be present), internally consistent throughput and
speedup numbers. Performance itself is not asserted (CI machines are
noisy); BENCH_PR9.json records a reference run.

Two schemas are accepted. `swapram-bench/v2` (what bench_simperf emits
now) has the tiers no_predecode, predecode, threaded and metrics.
`swapram-bench/v1` (the committed BENCH_PR*.json files) also carries
the retired block-stepped `superblock` tier.

Usage:
  check_bench_json.py <bench_simperf>     run the binary, check stdout
  check_bench_json.py --file <doc.json>   check a committed document
  check_bench_json.py --self-test         negative tests of the checker
"""

import copy
import json
import subprocess
import sys

# Per schema: the closed tier enum (a variant name outside it is a
# report bug — a renamed or misspelled tier would otherwise slip past
# CI; every tier in it must be present) and the expected speedups as
# (key, numerator tier, denominator tier).
SCHEMAS = {
    "swapram-bench/v1": (
        ["no_predecode", "predecode", "superblock", "threaded",
         "metrics"],
        [
            ("predecode_vs_no_predecode", "predecode", "no_predecode"),
            ("superblock_vs_predecode", "superblock", "predecode"),
            ("superblock_vs_no_predecode", "superblock", "no_predecode"),
            ("threaded_vs_superblock", "threaded", "superblock"),
            ("threaded_vs_no_predecode", "threaded", "no_predecode"),
            ("metrics_vs_predecode", "metrics", "predecode"),
        ],
    ),
    "swapram-bench/v2": (
        ["no_predecode", "predecode", "threaded", "metrics"],
        [
            ("predecode_vs_no_predecode", "predecode", "no_predecode"),
            ("threaded_vs_predecode", "threaded", "predecode"),
            ("threaded_vs_no_predecode", "threaded", "no_predecode"),
            ("metrics_vs_predecode", "metrics", "predecode"),
        ],
    ),
}


class CheckError(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckError(message)


def validate(doc):
    schema = doc.get("schema")
    check(schema in SCHEMAS, f"bad schema id: {schema!r}")
    tiers, speedups = SCHEMAS[schema]
    check(doc.get("benchmark") == "BM_SimulatorThroughput",
          f"bad benchmark name: {doc.get('benchmark')!r}")
    check(doc.get("workload"), "missing workload")
    check(doc.get("repeats", 0) >= 1, "repeats must be >= 1")

    variants = {v["name"]: v for v in doc["variants"]}
    unknown = sorted(set(variants) - set(tiers))
    check(not unknown, f"unrecognized tier(s) in report: {unknown}")
    missing = sorted(set(tiers) - set(variants))
    check(not missing, f"missing tier(s) in report: {missing}")
    instr = {v["instructions"] for v in variants.values()}
    check(len(instr) == 1, f"tiers ran different programs: {instr}")
    for v in variants.values():
        check(v["instructions"] > 0, f"no instructions: {v}")
        check(v["best_seconds"] > 0, f"non-positive time: {v}")
        rate = v["instructions"] / v["best_seconds"]
        check(abs(rate - v["instr_per_s"]) < 1e-6 * rate,
              f"inconsistent instr_per_s: {v}")

    for key, num, den in speedups:
        check(key in doc.get("speedup", {}), f"missing speedup: {key}")
        got = doc["speedup"][key]
        want = (variants[num]["instr_per_s"] /
                variants[den]["instr_per_s"])
        check(abs(got - want) < 1e-9 * max(want, 1.0),
              f"inconsistent speedup {key}: {got} vs {want}")
    return variants


def self_test():
    """The checker must reject each of these corruptions; a validator
    that silently passes a bad report is worse than none."""
    def document(schema):
        tiers, speedups = SCHEMAS[schema]
        return {
            "schema": schema,
            "benchmark": "BM_SimulatorThroughput",
            "workload": "crc",
            "repeats": 3,
            "variants": [
                {"name": n, "instructions": 1000, "best_seconds": 0.5,
                 "instr_per_s": 2000.0} for n in tiers
            ],
            "speedup": {k: 1.0 for k, _, _ in speedups},
        }

    v1 = document("swapram-bench/v1")
    v2 = document("swapram-bench/v2")
    validate(copy.deepcopy(v1))  # the clean documents must pass
    validate(copy.deepcopy(v2))

    def corrupt(base, mutate, label):
        doc = copy.deepcopy(base)
        mutate(doc)
        try:
            validate(doc)
        except CheckError:
            return
        sys.exit(f"self-test: corruption not rejected: {label}")

    corrupt(v1, lambda d: d.update(schema="swapram-bench/v3"),
            "schema id")
    corrupt(v1, lambda d: d["variants"].append(
        {"name": "turbo", "instructions": 1000, "best_seconds": 0.5,
         "instr_per_s": 2000.0}), "unrecognized tier")
    corrupt(v1, lambda d: d["variants"].pop(), "missing tier")
    corrupt(v1, lambda d: d["variants"][0].update(instructions=999),
            "tier instruction mismatch")
    corrupt(v1, lambda d: d["variants"][0].update(instr_per_s=1.0),
            "inconsistent throughput")
    corrupt(v1, lambda d: d["speedup"].update(threaded_vs_superblock=9.0),
            "inconsistent speedup")
    corrupt(v1, lambda d: d["speedup"].pop("threaded_vs_superblock"),
            "missing speedup key")
    # v2 retired the block-stepped tier: a v2 report carrying it, or a
    # v1 report missing it, is a schema mix-up.
    corrupt(v2, lambda d: d["variants"].append(
        {"name": "superblock", "instructions": 1000,
         "best_seconds": 0.5, "instr_per_s": 2000.0}),
            "v2 with the superblock tier")
    corrupt(v1, lambda d: d.update(schema="swapram-bench/v2"),
            "v1 tiers under the v2 schema id")
    corrupt(v2, lambda d: d["speedup"].update(threaded_vs_predecode=9.0),
            "inconsistent v2 speedup")
    corrupt(v2, lambda d: d["speedup"].pop("threaded_vs_predecode"),
            "missing v2 speedup key")
    print("self-test ok: all corrupted reports rejected")


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--file":
        with open(sys.argv[2]) as f:
            out = f.read()
    elif len(sys.argv) == 2:
        out = subprocess.run([sys.argv[1], "--json"], check=True,
                             capture_output=True, text=True).stdout
    else:
        sys.exit("usage: check_bench_json.py <bench_simperf> | "
                 "--file <doc.json> | --self-test")
    doc = json.loads(out)
    try:
        variants = validate(doc)
    except CheckError as e:
        sys.exit(f"bench report invalid: {e}")
    tiers, _ = SCHEMAS[doc["schema"]]
    print(f"{doc['schema']} ok:",
          ", ".join(f"{n} {variants[n]['instr_per_s'] / 1e6:.1f}M/s"
                    for n in tiers))


if __name__ == "__main__":
    main()
