#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), records expected digests for every
workload at a tiny scale, then checks that:
  * both modes print every metric BENCHMARK.json names, with its unit, as a
    `metric` line and in the result object;
  * mismatch_ratio is 0 and the run is correct against those digests, on
    the default seed and on another seed;
  * a corrupted expected digest makes mismatch_ratio non-zero and the run
    incorrect, on both seeds.
Exits non-zero on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SCALE = "0.1"
DEFAULT_SEED = "1990"
OTHER_SEED = "7"


def drive(binary, workload, seed, trace, expected):
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", seed, "--seconds",
         "0.2", "--trace", str(trace), "--scale", SCALE, "--expected",
         str(expected)],
        capture_output=True, text=True, check=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def mismatch_ratio(lines):
    for line in lines:
        if line.startswith("metric mismatch_ratio "):
            return float(line.split()[2])
    raise AssertionError("no mismatch_ratio line")


def check(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def main():
    binary = bench.build()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    work = bench.build_dir() / "selftest"
    work.mkdir(exist_ok=True)
    expected = work / "expected_digests.txt"
    expected.unlink(missing_ok=True)
    for workload in workloads:
        subprocess.run([str(binary), "--workload", workload, "--scale", SCALE,
                        "--record-expected", str(expected)], check=True)

    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for seed in (DEFAULT_SEED, OTHER_SEED):
                lines, result = drive(binary, workload, seed, trace, expected)
                what = f"{workload} seed {seed} trace {trace}"
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                check(got == want, f"{what}: metrics {got} != {want}")
                for name, unit in want.items():
                    check(any(l.startswith(f"metric {name} ") and
                              l.endswith(f" {unit}") for l in lines),
                          f"{what}: no metric line for {name} [{unit}]")
                check(mismatch_ratio(lines) == 0, f"{what}: mismatches")
                check(result["correct"] and result["failed"] == 0,
                      f"{what}: run not correct: {lines[1:-1]}")
        print(f"selftest: {workload} ok", flush=True)

    corrupt = work / "corrupt_digests.txt"
    records = expected.read_text().splitlines()
    first = records[0].split()
    first[-1] = format(int(first[-1], 16) ^ 1, "016x")
    corrupt.write_text("\n".join([" ".join(first)] + records[1:]) + "\n")
    for seed in (DEFAULT_SEED, OTHER_SEED):
        lines, result = drive(binary, first[0], seed, 0, corrupt)
        check(mismatch_ratio(lines) > 0,
              f"corrupted digest not caught on seed {seed}")
        check(not result["correct"] and result["failed"] > 0,
              f"corrupted digest left the run correct on seed {seed}")
    print("selftest: corrupted digest caught")
    print("selftest: ok")


if __name__ == "__main__":
    main()
