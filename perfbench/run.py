#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload fig07_10_hits --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
simulator libraries and the benchmark program in `.bench_build` (or in
$CARGO_TARGET_DIR, taken relative to the root); later runs only check that
the build is current. The program's standard output is passed through; its
last line is the result object.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench"


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        if Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_hash():
    """SHA-256 over the simulator and benchmark sources, for builds outside git."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1990)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    spans = build_dir() / "spans"
    spans.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--expected", str(HERE / "expected_digests.txt"),
               "--spans-out", str(spans / f"{args.workload}-seed{args.seed}.json"),
               "--git-sha", git_sha(), "--source-hash", source_hash()]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
