#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain_paper --seed 1 --seconds 20 --trace 0

The first call configures and builds a Release tree under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Traced runs (--trace 1) also write their
spans to trace_<workload>_<seed>.json in the build tree.

Workloads are listed in BENCHMARK.json. HELD_OUT_SEED is never used while
tuning the benchmark or a change; confirm a claimed gain on it as well.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "perfbench"
WORKLOADS = ("chain_paper", "city_mobile", "city_sharded")
# Seed reserved for confirming claims; tuning uses other seeds.
HELD_OUT_SEED = 7919


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the Release benchmark; returns its path."""
    if not (ROOT / "src" / "scenario" / "experiment.h").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(PKG), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")

    out = build_dir()
    try:
        exe = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out / f"trace_{args.workload}_{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
