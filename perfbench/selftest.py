#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes on four cores).

    python3 perfbench/selftest.py

Checks, on short runs:
  * every end-to-end metric of BENCHMARK.json is printed with its unit by a
    --trace 0 run, and every per-layer metric by a --trace 1 run, for every
    workload, with the result line's exact keys and no failures;
  * the same seed generates the same configs and another seed other ones;
  * the held-out seed is named and is not one of the seeds tested here;
  * an injected digest mismatch is counted as a failed experiment;
  * without the simulator sources next to it the benchmark exits non-zero
    and prints no result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SEEDS = (1, 2)


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def result_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(res)}")
    return res


def run_bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr[-500:]}")
    return result_line(p.stdout)


def check_metrics(spec: dict) -> None:
    # Workloads run.py offers beyond BENCHMARK.json's get the same checks.
    listed = [wl["name"] for wl in spec["workloads"]]
    for name in listed + [w for w in bench.WORKLOADS if w not in listed]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_bench(spec, name, SEEDS[0], trace)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{name} trace={trace}: {res['failed']} of "
                     f"{res['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail(f"{name} trace={trace}: metrics {got} != {want}")
            for metric, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail(f"{name}: {metric} is not a number")
            print(f"selftest: {name} trace={trace}: {len(got)} metrics ok")


def list_configs(exe: Path, workload: str, seed: int) -> str:
    p = subprocess.run([str(exe), "--workload", workload, "--seed", str(seed),
                        "--list-configs"], capture_output=True, text=True, check=True)
    return p.stdout


def check_seeds(spec: dict, exe: Path) -> None:
    for wl in spec["workloads"]:
        a = list_configs(exe, wl["name"], SEEDS[0])
        if a != list_configs(exe, wl["name"], SEEDS[0]):
            fail(f"{wl['name']}: the same seed gave different configs")
        if a == list_configs(exe, wl["name"], SEEDS[1]):
            fail(f"{wl['name']}: seeds {SEEDS} gave the same configs")
    held = bench.HELD_OUT_SEED
    if not isinstance(held, int) or held in SEEDS:
        fail(f"held-out seed {held!r} is not a seed kept out of testing")
    if str(held) not in (HERE / "README.md").read_text():
        fail("README.md does not name the held-out seed")
    print(f"selftest: seeds change configs; held-out seed {held} is named")


def check_digest_mismatch(exe: Path) -> None:
    p = subprocess.run([str(exe), "--workload", "chain_paper", "--seed", str(SEEDS[0]),
                        "--seconds", "1", "--trace", "0", "--inject-digest-mismatch"],
                       capture_output=True, text=True, check=True)
    res = result_line(p.stdout)
    if res["correct"] or res["failed"] != 1:
        fail(f"injected digest mismatch gave correct={res['correct']} "
             f"failed={res['failed']}")
    print("selftest: injected digest mismatch counted as 1 failed experiment")


def check_bare_checkout(out: Path) -> None:
    bare = out / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain_paper",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180,
                       env={"PATH": "/usr/bin:/bin"})
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        fail("the benchmark ran without the simulator sources")
    print("selftest: without the sources it exits non-zero and prints nothing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = bench.build_dir()
    exe = bench.build(out)
    check_seeds(spec, exe)
    check_digest_mismatch(exe)
    check_bare_checkout(out)
    check_metrics(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
