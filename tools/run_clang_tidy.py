#!/usr/bin/env python3
"""Baseline-ratchet driver for the clang-tidy / clang-analyzer CI leg.

clang-tidy's exit code alone cannot gate a CI leg usefully: warnings do not
fail it, WarningsAsErrors fails on EVERY occurrence (so the first noisy
check blocks unrelated PRs), and line numbers shift with every edit. This
driver turns the run into a ratchet against a committed baseline:

  * every diagnostic is normalized to a (file, check) pair — line numbers
    are deliberately dropped so refactors that move code do not churn the
    baseline, and so the baseline survives clang version drift better;
  * pairs absent from tools/clang_tidy_baseline.txt are NEW findings: they
    are printed (and, with --github, emitted as `::error` workflow
    annotations that surface inline on the PR) and the run exits 1;
  * baseline pairs that no longer occur are STALE: reported as advisory
    notes (exit stays 0) so a fixed finding or a changed clang version
    never turns CI red on its own — refresh with --update-baseline when
    convenient. Under --github the stale count is additionally emitted as
    a `::warning` workflow annotation so staleness stays visible on every
    PR instead of silently accumulating;
  * `error:` severity diagnostics (real compile failures, not style) fail
    the run regardless of the baseline.

Workflow:

  python3 tools/run_clang_tidy.py -p build            # gate against baseline
  python3 tools/run_clang_tidy.py -p build --update-baseline   # refresh
  python3 tools/run_clang_tidy.py --self-test         # no clang-tidy needed

Sources default to every .cc under src/. The build dir must have
compile_commands.json (the top-level CMakeLists exports it always).
`--self-test` exercises the parse/diff/ratchet logic on canned diagnostics
so the gating behavior itself is pinned by ctest in containers that have no
clang-tidy installed.

Exit status: 0 clean (stale-only counts as clean), 1 new findings or
compile errors, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile

DEFAULT_BASELINE = os.path.join("tools", "clang_tidy_baseline.txt")

DIAG_RE = re.compile(
    r"^(?P<path>[^:\n]+):(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?P<sev>warning|error):\s+(?P<msg>.*?)\s+\[(?P<checks>[\w.,-]+)\]\s*$")
ERROR_NO_CHECK_RE = re.compile(
    r"^(?P<path>[^:\n]+):(?P<line>\d+):(?P<col>\d+):\s+error:\s+(?P<msg>.*)$")


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def default_sources(root: str) -> list[str]:
    files: list[str] = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".cc"):
                files.append(os.path.join(dirpath, fn))
    return files


def parse_diagnostics(
        text: str, root: str) -> tuple[set[tuple[str, str]], list[str]]:
    """Returns (pairs, errors): normalized (relpath, check) findings and a
    list of hard-error lines. Duplicate (file, check) occurrences collapse —
    the ratchet is per file per check, not per line."""
    pairs: set[tuple[str, str]] = set()
    errors: list[str] = []
    for line in text.splitlines():
        m = DIAG_RE.match(line)
        if m:
            rel = os.path.relpath(os.path.join(root, m.group("path")), root) \
                if not os.path.isabs(m.group("path")) \
                else os.path.relpath(m.group("path"), root)
            rel = rel.replace(os.sep, "/")
            if rel.startswith(".."):
                continue  # diagnostics in system headers are not ours
            if m.group("sev") == "error":
                errors.append(line)
                continue
            for check in m.group("checks").split(","):
                pairs.add((rel, check))
            continue
        if ERROR_NO_CHECK_RE.match(line):
            errors.append(line)
    return pairs, errors


def load_baseline(path: str) -> set[tuple[str, str]]:
    baseline: set[tuple[str, str]] = set()
    if not os.path.exists(path):
        return baseline
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2:
                baseline.add((parts[0], parts[1]))
    return baseline


def write_baseline(path: str, pairs: set[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("# clang-tidy baseline: accepted (file, check) pairs, one "
                "per line.\n"
                "# A finding not listed here fails CI; refresh with\n"
                "#   python3 tools/run_clang_tidy.py -p build "
                "--update-baseline\n"
                "# and justify additions in the PR that makes them.\n")
        for rel, check in sorted(pairs):
            f.write(f"{rel} {check}\n")


def ratchet(pairs: set[tuple[str, str]], errors: list[str],
            baseline: set[tuple[str, str]], github: bool) -> int:
    rc = 0
    if errors:
        print(f"run-clang-tidy: {len(errors)} hard error(s):")
        for line in errors:
            print(f"  {line}")
            if github:
                print("::error title=clang-tidy::" + line.replace("%", "%25"))
        rc = 1
    new = sorted(pairs - baseline)
    stale = sorted(baseline - pairs)
    for rel, check in new:
        print(f"NEW   {rel}: [{check}] not in {DEFAULT_BASELINE}")
        if github:
            print(f"::error file={rel},title=clang-tidy [{check}]::"
                  f"new finding not in the committed baseline "
                  f"(fix it, or justify and --update-baseline)")
    for rel, check in stale:
        print(f"STALE {rel}: [{check}] in baseline but no longer reported "
              "(advisory — refresh the baseline when convenient)")
    if stale and github:
        print(f"::warning title=clang-tidy baseline::{len(stale)} stale "
              f"baseline entr{'y' if len(stale) == 1 else 'ies'} — run "
              "tools/run_clang_tidy.py -p build --update-baseline to prune")
    if new:
        rc = 1
    if rc == 0:
        print(f"run-clang-tidy: clean — {len(pairs)} baselined finding(s), "
              f"{len(stale)} stale entr(y/ies), 0 new")
    return rc


def self_test() -> int:
    root = "/repo"
    log = "\n".join([
        "src/sim/scheduler.cc:10:5: warning: dead store [clang-analyzer-deadcode.DeadStores]",
        "src/phy/channel.cc:4:1: warning: use '= default' [modernize-use-equals-default]",
        "src/phy/channel.cc:9:1: warning: use '= default' [modernize-use-equals-default]",
        "/usr/include/c++/12/bits/stl_vector.h:99:1: warning: noise [bugprone-foo]",
        "note: this note line is ignored",
    ])
    pairs, errors = parse_diagnostics(log, root)
    assert not errors, errors
    assert pairs == {
        ("src/sim/scheduler.cc", "clang-analyzer-deadcode.DeadStores"),
        ("src/phy/channel.cc", "modernize-use-equals-default"),
    }, pairs  # duplicates collapse, system headers drop

    # Ratchet: baselined finding passes, novel finding fails, stale advisory.
    baseline = {("src/sim/scheduler.cc", "clang-analyzer-deadcode.DeadStores"),
                ("src/phy/channel.cc", "modernize-use-equals-default"),
                ("src/net/node.cc", "bugprone-gone")}
    assert ratchet(pairs, [], baseline, github=False) == 0
    assert ratchet(pairs | {("src/net/trace.cc", "concurrency-mt-unsafe")},
                   [], baseline, github=False) == 1

    # Stale entries stay advisory (exit 0) but surface as a ::warning
    # annotation under --github so staleness cannot silently accumulate.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert ratchet(pairs, [], baseline, github=True) == 0
    assert ("::warning title=clang-tidy baseline::1 stale baseline entry"
            in buf.getvalue()), buf.getvalue()

    # Hard errors fail even when every pair is baselined.
    _, errs = parse_diagnostics(
        "src/sim/scheduler.cc:3:1: error: unknown type name 'Foo'", root)
    assert len(errs) == 1
    assert ratchet(set(), errs, baseline, github=False) == 1

    # Multi-check diagnostics split into one pair per check.
    p2, _ = parse_diagnostics(
        "src/a.cc:1:1: warning: x [bugprone-a,performance-b]", root)
    assert p2 == {("src/a.cc", "bugprone-a"), ("src/a.cc", "performance-b")}

    # Baseline round-trip.
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "baseline.txt")
        write_baseline(path, pairs)
        assert load_baseline(path) == pairs
    print("run-clang-tidy self-test OK: parse, dedup, system-header drop, "
          "ratchet pass/fail, stale-count annotation, hard errors, "
          "baseline round-trip")
    return 0


def main(argv: list[str]) -> int:
    doc = __doc__ or ""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("-p", "--build-dir", default="build",
                    help="build dir with compile_commands.json")
    ap.add_argument("--baseline", default=None,
                    help=f"baseline file (default: {DEFAULT_BASELINE})")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this run's findings")
    ap.add_argument("--github", action="store_true",
                    help="emit GitHub Actions ::error annotations")
    ap.add_argument("--self-test", action="store_true",
                    help="test the parse/diff logic without clang-tidy")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("sources", nargs="*",
                    help="files to analyze (default: src/**/*.cc)")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = repo_root()
    baseline_path = args.baseline or os.path.join(root, DEFAULT_BASELINE)
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        print("run-clang-tidy: clang-tidy not found on PATH", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(args.build_dir, "compile_commands.json")):
        print(f"run-clang-tidy: {args.build_dir}/compile_commands.json "
              "missing (configure with CMake first)", file=sys.stderr)
        return 2

    sources = args.sources or default_sources(root)
    cmd = [tidy, "-p", args.build_dir, "--quiet"] + sources
    proc = subprocess.run(cmd, capture_output=True, text=True)
    pairs, errors = parse_diagnostics(proc.stdout + "\n" + proc.stderr, root)

    if args.update_baseline:
        write_baseline(baseline_path, pairs)
        print(f"run-clang-tidy: baseline refreshed with {len(pairs)} "
              f"pair(s) -> {os.path.relpath(baseline_path, root)}")
        return 1 if errors else 0

    return ratchet(pairs, errors, load_baseline(baseline_path), args.github)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
