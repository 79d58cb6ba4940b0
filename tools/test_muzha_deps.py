#!/usr/bin/env python3
"""Golden-fixture and unit suite for muzha-deps (mirrors test_muzha_lint.py).

Fixtures: each immediate subdirectory of tests/deps_fixtures/ is a
self-contained mini-repository (own layers.toml + src/<layer>/ tree). The
driver runs muzha_deps.analyze() over every tree — every finding gates —
and diffs the actual (tree, file, line, rule) triples against
`expect: <rule-id>` markers on the exact line the analyzer must report.
Missed findings and unexpected extras both fail, and EVERY rule id in the
analyzer's RULES table (meta rules included) must be pinned by at least one
marker across the trees, so adding a rule without a fixture fails
immediately.

Unit tests pin the include-resolver edge cases that motivated the fixture
trees from the inside: quoted-include resolution order (including-file
directory before the include roots), comment / raw-string stripping (an
`#include` spelled there is never an edge), the C++14 digit-separator lexer
state (100'000 must not open a char literal and blank the rest of the file),
conditional includes as part of the union graph, canonicalize()/layer_of()
and manifest DAG validation.

Run directly (repo root is inferred) or via `ctest -R muzha_deps_fixtures`.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import muzha_deps  # noqa: E402
from muzha_lint import split_code_and_comments  # noqa: E402

FIXTURE_DIR = os.path.join("tests", "deps_fixtures")
MARKER_RE = re.compile(r"expect:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------

def fixture_trees(root: str) -> list[str]:
    base = os.path.join(root, FIXTURE_DIR)
    return sorted(
        d for d in os.listdir(base)
        if os.path.isfile(os.path.join(base, d, "layers.toml")))


def expected_findings(tree_root: str) -> set[tuple[str, int, str]]:
    expected: set[tuple[str, int, str]] = set()
    for dirpath, dirnames, filenames in os.walk(tree_root):
        dirnames.sort()
        for fn in sorted(filenames):
            if not fn.endswith(muzha_deps.CXX_EXTENSIONS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, fn), tree_root)
            rel = rel.replace(os.sep, "/")
            with open(os.path.join(tree_root, rel), encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    m = MARKER_RE.search(line)
                    if not m:
                        continue
                    for rule in re.split(r"\s*,\s*", m.group(1)):
                        if rule not in muzha_deps.RULES:
                            raise SystemExit(
                                f"{rel}:{lineno}: marker names unknown "
                                f"rule '{rule}'")
                        expected.add((rel, lineno, rule))
    return expected


def check_fixtures(root: str) -> bool:
    ok = True
    total = 0
    rules_pinned: set[str] = set()
    for tree in fixture_trees(root):
        tree_root = os.path.join(root, FIXTURE_DIR, tree)
        manifest = os.path.join(tree_root, "layers.toml")
        expected = expected_findings(tree_root)
        _, findings = muzha_deps.analyze(tree_root, manifest)
        actual = {(f.path, f.line, f.rule) for f in findings}
        for path, line, rule in sorted(expected - actual):
            print(f"MISSED   {tree}/{path}:{line}: [{rule}] "
                  "marked but not reported")
            ok = False
        for path, line, rule in sorted(actual - expected):
            print(f"SPURIOUS {tree}/{path}:{line}: [{rule}] "
                  "reported but not marked")
            ok = False
        total += len(expected)
        rules_pinned |= {rule for _, _, rule in expected}

    unpinned = sorted(set(muzha_deps.RULES) - rules_pinned)
    if unpinned:
        print(f"COVERAGE rule ids with no fixture finding: {unpinned} — "
              "every rule needs at least one positive fixture")
        ok = False
    if ok:
        print(f"muzha-deps fixtures OK: {total} findings across "
              f"{len(rules_pinned)} rules match exactly")
    return ok


# ---------------------------------------------------------------------------
# Unit tests
# ---------------------------------------------------------------------------

def _fail(name: str, why: str) -> bool:
    print(f"UNIT {name}: {why}")
    return False


def test_resolution_order(root: str) -> bool:
    """"params.h" from net/ must pick net/params.h, not sim/params.h."""
    known = {"src/sim/params.h", "src/net/params.h"}
    got = muzha_deps.resolve_include(
        root, "src/net/local.h", "params.h", ["src"], known)
    if got != "src/net/params.h":
        return _fail("resolution_order", f"got {got}")
    # With no same-directory candidate, fall back to the include roots.
    got = muzha_deps.resolve_include(
        root, "src/net/local.h", "sim/params.h", ["src"], known)
    if got != "src/sim/params.h":
        return _fail("resolution_order", f"root fallback got {got}")
    # Non-project includes resolve to None.
    got = muzha_deps.resolve_include(
        root, "src/net/local.h", "vector", ["src"], known)
    if got is not None:
        return _fail("resolution_order", f"<vector> resolved to {got}")
    return True


def test_comment_and_raw_string_includes(root: str) -> bool:
    """An #include spelled in a comment or raw string is never an edge,
    and a digit separator (100'000) must not blank the rest of the file."""
    rel = os.path.join(FIXTURE_DIR, "resolver", "src", "net", "strings.h")
    facts = muzha_deps.collect_dep_facts(os.path.join(root, rel), rel)
    if facts.includes:
        return _fail("raw_string_includes",
                     f"phantom include edges {facts.includes}")
    if "Strings" not in facts.strong_exports:
        return _fail("raw_string_includes",
                     "digit separator swallowed the Strings definition")
    return True


def test_lexer_digit_separator() -> bool:
    code_lines, _ = split_code_and_comments(
        "int a = 100'000;\nclass After {};\n")
    if "After" not in code_lines[1]:
        return _fail("digit_separator",
                     "100'000 opened a char-literal state")
    return True


def test_conditional_include_is_an_edge(root: str) -> bool:
    """#ifdef'd includes are part of the graph (union over configs)."""
    rel = os.path.join(FIXTURE_DIR, "resolver", "src", "sim", "cond.h")
    facts = muzha_deps.collect_dep_facts(os.path.join(root, rel), rel)
    if [inc for _, inc in facts.includes] != ["net/cond2.h"]:
        return _fail("conditional_include", f"includes = {facts.includes}")
    return True


def test_canonicalize_and_layer_of() -> bool:
    manifest = muzha_deps.Manifest(
        roots=["src"], order=["sim", "net"],
        edges={"sim": set(), "net": {"sim"}}, private={})
    if muzha_deps.canonicalize("src/phy/channel.h", ["src"]) != "phy/channel.h":
        return _fail("canonicalize", "root prefix not stripped")
    if muzha_deps.layer_of("src/net/node.h", manifest) != "net":
        return _fail("layer_of", "layer not recovered")
    if muzha_deps.layer_of("src/unknown/x.h", manifest) is not None:
        return _fail("layer_of", "unknown dir must map to None")
    return True


def test_manifest_rejects_non_dag() -> bool:
    bad = ('[graph]\nroots = ["src"]\n'
           '[layers]\norder = ["sim", "net"]\n'
           '[edges]\nsim = ["net"]\nnet = ["sim"]\n')
    with tempfile.NamedTemporaryFile(
            "w", suffix=".toml", delete=False) as f:
        f.write(bad)
        path = f.name
    try:
        muzha_deps.load_manifest(path)
    except muzha_deps.ManifestError as e:
        if "DAG" not in str(e):
            return _fail("manifest_dag", f"wrong error: {e}")
        return True
    finally:
        os.unlink(path)
    return _fail("manifest_dag", "upward edge accepted")


def check_units(root: str) -> bool:
    ok = True
    ok = test_resolution_order(root) and ok
    ok = test_comment_and_raw_string_includes(root) and ok
    ok = test_lexer_digit_separator() and ok
    ok = test_conditional_include_is_an_edge(root) and ok
    ok = test_canonicalize_and_layer_of() and ok
    ok = test_manifest_rejects_non_dag() and ok
    if ok:
        print("muzha-deps units OK: resolver, lexer and manifest edge "
              "cases pass")
    return ok


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ok = check_fixtures(root)
    ok = check_units(root) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
