#!/usr/bin/env python3
"""muzha-lint v2: determinism, memory-safety & shard-safety checker.

The simulator's headline property is bit-determinism: a (scenario, seed) pair
fully determines every event, RNG draw and floating-point metric. The test
suite pins that with byte-identity and golden-hash tests, but nothing stops a
refactor from *introducing* a hazard that only diverges on another machine or
allocator — or, now that one run executes on several threads (BatchRunner
worker pools, sharded event cores), a hazard that only diverges under a
different thread schedule. This checker mechanically bans the constructs that
leak wall-clock time, hash-bucket layout, address-space randomization or
cross-thread mutation into model behavior, plus the classic C++ memory-safety
foot-guns on polymorphic agents.

It is a two-pass, token/AST-lite analyzer:

  pass 1 (per file)  lex the file (comments, string and raw-string literals
                     stripped), collect facts: class declarations with their
                     bases, suppression comments, statics, thread_local/
                     mutex/atomic sites, #includes, names declared with
                     unordered container types.
  pass 2 (project)   close the facts over the whole scanned set — the
                     polymorphic-class closure feeds `slicing` — then
                     evaluate every rule and apply per-file suppressions.

That is deliberate — it runs in milliseconds as a ctest with zero
dependencies, and the rules target constructs that are reliably visible at
token level. Raw string literals are stripped like ordinary literals (their
contents can never produce findings); declarations split across lines may
evade the line-oriented rules, which is the accepted precision limit.

Determinism rules (see DESIGN.md "Correctness tooling" for the catalog):

  banned-rand        libc/global RNGs (std::rand, srand, drand48, random(),
                     std::random_device) — all randomness must flow from the
                     seeded per-Simulator muzha::Rng.
  banned-wall-clock  time(), clock(), gettimeofday, std::chrono::*_clock —
                     wall-clock reads make runs time-dependent.
  banned-seed        default-constructed std random engines or argless
                     .seed() — an implicit seed is an unpinned seed.
  unordered-iter     iteration (range-for, .begin, std::erase_if) over a
                     variable declared std::unordered_map/set — iteration
                     order depends on hashing and allocation history.
  pointer-key        associative containers keyed by pointer — ASLR decides
                     the order (and for unordered, the buckets).
  pointer-order      reinterpret_cast<uintptr_t>, std::hash<T*>,
                     std::less<T*> — pointer values leaking into arithmetic
                     or ordering.
  nondet-reduction   std::reduce / std::transform_reduce / std::execution::par
                     / #pragma omp — reduction order is unspecified, float
                     sums differ run to run.
  float-accum        `float`-typed state in model code — single precision
                     amplifies rounding and accumulation-order sensitivity;
                     simulation state is double.
  virtual-dtor       non-final class with virtual methods, no base class and
                     no virtual destructor — deleting through a base pointer
                     is UB.
  slicing            by-value parameter of a polymorphic class (classes are
                     collected project-wide in pass 1) — copies the base
                     subobject and silently drops the derived state.
  raw-unit-double    double/float variable, member or parameter whose name
                     carries a unit suffix (_m, _s, _bps, _dbm, _mps, ...) —
                     dimensioned quantities must use the strong types in
                     src/sim/units.h (Meters, Seconds, BitsPerSecond, ...),
                     which that file alone is exempt from.

Shard-safety rules (the threaded runtime's isolation discipline — one event
core per shard, synchronization only in the shard executor):

  mutable-static     non-const static (namespace-scope, function-local or
                     class-static data member) in model code under
                     src/{sim,phy,mac,net,pkt,tcp,core,relwork,routing,app,
                     stats} — a mutable static is shared by every shard
                     thread at once: a data race and a cross-run
                     determinism leak. Model state lives in objects owned
                     by one shard.
  thread-local-audit thread_local anywhere — per-thread state silently
                     keys behavior on which worker runs the code; an
                     instance must be designed for, with a justified
                     suppression, not introduced in passing.
  lock-discipline    mutex/atomic/condition_variable/thread primitives (or
                     their headers) outside the threaded-runtime allowlist
                     (src/sim/shard_exec.*, src/scenario/batch_runner.*)
                     — model code must be lock-free by construction (shard
                     isolation), not by locking; a lock in model code means
                     shared mutable state exists.
  relaxed-atomic     memory_order_relaxed / memory_order_consume / raw
                     atomic fences outside src/sim/shard_exec.* — weak
                     orderings need a happens-before argument; outside the
                     one file whose job is synchronization they require a
                     justified suppression spelling that argument out.

Paths under tests/lint_fixtures/ are classified by their path with that
prefix stripped, so a fixture at tests/lint_fixtures/src/mac/x.cc exercises
the model-code scoping and one at tests/lint_fixtures/src/sim/shard_exec.cc
exercises an allowlist.

Suppressions (each must carry a one-line justification after the colon):

  // muzha-lint: allow(rule-id): why this occurrence is safe
  // muzha-lint: allow-file(rule-id): why this whole file is exempt

A line suppression covers its own line and the next line (so it can sit on
the line above the finding). A suppression with no justification, an unknown
rule id, or one that suppresses nothing is itself reported (bad-suppression /
unknown-rule / unused-suppression): dead suppressions rot into blanket
exemptions.

The rule catalog above is verified against the RULES table by
tools/test_muzha_lint.py (as is DESIGN.md's table), so the three can never
drift apart again.

Exit status: 0 when clean, 1 when any finding survives, 2 on usage error.
With --github, findings are additionally emitted as GitHub Actions
`::error file=...` workflow commands so they annotate PRs inline.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

RULES = {
    "banned-rand": "global RNG: all randomness must come from the seeded muzha::Rng",
    "banned-wall-clock": "wall-clock read: simulation time is SimTime, never host time",
    "banned-seed": "implicitly seeded RNG engine: pass an explicit seed",
    "unordered-iter": "iteration over an unordered container: order depends on hashing/allocation",
    "pointer-key": "pointer-keyed container: ASLR decides iteration order",
    "pointer-order": "pointer value used as number: leaks ASLR into behavior",
    "nondet-reduction": "unordered reduction: float accumulation order is unspecified",
    "float-accum": "float-typed state: use double, single precision amplifies order sensitivity",
    "virtual-dtor": "polymorphic class without virtual destructor: deletion via base pointer is UB",
    "slicing": "by-value parameter of polymorphic type: slices off derived state",
    "raw-unit-double": "unit-suffixed raw double: use the quantity types in sim/units.h",
    # Shard-safety family: the threaded runtime's isolation discipline.
    "mutable-static": "mutable static in model code: shared across every shard thread, "
                      "a data race and a determinism leak",
    "thread-local-audit": "per-thread state: keys behavior on whichever worker runs the code",
    "lock-discipline": "synchronization primitive outside the threaded-runtime allowlist: "
                       "model code is lock-free by shard isolation, not by locking",
    "relaxed-atomic": "relaxed/consume ordering or raw fence outside shard_exec: "
                      "needs a justified happens-before argument",
    # Meta rules (not suppressible, no fixtures needed beyond the dedicated ones).
    "bad-suppression": "suppression without a justification",
    "unknown-rule": "suppression names an unknown rule id",
    "unused-suppression": "suppression that suppressed nothing",
}

META_RULES = {"bad-suppression", "unknown-rule", "unused-suppression"}

# ---------------------------------------------------------------------------
# Path classification. Fixtures under tests/lint_fixtures/ are classified by
# their stripped path so they can exercise scoping and allowlists.
# ---------------------------------------------------------------------------

FIXTURE_PREFIX = "tests/lint_fixtures/"

MODEL_DIRS = ("sim", "phy", "mac", "net", "pkt", "tcp", "core", "relwork",
              "routing", "app", "stats")

LOCK_ALLOW = ("src/sim/shard_exec.", "src/scenario/batch_runner.")

RELAXED_ALLOW = ("src/sim/shard_exec.",)


def canonical_path(rel: str) -> str:
    rel = rel.replace(os.sep, "/")
    if rel.startswith(FIXTURE_PREFIX):
        rel = rel[len(FIXTURE_PREFIX):]
    return rel


def is_model_code(rel: str) -> bool:
    c = canonical_path(rel)
    return any(c.startswith(f"src/{d}/") for d in MODEL_DIRS)


def in_allowlist(rel: str, allow: tuple[str, ...]) -> bool:
    c = canonical_path(rel)
    return any(c.startswith(prefix) for prefix in allow)


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    detail: str


@dataclasses.dataclass
class Suppression:
    line: int  # 1-based line the comment sits on
    rule: str
    justification: str
    file_level: bool
    used: bool = False


# ---------------------------------------------------------------------------
# Lexing: strip comments and string literals (raw strings included), keep
# comment text per line.
# ---------------------------------------------------------------------------

RAW_STRING_OPEN_RE = re.compile(r'(?:u8|[uUL])?R"(?P<delim>[^()\\\s]{0,16})\(')


def split_code_and_comments(text: str) -> tuple[list[str], list[str]]:
    """Returns (code_lines, comment_lines), same line count as `text`.

    Code lines have comments and string/char/raw-string literal contents
    blanked; comment lines hold only the comment text of that line. Raw
    string literals R"delim(...)delim" are recognized in code state: their
    contents (which may span lines — line numbering is preserved) can never
    produce findings or suppressions.
    """
    code: list[str] = []
    comments: list[str] = []
    cur_code: list[str] = []
    cur_comment: list[str] = []
    state = "code"  # code | line_comment | block_comment | dquote | squote
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            m = RAW_STRING_OPEN_RE.match(text, i)
            if m and not (i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
                # Raw string literal: blank everything through `)delim"`,
                # preserving line structure.
                cur_code.append('""')
                closer = ")" + m.group("delim") + '"'
                end = text.find(closer, m.end())
                end = n if end == -1 else end + len(closer)
                for j in range(m.end(), end):
                    if text[j] == "\n":
                        code.append("".join(cur_code))
                        comments.append("".join(cur_comment))
                        cur_code, cur_comment = [], []
                i = end
                continue
            if c == '"':
                cur_code.append('"')
                state = "dquote"
                i += 1
                continue
            if c == "'":
                # C++14 digit separator (1'000'000, 0xFF'FF): a quote between
                # digit-ish characters is not a char literal. (A u8'F' char
                # literal is misread as a separator — accepted precision
                # limit; none appear in the tree.)
                prev = text[i - 1] if i > 0 else ""
                if prev.isdigit() and (nxt.isdigit() or nxt in "abcdefABCDEF"):
                    cur_code.append("'")
                    i += 1
                    continue
                cur_code.append("'")
                state = "squote"
                i += 1
                continue
            cur_code.append(c)
            i += 1
        elif state == "line_comment":
            cur_comment.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                cur_comment.append(c)
                i += 1
        elif state in ("dquote", "squote"):
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                i += 2  # skip escaped char
            elif c == quote:
                cur_code.append(quote)
                state = "code"
                i += 1
            else:
                cur_code.append(" ")  # blank literal contents
                i += 1
    code.append("".join(cur_code))
    comments.append("".join(cur_comment))
    return code, comments


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

SUPPRESS_RE = re.compile(
    r"muzha-lint:\s*allow(?P<file>-file)?\(\s*(?P<rule>[\w-]+)\s*\)"
    r"(?P<colon>\s*:\s*(?P<just>.*\S)?)?"
)


def parse_suppressions(
    comment_lines: list[str], path: str
) -> tuple[list[Suppression], list[Finding]]:
    sups: list[Suppression] = []
    findings: list[Finding] = []
    for idx, comment in enumerate(comment_lines, start=1):
        for m in SUPPRESS_RE.finditer(comment):
            rule = m.group("rule")
            just = (m.group("just") or "").strip()
            if rule not in RULES or rule in META_RULES:
                findings.append(
                    Finding(path, idx, "unknown-rule",
                            f"allow({rule}) names no known rule"))
                continue
            if not just:
                findings.append(
                    Finding(path, idx, "bad-suppression",
                            f"allow({rule}) carries no justification "
                            "(syntax: allow(rule): why it is safe)"))
                continue
            sups.append(Suppression(idx, rule, just, m.group("file") is not None))
    return sups, findings


# ---------------------------------------------------------------------------
# Class parsing (for virtual-dtor and slicing)
# ---------------------------------------------------------------------------

CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?P<name>\w+)\s*"
    r"(?P<final>final\s*)?(?P<base>:\s*[^;{}]+)?\{"
)


@dataclasses.dataclass
class ClassInfo:
    name: str
    line: int  # 1-based line of the head
    is_final: bool
    bases: list[str]
    body: str


def parse_classes(code_text: str) -> list[ClassInfo]:
    classes: list[ClassInfo] = []
    for m in CLASS_HEAD_RE.finditer(code_text):
        head_start = m.start()
        # Skip `enum class` and `enum struct`.
        prefix = code_text[max(0, head_start - 16):head_start]
        if re.search(r"\benum\s*$", prefix):
            continue
        brace = m.end() - 1  # position of '{'
        depth = 0
        end = None
        for i in range(brace, len(code_text)):
            if code_text[i] == "{":
                depth += 1
            elif code_text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end is None:
            continue  # unbalanced; give up on this head
        bases = []
        if m.group("base"):
            for part in m.group("base").lstrip(":").split(","):
                words = re.findall(r"\w+", part)
                # last identifier of e.g. `public muzha::TraceSink`
                if words:
                    bases.append(words[-1])
        classes.append(ClassInfo(
            name=m.group("name"),
            line=code_text.count("\n", 0, head_start) + 1,
            is_final=m.group("final") is not None,
            bases=bases,
            body=code_text[brace + 1:end],
        ))
    return classes


def collect_polymorphic(all_classes: list[ClassInfo]) -> set[str]:
    poly = {c.name for c in all_classes if re.search(r"\bvirtual\b", c.body)}
    # Derivation closure: a subclass of a polymorphic class is polymorphic.
    changed = True
    while changed:
        changed = False
        for c in all_classes:
            if c.name not in poly and any(b in poly for b in c.bases):
                poly.add(c.name)
                changed = True
    return poly


# ---------------------------------------------------------------------------
# Unordered-container tracking
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")


def find_unordered_names(code_lines: list[str]) -> set[str]:
    """Names of variables/members/params declared with an unordered type."""
    names: set[str] = set()
    text = "\n".join(code_lines)
    for m in UNORDERED_DECL_RE.finditer(text):
        # Walk the template argument list to its matching '>'.
        depth = 0
        i = m.end() - 1
        end = None
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    end = i
                    break
            i += 1
        if end is None:
            continue
        tail = text[end + 1:end + 120]
        dm = re.match(r"\s*[&*]?\s*(\w+)\s*(?:[;={(,)]|$)", tail)
        if dm:
            names.add(dm.group(1))
    return names


# ---------------------------------------------------------------------------
# Pass 1: per-file fact collection
# ---------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')


@dataclasses.dataclass
class FileFacts:
    rel: str
    code_lines: list[str]
    comment_lines: list[str]
    suppressions: list[Suppression]
    meta_findings: list[Finding]   # bad-suppression / unknown-rule
    classes: list[ClassInfo]
    includes: list[tuple[int, str]]
    unordered_names: set[str]


def collect_facts(path: str, rel: str) -> FileFacts:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    code_lines, comment_lines = split_code_and_comments(text)
    sups, meta = parse_suppressions(comment_lines, rel)
    includes = []
    for idx, line in enumerate(code_lines, start=1):
        m = INCLUDE_RE.match(line)
        if m:
            includes.append((idx, m.group(1)))
    return FileFacts(
        rel=rel,
        code_lines=code_lines,
        comment_lines=comment_lines,
        suppressions=sups,
        meta_findings=meta,
        classes=parse_classes("\n".join(code_lines)),
        includes=includes,
        unordered_names=find_unordered_names(code_lines),
    )


# ---------------------------------------------------------------------------
# Line rules
# ---------------------------------------------------------------------------

# raw-unit-double: a double/float declaration whose identifier ends in a
# recognised unit suffix (optionally with a trailing member underscore). The
# negative lookahead for '(' keeps conversion functions (`double to_ms()`)
# out of scope — the rule targets stored or passed quantities. sim/units.h
# itself is exempt: it is the one place allowed to name raw representations.
RAW_UNIT_DOUBLE_RE = re.compile(
    r"\b(?:double|float)\s+[&*]?\s*"
    r"(\w+_(?:m|km|s|ms|us|mps|bps|kbps|mbps|pps|dbm|mw)_?)\b(?!\s*\()")
RAW_UNIT_DOUBLE_EXEMPT = "src/sim/units.h"

SIMPLE_LINE_RULES: list[tuple[str, re.Pattern[str], str]] = [
    ("banned-rand", re.compile(r"\b(?:std::)?rand\s*\(\s*\)"), "std::rand()"),
    ("banned-rand", re.compile(r"\bsrand\s*\("), "srand()"),
    ("banned-rand", re.compile(r"\b(?:d|l|m)rand48\b"), "*rand48"),
    ("banned-rand", re.compile(r"\brandom\s*\(\s*\)"), "random()"),
    ("banned-rand", re.compile(r"\bstd::random_device\b"), "std::random_device"),
    ("banned-wall-clock", re.compile(r"\btime\s*\("), "time()"),
    ("banned-wall-clock", re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
    ("banned-wall-clock",
     re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|gmtime|strftime|ctime)\s*\("),
     "libc wall-clock API"),
    ("banned-wall-clock",
     re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono clock"),
    ("banned-seed",
     re.compile(r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
                r"|ranlux\w+|knuth_b)\s+\w+\s*(?:;|\{\s*\})"),
     "default-constructed random engine"),
    ("banned-seed", re.compile(r"\.seed\s*\(\s*\)"), "argless .seed()"),
    ("pointer-key",
     re.compile(r"\b(?:std::)?(?:unordered_)?(?:map|multimap)\s*<\s*[\w:<>\s]*\*\s*,"),
     "pointer-keyed map"),
    ("pointer-key",
     re.compile(r"\b(?:std::)?(?:unordered_)?(?:multi)?set\s*<\s*[\w:<>\s]*\*\s*>"),
     "pointer-keyed set"),
    ("pointer-order",
     re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
     "pointer cast to integer"),
    ("pointer-order", re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>"), "std::hash over pointer"),
    ("pointer-order", re.compile(r"\bstd::less\s*<[^<>]*\*\s*>"), "std::less over pointer"),
    ("nondet-reduction",
     re.compile(r"\bstd::(?:transform_)?reduce\b"), "std::reduce family"),
    ("nondet-reduction", re.compile(r"\bstd::execution::par"), "parallel execution policy"),
    ("nondet-reduction", re.compile(r"^\s*#\s*pragma\s+omp\b"), "OpenMP pragma"),
    ("float-accum", re.compile(r"\bfloat\b"), "float type"),
]

# --- shard-safety token patterns -------------------------------------------

# `static` introducing a declaration; static_cast/static_assert do not match
# (no word boundary before '_'). const/constexpr/thread_local statics are
# immutable or handled by thread-local-audit.
MUTABLE_STATIC_RE = re.compile(
    r"(?:^|[{};])\s*(?:inline\s+)?static\b(?!\s*(?:const\b|constexpr\b|"
    r"inline\s+const\b|thread_local\b|assert\b))(?P<rest>[^;]*)")

THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")

LOCK_TOKEN_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|atomic\w*|thread\b|"
    r"jthread|call_once|once_flag|future|promise|async\b|packaged_task|"
    r"latch|barrier|counting_semaphore|binary_semaphore|stop_token)")

LOCK_HEADERS = {
    "atomic", "mutex", "thread", "condition_variable", "future", "semaphore",
    "latch", "barrier", "shared_mutex", "stop_token",
}

RELAXED_RE = re.compile(
    r"\bmemory_order_relaxed\b|\bmemory_order_consume\b|"
    r"\bmemory_order::relaxed\b|\bmemory_order::consume\b|"
    r"\b(?:std::)?atomic_(?:thread|signal)_fence\s*\(|\bkill_dependency\b")


def _static_decl_is_variable(rest: str) -> bool:
    """True when the text after `static` declares data, not a function.

    A '(' before any '=' reads as a function declaration (the most-vexing
    ctor-call spelling `static T x(args);` is an accepted miss — brace or
    equals initialization is the codebase idiom).
    """
    p_paren, p_eq = rest.find("("), rest.find("=")
    if p_paren != -1 and (p_eq == -1 or p_paren < p_eq):
        return False
    # Require a declarator: at least two identifier-ish tokens or an '='.
    return bool(re.search(r"\w[\w\s:<>,*&\[\]]*\w", rest)) or p_eq != -1


def shard_safety_findings(facts: FileFacts) -> list[Finding]:
    rel = facts.rel
    out: list[Finding] = []

    # mutable-static: model code only.
    if is_model_code(rel):
        for idx, line in enumerate(facts.code_lines, start=1):
            for m in MUTABLE_STATIC_RE.finditer(line):
                if _static_decl_is_variable(m.group("rest")):
                    out.append(Finding(
                        rel, idx, "mutable-static",
                        f"static data declaration: {RULES['mutable-static']}"))

    # thread-local-audit: everywhere.
    for idx, line in enumerate(facts.code_lines, start=1):
        if THREAD_LOCAL_RE.search(line):
            out.append(Finding(
                rel, idx, "thread-local-audit",
                f"thread_local: {RULES['thread-local-audit']}"))

    # lock-discipline: src/ outside the threaded-runtime allowlist, both
    # primitive uses and the headers that smuggle them in.
    if canonical_path(rel).startswith("src/") and not in_allowlist(rel, LOCK_ALLOW):
        for idx, line in enumerate(facts.code_lines, start=1):
            m = LOCK_TOKEN_RE.search(line)
            if m:
                out.append(Finding(
                    rel, idx, "lock-discipline",
                    f"'{m.group(0)}': {RULES['lock-discipline']}"))
        for idx, header in facts.includes:
            if header in LOCK_HEADERS:
                out.append(Finding(
                    rel, idx, "lock-discipline",
                    f"#include <{header}>: {RULES['lock-discipline']}"))

    # relaxed-atomic: everywhere outside shard_exec.
    if not in_allowlist(rel, RELAXED_ALLOW):
        for idx, line in enumerate(facts.code_lines, start=1):
            m = RELAXED_RE.search(line)
            if m:
                out.append(Finding(
                    rel, idx, "relaxed-atomic",
                    f"'{m.group(0).strip('(')}': {RULES['relaxed-atomic']}"))

    return out


def file_findings(facts: FileFacts, poly_names: set[str]) -> list[Finding]:
    rel = facts.rel
    code_lines = facts.code_lines
    findings: list[Finding] = list(facts.meta_findings)
    raw: list[Finding] = []

    for idx, line in enumerate(code_lines, start=1):
        for rule, pat, what in SIMPLE_LINE_RULES:
            if pat.search(line):
                raw.append(Finding(rel, idx, rule, f"{what}: {RULES[rule]}"))

    # raw-unit-double: everywhere except the units header itself.
    if canonical_path(rel) != RAW_UNIT_DOUBLE_EXEMPT:
        for idx, line in enumerate(code_lines, start=1):
            for m in RAW_UNIT_DOUBLE_RE.finditer(line):
                raw.append(Finding(
                    rel, idx, "raw-unit-double",
                    f"'{m.group(1)}': {RULES['raw-unit-double']}"))

    # unordered-iter: iteration sites over names declared unordered here.
    if facts.unordered_names:
        iter_pats = [
            re.compile(r"for\s*\([^;()]*?:\s*(\w+)\s*\)"),          # range-for
            re.compile(r"\b(\w+)\s*\.\s*c?r?begin\s*\(\s*\)"),      # .begin()
            re.compile(r"\bstd::erase_if\s*\(\s*(\w+)\b"),          # erase_if
        ]
        for idx, line in enumerate(code_lines, start=1):
            for pat in iter_pats:
                for m in pat.finditer(line):
                    if m.group(1) in facts.unordered_names:
                        raw.append(Finding(
                            rel, idx, "unordered-iter",
                            f"iterating '{m.group(1)}': {RULES['unordered-iter']}"))

    # Class-level rules.
    for cls in facts.classes:
        has_virtual = re.search(r"\bvirtual\b", cls.body)
        has_virtual_dtor = (
            re.search(r"\bvirtual\s+~", cls.body)
            or re.search(r"~\w+\s*\(\s*\)\s*(?:override|final)", cls.body))
        if has_virtual and not has_virtual_dtor and not cls.bases and not cls.is_final:
            raw.append(Finding(
                rel, cls.line, "virtual-dtor",
                f"class '{cls.name}': {RULES['virtual-dtor']}"))

    # slicing: by-value parameters of polymorphic types (project-wide pass).
    if poly_names:
        slice_pat = re.compile(
            r"[(,]\s*(?:const\s+)?(" + "|".join(map(re.escape, sorted(poly_names)))
            + r")\s+\w+\s*[,)=]")
        for idx, line in enumerate(code_lines, start=1):
            for m in slice_pat.finditer(line):
                raw.append(Finding(
                    rel, idx, "slicing",
                    f"'{m.group(1)}' passed by value: {RULES['slicing']}"))

    raw.extend(shard_safety_findings(facts))

    # Apply suppressions.
    sups = facts.suppressions
    for f in raw:
        sup = None
        for s in sups:
            if s.rule != f.rule:
                continue
            if s.file_level or s.line in (f.line, f.line - 1):
                sup = s
                break
        if sup is not None:
            sup.used = True
        else:
            findings.append(f)

    for s in sups:
        if not s.used:
            findings.append(Finding(
                rel, s.line, "unused-suppression",
                f"allow({s.rule}) suppressed nothing — remove it"))

    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root: str, paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
        else:
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("lint_fixtures", "deps_fixtures"))
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(dirpath, fn))
    return files


def lint_paths(root: str, paths: list[str]) -> list[Finding]:
    files = collect_files(root, paths)
    # Pass 1: per-file facts.
    all_facts = [collect_facts(path, os.path.relpath(path, root))
                 for path in files]
    # Pass 2: project-wide closures, then rule evaluation per file.
    all_classes = [c for facts in all_facts for c in facts.classes]
    poly = collect_polymorphic(all_classes)

    findings: list[Finding] = []
    for facts in all_facts:
        findings.extend(file_findings(facts, poly))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def github_annotation(f: Finding) -> str:
    msg = f.detail.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    return (f"::error file={f.path},line={f.line},"
            f"title=muzha-lint [{f.rule}]::{msg}")


def main(argv: list[str]) -> int:
    doc = __doc__ or ""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root (default: cwd)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--github", action="store_true",
                    help="also emit GitHub Actions ::error annotations")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories relative to --root (default: src)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            meta = " (meta)" if rule in META_RULES else ""
            print(f"{rule}{meta}: {desc}")
        return 0

    paths = args.paths or ["src"]
    findings = lint_paths(args.root, paths)
    for f in findings:
        print(f"{f.path}:{f.line}: error: [{f.rule}] {f.detail}")
        if args.github:
            print(github_annotation(f))
    if findings:
        print(f"muzha-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"muzha-lint: clean ({len(collect_files(args.root, paths))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
