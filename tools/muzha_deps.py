#!/usr/bin/env python3
"""muzha-deps: architecture-layering & include-graph analyzer.

The simulator stays reproducible because its layers compose in one strict
direction — sim at the bottom, scenario at the top, every arrow pointing
down. muzha-lint (tools/muzha_lint.py) defends determinism at the token
level; this tool defends the same property one level up, at the dependency
graph: it parses every header/source under the configured roots, resolves
quoted includes against the repo, and checks the resulting graph against the
committed layer manifest (tools/layers.toml — the canonical DAG plus the
explicit allowed edges between layers and each layer's private headers).

Like muzha-lint it is a two-pass analyzer built on the same lexer (comments,
string and raw-string literals stripped before any matching, so an
`#include` spelled inside a raw string or a comment is never an edge):

  pass 1 (per file)  lex, collect quoted includes (conditional includes
                     under any #if/#ifdef count — the graph is the union
                     over configurations), exported symbols (class/struct
                     definitions, enums, using-aliases, typedefs, macros,
                     namespace-scope functions and constants), forward
                     declarations, and muzha-deps suppression comments.
  pass 2 (project)   resolve every include against the include roots
                     (including-file directory first, then each manifest
                     root — quoted-include semantics), build the file-level
                     graph, then evaluate the rules below.

Rules:

  layer-violation        an include edge between layers that the manifest
                         does not allow (a sim/ file including tcp/, two
                         sibling layers cross-including, ...). Same-layer
                         edges are always allowed.
  include-cycle          the include graph must be acyclic; every file in a
                         strongly connected component is reported at the
                         include line that closes the cycle.
  missing-direct-include a file that names an exported type/alias/macro
                         (Scheduler, PacketPtr, Meters, MUZHA_DCHECK, ...)
                         must include the defining header DIRECTLY, not
                         lean on a transitive include that a refactor of
                         the intermediate header silently removes. Only
                         symbols with exactly one project-wide definition
                         participate (ambiguous names are skipped), and a
                         forward declaration of the symbol exempts the file.
  unused-include         a quoted project include none of whose exported
                         symbols (functions and constants included) appears
                         in the including file's code. A .cc's primary
                         header (src/x/y.cc -> x/y.h) is always exempt.
  private-header-escape  headers a layer marks `private` in the manifest
                         are implementation details; including one from
                         outside the owning layer is a finding even when
                         the layer edge itself is allowed.

Suppressions mirror muzha-lint, with the tool's own tag (each must carry a
one-line justification after the colon):

  // muzha-deps: allow(rule-id): why this occurrence is safe
  // muzha-deps: allow-file(rule-id): why this whole file is exempt

A line suppression covers its own line and the next. A suppression with no
justification, an unknown rule id, or one that suppresses nothing is itself
reported (bad-suppression / unknown-rule / unused-suppression).

--dot FILE additionally emits the layer-condensed include graph as Graphviz
(one node per layer with its file count, one edge per allowed dependency
with its include count, violations in red) so reviewers can see the
architecture each PR.

Every finding fails the run, meta findings included. Exit status: 0 when
clean, 1 on any finding, 2 on usage/manifest error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import tomllib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from muzha_lint import (  # noqa: E402
    CXX_EXTENSIONS,
    Finding,
    Suppression,
    split_code_and_comments,
)

DEFAULT_MANIFEST = os.path.join("tools", "layers.toml")

RULES = {
    "layer-violation": "include edge not allowed by the layer manifest "
                       "(tools/layers.toml): layers compose strictly downward",
    "include-cycle": "include cycle: the include graph must stay a DAG",
    "missing-direct-include": "symbol used but its defining header is only "
                              "reached transitively: include it directly",
    "unused-include": "no symbol exported by this header appears in the file: "
                      "drop the include",
    "private-header-escape": "header is private to its layer: include the "
                             "layer's public interface instead",
    # Meta rules (not suppressible).
    "bad-suppression": "suppression without a justification",
    "unknown-rule": "suppression names an unknown rule id",
    "unused-suppression": "suppression that suppressed nothing",
}

META_RULES = {"bad-suppression", "unknown-rule", "unused-suppression"}

SUPPRESS_RE = re.compile(
    r"muzha-deps:\s*allow(?P<file>-file)?\(\s*(?P<rule>[\w-]+)\s*\)"
    r"(?P<colon>\s*:\s*(?P<just>.*\S)?)?"
)


class ManifestError(Exception):
    """The layer manifest is missing, malformed, or not a DAG."""


# ---------------------------------------------------------------------------
# Layer manifest
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Manifest:
    roots: list[str]                     # include roots, repo-relative
    order: list[str]                     # layers, bottom-most first
    edges: dict[str, set[str]]           # layer -> layers it may include
    private: dict[str, str]              # private header (root-rel) -> layer


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "rb") as f:
            data = tomllib.load(f)
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}")
    except tomllib.TOMLDecodeError as e:
        raise ManifestError(f"{path}: {e}")

    graph = data.get("graph", {})
    roots = list(graph.get("roots", ["src"]))
    layers = data.get("layers", {})
    order = list(layers.get("order", []))
    if not order:
        raise ManifestError(f"{path}: [layers].order must list the layers")

    raw_edges = data.get("edges", {})
    edges: dict[str, set[str]] = {}
    for layer in order:
        allowed = raw_edges.get(layer, [])
        for dep in allowed:
            if dep not in order:
                raise ManifestError(
                    f"{path}: [edges].{layer} names unknown layer '{dep}'")
        edges[layer] = set(allowed)
    for layer in raw_edges:
        if layer not in order:
            raise ManifestError(
                f"{path}: [edges] names unknown layer '{layer}'")

    private: dict[str, str] = {}
    for layer, headers in data.get("private", {}).items():
        if layer not in order:
            raise ManifestError(
                f"{path}: [private] names unknown layer '{layer}'")
        for header in headers:
            if not header.startswith(layer + "/"):
                raise ManifestError(
                    f"{path}: private header '{header}' is not under "
                    f"layer '{layer}'")
            private[header] = layer

    _check_dag(path, order, edges)
    return Manifest(roots=roots, order=order, edges=edges, private=private)


def _check_dag(path: str, order: list[str], edges: dict[str, set[str]]) -> None:
    """The allowed-edge relation itself must be acyclic and point downward."""
    rank = {layer: i for i, layer in enumerate(order)}
    for layer, deps in edges.items():
        for dep in deps:
            if rank[dep] >= rank[layer]:
                raise ManifestError(
                    f"{path}: [edges].{layer} -> {dep} points upward or "
                    f"sideways in [layers].order — the manifest must be a DAG")


# ---------------------------------------------------------------------------
# Pass 1: per-file facts
# ---------------------------------------------------------------------------

# An include-shaped line in LEXED code (string contents blanked, so the path
# is recovered from the raw line). Lines inside comments or raw strings do
# not survive lexing and are never edges.
INCLUDE_SHAPE_RE = re.compile(r'^\s*#\s*include\s*"')
INCLUDE_PATH_RE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"')

GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)")
FWD_DECL_RE = re.compile(r"\b(?:class|struct)\s+(\w+)\s*;")
TYPE_DEF_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)\s*(?:<[^;{}]*>\s*)?(?:final\s*)?[:{]")
ENUM_DEF_RE = re.compile(r"\benum\s+(?:class\s+|struct\s+)?(\w+)\s*[:{]")
USING_ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=")
TYPEDEF_RE = re.compile(r"\btypedef\s+[^;]*?\b(\w+)\s*;")
WORD_RE = re.compile(r"[A-Za-z_]\w*")

CXX_KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "consteval", "constexpr", "constinit", "continue",
    "decltype", "default", "delete", "do", "double", "else", "enum",
    "explicit", "extern", "final", "float", "for", "friend", "goto", "if",
    "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "operator", "override", "private", "protected", "public", "requires",
    "return", "short", "signed", "sizeof", "static", "static_assert",
    "static_cast", "struct", "switch", "template", "this", "throw", "true",
    "false", "try", "typedef", "typename", "union", "unsigned", "using",
    "virtual", "void", "volatile", "while", "std", "size_t", "uint8_t",
    "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t",
    "int64_t", "uintptr_t", "assert", "defined",
}


@dataclasses.dataclass
class DepFacts:
    rel: str                          # repo-relative path
    code_lines: list[str]
    includes: list[tuple[int, str]]   # (line, include string as written)
    strong_exports: set[str]          # types/aliases/macros this file defines
    weak_exports: set[str]            # strong + namespace-scope funcs/consts
    fwd_decls: set[str]               # names this file forward-declares
    used_tokens: dict[str, int]       # token -> first line it appears on
    suppressions: list[Suppression]
    meta_findings: list[Finding]


def parse_dep_suppressions(
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


def _namespace_transparent_depths(code: str) -> list[int]:
    """Brace depth per character, with namespace braces transparent.

    `namespace x {` and `extern "" {` do not open a scope for export
    purposes: a free function inside a namespace is still namespace-scope.
    Class/enum/function braces all count.
    """
    depths: list[int] = []
    depth = 0
    transparent: list[bool] = []  # stack, one entry per open brace
    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "{":
            head = code[max(0, i - 96):i]
            is_ns = re.search(r"\b(?:namespace(?:\s+[\w:]+)?|extern\s*\"\s*\")"
                              r"\s*$", head) is not None
            transparent.append(is_ns)
            if not is_ns:
                depth += 1
            depths.append(depth)
        elif c == "}":
            depths.append(depth)
            if transparent:
                if not transparent.pop():
                    depth = max(0, depth - 1)
        else:
            depths.append(depth)
        i += 1
    return depths


FUNC_DECL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CONST_DECL_RE = re.compile(
    r"\b(?:constexpr|const)\b[^;=(]*?\b(k[A-Z]\w*)\s*[={]")


def collect_exports(code_lines: list[str]) -> tuple[set[str], set[str], set[str]]:
    """Returns (strong, weak, fwd_decls) export sets for one file.

    strong: full type/enum definitions, using-aliases, typedefs, and macros
    (the include-guard macro excluded) — the set missing-direct-include
    keys on. weak: strong plus namespace-scope function names and kConstant
    definitions — the more lenient set unused-include keys on.
    """
    code = "\n".join(code_lines)
    strong: set[str] = set()
    fwd: set[str] = set()

    for m in TYPE_DEF_RE.finditer(code):
        strong.add(m.group(1))
    for m in ENUM_DEF_RE.finditer(code):
        strong.add(m.group(1))
    for m in USING_ALIAS_RE.finditer(code):
        strong.add(m.group(1))
    for m in TYPEDEF_RE.finditer(code):
        strong.add(m.group(1))
    for m in FWD_DECL_RE.finditer(code):
        if m.group(1) not in strong:
            fwd.add(m.group(1))

    # Macros, minus the include guard (first #ifndef X / #define X pair).
    guard: str | None = None
    for line in code_lines:
        s = line.strip()
        if not s:
            continue
        gm = GUARD_RE.match(s)
        if gm:
            guard = gm.group(1)
        break
    for line in code_lines:
        dm = DEFINE_RE.match(line)
        if dm and dm.group(1) != guard:
            strong.add(dm.group(1))

    # Namespace-scope declarations: scan at depth 0 with namespace braces
    # transparent, so inline free functions and kConstants in headers
    # register while member functions and call sites inside bodies do not.
    # kConstants are strong (distinctive names, so missing-direct-include
    # can key on them); function names are weak-only (too collision-prone
    # for the direct-include heuristic, still good unused-include evidence).
    depths = _namespace_transparent_depths(code)
    for m in CONST_DECL_RE.finditer(code):
        if depths[m.start(1)] == 0:
            strong.add(m.group(1))
    weak = set(strong)
    for m in FUNC_DECL_RE.finditer(code):
        if depths[m.start(1)] == 0 and m.group(1) not in CXX_KEYWORDS:
            weak.add(m.group(1))
    return strong, weak, fwd


def collect_dep_facts(path: str, rel: str) -> DepFacts:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    code_lines, comment_lines = split_code_and_comments(text)
    raw_lines = text.split("\n")

    includes: list[tuple[int, str]] = []
    for idx, line in enumerate(code_lines, start=1):
        if not INCLUDE_SHAPE_RE.match(line):
            continue
        # The lexer blanks string contents; recover the path from the raw
        # line (same index — the lexer preserves line structure).
        if idx <= len(raw_lines):
            m = INCLUDE_PATH_RE.match(raw_lines[idx - 1])
            if m:
                includes.append((idx, m.group("path")))

    strong, weak, fwd = collect_exports(code_lines)

    used: dict[str, int] = {}
    for idx, line in enumerate(code_lines, start=1):
        if INCLUDE_SHAPE_RE.match(line):
            continue  # the include line itself is not a use
        for m in WORD_RE.finditer(line):
            used.setdefault(m.group(0), idx)

    sups, meta = parse_dep_suppressions(comment_lines, rel)
    return DepFacts(
        rel=rel, code_lines=code_lines, includes=includes,
        strong_exports=strong, weak_exports=weak, fwd_decls=fwd,
        used_tokens=used, suppressions=sups, meta_findings=meta)


# ---------------------------------------------------------------------------
# Pass 2: resolution, graph, rules
# ---------------------------------------------------------------------------

def collect_dep_files(root: str, roots: list[str]) -> list[str]:
    files: list[str] = []
    for r in roots:
        base = os.path.join(root, r)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, fn))
    return files


@dataclasses.dataclass
class Project:
    root: str
    manifest: Manifest
    facts: dict[str, DepFacts]          # repo-relative path -> facts
    canon: dict[str, str]               # repo-relative -> root-relative
    layer: dict[str, str | None]        # repo-relative -> layer name
    edges: dict[str, list[tuple[int, str, str]]]
    # file -> [(line, include string, resolved repo-relative path)]


def canonicalize(rel: str, roots: list[str]) -> str:
    """Root-relative path (e.g. src/phy/channel.h -> phy/channel.h)."""
    rel = rel.replace(os.sep, "/")
    for r in roots:
        prefix = r.rstrip("/") + "/"
        if rel.startswith(prefix):
            return rel[len(prefix):]
    return rel


def layer_of(rel: str, manifest: Manifest) -> str | None:
    canon = canonicalize(rel, manifest.roots)
    head = canon.split("/", 1)[0]
    return head if head in manifest.order else None


def resolve_include(root: str, including_rel: str, inc: str,
                    roots: list[str], known: set[str]) -> str | None:
    """Quoted-include resolution: including-file directory first, then each
    manifest root. Returns the repo-relative path of the target or None for
    non-project includes."""
    cand = os.path.normpath(
        os.path.join(os.path.dirname(including_rel), inc)).replace(os.sep, "/")
    if cand in known:
        return cand
    for r in roots:
        cand = os.path.normpath(os.path.join(r, inc)).replace(os.sep, "/")
        if cand in known:
            return cand
    return None


def build_project(root: str, manifest: Manifest,
                  files: list[str] | None = None) -> Project:
    paths = files if files is not None \
        else collect_dep_files(root, manifest.roots)
    facts: dict[str, DepFacts] = {}
    for path in paths:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        facts[rel] = collect_dep_facts(path, rel)
    known = set(facts)
    canon = {rel: canonicalize(rel, manifest.roots) for rel in facts}
    layer = {rel: layer_of(rel, manifest) for rel in facts}
    edges: dict[str, list[tuple[int, str, str]]] = {}
    for rel, f in facts.items():
        resolved: list[tuple[int, str, str]] = []
        for line, inc in f.includes:
            target = resolve_include(root, rel, inc, manifest.roots, known)
            if target is not None:
                resolved.append((line, inc, target))
        edges[rel] = resolved
    return Project(root=root, manifest=manifest, facts=facts, canon=canon,
                   layer=layer, edges=edges)


def strongly_connected_components(
        graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan, iterative (the include graph can be deep)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for start in sorted(graph):
        if start in index:
            continue
        work: list[tuple[str, list[str], int]] = [
            (start, sorted(graph.get(start, set())), 0)]
        while work:
            node, succs, i = work.pop()
            if i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            while i < len(succs):
                succ = succs[i]
                i += 1
                if succ not in index:
                    work.append((node, succs, i))
                    work.append((succ, sorted(graph.get(succ, set())), 0))
                    recurse = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if recurse:
                continue
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(sorted(scc))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def primary_header(rel: str, canon: dict[str, str]) -> str | None:
    """src/x/y.cc -> the repo-relative path of x/y.h if it exists."""
    base, ext = os.path.splitext(rel)
    if ext not in (".cc", ".cpp", ".cxx"):
        return None
    for hext in (".h", ".hpp"):
        cand = base + hext
        if cand in canon:
            return cand
    return None


def evaluate(project: Project) -> list[Finding]:
    manifest = project.manifest
    raw: list[Finding] = []

    # --- layer-violation & private-header-escape (per edge) ----------------
    for rel, resolved in sorted(project.edges.items()):
        src_layer = project.layer[rel]
        for line, inc, target in resolved:
            dst_layer = project.layer[target]
            dst_canon = project.canon[target]
            if (src_layer is not None and dst_layer is not None
                    and src_layer != dst_layer
                    and dst_layer not in manifest.edges.get(src_layer, set())):
                raw.append(Finding(
                    rel, line, "layer-violation",
                    f"'{inc}': {src_layer}/ may not include {dst_layer}/ "
                    f"({RULES['layer-violation']})"))
            owner = manifest.private.get(dst_canon)
            if owner is not None and src_layer != owner:
                raw.append(Finding(
                    rel, line, "private-header-escape",
                    f"'{inc}' is private to {owner}/: "
                    f"{RULES['private-header-escape']}"))

    # --- include-cycle ------------------------------------------------------
    graph = {rel: {target for _, _, target in resolved}
             for rel, resolved in project.edges.items()}
    for scc in strongly_connected_components(graph):
        members = set(scc)
        is_cycle = len(scc) > 1 or (scc[0] in graph.get(scc[0], set()))
        if not is_cycle:
            continue
        cycle_desc = " -> ".join(project.canon[m] for m in scc)
        for rel in scc:
            for line, inc, target in project.edges[rel]:
                if target in members:
                    raw.append(Finding(
                        rel, line, "include-cycle",
                        f"'{inc}' participates in cycle [{cycle_desc}]: "
                        f"{RULES['include-cycle']}"))
                    break  # one finding per member file

    # --- missing-direct-include --------------------------------------------
    # Defining file per strong symbol, headers only, project-unique.
    defs: dict[str, list[str]] = {}
    for rel, f in project.facts.items():
        if not rel.endswith((".h", ".hpp")):
            continue
        for sym in f.strong_exports:
            defs.setdefault(sym, []).append(rel)
    unique_defs = {sym: rels[0] for sym, rels in defs.items()
                   if len(rels) == 1}

    for rel, f in sorted(project.facts.items()):
        direct = {target for _, _, target in project.edges[rel]}
        primary = primary_header(rel, project.canon)
        for sym, first_line in sorted(f.used_tokens.items()):
            definer = unique_defs.get(sym)
            if definer is None or definer == rel or definer == primary:
                continue
            if definer in direct:
                continue
            if sym in f.fwd_decls or sym in f.strong_exports:
                continue
            raw.append(Finding(
                rel, first_line, "missing-direct-include",
                f"'{sym}' is defined in {project.canon[definer]}: "
                f"{RULES['missing-direct-include']}"))

    # --- unused-include -----------------------------------------------------
    for rel, f in sorted(project.facts.items()):
        primary = primary_header(rel, project.canon)
        for line, inc, target in project.edges[rel]:
            if target == primary:
                continue
            exports = project.facts[target].weak_exports
            if not exports:
                continue  # nothing to key on; cannot judge
            if any(sym in f.used_tokens for sym in exports):
                continue
            raw.append(Finding(
                rel, line, "unused-include",
                f"'{inc}': {RULES['unused-include']}"))

    # --- suppressions -------------------------------------------------------
    findings: list[Finding] = []
    for rel, f in project.facts.items():
        findings.extend(f.meta_findings)
    for fnd in raw:
        sups = project.facts[fnd.path].suppressions
        hit = None
        for s in sups:
            if s.rule != fnd.rule:
                continue
            if s.file_level or s.line in (fnd.line, fnd.line - 1):
                hit = s
                break
        if hit is not None:
            hit.used = True
        else:
            findings.append(fnd)
    for rel, f in project.facts.items():
        for s in f.suppressions:
            if not s.used:
                findings.append(Finding(
                    rel, s.line, "unused-suppression",
                    f"allow({s.rule}) suppressed nothing — remove it"))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

# The quoted subject of a finding's detail (the include spelling of a
# layer violation).
SUBJECT_RE = re.compile(r"'([^']+)'")


def github_annotation(f: Finding) -> str:
    msg = f.detail.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    return (f"::error file={f.path},line={f.line},"
            f"title=muzha-deps [{f.rule}]::{msg}")


# ---------------------------------------------------------------------------
# Graphviz emission
# ---------------------------------------------------------------------------

def emit_dot(project: Project, findings: list[Finding]) -> str:
    manifest = project.manifest
    file_count: dict[str, int] = {layer: 0 for layer in manifest.order}
    edge_count: dict[tuple[str, str], int] = {}
    for rel, resolved in project.edges.items():
        src = project.layer[rel]
        if src is not None:
            file_count[src] = file_count.get(src, 0)
        for _, _, target in resolved:
            dst = project.layer[target]
            if src is None or dst is None or src == dst:
                continue
            edge_count[(src, dst)] = edge_count.get((src, dst), 0) + 1
    for rel in project.facts:
        lay = project.layer[rel]
        if lay is not None:
            file_count[lay] += 1

    violating = {(project.layer[f.path],
                  project.layer.get(_violation_target(project, f) or "", None))
                 for f in findings if f.rule == "layer-violation"}

    out = ["digraph muzha_layers {",
           '  rankdir="BT";',
           '  node [shape=box, style="rounded,filled", '
           'fillcolor="#eef4fb", fontname="Helvetica"];',
           '  edge [fontname="Helvetica", fontsize=10];',
           '  label="muzha architecture layers (arrows point at '
           'dependencies; red = manifest violation)";']
    for layer in manifest.order:
        out.append(f'  {layer} [label="{layer}/\\n'
                   f'{file_count.get(layer, 0)} files"];')
    for (src, dst), n in sorted(edge_count.items()):
        attrs = [f'label="{n}"']
        if (src, dst) in violating:
            attrs.append('color="#c0392b"')
            attrs.append('penwidth=2')
        out.append(f"  {src} -> {dst} [{', '.join(attrs)}];")
    out.append("}")
    return "\n".join(out) + "\n"


def _violation_target(project: Project, f: Finding) -> str | None:
    m = SUBJECT_RE.search(f.detail)
    if m is None:
        return None
    known = set(project.facts)
    return resolve_include(project.root, f.path, m.group(1),
                           project.manifest.roots, known)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def analyze(root: str, manifest_path: str,
            files: list[str] | None = None) -> tuple[Project, list[Finding]]:
    manifest = load_manifest(manifest_path)
    project = build_project(root, manifest, files)
    return project, evaluate(project)


def main(argv: list[str]) -> int:
    doc = __doc__ or ""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root (default: cwd)")
    ap.add_argument("--manifest", default=None,
                    help=f"layer manifest (default: {DEFAULT_MANIFEST})")
    ap.add_argument("--github", action="store_true",
                    help="also emit GitHub Actions ::error annotations")
    ap.add_argument("--dot", default=None, metavar="FILE",
                    help="write the layer-condensed include graph as Graphviz")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            meta = " (meta)" if rule in META_RULES else ""
            print(f"{rule}{meta}: {desc}")
        return 0

    manifest_path = args.manifest or os.path.join(args.root, DEFAULT_MANIFEST)
    try:
        project, findings = analyze(args.root, manifest_path)
    except ManifestError as e:
        print(f"muzha-deps: {e}", file=sys.stderr)
        return 2

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(emit_dot(project, findings))
        print(f"muzha-deps: include graph -> {args.dot}")

    for f in findings:
        print(f"{f.path}:{f.line}: error: [{f.rule}] {f.detail}")
        if args.github:
            print(github_annotation(f))
    if findings:
        print(f"muzha-deps: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"muzha-deps: clean — {len(project.facts)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
