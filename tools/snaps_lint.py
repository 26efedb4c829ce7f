#!/usr/bin/env python3
"""snaps_lint: repo-specific invariants clang-tidy cannot express.

Layer 3 of the static-analysis gate (docs/STATIC_ANALYSIS.md). Checks
the SNAPS source tree for project rules:

  naked-new       `new` / `delete` expressions outside src/util/ — the
                  library manages memory through std::unique_ptr /
                  std::shared_ptr factories.
  include-guard   Header guards must match the file path:
                  src/core/similarity.h -> SNAPS_CORE_SIMILARITY_H_.
  stdout          No std::cout / std::cerr / bare printf in src/
                  libraries; output goes through the metrics / result
                  formatting surfaces (examples and tools may print).
  raw-thread      No std::thread / std::jthread outside
                  src/util/thread_pool — concurrency goes through the
                  pool so deadlines, faults, and shutdown stay uniform.
  raw-pool        No direct ThreadPool use in src/ outside src/util/ —
                  ExecutionContext is the only sanctioned pool owner,
                  so an offline run spins up exactly one pool and the
                  determinism contract (docs/PARALLELISM.md) holds.
  banned-fn       strcpy / strcat / sprintf / gets / rand / srand are
                  never acceptable (bounds-unsafe or hidden global
                  state; use snaps::Rng and std::snprintf).
  naked-sleep     No std::this_thread::sleep_for / sleep_until /
                  usleep / nanosleep and no empty-body spin loops
                  outside src/util/ — waiting policy lives in
                  util/retry.h (RetryPolicy backoff) and the
                  deterministic FaultInjection delays, so tests and
                  serving code never hand-roll timing.
  discard         Guards the class-level [[nodiscard]] on Status and
                  Result in src/util/status.h (the compiler then
                  enforces "no discarded fallible result" everywhere),
                  and requires a justification for explicit `(void)`
                  discards of any call result in src/.
  concrete-linkage
                  src/ code outside src/blocking/ and src/baselines/
                  must not name concrete Blocker / Clusterer classes
                  (LshBlocker, SnipBlocker, GraphClusterer, ...) or
                  include their headers — linkage techniques are
                  reached through the registries (CreateBlocker /
                  CreateClusterer), so every caller stays generic and
                  the ablation matrix can swap techniques by name
                  (docs/ABLATIONS.md). Tests, benches and examples may
                  name them.

A finding is suppressed by appending, on the same line:

    // NOLINT(snaps-<rule>): <justification>

The justification is mandatory; a bare NOLINT is itself a finding.

Usage:
  snaps_lint.py --root <repo>    lint the tree rooted at <repo>
  snaps_lint.py --self-test      run against tools/lint_fixtures
Exit status is 0 when clean, 1 on findings (or self-test mismatch).
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".h", ".cpp")
SKIP_DIRS = {".git", "build", "lint_fixtures", "__pycache__"}

NOLINT_RE = re.compile(r"//\s*NOLINT\(snaps-([a-z-]+)\)(:?)\s*(\S?)")

# A `new`/`delete` expression; excludes placement-new-free code like
# `new_person` and comments handled by the caller.
NEW_DELETE_RE = re.compile(r"(?<![\w.])(new|delete(\s*\[\])?)\s+[A-Za-z_(:<]")
STDOUT_RE = re.compile(r"std::cout|std::cerr|(?<!\w)(?:std::)?printf\s*\(")
# Owning/spawning uses only: `std::thread t(...)`, `vector<std::thread>`.
# Static member access (hardware_concurrency) and references (join
# loops) do not create threads and stay silent.
THREAD_RE = re.compile(r"std::j?thread\b(?!::)(?!\s*&)")
# Any mention of the ThreadPool type in code (declaration, member,
# pool construction) — ExecutionContext wraps it for everyone else.
# The include directive is matched against the raw line because
# strip_noncode blanks string literals.
POOL_RE = re.compile(r"\bThreadPool\b")
POOL_INCLUDE_RE = re.compile(r'#\s*include\s*"util/thread_pool\.h"')
BANNED_FN_RE = re.compile(
    r"(?<![\w:.])(?:std::)?(strcpy|strcat|sprintf|gets|rand|srand)\s*\(")
# Hand-rolled waiting: raw sleeps and single-line empty-body spin
# loops. Waiting belongs in src/util/ (RetryPolicy backoff,
# FaultInjection delays); everywhere else it hides timing assumptions
# that flake under sanitizers.
SLEEP_RE = re.compile(
    r"std::this_thread::sleep_(for|until)\b"
    r"|(?<![\w:.])(?:u|nano)?sleep\s*\(")
# The condition allows one level of nested parens (function calls);
# the body must be empty — `while (cond) DoWork();` is a normal loop.
BUSY_WAIT_RE = re.compile(
    r"^\s*while\s*\((?:[^()]|\([^()]*\))*\)\s*(\{\s*\}|;)\s*$")
VOID_DISCARD_RE = re.compile(r"\(void\)\s*[A-Za-z_][\w.:]*(->\w+)*\s*\(")
# Concrete linkage techniques: registry-only outside their home dirs.
CONCRETE_LINKAGE_RE = re.compile(
    r"\b(LshBlocker|SnipBlocker|GraphClusterer|DepGraphClusterer"
    r"|HierarchicalClusterer|RelClusterBaseline|AttrSimBaseline)\b")
CONCRETE_LINKAGE_INCLUDE_RE = re.compile(
    r'#\s*include\s*"(?:blocking/(?:lsh|snip)_blocker'
    r"|baselines/(?:graph_clusterer|dep_graph|hierarchical_clusterer"
    r'|rel_cluster|attr_sim))\.h"')
GUARD_RE = re.compile(r"^#ifndef\s+(\w+)\s*$")

STRING_OR_CHAR_RE = re.compile(r'"(\\.|[^"\\])*"|' + r"'(\\.|[^'\\])*'")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [snaps-{self.rule}] {self.message}"


def strip_noncode(line):
    """Removes string/char literals and // comments so patterns only
    match real code. Block comments are handled line-by-line by the
    caller."""
    line = STRING_OR_CHAR_RE.sub('""', line)
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def suppression(line, rule):
    """Returns 'ok', 'missing-justification', or None."""
    for m in NOLINT_RE.finditer(line):
        if m.group(1) != rule:
            continue
        return "ok" if (m.group(2) == ":" and m.group(3)) else "bare"
    return None


def relpath(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def expected_guard(rel):
    """src/core/similarity.h -> SNAPS_CORE_SIMILARITY_H_ (the src/
    prefix is dropped; other top-level dirs such as bench/ are kept)."""
    parts = rel.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.h$", "", stem)
    return "SNAPS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_file(path, rel, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()

    in_src = rel.startswith("src/")
    in_util = rel.startswith("src/util/")
    is_thread_pool = rel.startswith("src/util/thread_pool")
    in_linkage_home = (rel.startswith("src/blocking/") or
                       rel.startswith("src/baselines/"))

    def report(lineno, raw_line, rule, message):
        sup = suppression(raw_line, rule)
        if sup == "ok":
            return
        if sup == "bare":
            message += " (NOLINT without justification)"
        findings.append(Finding(rel, lineno, rule, message))

    in_block_comment = False
    for i, raw in enumerate(lines, start=1):
        code = raw
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        start = code.find("/*")
        if start >= 0:
            end = code.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                code = code[:start]
            else:
                code = code[:start] + code[end + 2:]
        code = strip_noncode(code)
        if not code.strip():
            continue

        if in_src and not in_util and NEW_DELETE_RE.search(code):
            report(i, raw, "naked-new",
                   "naked new/delete outside src/util/ — use a smart "
                   "pointer factory")
        if in_src and STDOUT_RE.search(code):
            report(i, raw, "stdout",
                   "direct stdout/stderr output in a src/ library — "
                   "route through the metrics/result formatting surface")
        if not is_thread_pool and THREAD_RE.search(code):
            report(i, raw, "raw-thread",
                   "raw std::thread outside src/util/thread_pool — "
                   "use snaps::ThreadPool")
        if (in_src and not in_util and
                (POOL_RE.search(code) or POOL_INCLUDE_RE.search(raw))):
            report(i, raw, "raw-pool",
                   "direct ThreadPool use outside src/util/ — thread "
                   "work through an ExecutionContext")
        m = BANNED_FN_RE.search(code)
        if m:
            report(i, raw, "banned-fn",
                   f"banned function {m.group(1)}() — bounds-unsafe or "
                   "hidden global state")
        if (not in_util and
                (SLEEP_RE.search(code) or BUSY_WAIT_RE.match(code))):
            report(i, raw, "naked-sleep",
                   "raw sleep / busy-wait outside src/util/ — wait "
                   "through RetryPolicy backoff or a FaultInjection "
                   "delay instead of hand-rolled timing")
        if in_src and VOID_DISCARD_RE.search(code):
            report(i, raw, "discard",
                   "(void)-discard of a call result in src/ — handle "
                   "the result or justify the discard")
        if (in_src and not in_linkage_home and
                (CONCRETE_LINKAGE_RE.search(code) or
                 CONCRETE_LINKAGE_INCLUDE_RE.search(raw))):
            report(i, raw, "concrete-linkage",
                   "concrete blocker/clusterer class named outside "
                   "src/blocking//src/baselines/ — go through the "
                   "CreateBlocker/CreateClusterer registries")

    if rel.endswith(".h"):
        guard = None
        for raw in lines:
            m = GUARD_RE.match(raw)
            if m:
                guard = m.group(1)
                break
        want = expected_guard(rel)
        if guard != want:
            findings.append(Finding(
                rel, 1, "include-guard",
                f"include guard {guard or '(none)'} does not match file "
                f"path (expected {want})"))


def check_status_header(root, findings):
    """The class-level [[nodiscard]] on Status/Result is what makes
    every fallible API discard-checked by the compiler; losing it would
    silently disable the rule tree-wide."""
    rel = "src/util/status.h"
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for pattern, what in [
        (r"class\s+\[\[nodiscard\]\]\s+Status\b", "class Status"),
        (r"class\s+\[\[nodiscard\]\]\s+Result\b", "template class Result"),
        (r"class\s+\[\[nodiscard\]\]\s+Result<void>", "class Result<void>"),
    ]:
        if not re.search(pattern, text):
            findings.append(Finding(
                rel, 1, "discard",
                f"{what} must be declared [[nodiscard]] so discarded "
                "fallible results fail the -Werror build"))


def lint_tree(root, subdirs=("src", "tests", "bench", "examples", "tools")):
    findings = []
    for sub in subdirs:
        top = os.path.join(root, sub)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in sorted(dirnames) if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                check_file(path, relpath(path, root), findings)
    check_status_header(root, findings)
    return findings


# ---------------------------------------------------------------- self-test

EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z-]+)")


def self_test(fixtures_root):
    """`good/` fixtures must be clean; every `bad/` fixture must raise
    exactly the rules named by its `// expect-lint: <rule>` comments
    (and no others)."""
    ok = True

    good = os.path.join(fixtures_root, "good")
    good_findings = lint_tree(good)
    for f in good_findings:
        print(f"self-test: unexpected finding in good fixture: {f}")
    ok = ok and not good_findings

    bad = os.path.join(fixtures_root, "bad")
    for dirpath, _, filenames in os.walk(bad):
        for name in sorted(filenames):
            if not name.endswith(CXX_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = relpath(path, bad)
            with open(path, encoding="utf-8") as f:
                expected = set(EXPECT_RE.findall(f.read()))
            findings = []
            check_file(path, rel, findings)
            got = {f.rule for f in findings}
            if got != expected:
                ok = False
                print(f"self-test: {rel}: expected rules "
                      f"{sorted(expected)}, got {sorted(got)}")
    status_findings = []
    check_status_header(os.path.join(fixtures_root, "bad_status"),
                        status_findings)
    if {f.rule for f in status_findings} != {"discard"}:
        ok = False
        print("self-test: bad_status fixture did not raise snaps-discard")

    print("self-test " + ("PASSED" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture-based self-test")
    args = parser.parse_args()

    if args.self_test:
        fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "lint_fixtures")
        return 0 if self_test(fixtures) else 1

    root = args.root or os.getcwd()
    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"snaps_lint: {len(findings)} finding(s)")
        return 1
    print("snaps_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
