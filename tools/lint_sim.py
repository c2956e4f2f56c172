#!/usr/bin/env python3
"""Simulator-specific source lint: repo rules clang-tidy cannot express.

Run over one or more source roots (default: src/ next to this script):

    python3 tools/lint_sim.py src

Rules (R1-R10):

  R1 fork-outside-executor   `fork(` may appear only in the process-pool
                             executor (src/sim/executor.cc). Everything
                             else must submit requests through
                             ResidentPool so crash isolation, reaping and
                             frame framing stay in one place.
  R2 no-const-cast           `const_cast` is banned. Restructure the
                             owner (see EventQueue's vector heap) instead
                             of stealing mutability.
  R3 naked-new-delete        `new`/`delete` expressions are banned
                             outside the allocation layer: simulator
                             state is RAII-owned (make_unique/vector).
                             `= delete;` declarations are fine.
  R4 unchecked-memcpy        every `memcpy(` must be preceded (within
                             {MEMCPY_WINDOW} code lines, same line
                             included) by a visible size check: a
                             DUET_ASSERT/DUET_DCHECK/simAssert, a
                             checkAccess() helper, a std::min clamp, a
                             static_assert, or an `if` on a
                             size/len/chunk/byte/capacity expression.
                             Append `// lint: checked-memcpy(<why>)` only
                             when the bound is established further away.
  R5 no-unbounded-cstring    strcpy/strcat/sprintf/vsprintf/gets are
                             banned; use bounded std::string/snprintf.
  R6 header-guard            every .hh must open with an include guard
                             named `DUET_...` (pragma once is not used in
                             this codebase).
  R7 no-std-function-hot     `std::function`/`<functional>` are banned in
                             the hot-path headers (src/sim/event_queue.hh,
                             src/sim/inline_function.hh, src/cache/*.hh,
                             src/noc/*.hh, src/system/*.hh): per-event
                             type erasure there must go through
                             InlineFunction (or the non-owning
                             FunctionRef) so callbacks stay
                             allocation-free. Cold configuration hooks in
                             other headers may still use std::function.
  R8 unguarded-trace-hot     in the hot-path headers (the R7 set plus
                             src/fpga/async_fifo.hh), calling through
                             `obs::trace()`/`obs::prof()` (or the raw
                             `g_trace`/`g_prof` pointers) without first
                             binding the pointer behind a null check is
                             banned. Emission sites must follow the
                             `if (TraceSink *ts = obs::trace())` idiom so
                             the disabled-observability hot path stays a
                             single predictable branch — and so a null
                             sink can never be dereferenced.
  R9 no-future               `Future<` is banned in every file under
                             src/: the simulator has one coroutine
                             rendezvous primitive, the intrusive
                             awaitables (sim/task.hh PendingValue/
                             PendingVoid), whose pending state lives in
                             the awaiting frame. A refcounted future
                             type costs a heap block per operation and
                             must not come back as a second one.
  R10 no-node-container-cache
                             std::deque, std::list, std::map, std::set,
                             std::unordered_map and std::unordered_set
                             (and their headers) are banned under
                             src/cache/. Coherence state is created per
                             line and per miss, and node containers
                             allocate on construction or insert: a
                             default-constructed deque per directory line
                             once held most of a spilling run's memory.
                             Use FlatTable/LineTable (sim/flat_table.hh,
                             cache/coherence.hh), fixed arrays or vectors
                             that keep their capacity.

Run `python3 tools/lint_sim.py --selftest` to exercise every rule against
built-in positive/negative fixtures (wired into ctest as lint_selftest).

Comments and string/char literals are stripped before matching, so prose
like "a new coroutine" never trips R3. Raw string literals are not
handled (none exist in this repo; add handling before introducing one).

Exit status: 0 = clean, 1 = findings (one `file:line: rule: message` per
line), 2 = usage error.
"""

import re
import sys
from pathlib import Path

MEMCPY_WINDOW = 8

# Files allowed to fork()/new: the resident-worker executor owns process
# lifecycles (R1); InlineFunction and OneShotFunction construct captures
# in their inline buffers with placement new (R3). Everything else stays
# RAII-only and allocates *through* these files.
FORK_ALLOWLIST = {"src/sim/executor.cc"}
NEW_ALLOWLIST = {"src/sim/inline_function.hh"}

# Hot-path headers where std::function (and <functional>) are banned:
# these types sit on the per-event schedule/dispatch path and must use
# InlineFunction's inline storage (or a non-owning FunctionRef) instead
# (R7). src/noc and src/system joined the set when the express path and
# warm-start put Mesh and System on the per-event dispatch path.
HOT_HEADERS_RE = re.compile(
    r"^(src/sim/event_queue\.hh|src/sim/inline_function\.hh|"
    r"src/sim/task\.hh|"
    r"src/cache/[^/]+\.hh|src/noc/[^/]+\.hh|src/system/[^/]+\.hh)$"
)

RE_FORK = re.compile(r"\bfork\s*\(")
RE_CONST_CAST = re.compile(r"\bconst_cast\b")
RE_NEW = re.compile(r"\bnew\b")
RE_DELETE = re.compile(r"\bdelete\s*(\[\s*\]\s*)?[A-Za-z_:(*]")
RE_MEMCPY = re.compile(r"\bmemcpy\s*\(")
RE_CSTRING = re.compile(r"\b(strcpy|strcat|sprintf|vsprintf|gets)\s*\(")
RE_MEMCPY_OK = re.compile(
    r"DUET_ASSERT|DUET_DCHECK|simAssert|checkAccess\s*\(|std::min|"
    r"static_assert|if\s*\(.*(size|len|chunk|byte|Byte|capacity|sizeof)"
)
RE_MEMCPY_ESCAPE = re.compile(r"lint:\s*checked-memcpy")
RE_GUARD = re.compile(r"^\s*#\s*ifndef\s+DUET_\w+")
RE_STD_FUNCTION = re.compile(r"std::function\b|#\s*include\s*<functional>")
# R8: dereferencing the observability switchboard without binding it
# behind a null check first. `obs::trace()->...` compiles but crashes
# when no sink is installed and puts an unguarded virtual-width call on
# the per-event path; the bound `if (TraceSink *ts = obs::trace())`
# idiom never matches this pattern.
RE_TRACE_DEREF = re.compile(
    r"(obs::trace\s*\(\s*\)|obs::prof\s*\(\s*\)|\bg_trace\b|\bg_prof\b)"
    r"\s*->")
# The R8 file set: the R7 hot headers plus the CDC FIFO header, which
# sits on the cross-domain per-flit path but lives in src/fpga/.
TRACE_HOT_RE = re.compile(
    HOT_HEADERS_RE.pattern[:-2] + r"|src/fpga/async_fifo\.hh)$"
)
# R9: the whole simulator tree uses the intrusive awaitables; a Future
# type anywhere under src/ would be a second rendezvous primitive.
RE_FUTURE = re.compile(r"\bFuture\s*<")
FUTURE_RE = re.compile(r"^src/")
# R10: node-based standard containers under src/cache/, by name or by
# header. `std::set_union` and friends are not containers: the name must
# end at a word boundary.
NODE_CONTAINERS = r"(deque|list|map|set|unordered_map|unordered_set)"
RE_NODE_CONTAINER = re.compile(
    r"\bstd::" + NODE_CONTAINERS + r"\b|#\s*include\s*<" + NODE_CONTAINERS +
    r">")
NODE_CONTAINER_RE = re.compile(r"^src/cache/")


def strip_code(text):
    """Blank out comments and string/char literals, preserving line
    structure, and return (code_lines, comment_lines)."""
    code = []
    comments = []
    cur_code = []
    cur_comment = []
    state = "code"  # code | line_comment | block_comment | string | char
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(ch)
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                cur_code.append(quote)
                state = "code"
            i += 1
        elif state == "line_comment":
            cur_comment.append(ch)
            i += 1
        else:  # block_comment
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            cur_comment.append(ch)
            i += 1
    if cur_code or cur_comment:
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
    return code, comments


def lint_file(path, rel, findings):
    text = path.read_text(encoding="utf-8")
    code_lines, comment_lines = strip_code(text)
    raw_lines = text.splitlines()

    def report(lineno, rule, msg):
        findings.append(f"{rel}:{lineno}: {rule}: {msg}")

    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        if RE_FORK.search(line) and rel not in FORK_ALLOWLIST:
            report(lineno, "fork-outside-executor",
                   "fork() is the executor's job; submit through "
                   "ResidentPool instead")
        if RE_CONST_CAST.search(line):
            report(lineno, "no-const-cast",
                   "const_cast is banned; restructure ownership instead")
        if rel not in NEW_ALLOWLIST:
            if RE_NEW.search(line):
                report(lineno, "naked-new-delete",
                       "naked new is banned; use make_unique/containers")
            if RE_DELETE.search(line):
                report(lineno, "naked-new-delete",
                       "naked delete is banned; use RAII ownership")
        if RE_CSTRING.search(line):
            report(lineno, "no-unbounded-cstring",
                   "unbounded C string call; use std::string/snprintf")
        if HOT_HEADERS_RE.match(rel) and RE_STD_FUNCTION.search(line):
            report(lineno, "no-std-function-hot",
                   "std::function is banned in hot-path headers; use "
                   "InlineFunction (sim/inline_function.hh)")
        if TRACE_HOT_RE.match(rel) and RE_TRACE_DEREF.search(line):
            report(lineno, "unguarded-trace-hot",
                   "unguarded trace/prof dereference in a hot header; "
                   "bind it first: if (TraceSink *ts = obs::trace())")
        if FUTURE_RE.match(rel) and RE_FUTURE.search(line):
            report(lineno, "no-future",
                   "Future<> is banned under src/; use the intrusive "
                   "awaitables (sim/task.hh PendingValue/PendingVoid)")
        if NODE_CONTAINER_RE.match(rel) and RE_NODE_CONTAINER.search(line):
            report(lineno, "no-node-container-cache",
                   "node-based container under src/cache/; use "
                   "FlatTable/LineTable, a fixed array or a vector")
        if RE_MEMCPY.search(line):
            lo = max(0, idx - MEMCPY_WINDOW)
            window = code_lines[lo:idx + 1]
            escapes = [raw_lines[j] if j < len(raw_lines) else ""
                       for j in range(lo, idx + 1)]
            checked = any(RE_MEMCPY_OK.search(l) for l in window) or \
                any(RE_MEMCPY_ESCAPE.search(comment_lines[j]) or
                    RE_MEMCPY_ESCAPE.search(escapes[j - lo])
                    for j in range(lo, idx + 1))
            if not checked:
                report(lineno, "unchecked-memcpy",
                       f"no size check within {MEMCPY_WINDOW} lines "
                       "before this memcpy (assert the bound, or mark "
                       "`// lint: checked-memcpy(<why>)`)")

    if path.suffix == ".hh":
        if not any(RE_GUARD.match(l) for l in code_lines):
            report(1, "header-guard",
                   "missing `#ifndef DUET_...` include guard")


# --selftest fixtures: (relative path, source text, expected rule names).
# Each case is linted as if the file sat at that path in the repo, so the
# allowlists and the hot-header set are exercised exactly as in a real
# run. Expected rules are compared as a multiset.
SELFTEST_CASES = [
    ("src/workload/bad_fork.cc", "int main() { fork(); }\n",
     ["fork-outside-executor"]),
    ("src/sim/executor.cc", "static void spawn() { fork(); }\n", []),
    ("src/cpu/bad_cast.cc",
     "int f(const int *p) { return *const_cast<int *>(p); }\n",
     ["no-const-cast"]),
    ("src/cpu/bad_new.cc", "int *f() { return new int(3); }\n",
     ["naked-new-delete"]),
    ("src/cpu/deleted_fn.hh",
     "#ifndef DUET_CPU_DELETED_FN_HH\n#define DUET_CPU_DELETED_FN_HH\n"
     "struct S { S(const S &) = delete; };\n#endif\n",
     []),
    ("src/sim/arena.cc", "char *f() { return new char[8]; }\n",
     ["naked-new-delete"]),
    ("src/sim/inline_function.hh",
     "#ifndef DUET_SIM_INLINE_FUNCTION_HH\n"
     "#define DUET_SIM_INLINE_FUNCTION_HH\n"
     "char *f() { return new char[8]; }\n#endif\n",
     []),
    ("src/mem/bad_copy.cc",
     "void f(char *d, const char *s) { memcpy(d, s, 8); }\n",
     ["unchecked-memcpy"]),
    ("src/mem/checked_copy.cc",
     "void f(char *d, const char *s, unsigned n) {\n"
     "    DUET_ASSERT(n <= 8, \"bound\");\n"
     "    memcpy(d, s, n);\n}\n",
     []),
    ("src/mem/escape_copy.cc",
     "void f(char *d, const char *s, unsigned n) {\n"
     "    memcpy(d, s, n); // lint: checked-memcpy(caller clamps n)\n}\n",
     []),
    ("src/cpu/bad_str.cc",
     "void f(char *d, const char *s) { strcpy(d, s); }\n",
     ["no-unbounded-cstring"]),
    ("src/cpu/no_guard.hh", "struct S {};\n", ["header-guard"]),
    # R7: the hot-header set, including the src/noc and src/system
    # extensions, rejects std::function and <functional> alike.
    ("src/noc/bad_hot.hh",
     "#ifndef DUET_NOC_BAD_HOT_HH\n#define DUET_NOC_BAD_HOT_HH\n"
     "#include <functional>\n"
     "struct M { std::function<void()> cb; };\n#endif\n",
     ["no-std-function-hot", "no-std-function-hot"]),
    ("src/system/bad_hot.hh",
     "#ifndef DUET_SYSTEM_BAD_HOT_HH\n#define DUET_SYSTEM_BAD_HOT_HH\n"
     "struct S { std::function<void()> observer; };\n#endif\n",
     ["no-std-function-hot"]),
    ("src/cache/bad_hot.hh",
     "#ifndef DUET_CACHE_BAD_HOT_HH\n#define DUET_CACHE_BAD_HOT_HH\n"
     "#include <functional>\n#endif\n",
     ["no-std-function-hot"]),
    # Cold headers and .cc files may keep std::function.
    ("src/workload/cold.hh",
     "#ifndef DUET_WORKLOAD_COLD_HH\n#define DUET_WORKLOAD_COLD_HH\n"
     "#include <functional>\n"
     "struct W { std::function<void()> hook; };\n#endif\n",
     []),
    ("src/noc/mesh.cc", "#include <functional>\n", []),
    # R8: unguarded switchboard dereferences in hot headers (including
    # the src/fpga/async_fifo.hh extension) are findings; the bound
    # null-check idiom and cold .cc files are not.
    ("src/noc/bad_trace.hh",
     "#ifndef DUET_NOC_BAD_TRACE_HH\n#define DUET_NOC_BAD_TRACE_HH\n"
     "inline void f() { obs::trace()->instant(1, \"x\", 0); }\n#endif\n",
     ["unguarded-trace-hot"]),
    ("src/fpga/async_fifo.hh",
     "#ifndef DUET_FPGA_ASYNC_FIFO_HH\n#define DUET_FPGA_ASYNC_FIFO_HH\n"
     "inline void g() { g_prof->beginEvent(); }\n#endif\n",
     ["unguarded-trace-hot"]),
    ("src/cache/good_trace.hh",
     "#ifndef DUET_CACHE_GOOD_TRACE_HH\n#define DUET_CACHE_GOOD_TRACE_HH\n"
     "inline void h() {\n"
     "    if (TraceSink *ts = obs::trace())\n"
     "        ts->instant(2, \"miss\", 0);\n}\n#endif\n",
     []),
    ("src/sim/trace_cold.cc",
     "void emit() { obs::trace()->instant(0, \"cold\", 0); }\n", []),
    # R9: a Future anywhere under src/ is a finding — hot headers,
    # src/core headers and .cc files alike; prose and code outside src/
    # are not.
    ("src/cpu/bad_future.hh",
     "#ifndef DUET_CPU_BAD_FUTURE_HH\n#define DUET_CPU_BAD_FUTURE_HH\n"
     "struct P { Future<std::uint64_t> pending; };\n#endif\n",
     ["no-future"]),
    ("src/fpga/bad_future.hh",
     "#ifndef DUET_FPGA_BAD_FUTURE_HH\n#define DUET_FPGA_BAD_FUTURE_HH\n"
     "inline Future <void> fence();\n#endif\n",
     ["no-future"]),
    ("src/core/cold_future.hh",
     "#ifndef DUET_CORE_COLD_FUTURE_HH\n#define DUET_CORE_COLD_FUTURE_HH\n"
     "struct R { Future<std::uint64_t> pop(unsigned reg); };\n#endif\n",
     ["no-future"]),
    ("src/cpu/future_cold.cc",
     "void f() { Future<int> scratch; }\n", ["no-future"]),
    ("src/sim/future_prose.cc",
     "// the Future<T> rendezvous this replaced\n"
     "const char *s() { return \"Future<int>\"; }\n", []),
    ("tools/future_elsewhere.cc",
     "void f() { Future<int> outsideTheTree; }\n", []),
    # R10: node containers (by name or header) under src/cache/ are
    # findings, .cc and .hh alike; vectors, FlatTable, algorithms named
    # like containers, prose, and node containers elsewhere are not.
    ("src/cache/bad_dir.hh",
     "#ifndef DUET_CACHE_BAD_DIR_HH\n#define DUET_CACHE_BAD_DIR_HH\n"
     "#include <deque>\n"
     "struct E { std::deque<int> pending; };\n#endif\n",
     ["no-node-container-cache", "no-node-container-cache"]),
    ("src/cache/bad_maps.cc",
     "#include <unordered_map>\n"
     "std::unordered_map<int, int> a;\nstd::map<int, int> b;\n"
     "std::set<int> c;\nstd::list<int> d;\n"
     "std::unordered_set<int> e;\n",
     ["no-node-container-cache"] * 6),
    ("src/cache/flat_ok.cc",
     "#include <vector>\n"
     "// a std::deque per line used to live here\n"
     "std::vector<int> v; LineTable<int> t;\n"
     "void f() { std::set_union(); std::map_like(); }\n",
     []),
    ("src/fpga/soft_ok.hh",
     "#ifndef DUET_FPGA_SOFT_OK_HH\n#define DUET_FPGA_SOFT_OK_HH\n"
     "#include <unordered_map>\n"
     "struct S { std::unordered_map<int, int> mshrs; };\n#endif\n",
     []),
    # Comment/string stripping: prose never trips the code rules.
    ("src/cpu/prose.cc",
     "// a new coroutine is forked via const_cast-free magic\n"
     "const char *s() { return \"new fork() const_cast\"; }\n",
     []),
]


def selftest():
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory() as td:
        for rel, text, expected in SELFTEST_CASES:
            path = Path(td) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            findings = []
            lint_file(path, rel, findings)
            got = sorted(f.split(": ")[1] for f in findings)
            if got != sorted(expected):
                failures.append(
                    f"{rel}: expected {sorted(expected)}, got {got} "
                    f"({findings})")
    for f in failures:
        print(f"selftest FAIL {f}", file=sys.stderr)
    if failures:
        print(f"lint_sim --selftest: {len(failures)}/"
              f"{len(SELFTEST_CASES)} cases failed", file=sys.stderr)
        return 1
    print(f"lint_sim --selftest: OK ({len(SELFTEST_CASES)} cases)",
          file=sys.stderr)
    return 0


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    roots = [Path(a) for a in argv[1:] if not a.startswith("-")]
    if any(a.startswith("-") for a in argv[1:]):
        print(__doc__)
        return 2
    if not roots:
        roots = [Path(__file__).resolve().parent.parent / "src"]
    base = None
    for root in roots:
        if not root.exists():
            print(f"lint_sim: no such path: {root}", file=sys.stderr)
            return 2
    findings = []
    nfiles = 0
    for root in roots:
        root = root.resolve()
        # Report paths relative to the repo root (the directory holding
        # src/), so allowlists match however the script is invoked.
        repo = root.parent if root.name == "src" else root
        files = [root] if root.is_file() else sorted(
            p for p in root.rglob("*") if p.suffix in (".cc", ".hh"))
        for path in files:
            rel = path.relative_to(repo).as_posix()
            nfiles += 1
            lint_file(path, rel, findings)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_sim: {len(findings)} finding(s) in {nfiles} files",
              file=sys.stderr)
        return 1
    print(f"lint_sim: OK ({nfiles} files clean)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
