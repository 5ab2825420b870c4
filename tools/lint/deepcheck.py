#!/usr/bin/env python3
"""lsbench-deepcheck: interprocedural hot-path audit for LSBench.

The regex lint (lsbench-lint) and the include DAG (lsbench-analyze) cannot
see *through calls*: a wall-clock read or heap allocation three frames below
the per-op loop is invisible to both. deepcheck builds an interprocedural
call graph over every src/ TU in compile_commands.json and walks it from
annotated roots (src/util/annotate.h):

  LSBENCH_HOT_PATH       roots for rules hot-alloc / hot-block / hot-throw
  LSBENCH_DETERMINISTIC  roots for rule determinism

Rules
  hot-alloc     no heap allocation (operator new, malloc family, allocating
                container entry points) reachable from a hot-path root.
  hot-block     no sleeps, file/socket I/O, or unsanctioned mutex/condvar
                acquisition reachable from a hot-path root. The util/sync.h
                wrappers (lsbench::Mutex/MutexLock/CondVar) and
                lsbench::SleepSpinUntil are the only sanctioned gates.
  hot-throw     no throw (__cxa_throw / std::__throw_* helpers / throwing
                STL entry points) reachable from a hot-path root.
  determinism   nothing reachable from a deterministic root may read
                ambient nondeterminism (wall clocks, std::random_device,
                rand, getenv, locale) except through the sanctioned util/
                wrappers (lsbench::RealClock::NowNanos, lsbench::Rng,
                lsbench::GetEnv/EnvFlagEnabled).

Frontends
  gcc    (default) compiles each TU with -fdump-tree-original and
         -fdump-lang-class and parses the dumps: every instantiated
         function body (including STL internals) is visible, and virtual
         calls are devirtualized by class-hierarchy analysis over the
         dumped vtables. Roots and suppressions come from a source scanner
         (the macros expand to nothing under GCC).
  clang  clang.cindex over the same compile_commands.json. Template
         instantiation bodies are not exposed by libclang, so a curated
         table of allocating/throwing STL entry points (shared with the
         gcc frontend as primitives) keeps findings keyed identically.

Findings are keyed (rule, frontier, category) where the frontier is the
last lsbench:: frame on the violation path — portable across frontends and
libstdc++ versions. Non-baselined findings fail the run; the committed
numbered baseline is tools/lint/deepcheck_baseline. One-off sanctioned
reaches: `// lsbench-deepcheck: allow(rule[, rule...])` on or above the
frontier function's declaration.

Exit codes: 0 clean, 1 findings, 2 configuration/compile error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

RULES = ("hot-alloc", "hot-block", "hot-throw", "determinism")
HOT_RULES = ("hot-alloc", "hot-block", "hot-throw")
PROJECT_PREFIXES = ("lsbench::",)

# Annotation macro tokens (GCC source scanner) and the attribute strings the
# clang frontend reads off the AST; both resolve to the same root families.
ANNOTATION_TOKENS = {
    "LSBENCH_HOT_PATH": "hot_path",
    "LSBENCH_DETERMINISTIC": "deterministic",
}
CLANG_ANNOTATIONS = {
    "lsbench::hot_path": "hot_path",
    "lsbench::deterministic": "deterministic",
}
ROOT_FAMILY_RULES = {
    "hot_path": HOT_RULES,
    "deterministic": ("determinism",),
}

# ---------------------------------------------------------------------------
# Primitive vocabulary: normalized callee name -> [(rule, category)].
# Shared by both frontends so baseline keys agree. The gcc frontend would
# also find what the curated STL entries expand to by descending into their
# bodies; matching them as primitives keeps the two frontends' categories
# and frontiers identical.
# ---------------------------------------------------------------------------


def _expand(table):
    out = {}
    for names, hits in table:
        for name in names:
            out.setdefault(name, []).extend(hits)
    return out


_ALLOC = ("hot-alloc", "operator-new")
_MALLOC = ("hot-alloc", "malloc")
_THROW = ("hot-throw", "throw")
_STD_THROW = ("hot-throw", "std-throw")
_SLEEP = ("hot-block", "sleep")
_MUTEX = ("hot-block", "mutex")
_CONDWAIT = ("hot-block", "cond-wait")
_IO = ("hot-block", "io")
_SOCKET = ("hot-block", "socket")
_WALLCLOCK = ("determinism", "wall-clock")
_MONOCLOCK = ("determinism", "monotonic-clock")
_LIBC_RAND = ("determinism", "libc-rand")
_RANDOM_DEV = ("determinism", "random-device")
_GETENV = ("determinism", "getenv")
_LOCALE = ("determinism", "locale")

PRIMITIVES = _expand([
    # Raw allocation.
    (("operator new", "operator new []"), [_ALLOC]),
    (("malloc", "calloc", "realloc", "aligned_alloc", "posix_memalign",
      "strdup", "__builtin_malloc", "__builtin_calloc", "__builtin_realloc",
      "__builtin_strdup"), [_MALLOC]),
    # Allocating (and throwing) STL entry points — the curated table that
    # lets the clang frontend (no template bodies) agree with gcc.
    (("std::vector::push_back", "std::vector::emplace_back",
      "std::vector::resize", "std::vector::reserve", "std::vector::insert",
      "std::deque::push_back", "std::deque::push_front",
      "std::deque::emplace_back", "std::deque::emplace_front",
      "std::basic_string::basic_string", "std::basic_string::append",
      "std::basic_string::push_back", "std::basic_string::operator+=",
      "std::basic_string::reserve", "std::basic_string::resize",
      "std::basic_string::insert", "std::basic_string::replace",
      "std::basic_string::substr", "std::basic_string::operator=",
      "std::basic_string::assign", "std::vector::operator=",
      "std::vector::assign", "std::vector::vector", "std::deque::deque",
      "std::deque::operator=", "std::stable_sort",
      "std::priority_queue::push", "std::priority_queue::emplace",
      "std::function::function", "std::function::operator=",
      "std::make_unique", "std::make_shared", "std::to_string",
      "std::map::insert", "std::map::emplace", "std::map::operator[]",
      "std::set::insert", "std::set::emplace",
      "std::unordered_map::insert", "std::unordered_map::emplace",
      "std::unordered_map::operator[]", "std::unordered_map::rehash",
      "std::unordered_map::reserve", "std::unordered_set::insert",
      "std::unordered_set::emplace"), [_ALLOC, _STD_THROW]),
    # Throw machinery and throwing-only STL entry points.
    (("__cxa_throw", "__cxa_rethrow", "__cxa_allocate_exception"), [_THROW]),
    (("std::vector::at", "std::basic_string::at", "std::optional::value",
      "std::stoi", "std::stol", "std::stoul", "std::stoll", "std::stod",
      "std::stof"), [_STD_THROW]),
    # Sleeps.
    (("nanosleep", "usleep", "sleep", "std::this_thread::sleep_for",
      "std::this_thread::sleep_until"), [_SLEEP]),
    # Unsanctioned lock acquisition (lsbench::Mutex et al. are gates).
    (("pthread_mutex_lock", "__gthread_mutex_lock",
      "__gthread_recursive_mutex_lock", "std::mutex::lock",
      "std::timed_mutex::lock", "std::recursive_mutex::lock",
      "std::shared_mutex::lock", "std::shared_mutex::lock_shared",
      "std::lock_guard::lock_guard", "std::unique_lock::unique_lock",
      "std::unique_lock::lock", "std::scoped_lock::scoped_lock",
      "std::lock"), [_MUTEX]),
    (("pthread_cond_wait", "pthread_cond_timedwait", "__gthread_cond_wait",
      "std::condition_variable::wait", "std::condition_variable::wait_for",
      "std::condition_variable::wait_until", "pthread_join",
      "std::thread::join"), [_CONDWAIT]),
    # File I/O (fprintf on LSBENCH_ASSERT failure paths shows up here; those
    # crash-only reaches are baselined with comments, not exempted).
    (("open", "openat", "read", "write", "pread", "pwrite", "fsync",
      "fdatasync", "fopen", "fclose", "fread", "fwrite", "fputs", "fputc",
      "fprintf", "printf", "puts", "putchar", "fflush", "fscanf", "scanf",
      "__builtin_printf", "__builtin_fprintf", "__builtin_puts",
      "__builtin_putchar", "__builtin_fwrite", "__builtin_fputs",
      "std::getline", "std::operator<<", "std::operator>>"), [_IO]),
    (("send", "recv", "sendto", "recvfrom", "connect", "accept", "select",
      "poll", "epoll_wait"), [_SOCKET]),
    # Ambient nondeterminism.
    (("std::chrono::system_clock::now", "time", "std::time", "gettimeofday",
      "localtime", "localtime_r", "gmtime", "gmtime_r", "strftime"),
     [_WALLCLOCK]),
    (("std::chrono::steady_clock::now",
      "std::chrono::high_resolution_clock::now", "clock_gettime", "clock"),
     [_MONOCLOCK]),
    (("rand", "srand", "random", "srandom", "drand48", "lrand48", "mrand48",
      "rand_r"), [_LIBC_RAND]),
    (("getenv", "secure_getenv", "std::getenv"), [_GETENV]),
    (("setlocale", "std::setlocale", "std::locale::global"), [_LOCALE]),
])

# Prefix-matched primitives (normalized-name startswith).
PREFIX_PRIMITIVES = (
    ("std::__throw_", _STD_THROW),
    ("std::random_device::", _RANDOM_DEV),
    ("std::basic_ostream::", _IO),
    ("std::basic_istream::", _IO),
    ("std::basic_filebuf::", _IO),
    ("std::basic_fstream::", _IO),
    ("std::basic_ifstream::", _IO),
    ("std::basic_ofstream::", _IO),
)

# Sanctioned gates: traversal stops at these names without flagging. Keyed
# by rule; (exact names, prefixes).
# lsbench::Atomic:: is gated under every rule: the wrapper performs exactly
# one std::atomic op plus a call through the lsbench-sched preemption hook
# (util/sched_hooks.h), whose observer is null outside exploration — the
# virtual dispatch must not smear unknown-target taint over every counter
# bump on a proven-hot path. The wrapper itself is the sanctioned boundary,
# exactly like Mutex/CondVar for hot-block (enforced by the no-bare-atomic
# lint rule: nothing outside util/atomic.h can touch std::atomic directly).
GATES = {
    "determinism": (
        frozenset({"lsbench::RealClock::NowNanos", "lsbench::GetEnv",
                   "lsbench::EnvFlagEnabled", "lsbench::SleepSpinUntil"}),
        ("lsbench::Rng::", "lsbench::SplitMix64", "lsbench::Atomic::"),
    ),
    "hot-block": (
        frozenset({"lsbench::SleepSpinUntil"}),
        ("lsbench::Mutex::", "lsbench::MutexLock::", "lsbench::CondVar::",
         "lsbench::Atomic::"),
    ),
    "hot-alloc": (frozenset(), ("lsbench::Atomic::",)),
    "hot-throw": (frozenset(), ("lsbench::Atomic::",)),
}

# Virtual dispatch through these class basenames is a modeled boundary for
# hot rules: the SUT interface is where the harness guarantee ends and the
# measured system begins (its cost IS the measurement). Harness-side SUT
# wrappers re-enter the audit via their own LSBENCH_HOT_PATH roots, and the
# determinism rule has no boundary — SUT implementations must stay
# reproducible too.
VIRTUAL_BOUNDARIES = {
    "hot-alloc": frozenset({"SystemUnderTest"}),
    "hot-block": frozenset({"SystemUnderTest"}),
    "hot-throw": frozenset({"SystemUnderTest"}),
    "determinism": frozenset(),
}

SUPPRESS_RE = re.compile(r"//\s*lsbench-deepcheck:\s*allow\(([^)]*)\)")

# Merged nodes we never descend into. Template stripping merges every
# overload/instantiation of a name into one node, and for these the merge is
# pathological: std::move the cast merges with std::move the range
# algorithm, and vector<bool>'s _Bit_* iterator machinery merges plain
# vector access with bit-reference plumbing (which reaches unrelated
# operator+ overloads). None of them perform banned operations themselves.
# Known limitation: a genuine std::move(first, last, out) range copy is not
# traversed — use std::copy, which is.
NON_DESCEND = frozenset({"std::move", "std::forward"})
NON_DESCEND_PREFIXES = ("std::_Bit_",)


def match_primitives(key):
    """All (rule, category) hits for a normalized callee name."""
    hits = list(PRIMITIVES.get(key, ()))
    for prefix, hit in PREFIX_PRIMITIVES:
        if key.startswith(prefix):
            hits.append(hit)
    return hits


def is_gated(rule, key):
    exact, prefixes = GATES[rule]
    return key in exact or key.startswith(prefixes)


# ---------------------------------------------------------------------------
# Name normalization: qualified names with every template argument list
# stripped, so instantiations/overloads merge and baseline keys are portable
# across frontends and libstdc++ versions.
# ---------------------------------------------------------------------------

_OPERATOR_SYM_RE = re.compile(r"operator\s*([^\w\s(]+)")


def strip_template_args(name):
    out = []
    depth = 0
    i = 0
    n = len(name)
    while i < n:
        if name.startswith("operator", i) and (i == 0 or not (
                name[i - 1].isalnum() or name[i - 1] == "_")):
            m = _OPERATOR_SYM_RE.match(name, i)
            if m and depth == 0:
                out.append("operator" + m.group(1))
                i = m.end()
                continue
        c = name[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(c)
        i += 1
    flat = re.sub(r"\s+", " ", "".join(out)).strip()
    # Drop libstdc++ inline-namespace segments (std::__cxx11::basic_string,
    # std::chrono::_V2::steady_clock) so curated primitive names match
    # regardless of ABI/versioning namespaces.
    return re.sub(r"\b(?:__cxx11|_V2)::", "", flat)


def basename_of(name):
    """Last :: segment of a template-stripped class name."""
    return strip_template_args(name).rsplit("::", 1)[-1]


def is_project(key):
    return key.startswith(PROJECT_PREFIXES)


# ---------------------------------------------------------------------------
# Graph IR (shared by both frontends).
# ---------------------------------------------------------------------------


@dataclass
class Graph:
    edges: dict = field(default_factory=dict)    # key -> set(callee key)
    vedges: dict = field(default_factory=dict)   # key -> set((class, target))
    defined: set = field(default_factory=set)

    def add_edge(self, caller, callee):
        self.edges.setdefault(caller, set()).add(callee)

    def add_vedge(self, caller, cls, target):
        self.vedges.setdefault(caller, set()).add((cls, target))


@dataclass
class Finding:
    rule: str
    frontier: str
    category: str
    root: str
    path: tuple

    def key(self):
        return (self.rule, self.frontier, self.category)

    def render(self):
        lines = [f"deepcheck: [{self.rule}] {self.frontier} -> "
                 f"{self.category} (root {self.root})"]
        lines.append("  path: " + " -> ".join(self.path))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Source scanner: annotation roots + suppressions, with namespace/class
# scope tracking so names come out fully qualified. Used by both frontends
# (under GCC the macros expand to nothing, so the source text is the truth;
# under clang the AST attributes are unioned in as a cross-check).
# ---------------------------------------------------------------------------

_SCOPE_RE = re.compile(
    r"\b(namespace|class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::[^;{]*)?\{")
_DECL_NAME_RE = re.compile(
    r"((?:[A-Za-z_~]\w*::)*(?:operator\s*(?:\(\)|\[\]|new\s*\[\]|"
    r"delete\s*\[\]|new|delete|[^\s(]+)|[A-Za-z_~]\w*))\s*\(")
_DECL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignas", "alignof",
    "decltype", "noexcept", "static_assert", "catch", "defined", "assert",
    "LSBENCH_ANNOTATE", "LSBENCH_GUARDED_BY", "LSBENCH_REQUIRES",
    "LSBENCH_EXCLUDES", "LSBENCH_ACQUIRE", "LSBENCH_RELEASE",
})


def _strip_comments_and_strings(text):
    """Blanks comments/string contents, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j + 2]))
            i = j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (max(0, j - i - 1)) + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _declared_name_after(stripped_lines, line_idx, scopes_at_line):
    """Qualified name of the function declared at/just after line_idx."""
    window = " ".join(stripped_lines[line_idx:line_idx + 6])
    for m in _DECL_NAME_RE.finditer(window):
        name = m.group(1)
        last = name.rsplit("::", 1)[-1]
        if last in _DECL_KEYWORDS or name in _DECL_KEYWORDS:
            continue
        if last.startswith("LSBENCH_"):
            continue
        scope = scopes_at_line.get(line_idx, ())
        qualified = "::".join(list(scope) + [name])
        return strip_template_args(qualified)
    return None


@dataclass
class ScanResult:
    roots: dict = field(default_factory=lambda: {"hot_path": {},
                                                 "deterministic": {}})
    suppressions: dict = field(default_factory=dict)  # name -> set(rule)
    errors: list = field(default_factory=list)


def scan_sources(scan_dirs):
    """Collects annotation roots and suppressions from .h/.cc files."""
    result = ScanResult()
    files = []
    for d in scan_dirs:
        if os.path.isfile(d):
            files.append(d)
            continue
        for dirpath, _, names in os.walk(d):
            for name in sorted(names):
                if name.endswith((".h", ".hpp", ".cc", ".cpp")):
                    files.append(os.path.join(dirpath, name))
    for path in sorted(set(files)):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError as e:
            result.errors.append(f"{path}: unreadable: {e}")
            continue
        _scan_file(path, raw, result)
    return result


def _scan_file(path, raw, result):
    raw_lines = raw.splitlines()
    stripped = _strip_comments_and_strings(raw)
    stripped_lines = stripped.splitlines()

    # Scope stack per line: walk the stripped text tracking braces and the
    # namespace/class names that opened them.
    scopes_at_line = {}
    stack = []  # (name or None, brace depth it owns)
    depth = 0
    for idx, line in enumerate(stripped_lines):
        scopes_at_line[idx] = tuple(n for n, _ in stack if n)
        pos = 0
        while pos < len(line):
            m = _SCOPE_RE.search(line, pos)
            next_scope_start = m.start() if m else len(line)
            for j in range(pos, next_scope_start):
                if line[j] == "{":
                    depth += 1
                    stack.append((None, depth))
                elif line[j] == "}":
                    if stack and stack[-1][1] == depth:
                        stack.pop()
                    depth = max(0, depth - 1)
            if not m:
                break
            depth += 1
            stack.append((m.group(2), depth))
            pos = m.end()

    for idx, line in enumerate(stripped_lines):
        if line.lstrip().startswith("#"):
            continue  # the macro definitions themselves are not roots
        for token, family in ANNOTATION_TOKENS.items():
            if re.search(rf"\b{token}\b", line):
                name = _declared_name_after(stripped_lines, idx,
                                            scopes_at_line)
                if name is None:
                    result.errors.append(
                        f"{path}:{idx + 1}: {token} not followed by a "
                        "parseable function declaration")
                else:
                    result.roots[family].setdefault(name,
                                                    f"{path}:{idx + 1}")
    for idx, line in enumerate(raw_lines):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        bad = rules - set(RULES)
        if bad:
            result.errors.append(
                f"{path}:{idx + 1}: unknown deepcheck rule(s) in "
                f"suppression: {', '.join(sorted(bad))}")
            continue
        name = _declared_name_after(stripped_lines, idx, scopes_at_line)
        if name is None:
            result.errors.append(
                f"{path}:{idx + 1}: lsbench-deepcheck: allow(...) not "
                "attached to a parseable function declaration")
        else:
            result.suppressions.setdefault(name, set()).update(rules)


# ---------------------------------------------------------------------------
# GCC frontend: -fdump-tree-original (all instantiated bodies, named call
# sites) + -fdump-lang-class (vtables + base-class lists for CHA).
# ---------------------------------------------------------------------------

_FUNC_HEADER_RE = re.compile(r"^;; Function (.+?) \((?:null|[*\w.]+)\)\s*$")
_OBJ_TYPE_REF_RE = re.compile(
    r";\((?:const |volatile )*struct ([\w:]+)\)[^;]*?->(\d+)B\)")
_CTOR_STRUCT_RE = re.compile(r"\((?:const )?struct ([\w:]+) \*\)")
_VTABLE_HEADER_RE = re.compile(r"^Vtable for (.+)$")
_VTABLE_ENTRY_RE = re.compile(
    r"^(\d+)\s+(?:\(int \(\*\)\(\.\.\.\)\))?\s*(.*)$")
_CLASS_HEADER_RE = re.compile(r"^Class (.+)$")
# Hierarchy lines are flush-left for direct bases (indentation only grows
# for nested/virtual bases); the class's own line matches too and is
# discarded by the base != cls guard below.
_CLASS_BASE_RE = re.compile(r"^\s*([\w:]+(?:<[^(]*>)?) \(0x")

_CALL_KEYWORDS = frozenset({
    "if", "while", "for", "switch", "return", "sizeof", "catch", "new",
    "delete", "else", "do", "goto", "try", "finally", "expr",
    "cleanup_point", "void_cst", "aggr_init_expr", "predictor",
})


def _trailing_qualified(text):
    """Qualified name ending at text's end (handles templates, operators)."""
    s = text.rstrip()
    if not s:
        return None
    # Operator forms first: the symbol chars would derail the backward scan.
    m = re.search(
        r"operator\s*(?:\(\)|\[\]|new\s*\[\]|delete\s*\[\]|new|delete|"
        r"\s[\w:]+|[^\w\s(]+)$", s)
    suffix = ""
    if m:
        suffix = re.sub(r"\s+", " ", s[m.start():])
        s = s[:m.start()]
    i = len(s) - 1
    depth = 0
    while i >= 0:
        c = s[i]
        if c == ">":
            depth += 1
        elif c == "<":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and not (c.isalnum() or c in "_:~"):
            break
        i -= 1
    name = s[i + 1:] + suffix
    name = name.strip(":").strip()
    if not name:
        return None
    return name


def _parse_signature(sig):
    """Normalized node key from a ';; Function <sig>' header."""
    idx = sig.find(" [with ")
    if idx != -1:
        sig = sig[:idx]
    sig = sig.strip()
    changed = True
    while changed:
        changed = False
        for suf in (" const", " volatile", " noexcept", " &&", " &",
                    " override", " [[noreturn]]"):
            if sig.endswith(suf):
                sig = sig[:-len(suf)]
                changed = True
    if not sig.endswith(")"):
        return None
    depth = 0
    i = len(sig) - 1
    while i >= 0:
        if sig[i] == ")":
            depth += 1
        elif sig[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i < 0:
        return None
    name = _trailing_qualified(sig[:i])
    if not name:
        return None
    return strip_template_args(name)


def _extract_calls(line, graph, caller, ctor_pending):
    """Named call sites + virtual dispatches + ctor nodes on one body line."""
    for m in _OBJ_TYPE_REF_RE.finditer(line):
        graph.add_vedge(caller, basename_of(m.group(1)), int(m.group(2)))
    if "__ct_comp" in line or "__ct_base" in line:
        ctor_pending.append(3)  # look for (struct X *) in next few lines
    if ctor_pending:
        m = _CTOR_STRUCT_RE.search(line)
        if m:
            graph.add_edge(caller, "__CTOR__:" + basename_of(m.group(1)))
            ctor_pending.clear()
        else:
            ctor_pending[:] = [t - 1 for t in ctor_pending if t > 1]
    pos = 0
    while True:
        pos = line.find(" (", pos)
        if pos < 0:
            break
        name = _trailing_qualified(line[:pos])
        pos += 2
        if not name:
            continue
        last = name.rsplit("::", 1)[-1]
        if (name in _CALL_KEYWORDS or last in _CALL_KEYWORDS
                or name[0].isdigit() or re.fullmatch(r"_\d+", name)
                or name.isupper()):
            continue
        key = strip_template_args(name)
        if key.startswith("operator new"):
            # Placement new (multiple top-level args) constructs, does not
            # allocate. (Caveat: nothrow new also has two args and WOULD be
            # skipped; the tree does not use it.)
            tail = line[pos:]
            d, topcommas = 0, 0
            for ch in tail:
                if ch == "(":
                    d += 1
                elif ch == ")":
                    if d == 0:
                        break
                    d -= 1
                elif ch == "," and d == 0:
                    topcommas += 1
            if topcommas >= 1:
                continue
        graph.add_edge(caller, key)


def _parse_original_dump(text, graph):
    caller = None
    ctor_pending = []
    for line in text.splitlines():
        m = _FUNC_HEADER_RE.match(line)
        if m:
            caller = _parse_signature(m.group(1))
            ctor_pending = []
            if caller:
                graph.defined.add(caller)
            continue
        if caller and ("(" in line or ctor_pending):
            _extract_calls(line, graph, caller, ctor_pending)


def _parse_class_dump(text, vtables, bases):
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = _VTABLE_HEADER_RE.match(lines[i])
        if m:
            cls = basename_of(m.group(1))
            slot_map = vtables.setdefault(cls, {})
            i += 1
            while i < len(lines) and lines[i].strip():
                em = _VTABLE_ENTRY_RE.match(lines[i])
                if em:
                    offset, target = int(em.group(1)), em.group(2).strip()
                    if (offset >= 16 and target and target != "0"
                            and not target.startswith("(& _ZTI")
                            and "__cxa_pure_virtual" not in target
                            and "::_ZT" not in target):
                        slot = (offset - 16) // 8
                        slot_map.setdefault(slot, set()).add(
                            strip_template_args(target))
                i += 1
            continue
        m = _CLASS_HEADER_RE.match(lines[i])
        if m:
            cls = basename_of(m.group(1))
            i += 1
            while i < len(lines) and lines[i].strip():
                bm = _CLASS_BASE_RE.match(lines[i])
                if bm:
                    base = basename_of(bm.group(1))
                    if base != cls:
                        bases.setdefault(cls, set()).add(base)
                i += 1
            continue
        i += 1


def _tu_compile_args(entry):
    toks = entry.get("arguments") or shlex.split(entry["command"])
    keep = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if t in ("-I", "-D", "-U", "-isystem", "-include"):
            keep.extend(toks[i:i + 2])
            i += 2
            continue
        if t.startswith(("-I", "-D", "-U")) or t.startswith("-std="):
            keep.append(t)
        i += 1
    return keep


def _gcc_compile_one(entry, compiler):
    src = entry["file"]
    directory = entry.get("directory", ".")
    if not os.path.isabs(src):
        src = os.path.join(directory, src)
    graph = Graph()
    vtables, bases = {}, {}
    with tempfile.TemporaryDirectory(prefix="deepcheck-") as tmp:
        orig = os.path.join(tmp, "tu.orig")
        cls = os.path.join(tmp, "tu.class")
        cmd = ([compiler] + _tu_compile_args(entry) +
               ["-O0", "-w", "-S", "-o", os.devnull,
                f"-fdump-tree-original={orig}", f"-fdump-lang-class={cls}",
                src])
        proc = subprocess.run(cmd, cwd=directory, capture_output=True,
                              text=True, timeout=300)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{src}: compile failed:\n{proc.stderr.strip()[:2000]}")
        with open(orig, encoding="utf-8", errors="replace") as f:
            _parse_original_dump(f.read(), graph)
        if os.path.exists(cls):
            with open(cls, encoding="utf-8", errors="replace") as f:
                _parse_class_dump(f.read(), vtables, bases)
    return graph, vtables, bases


def build_graph_gcc(entries, compiler, jobs):
    graph = Graph()
    vtables, bases = {}, {}
    errors = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_gcc_compile_one, e, compiler): e["file"]
                   for e in entries}
        for fut in concurrent.futures.as_completed(futures):
            try:
                g, vt, bs = fut.result()
            except Exception as e:  # compile or parse failure is fatal
                errors.append(str(e))
                continue
            graph.defined |= g.defined
            for k, v in g.edges.items():
                graph.edges.setdefault(k, set()).update(v)
            for k, v in g.vedges.items():
                graph.vedges.setdefault(k, set()).update(v)
            for c, slots in vt.items():
                dst = vtables.setdefault(c, {})
                for s, targets in slots.items():
                    dst.setdefault(s, set()).update(targets)
            for c, b in bs.items():
                bases.setdefault(c, set()).update(b)
    if errors:
        raise RuntimeError("\n".join(errors))
    _resolve_graph(graph, vtables, bases)
    return graph


def _resolve_graph(graph, vtables, bases):
    """Devirtualize (CHA) and resolve constructor pseudo-edges in place."""
    derived_of = {}
    for cls in set(vtables) | set(bases):
        derived_of.setdefault(cls, set()).add(cls)
    for cls, bs in bases.items():
        for b in bs:
            derived_of.setdefault(b, set()).add(cls)
    ctors_by_base = {}
    for key in graph.defined:
        parts = key.split("::")
        if len(parts) >= 2 and parts[-1] == parts[-2]:
            ctors_by_base.setdefault(parts[-1], set()).add(key)
    resolved_vedges = {}
    for caller, calls in graph.vedges.items():
        out = resolved_vedges.setdefault(caller, set())
        for cls, slot in calls:
            if isinstance(slot, str):  # already a concrete target (clang)
                out.add((cls, slot))
                continue
            for d in derived_of.get(cls, ()):
                for target in vtables.get(d, {}).get(slot, ()):
                    out.add((cls, target))
    graph.vedges = resolved_vedges
    for caller, callees in graph.edges.items():
        add, drop = set(), set()
        for c in callees:
            if c.startswith("__CTOR__:"):
                drop.add(c)
                add.update(ctors_by_base.get(c[len("__CTOR__:"):], ()))
        callees -= drop
        callees |= add


# ---------------------------------------------------------------------------
# Clang frontend (clang.cindex). Not importable in every environment; the
# CI job installs python3-clang + libclang and runs the self-tests with it.
# Template instantiation bodies are invisible to libclang, so coverage for
# containers comes from the shared curated PRIMITIVES table.
# ---------------------------------------------------------------------------


def _configure_libclang():
    import clang.cindex as ci  # noqa: deferred import by design
    override = os.environ.get("LSBENCH_LIBCLANG")
    if override:
        ci.Config.set_library_file(override)
        return ci
    try:
        ci.Index.create()
        return ci
    except Exception:
        pass
    import glob
    candidates = (glob.glob("/usr/lib/llvm-*/lib/libclang*.so*") +
                  glob.glob("/usr/lib/x86_64-linux-gnu/libclang*.so*"))
    for cand in sorted(candidates, reverse=True):
        try:
            ci.Config.set_library_file(cand)
            ci.Index.create()
            return ci
        except Exception:
            ci.Config.loaded = False
    raise RuntimeError("libclang not found (set LSBENCH_LIBCLANG)")


def _clang_qualified(cursor, ci):
    parts = []
    c = cursor
    while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return strip_template_args("::".join(reversed(parts)))


def build_graph_clang(entries, jobs, scan_result):
    del jobs  # libclang parsing is done serially; TU count is small.
    ci = _configure_libclang()
    graph = Graph()
    bases = {}
    vmethods = {}  # class basename -> {method name -> set(key)}
    index = ci.Index.create()
    func_kinds = {ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                  ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                  ci.CursorKind.CONVERSION_FUNCTION}
    for entry in entries:
        args = _tu_compile_args(entry) + ["-std=c++20"]
        src = entry["file"]
        directory = entry.get("directory", ".")
        if not os.path.isabs(src):
            src = os.path.join(directory, src)
        tu = index.parse(src, args=args)
        fatal = [d for d in tu.diagnostics if d.severity >= d.Error]
        if fatal:
            raise RuntimeError(f"{src}: clang parse failed: "
                               f"{fatal[0].spelling}")
        _clang_walk(tu.cursor, ci, func_kinds, graph, bases, vmethods,
                    scan_result)
    vtables = {
        cls: {name: targets for name, targets in methods.items()}
        for cls, methods in vmethods.items()
    }
    # Reuse CHA by mapping method names instead of slots.
    derived_of = {}
    for cls in set(vtables) | set(bases):
        derived_of.setdefault(cls, set()).add(cls)
    for cls, bs in bases.items():
        for b in bs:
            derived_of.setdefault(b, set()).add(cls)
    resolved = {}
    for caller, calls in graph.vedges.items():
        out = resolved.setdefault(caller, set())
        for cls, method in calls:
            for d in derived_of.get(cls, ()):
                for target in vtables.get(d, {}).get(method, ()):
                    out.add((cls, target))
    graph.vedges = resolved
    return graph


def _clang_walk(cursor, ci, func_kinds, graph, bases, vmethods, scan_result):
    for c in cursor.walk_preorder():
        if c.kind == ci.CursorKind.CXX_BASE_SPECIFIER:
            parent = c.semantic_parent or c.lexical_parent
            if parent is not None:
                bases.setdefault(basename_of(parent.spelling or ""),
                                 set()).add(basename_of(c.spelling or c.type
                                                        .spelling))
            continue
        if c.kind not in func_kinds or not c.is_definition():
            continue
        caller = _clang_qualified(c, ci)
        graph.defined.add(caller)
        if (c.kind == ci.CursorKind.CXX_METHOD and c.is_virtual_method()
                and c.semantic_parent is not None):
            cls = basename_of(c.semantic_parent.spelling)
            vmethods.setdefault(cls, {}).setdefault(c.spelling,
                                                    set()).add(caller)
        for child in c.get_children():
            if child.kind == ci.CursorKind.ANNOTATE_ATTR:
                family = CLANG_ANNOTATIONS.get(child.spelling)
                if family:
                    loc = f"{c.location.file}:{c.location.line}"
                    scan_result.roots[family].setdefault(caller, loc)
        for node in c.walk_preorder():
            if node.kind == ci.CursorKind.CALL_EXPR:
                ref = node.referenced
                if ref is None:
                    continue
                key = _clang_qualified(ref, ci)
                if (ref.kind == ci.CursorKind.CXX_METHOD
                        and ref.is_virtual_method()
                        and ref.semantic_parent is not None):
                    graph.add_vedge(
                        caller, basename_of(ref.semantic_parent.spelling),
                        ref.spelling)
                    # Also record the interface key so gates on the base
                    # name keep working.
                    graph.add_vedge(
                        caller, basename_of(ref.semantic_parent.spelling),
                        key)
                elif key:
                    graph.add_edge(caller, key)
            elif node.kind == ci.CursorKind.CXX_NEW_EXPR:
                graph.add_edge(caller, "operator new")
            elif node.kind == ci.CursorKind.CXX_THROW_EXPR:
                graph.add_edge(caller, "__cxa_throw")


# ---------------------------------------------------------------------------
# Analysis: per-rule BFS from roots with gates, boundaries, primitives.
# ---------------------------------------------------------------------------


def run_rules(graph, scan_result):
    findings = []
    for family, rules in ROOT_FAMILY_RULES.items():
        roots = scan_result.roots[family]
        for name, loc in sorted(roots.items()):
            if name not in graph.defined:
                findings.append(Finding(
                    rule="unresolved-root", frontier=name,
                    category="scanner", root=name,
                    path=(f"{loc}: annotated function has no definition in "
                          "any analyzed TU", name)))
        resolved = [n for n in sorted(roots) if n in graph.defined]
        for rule in rules:
            findings.extend(_walk_rule(graph, rule, resolved))
    deduped = {}
    for f in findings:
        deduped.setdefault(f.key(), f)
    return list(deduped.values())


def _walk_rule(graph, rule, roots):
    from collections import deque
    parent = {}
    rootof = {}
    findings = {}
    q = deque()
    boundary = VIRTUAL_BOUNDARIES[rule]
    for r in roots:
        if r not in parent:
            parent[r] = None
            rootof[r] = r
            q.append(r)

    def path_to(node):
        out = []
        while node is not None:
            out.append(node)
            node = parent[node]
        return tuple(reversed(out))

    def handle(node, target):
        if is_gated(rule, target):
            return
        # Template-stripped node keys merge every instantiation of a std::
        # helper (std::construct_at, std::move, __copy_move_a, ...) into one
        # node, so an edge from a merged std:: node back into project code is
        # usually an artifact of some *other* instantiation and would
        # misattribute the frontier. Block std->project edges; real callback
        # flows (comparators, deleters) must carry their own root
        # annotations to be audited.
        if not is_project(node) and is_project(target):
            return
        hits = [cat for r, cat in match_primitives(target) if r == rule]
        for cat in hits:
            path = path_to(node) + (target,)
            frontier = next((p for p in reversed(path[:-1])
                             if is_project(p)), rootof[node])
            key = (rule, frontier, cat)
            if key not in findings:
                findings[key] = Finding(rule=rule, frontier=frontier,
                                        category=cat, root=rootof[node],
                                        path=path)
        if hits:
            return
        if target in NON_DESCEND or target.startswith(NON_DESCEND_PREFIXES):
            return
        if target in graph.defined and target not in parent:
            parent[target] = node
            rootof[target] = rootof[node]
            q.append(target)

    while q:
        node = q.popleft()
        for target in sorted(graph.edges.get(node, ())):
            handle(node, target)
        for cls, target in sorted(graph.vedges.get(node, ())):
            if cls in boundary:
                continue
            handle(node, target)
    return findings.values()


# ---------------------------------------------------------------------------
# Baseline, suppression filtering, budget cross-check.
# ---------------------------------------------------------------------------

_BASELINE_RE = re.compile(
    r"^\s*(\d+)\.\s+(\S+)\s+(\S+)\s+(\S+)\s*(?:—\s*(.*))?$")


def load_baseline(path):
    entries = {}
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip()
            if not line or line.lstrip().startswith("#"):
                continue
            m = _BASELINE_RE.match(line)
            if not m:
                raise RuntimeError(
                    f"{path}:{lineno}: unparseable baseline entry: {line}")
            rule = m.group(2)
            if rule not in RULES:
                raise RuntimeError(
                    f"{path}:{lineno}: unknown rule '{rule}'")
            entries[(rule, m.group(3), m.group(4))] = m.group(5) or ""
    return entries


def write_baseline(path, findings, old_entries):
    keys = sorted({f.key() for f in findings})
    with open(path, "w", encoding="utf-8") as f:
        f.write("# lsbench-deepcheck baseline — reviewed, numbered "
                "findings.\n")
        f.write("# Format: N. <rule> <frontier> <category> [— comment]\n")
        f.write("# Regenerate with: tools/lint/deepcheck.py "
                "--write-baseline (keeps comments).\n")
        for i, key in enumerate(keys, 1):
            comment = old_entries.get(key, "")
            suffix = f" — {comment}" if comment else ""
            f.write(f"{i}. {key[0]} {key[1]} {key[2]}{suffix}\n")
    return len(keys)


def check_budget(path, baseline_entries):
    """The reviewed budget file pins both the runtime per-op allocation
    count (asserted by tests/hotpath_alloc_test.cc) and the number of
    hot-alloc baseline entries, so the static and dynamic claims cannot
    silently diverge."""
    with open(path, encoding="utf-8") as f:
        budget = json.load(f)
    want = budget.get("static_hot_alloc_baseline_entries")
    have = sum(1 for (rule, _, _) in baseline_entries if rule == "hot-alloc")
    problems = []
    if want is None:
        problems.append(f"{path}: missing static_hot_alloc_baseline_entries")
    elif want != have:
        problems.append(
            f"{path}: static_hot_alloc_baseline_entries={want} but the "
            f"baseline holds {have} hot-alloc entries — update the budget "
            "file (and tests/hotpath_alloc_test.cc expectations) in the "
            "same reviewed change")
    if "per_op_heap_allocs" not in budget:
        problems.append(f"{path}: missing per_op_heap_allocs")
    return problems


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def load_entries(cc_path, only, root):
    with open(cc_path, encoding="utf-8") as f:
        entries = json.load(f)
    prefixes = tuple(os.path.abspath(os.path.join(root, o)) + os.sep
                     for o in only)
    selected = []
    for e in entries:
        src = e["file"]
        if not os.path.isabs(src):
            src = os.path.join(e.get("directory", "."), src)
        src = os.path.abspath(src)
        if src.startswith(prefixes) and src.endswith((".cc", ".cpp")):
            selected.append(e)
    return selected


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lsbench-deepcheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repo root")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json (default: "
                             "<root>/compile_commands.json)")
    parser.add_argument("--only", action="append", default=None,
                        help="restrict TUs + scanning to these dirs "
                             "(relative to root; default: src)")
    parser.add_argument("--frontend", choices=("gcc", "clang"),
                        default="gcc")
    parser.add_argument("--compiler", default="g++",
                        help="compiler driver for the gcc frontend")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "tools/lint/deepcheck_baseline next to this "
                             "script; 'none' disables)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current findings "
                             "(preserves comments on retained entries)")
    parser.add_argument("--budget", default=None,
                        help="hotpath_budget.json to cross-check against "
                             "the baseline")
    parser.add_argument("--list-roots", action="store_true",
                        help="print resolved roots and exit")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    cc_path = args.compile_commands or os.path.join(root,
                                                    "compile_commands.json")
    only = args.only or ["src"]
    if args.baseline == "none":
        baseline_path = None
    else:
        baseline_path = args.baseline or os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "deepcheck_baseline")

    try:
        entries = load_entries(cc_path, only, root)
    except (OSError, json.JSONDecodeError) as e:
        print(f"deepcheck: cannot load {cc_path}: {e}", file=sys.stderr)
        return 2
    if not entries:
        print(f"deepcheck: no TUs under {only} in {cc_path} — configure "
              "the build first (cmake -B build -S .)", file=sys.stderr)
        return 2

    scan_dirs = [os.path.join(root, o) for o in only]
    scan = scan_sources(scan_dirs)
    if scan.errors:
        for e in scan.errors:
            print(f"deepcheck: {e}", file=sys.stderr)
        return 2

    if args.list_roots:
        for family in ("hot_path", "deterministic"):
            for name, loc in sorted(scan.roots[family].items()):
                print(f"{family}: {name}  ({loc})")
        return 0

    try:
        if args.frontend == "gcc":
            graph = build_graph_gcc(entries, args.compiler, args.jobs)
        else:
            graph = build_graph_clang(entries, args.jobs, scan)
    except RuntimeError as e:
        print(f"deepcheck: {e}", file=sys.stderr)
        return 2

    findings = run_rules(graph, scan)

    # Suppressions apply at the frontier.
    kept = []
    for f in findings:
        if f.rule in scan.suppressions.get(f.frontier, ()):
            continue
        kept.append(f)
    kept.sort(key=lambda f: f.key())

    if baseline_path and args.write_baseline:
        old = load_baseline(baseline_path) if os.path.exists(
            baseline_path) else {}
        n = write_baseline(baseline_path, kept, old)
        print(f"deepcheck: wrote {n} baseline entries to {baseline_path}")
        return 0

    baseline = {}
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except RuntimeError as e:
            print(f"deepcheck: {e}", file=sys.stderr)
            return 2

    new = [f for f in kept if f.key() not in baseline]
    stale = sorted(set(baseline) - {f.key() for f in kept})
    problems = []
    if args.budget:
        try:
            problems = check_budget(args.budget, baseline)
        except (OSError, json.JSONDecodeError) as e:
            print(f"deepcheck: cannot load {args.budget}: {e}",
                  file=sys.stderr)
            return 2

    for f in new:
        print(f.render())
    for key in stale:
        print(f"deepcheck: warning: stale baseline entry (no longer "
              f"found): {key[0]} {key[1]} {key[2]}", file=sys.stderr)
    for p in problems:
        print(f"deepcheck: {p}")

    nodes = len(graph.defined)
    print(f"deepcheck: {len(entries)} TUs, {nodes} functions, "
          f"{sum(len(r) for r in scan.roots.values())} roots, "
          f"{len(kept)} findings ({len(new)} not baselined)",
          file=sys.stderr)
    return 1 if (new or problems) else 0


if __name__ == "__main__":
    sys.exit(main())
