#!/usr/bin/env python3
"""lsbench-analyze: architecture-layer enforcement for LSBench.

docs/ARCHITECTURE.md describes a layer DAG over the modules under src/:

    util -> {stats, data, workload} -> {index, learned, cache, sched}
         -> sut -> core -> report

This tool turns that prose into a checked contract. The DAG lives in
machine-readable form in tools/lint/layers.toml; this script parses the
quoted-#include graph of src/ (seeded from compile_commands.json when one
is present) and reports:

  layering          an #include edge that points *upward* in the DAG
                    (e.g. a sut/ file including core/driver.h)
  include-cycle     a file-level include cycle (never allowed, even
                    between same-band peers)
  unknown-module    a src/ file or quoted include in a directory the DAG
                    does not declare
  uncalled-module   a src/ header that no file in src/, tools/, bench/,
                    examples/ or benchmark/ includes, apart from its own .cc
                    (tests/ and the bench/micro_* benches do not count: a
                    module only its tests and micro benches call is driven
                    by no run and has no caller)

Two extra modes:

  --report-unused       advisory (exit 0) heuristic report of includes
                        whose header contributes no identifier used by the
                        includer — candidates for deletion
  --check-unused        the same heuristic, enforced: dead includes are
                        findings (rule unused-include, exit 1). Legitimate
                        exceptions (re-exported types, macro-only use)
                        carry an `allow(unused-include)` suppression on the
                        include line
  --self-sufficiency    compiles every header under src/ standalone via a
                        generated one-line TU (-fsyntax-only), proving each
                        public header carries its own includes

Suppression matches lsbench-lint: an inline comment on the offending
include line or the line directly above it —

    // lsbench-lint: allow(layering)

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lsbench_lint  # noqa: E402  (shared comment-stripper + suppressions)

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - python < 3.11
    tomllib = None

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
HEADER_EXTENSIONS = (".h", ".hpp")
SOURCE_EXTENSIONS = (".cc", ".cpp", ".cxx") + HEADER_EXTENSIONS

# Directories, relative to --root, whose files count as callers of a src/
# header. tests/ is left out on purpose, and so are the micro benches: a
# micro_* file under bench/ times a kernel outside any run.
CALLER_DIRS = ("src", "tools", "bench", "examples", "benchmark")

DEFAULT_LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "layers.toml")


class Layers:
    """The parsed layers.toml contract."""

    def __init__(self, bands, allow_same_band, exceptions):
        self.bands = bands                    # module -> rank (int)
        self.allow_same_band = allow_same_band
        self.exceptions = exceptions          # set of (from_module, to_module)

    @staticmethod
    def load(path):
        if tomllib is None:
            raise RuntimeError("python >= 3.11 (tomllib) required")
        with open(path, "rb") as f:
            data = tomllib.load(f)
        bands = {m: int(r) for m, r in data.get("bands", {}).items()}
        if not bands:
            raise RuntimeError(f"{path}: [bands] is empty")
        options = data.get("options", {})
        exceptions = set()
        for entry in options.get("exceptions", []):
            m = re.fullmatch(r"\s*(\w+)\s*->\s*(\w+)\s*", entry)
            if not m:
                raise RuntimeError(
                    f"{path}: bad exception {entry!r} (want 'a -> b')")
            exceptions.add((m.group(1), m.group(2)))
        return Layers(bands, bool(options.get("allow_same_band", True)),
                      exceptions)


class Include:
    """One quoted include directive: file -> target, with its source line."""

    def __init__(self, src_rel, line, target_rel):
        self.src_rel = src_rel        # includer, relative to src/
        self.line = line              # 1-based line of the directive
        self.target_rel = target_rel  # included path, relative to src/


def module_of(rel):
    """First path component: core/driver.cc -> core. None for flat files."""
    parts = rel.replace(os.sep, "/").split("/")
    return parts[0] if len(parts) > 1 else None


def walk_sources(src_root):
    """Yields paths (relative to src_root) of every source/header file,
    skipping lint fixture trees (testdata/)."""
    out = []
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames[:] = sorted(d for d in dirnames if d != "testdata")
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                out.append(os.path.relpath(os.path.join(dirpath, name),
                                           src_root))
    return out


def seed_from_compile_commands(path, src_root):
    """Returns (tu_set, compiler) from a compile database, either possibly
    empty. The TU set confirms coverage; the compiler seeds
    --self-sufficiency when --compiler is not given."""
    tus, compiler = set(), None
    try:
        with open(path, "r", encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError):
        return tus, compiler
    for entry in entries:
        file_path = os.path.normpath(
            os.path.join(entry.get("directory", "."), entry.get("file", "")))
        rel = os.path.relpath(file_path, src_root)
        if not rel.startswith(".."):
            tus.add(rel)
        if compiler is None:
            argv = (entry.get("arguments")
                    or entry.get("command", "").split())
            if argv:
                compiler = argv[0]
    return tus, compiler


def parse_includes(src_root, files):
    """Returns ([Include], {rel: suppressed-line-map}) over quoted includes
    that resolve inside src_root."""
    existing = set(files)
    includes, suppressions = [], {}
    for rel in files:
        with open(os.path.join(src_root, rel), "r", encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        raw_lines = text.splitlines()
        suppressions[rel] = lsbench_lint.parse_suppressions(raw_lines)
        # Includes are parsed from the raw lines: the shared comment/string
        # stripper would blank the quoted target itself. INCLUDE_RE anchors
        # on '#' at line start, so commented-out includes do not match.
        for idx, line in enumerate(raw_lines, start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if target in existing:
                includes.append(Include(rel, idx, target))
    return includes, suppressions


def check_layering(layers, includes, suppressions):
    findings = []
    for inc in includes:
        src_mod = module_of(inc.src_rel)
        dst_mod = module_of(inc.target_rel)
        if src_mod is None or dst_mod is None:
            continue
        for rel, mod in ((inc.src_rel, src_mod), (inc.target_rel, dst_mod)):
            if mod not in layers.bands:
                findings.append(lsbench_lint.Finding(
                    f"src/{inc.src_rel}", inc.line, "unknown-module",
                    f"'{rel}' is in module '{mod}', which layers.toml does "
                    "not declare; add it to [bands]"))
                break
        if src_mod not in layers.bands or dst_mod not in layers.bands:
            continue
        if src_mod == dst_mod:
            continue
        src_rank = layers.bands[src_mod]
        dst_rank = layers.bands[dst_mod]
        ok = (dst_rank < src_rank
              or (dst_rank == src_rank and layers.allow_same_band)
              or (src_mod, dst_mod) in layers.exceptions)
        if ok:
            continue
        if "layering" in suppressions.get(inc.src_rel, {}).get(inc.line,
                                                               set()):
            continue
        direction = ("upward" if dst_rank > src_rank
                     else "across band")
        findings.append(lsbench_lint.Finding(
            f"src/{inc.src_rel}", inc.line, "layering",
            f"'{src_mod}' (band {src_rank}) must not include "
            f"'{inc.target_rel}' from '{dst_mod}' (band {dst_rank}): the "
            f"edge points {direction} in the layer DAG "
            f"util -> {{stats,data,workload}} -> "
            f"{{index,learned,cache,sched}} -> sut -> core -> report. "
            "Move the shared code down a band, or invert the dependency"))
    return findings


def check_cycles(includes):
    """Tarjan SCC over the file-level include graph; every SCC with more
    than one node (or a self-edge) is one include-cycle finding."""
    graph = {}
    for inc in includes:
        graph.setdefault(inc.src_rel, set()).add(inc.target_rel)
        graph.setdefault(inc.target_rel, set())

    index_of, lowlink, on_stack = {}, {}, set()
    stack, sccs = [], []
    counter = [0]

    for start in sorted(graph):
        if start in index_of:
            continue
        work = [(start, iter(sorted(graph[start])))]
        index_of[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1 or node in graph.get(node, set()):
                    sccs.append(sorted(scc))

    findings = []
    for scc in sorted(sccs):
        findings.append(lsbench_lint.Finding(
            f"src/{scc[0]}", 1, "include-cycle",
            "include cycle between: " + " <-> ".join(scc) +
            "; break it by extracting the shared declarations into a "
            "lower-band header"))
    return findings


def check_uncalled(root):
    """Every src/ header must have a caller: a file under CALLER_DIRS that
    includes it, other than the header's own .cc and the bench/micro_*
    files."""
    src_root = os.path.join(root, "src")
    headers = {rel for rel in walk_sources(src_root)
               if rel.endswith(HEADER_EXTENSIONS)}
    called = set()
    for top in CALLER_DIRS:
        base = os.path.join(root, top)
        for rel in walk_sources(base):
            if top == "bench" and os.path.basename(rel).startswith("micro_"):
                continue
            own = os.path.splitext(rel)[0] if top == "src" else None
            with open(os.path.join(base, rel), "r", encoding="utf-8",
                      errors="replace") as f:
                for line in f:
                    m = INCLUDE_RE.match(line)
                    if (m and m.group(1) in headers
                            and os.path.splitext(m.group(1))[0] != own):
                        called.add(m.group(1))
    return [lsbench_lint.Finding(
        f"src/{rel}", 1, "uncalled-module",
        "no file in " + ", ".join(f"{d}/" for d in CALLER_DIRS) +
        " includes this header apart from its own .cc (tests/ and "
        "bench/micro_* do not count); give the module a caller or delete it")
        for rel in sorted(headers - called)]


# --- Unused-edge (dead include) report --------------------------------------

PROVIDED_NAME_RES = (
    re.compile(r"\b(?:class|struct|union|enum(?:\s+class)?)\s+"
               r"(?:LSBENCH_\w+\s*\([^)]*\)\s*)?(\w+)"),
    re.compile(r"\busing\s+(\w+)\s*="),
    re.compile(r"^\s*#\s*define\s+(\w+)", re.M),
    re.compile(r"\b(\w+)\s*\("),  # function-ish names (broad on purpose)
)


def provided_names(header_text):
    code = lsbench_lint.strip_comments_and_strings(header_text)
    names = set()
    for pattern in PROVIDED_NAME_RES:
        names.update(pattern.findall(code))
    # Keywords and primitives the broad function-name pattern sweeps up.
    return names - {
        "if", "for", "while", "switch", "return", "sizeof", "defined",
        "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
        "decltype", "alignof", "noexcept", "explicit", "operator",
    }


def report_unused_edges(src_root, includes, suppressions=None):
    """Heuristic: an include whose header provides no identifier that
    appears in the includer. Ran advisory for long enough to tune the
    heuristic; now also enforceable via --check-unused, with legitimate
    exceptions (re-exported types, macros used in disabled branches)
    carrying an allow(unused-include) suppression on the include line."""
    suppressions = suppressions or {}
    texts = {}

    def text_of(rel):
        if rel not in texts:
            with open(os.path.join(src_root, rel), "r", encoding="utf-8",
                      errors="replace") as f:
                texts[rel] = f.read()
        return texts[rel]

    candidates = []
    for inc in includes:
        if not inc.target_rel.endswith(HEADER_EXTENSIONS):
            continue
        # A .cc including its own header is the interface edge; skip.
        base_src = os.path.splitext(inc.src_rel)[0]
        base_dst = os.path.splitext(inc.target_rel)[0]
        if base_src == base_dst:
            continue
        if "unused-include" in suppressions.get(inc.src_rel, {}).get(
                inc.line, set()):
            continue
        names = provided_names(text_of(inc.target_rel))
        if not names:
            continue
        body = lsbench_lint.strip_comments_and_strings(text_of(inc.src_rel))
        body_ids = set(re.findall(r"\b\w+\b", body))
        if names.isdisjoint(body_ids):
            candidates.append(
                (inc.src_rel, inc.line,
                 f"include of '{inc.target_rel}' contributes no identifier "
                 "used here; likely dead"))
    return sorted(candidates)


# --- Header self-sufficiency ------------------------------------------------

def check_self_sufficiency(src_root, headers, compiler, std, jobs=None):
    """Compiles each header standalone: a generated one-line TU with only
    the header, -fsyntax-only. Returns [(header, stderr)] failures."""

    def compile_one(rel, tmpdir):
        tu = os.path.join(
            tmpdir, re.sub(r"[^A-Za-z0-9_]", "_", rel) + "_tu.cc")
        with open(tu, "w", encoding="utf-8") as f:
            f.write(f'#include "{rel}"\n')
        cmd = [compiler, f"-std={std}", "-fsyntax-only",
               "-I", src_root, tu]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        return (rel, proc.returncode, proc.stderr.strip())

    failures = []
    with tempfile.TemporaryDirectory(prefix="lsbench_selfsuff_") as tmpdir:
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=jobs or os.cpu_count() or 2) as pool:
            futures = [pool.submit(compile_one, rel, tmpdir)
                       for rel in sorted(headers)]
            for future in futures:
                rel, returncode, stderr = future.result()
                if returncode != 0:
                    failures.append((rel, stderr))
    return sorted(failures)


# --- Driver -----------------------------------------------------------------

def analyze_tree(src_root, layers):
    """Full structural analysis of one src tree; returns sorted findings."""
    files = walk_sources(src_root)
    includes, suppressions = parse_includes(src_root, files)
    findings = (check_layering(layers, includes, suppressions)
                + check_cycles(includes))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lsbench-analyze",
        description="Architecture-layer enforcement for LSBench.")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--layers", default=DEFAULT_LAYERS,
                        help="layer DAG spec (default: tools/lint/layers.toml)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile database (default: "
                             "<root>/compile_commands.json when present)")
    parser.add_argument("--report-unused", action="store_true",
                        help="also print the advisory dead-include report")
    parser.add_argument("--check-unused", action="store_true",
                        help="enforce the dead-include heuristic (findings, "
                             "exit 1); suppress with allow(unused-include)")
    parser.add_argument("--self-sufficiency", action="store_true",
                        help="compile every src/ header standalone")
    parser.add_argument("--compiler", default=None,
                        help="compiler for --self-sufficiency (default: "
                             "compile_commands.json, $CXX, then c++)")
    parser.add_argument("--std", default="c++20",
                        help="-std= for --self-sufficiency")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel compiles for --self-sufficiency")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    src_root = os.path.join(root, "src")
    if not os.path.isdir(src_root):
        print(f"lsbench-analyze: no src/ under {root}", file=sys.stderr)
        return 2
    try:
        layers = Layers.load(args.layers)
    except (OSError, RuntimeError) as e:
        print(f"lsbench-analyze: {e}", file=sys.stderr)
        return 2

    cc_path = args.compile_commands or os.path.join(root,
                                                    "compile_commands.json")
    cc_tus, cc_compiler = (seed_from_compile_commands(cc_path, src_root)
                           if os.path.exists(cc_path) else (set(), None))

    files = walk_sources(src_root)
    includes, suppressions = parse_includes(src_root, files)

    # TUs known to the build but missing on disk mean the database is stale;
    # warn (stale databases silently shrink the checked graph).
    missing = sorted(t for t in cc_tus
                     if t not in set(files) and not t.startswith(".."))
    if missing:
        print(f"lsbench-analyze: note: {len(missing)} compile_commands "
              "entries not found under src/ (stale database?)",
              file=sys.stderr)

    findings = (check_layering(layers, includes, suppressions)
                + check_cycles(includes) + check_uncalled(root))
    if args.check_unused:
        findings.extend(
            lsbench_lint.Finding(f"src/{rel}", line, "unused-include",
                                 message)
            for rel, line, message in report_unused_edges(
                src_root, includes, suppressions))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)

    if args.report_unused and not args.check_unused:
        for rel, line, message in report_unused_edges(src_root, includes,
                                                      suppressions):
            print(f"src/{rel}:{line}: [unused-include] {message} (advisory)")

    exit_code = 1 if findings else 0

    if args.self_sufficiency:
        compiler = (args.compiler or cc_compiler or os.environ.get("CXX")
                    or "c++")
        if shutil.which(compiler) is None:
            print(f"lsbench-analyze: compiler '{compiler}' not found",
                  file=sys.stderr)
            return 2
        headers = [f for f in files if f.endswith(HEADER_EXTENSIONS)]
        failures = check_self_sufficiency(src_root, headers, compiler,
                                          args.std, args.jobs)
        for rel, stderr in failures:
            first = stderr.splitlines()[0] if stderr else "compile failed"
            print(f"src/{rel}:1: [self-sufficiency] header does not compile "
                  f"standalone: {first}")
        if failures:
            exit_code = 1
        else:
            print(f"lsbench-analyze: {len(headers)} headers compile "
                  "standalone", file=sys.stderr)

    if findings:
        print(f"lsbench-analyze: {len(findings)} finding(s)",
              file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
