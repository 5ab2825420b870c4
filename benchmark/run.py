#!/usr/bin/env python3
"""Builds and runs the LSBench benchmark (see benchmark/README.md).

    python3 benchmark/run.py                       # every workload, untraced
    python3 benchmark/run.py --workload dram_read --seed 7 --seconds 10
    python3 benchmark/run.py --workload open_loop --trace 1
    python3 benchmark/run.py --self-test           # traced run == bare run
    python3 benchmark/run.py --check               # lint + warning-free build

Each workload runs as repetitions of `lsbench_benchmark`, one process per
repetition. At least MIN_REPS run; after that, no repetition starts that
would end after `--seconds`.
Every metric is the median over the repetitions. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json from untraced repetitions; `--trace 1`
reports its per-layer metrics from traced repetitions, alternated with
untraced ones so the tracing overhead is measured too.

Every metric is printed with its name and unit, a results file with the
host/build manifest and every repetition goes to .bench_build/results/, and
the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit status is 0 only when every repetition passed its output checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "lsbench_benchmark")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
# Set-up time is a median too, so every run sets up at least this often.
MIN_REPS = 3
REP_TIMEOUT_SECONDS = 170
BUILD_TIMEOUT_SECONDS = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def cmake_build(build_dir, target, capture=False):
    """Configures `build_dir` if needed and builds `target` in Release.

    Returns (ok, output); output is only collected when `capture` is set,
    otherwise the build log goes to stderr.
    """
    out = subprocess.PIPE if capture else sys.stderr
    log_text = ""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        proc = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=out, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_SECONDS)
        log_text += proc.stdout or ""
        if proc.returncode != 0:
            return False, log_text
    proc = subprocess.run(
        ["cmake", "--build", build_dir, "-j", build_jobs(),
         "--target", target],
        stdout=out, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_SECONDS)
    log_text += proc.stdout or ""
    return proc.returncode == 0, log_text


def build():
    ok, _ = cmake_build(BUILD_DIR, "lsbench_benchmark")
    if not ok:
        log("error: building lsbench_benchmark failed")
    return ok


def run_binary(args):
    """Runs the benchmark binary once; returns (exit code, last JSON line)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=REP_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        log("error: lsbench_benchmark %s timed out" % " ".join(args))
        return -1, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log("error: unparsable output: %s" % lines[-1][:200])
    return proc.returncode, result


def git_state():
    """Commit SHA and dirty flag of the checkout; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        if (top.returncode != 0 or
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT)):
            return {"sha": None, "dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain",
                         "--untracked-files=no").stdout.strip())
        return {"sha": sha, "dirty": dirty}
    except OSError:
        return {"sha": None, "dirty": None}


def run_workload(workload, seed, seconds, trace):
    """Repeats one workload; returns (untraced reps, traced reps, ok).

    A round is one untraced repetition, or with `trace` a traced one and an
    untraced one. Rounds repeat until the minimum has run and the next
    round, if as long as the longest so far, would end after `seconds`.
    """
    plain, traced = [], []
    ok = True
    kinds = [True, False] if trace else [False]
    min_rounds = 1 if trace else MIN_REPS
    start = time.monotonic()
    rounds = 0
    longest_round = 0.0
    while True:
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed + longest_round > seconds:
            break
        round_start = time.monotonic()
        for is_traced in kinds:
            args = ["--workload", workload, "--seed", str(seed)]
            if is_traced:
                args.append("--traced")
            code, rep = run_binary(args)
            if code != 0 or rep is None or not rep.get("ok", False):
                ok = False
                log("error: %s repetition failed (exit %d)" % (workload, code))
            if rep is None:
                return plain, traced, False
            (traced if is_traced else plain).append(rep)
        rounds += 1
        longest_round = max(longest_round, time.monotonic() - round_start)
    return plain, traced, ok


def median_of(reps, section, name):
    return statistics.median(r[section][name] for r in reps)


def collect_metrics(spec, plain, traced, trace):
    """The reported metrics: medians over repetitions, keyed by name."""
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = (median_of(plain, "metrics", m["name"]),
                                  m["unit"])
        return metrics
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "core.latency_p99_us":
            value = median_of(plain, "metrics", "latency_p99_us")
        elif name == "obs.trace_overhead":
            value = (median_of(traced, "metrics", "throughput") /
                     median_of(plain, "metrics", "throughput"))
        elif name in traced[0]["layers"]:
            value = median_of(traced, "layers", name)
        else:
            value = median_of(traced, "metrics", name)
        metrics[name] = (value, m["unit"])
    return metrics


def print_metrics(workload, metrics, reps, samples):
    for name, (value, unit) in metrics.items():
        note = "median of %d reps" % reps
        if name.startswith("latency_"):
            note += ", %d samples each" % samples
        print("%-14s %-34s %16.6g %-12s %s" % (workload, name, value, unit,
                                               note))


def write_results(path, record):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def benchmark(spec, workloads, seed, seconds, trace):
    git = git_state()
    all_ok = True
    attempted = failed = 0
    final_metrics = {}
    for workload in workloads:
        plain, traced, ok = run_workload(workload, seed, seconds, trace)
        if not plain or (trace and not traced):
            return 1
        all_ok = all_ok and ok
        reps = traced if trace else plain
        attempted += sum(r["attempted"] for r in plain + traced)
        failed += sum(r["failed"] for r in plain + traced)
        metrics = collect_metrics(spec, plain, traced, trace)
        print_metrics(workload, metrics, len(reps),
                      plain[0]["metrics"]["latency_samples"])

        first = plain[0]
        record = {
            "workload": workload,
            "trace": int(trace),
            "seconds": seconds,
            "correct": ok,
            "manifest": {
                "host": first["host"],
                "git": git,
                "seed": seed,
                "clock": first["clock"],
                "sizes": first["sizes"],
            },
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u) in metrics.items()},
            "repetitions": plain + traced,
        }
        path = os.path.join(
            BUILD_DIR, "results",
            "%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
        write_results(path, record)
        log("%s: results in %s" % (workload, os.path.relpath(path, ROOT)))

        prefix = "" if len(workloads) == 1 else workload + "/"
        for name, (value, unit) in metrics.items():
            final_metrics[prefix + name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": all_ok, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    return 0 if all_ok else 1


def self_test(workloads, seed):
    """Bare and traced runs on a virtual clock must give identical events."""
    failures = 0
    for workload in workloads:
        code, rep = run_binary(["--workload", workload, "--seed", str(seed),
                                "--self-test"])
        identical = code == 0 and rep is not None and rep.get("identical")
        print("self-test %-14s %s (%s event-stream bytes, 1/%s size, "
              "virtual clock)" % (
                  workload, "identical" if identical else "DIFFERENT",
                  rep.get("stream_bytes") if rep else "?",
                  rep.get("scale") if rep else "?"))
        failures += 0 if identical else 1
    return 0 if failures == 0 else 1


def check():
    """Lints benchmark/ and builds it from scratch with no warnings."""
    lint = subprocess.run(
        [sys.executable, os.path.join("tools", "lint", "lsbench_lint.py"),
         "--root", ".", "benchmark"], cwd=ROOT)
    print("lint benchmark/: %s" % ("clean" if lint.returncode == 0
                                   else "FINDINGS"))

    # The library is built first so the second build compiles only the
    # benchmark's own sources: any warning there belongs to benchmark/.
    check_dir = os.path.join(BUILD_DIR, "check")
    shutil.rmtree(check_dir, ignore_errors=True)
    lib_ok, lib_log = cmake_build(check_dir, "lsbench", capture=True)
    bench_ok, bench_log = (cmake_build(check_dir, "lsbench_benchmark",
                                       capture=True)
                           if lib_ok else (False, ""))
    bench_warnings = [l for l in bench_log.splitlines() if "warning:" in l]
    lib_warnings = [l for l in lib_log.splitlines() if "warning:" in l]
    for line in bench_warnings:
        print(line)
    print("build benchmark/: %s, %d warning(s); library (../src): %d "
          "warning(s), reported only" % (
              "ok" if bench_ok else "FAILED", len(bench_warnings),
              len(lib_warnings)))
    passed = lint.returncode == 0 and bench_ok and not bench_warnings
    return 0 if passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Build and run the LSBench benchmark.")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %(default)s)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports the per-layer metrics of a traced "
                             "run (default 0: end-to-end metrics)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that traced and bare runs execute the "
                             "same operations")
    parser.add_argument("--check", action="store_true",
                        help="lint benchmark/ and build it warning-free")
    args = parser.parse_args(argv)

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error("unknown workload(s): %s" % ", ".join(unknown))
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.check:
        return check()
    if not build():
        return 1
    if args.self_test:
        return self_test(workloads, args.seed)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    return benchmark(spec, workloads, args.seed, seconds, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
