#!/usr/bin/env python3
"""Failed and attempted elements per workload, from benchmark results files.

`benchmark/run.py` writes one results file per workload run,
`<workload>-seed<S>-trace<T>.json` under `.bench_build/results/`, holding
every repetition with its `attempted` and `failed` element counts. Its own
summary line adds those counts over all workloads, so it cannot say which
workload failed. This prints them per workload and repetition:

    python3 tools/ci/bench_failures.py DIR [DIR...]

Each DIR is searched recursively for results files, so a checkout root, a
`.bench_build/results` directory or a copy of one all work. The last block
sums each workload over every DIR given. Exit status 1 when a DIR holds no
results file, 2 on a malformed one, else 0.
"""

import glob
import json
import os
import sys


def find_results(directory):
    """The results files under `directory`, sorted by path."""
    pattern = os.path.join(directory, "**", "*-seed*-trace*.json")
    return sorted(glob.glob(pattern, recursive=True))


def load_repetitions(path):
    """(workload, trace, [(failed, attempted), ...]) of one results file."""
    with open(path) as f:
        record = json.load(f)
    reps = [(int(r["failed"]), int(r["attempted"]))
            for r in record["repetitions"]]
    return record["workload"], int(record["trace"]), reps


def report(directories, out):
    """Writes the per-repetition and per-workload counts; returns a status."""
    totals = {}  # workload -> [failed, attempted, repetitions]
    for directory in directories:
        paths = find_results(directory)
        if not paths:
            print("error: no *-seed*-trace*.json results under %s" % directory,
                  file=sys.stderr)
            return 1
        out.write("== %s\n" % directory)
        for path in paths:
            try:
                workload, trace, reps = load_repetitions(path)
            except (OSError, ValueError, KeyError, TypeError) as e:
                print("error: %s: %s" % (path, e), file=sys.stderr)
                return 2
            counts = " ".join("%d/%d" % rep for rep in reps)
            out.write("%-14s trace%d  failed/attempted per repetition: %s\n"
                      % (workload, trace, counts))
            total = totals.setdefault(workload, [0, 0, 0])
            total[0] += sum(failed for failed, _ in reps)
            total[1] += sum(attempted for _, attempted in reps)
            total[2] += len(reps)
    out.write("== total over %d director%s\n"
              % (len(directories), "y" if len(directories) == 1 else "ies"))
    for workload in sorted(totals):
        failed, attempted, count = totals[workload]
        out.write("%-14s failed %d of %d elements in %d repetitions\n"
                  % (workload, failed, attempted, count))
    return 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if not args or any(a.startswith("-") for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return report(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
