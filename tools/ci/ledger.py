#!/usr/bin/env python3
"""The throughput ledger: spec-driven lsbench_cli runs, gated on ratios.

    python3 tools/ci/ledger.py BUILD_DIR [--out PATH] [--check COMMITTED]

Runs BUILD_DIR/tools/lsbench_cli --csv on each config of GRID, one process
per run, REPEATS runs per config, round robin so that a change in host load
lands on every config alike. A phase's rate is operations / duration_s from
`## phases.csv`; a ratio pairs the rates of one repeat (batch over scalar:
two phases of one process) and takes the median over repeats. Writes PATH
(default BENCH_ledger.json): host and build, every rate, every ratio with
its floor and verdict. Absolute rates measure the host, so only ratios
gate. Exits 1 when a gated ratio is below its floor, a CLI run fails or
counts elements its spec does not imply, or --check finds another grid.
"""

import argparse
import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC_DIR = os.path.join(ROOT, "specs", "bench")

REPEATS = 3
GRID = ([("dispatch", sut, workers)
         for sut in ("btree", "rmi") for workers in (1, 4)] +
        [("scaling", sut, workers)
         for sut in ("btree", "partitioned") for workers in (1, 2, 4)])

# (name, numerator, denominator, floor, cores needed). A side is (spec, sut,
# workers, phase name), None naming the whole run. A ratio whose floor is
# None is reported, never gated. btree at 2 or more workers runs behind the
# driver's serializing lock.
RATIOS = [("%s@%d batch/scalar" % (sut, w), ("dispatch", sut, w, "batch"),
           ("dispatch", sut, w, "scalar"),
           3.0 if (sut, w) == ("btree", 4) else None, 1)
          for sut in ("btree", "rmi") for w in (1, 4)] + [
    ("partitioned@4 / serialized btree@4", ("scaling", "partitioned", 4, None),
     ("scaling", "btree", 4, None), 1.3, 4),
    ("partitioned@4 / partitioned@1", ("scaling", "partitioned", 4, None),
     ("scaling", "partitioned", 1, None), None, 1),
    ("btree@4 / btree@1", ("scaling", "btree", 4, None),
     ("scaling", "btree", 1, None), None, 1),
]


class LedgerError(Exception):
    """A run the ledger cannot use: the CLI failed or miscounted."""


def spec_path(spec):
    return os.path.join(SPEC_DIR, spec + ".lsb")


def implied_phases(text):
    """[(name, elements)] per [phase] of spec text: `ops` for a phase of
    scalar ops, `ops * batch_size` for one of batch ops, None for a mix."""
    phases = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            phases.append({} if line == "[phase]" else None)
        elif phases and phases[-1] is not None and "=" in line:
            key, value = line.split("=", 1)
            phases[-1][key.strip()] = value.strip()
    out = []
    for phase in filter(None, phases):
        scalar, batch = (any(float(pair.split(":")[1])
                             for pair in phase.get(key, default).split(","))
                         for key, default in (("mix", "get:1"),
                                              ("batch_mix", "get:0")))
        ops = int(phase.get("ops", "10000"))
        elements = (None if scalar and batch else
                    ops * int(phase.get("batch_size", "64")) if batch else ops)
        out.append((phase.get("name", ""), elements))
    return out


def parse_phases(stdout):
    """[(operations, duration_s)] from the `## phases.csv` block."""
    lines = stdout.splitlines()
    if "## phases.csv" not in lines:
        raise LedgerError("no '## phases.csv' block in the CLI output")
    block = lines[lines.index("## phases.csv") + 1:]
    block = block[:block.index("")] if "" in block else block
    return [(int(row["operations"]), float(row["duration_s"]))
            for row in csv.DictReader(io.StringIO("\n".join(block)))]


def run_cli(argv):
    proc = subprocess.run(argv, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def measure(build_dir, runner=run_cli):
    """{config: {phase name, or None for the run: [rate per repeat]}}."""
    cli = os.path.join(build_dir, "tools", "lsbench_cli")
    implied = {}
    for spec, _, _ in GRID:
        with open(spec_path(spec)) as f:
            implied[spec] = implied_phases(f.read())
    rates = {config: {} for config in GRID}
    for _ in range(REPEATS):
        for config in GRID:
            spec, sut, workers = config
            where = "%s --sut=%s --workers=%d" % config
            code, stdout, stderr = runner(
                [cli, spec_path(spec), "--sut=" + sut,
                 "--workers=%d" % workers, "--csv"])
            if code != 0:
                raise LedgerError("%s exited %d: %s"
                                  % (where, code, stderr.strip()[-500:]))
            phases = parse_phases(stdout)
            counts = [ops for ops, _ in phases]
            expected = [elements for _, elements in implied[spec]]
            if counts != expected:
                raise LedgerError("%s ran %s elements per phase, but the spec "
                                  "implies %s" % (where, counts, expected))
            if any(seconds <= 0 for _, seconds in phases):
                raise LedgerError("%s reported a phase of no duration" % where)
            for (name, _), (ops, seconds) in zip(implied[spec], phases):
                rates[config].setdefault(name, []).append(ops / seconds)
            rates[config].setdefault(None, []).append(
                sum(counts) / sum(seconds for _, seconds in phases))
    return rates


def judge(rates, nproc):
    """The record's ratio rows, and the failed gates' messages."""
    rows, failures = [], []
    for name, num, den, floor, cores in RATIOS:
        values = [a / b for a, b in zip(rates[num[:3]][num[3]],
                                        rates[den[:3]][den[3]])]
        value = statistics.median(values)
        if floor is None:
            verdict = "reported"
        elif nproc < cores:
            verdict = "skipped: %d cores < %d" % (nproc, cores)
        else:
            verdict = "pass" if value >= floor else "fail"
        if verdict == "fail":
            failures.append("%s is %.2fx, below its floor %.1fx"
                            % (name, value, floor))
        rows.append({"name": name, "values": [round(v, 3) for v in values],
                     "median": round(value, 3), "floor": floor,
                     "verdict": verdict})
    return rows, failures


def config_rows(rates):
    return [{"spec": spec, "sut": sut, "workers": workers,
             "phases": [{"phase": "(run)" if phase is None else phase,
                         "rates": [round(r) for r in values],
                         "median": round(statistics.median(values))}
                        for phase, values in by_phase.items()]}
            for (spec, sut, workers), by_phase in rates.items()]


def grid_of(record):
    return sorted((c["spec"], c["sut"], c["workers"],
                   tuple(p["phase"] for p in c["phases"]))
                  for c in record["configs"])


def first_line(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return None if out.returncode else out.stdout.partition("\n")[0].strip()


def manifest(build_dir):
    """The host, commit (`-dirty`: uncommitted) and build of the rates."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        cache = dict(re.findall(r"^(\w+):\w+=(.*)$", f.read(), re.M))
    compiler = cache.get("CMAKE_CXX_COMPILER")
    l3 = first_line(["getconf", "LEVEL3_CACHE_SIZE"]) or ""
    return {"nproc": os.cpu_count(),
            "l3_bytes": int(l3) if l3.isdigit() and int(l3) > 0 else None,
            "git_sha": first_line(["git", "describe", "--always", "--dirty",
                                   "--abbrev=40"]),
            "build_type": cache.get("CMAKE_BUILD_TYPE"),
            "compiler": compiler and (first_line([compiler, "--version"]) or
                                      compiler)}


def main(argv=None, runner=run_cli, host=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("build_dir")
    parser.add_argument("--out", default="BENCH_ledger.json")
    parser.add_argument("--check", metavar="COMMITTED")
    args = parser.parse_args(argv)

    committed = None
    if args.check:
        with open(args.check) as f:
            committed = json.load(f)
    host = host if host is not None else manifest(args.build_dir)
    try:
        rates = measure(args.build_dir, runner)
    except LedgerError as err:
        print("FAIL: %s" % err, file=sys.stderr)
        return 1
    ratios, failures = judge(rates, host["nproc"] or 1)
    record = {"bench": "ledger", "repeats": REPEATS, "manifest": host,
              "configs": config_rows(rates), "ratios": ratios}
    if committed is not None and grid_of(committed) != grid_of(record):
        failures.append("config grid differs from %s: committed %s, fresh %s"
                        % (args.check, grid_of(committed), grid_of(record)))
    # One line per list of numbers keeps the record short and diffable.
    with open(args.out, "w") as f:
        f.write(re.sub(r"\[\s+([-\d.,\s]+?)\s+\]",
                       lambda m: "[" + " ".join(m.group(1).split()) + "]",
                       json.dumps(record, indent=1)) + "\n")

    for row in ratios:
        floor = "" if row["floor"] is None else ">= %.1fx" % row["floor"]
        print("%-36s %7.2fx  %-8s %s" % (row["name"], row["median"], floor,
                                         row["verdict"]))
    print("wrote %s" % args.out)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
