#!/usr/bin/env python3
"""Unit tests for ledger.py on canned lsbench_cli --csv outputs.

testdata/ledger/ holds one real output per spec. A fake runner answers
each CLI call with that output, its phase durations replaced by the ones
a test chooses, so every rate and ratio below is exact.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ledger  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata", "ledger")


def canned(spec):
    with open(os.path.join(TESTDATA, spec + ".txt")) as f:
        return f.read()


def with_phases(text, phases):
    """`text` with its phases.csv rows' (operations, duration_s) replaced."""
    lines = text.splitlines()
    first = lines.index("## phases.csv") + 2
    for i, (ops, seconds) in enumerate(phases):
        cells = lines[first + i].split(",")
        cells[2], cells[3] = str(ops), repr(seconds)
        lines[first + i] = ",".join(cells)
    return "\n".join(lines) + "\n"


# Per spec: elements per phase, and durations that pass every gate.
ELEMENTS = {"dispatch": (1048576, 1048576), "scaling": (400000, 400000)}
PASSING = {"dispatch": (1.0, 0.25), "scaling": (1.0, 1.0)}


class FakeCli:
    """Answers ledger.run_cli's calls from the canned outputs.

    `durations[(spec, sut, workers)]` is one duration pair per repeat, or
    one pair for every repeat; `exit_codes` and `elements` override a
    config's exit status and element counts.
    """

    def __init__(self, durations=None, exit_codes=None, elements=None):
        self.durations = durations or {}
        self.exit_codes = exit_codes or {}
        self.elements = elements or {}
        self.calls = {}

    def __call__(self, argv):
        spec = os.path.basename(argv[1])[:-len(".lsb")]
        flags = dict(a[2:].split("=", 1) for a in argv[2:] if "=" in a)
        config = (spec, flags["sut"], int(flags["workers"]))
        repeat = self.calls.get(config, 0)
        self.calls[config] = repeat + 1
        if config in self.exit_codes:
            return self.exit_codes[config], "", "spec error: boom\n"
        durations = self.durations.get(config)
        if durations is None:
            durations = PASSING[spec]
            if config == ("scaling", "partitioned", 4):
                durations = (0.25, 0.25)
        elif isinstance(durations, list):
            durations = durations[repeat]
        counts = self.elements.get(config, ELEMENTS[spec])
        return 0, with_phases(canned(spec), zip(counts, durations)), ""


def run(cli, nproc=4, check=None):
    """(exit status, record or None, stderr) of one ledger.main call."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "ledger.json")
        argv = ["build", "--out", out]
        if check is not None:
            committed = os.path.join(tmp, "committed.json")
            with open(committed, "w") as f:
                json.dump(check, f)
            argv += ["--check", committed]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            status = ledger.main(argv, runner=cli, host={"nproc": nproc})
        record = None
        if os.path.exists(out):
            with open(out) as f:
                record = json.load(f)
    return status, record, err.getvalue()


def ratio(record, name):
    return next(r for r in record["ratios"] if r["name"] == name)


BATCH_GATE = "btree@4 batch/scalar"
SCALING_GATE = "partitioned@4 / serialized btree@4"


class LedgerTest(unittest.TestCase):
    def test_reads_the_phases_block_of_a_real_output(self):
        phases = ledger.parse_phases(canned("dispatch"))
        self.assertEqual([ops for ops, _ in phases], [1048576, 1048576])
        self.assertEqual(len(ledger.parse_phases(canned("scaling"))), 2)

    def test_each_spec_implies_its_element_counts(self):
        for spec, counts in ELEMENTS.items():
            with open(ledger.spec_path(spec)) as f:
                implied = ledger.implied_phases(f.read())
            self.assertEqual([n for _, n in implied], list(counts))
        self.assertEqual(ledger.implied_phases(
            "[phase]\nops = 10\nmix = get:1\nbatch_mix = batch_get:1\n"),
            [("", None)])

    def test_median_and_ratio_arithmetic(self):
        # Per repeat: batch/scalar = 4, 4 and 8; median 4.
        cli = FakeCli({("dispatch", "btree", 4):
                       [(1.0, 0.25), (2.0, 0.5), (4.0, 0.5)]})
        status, record, _ = run(cli)
        self.assertEqual(status, 0)
        self.assertTrue(all(n == ledger.REPEATS for n in cli.calls.values()))
        self.assertEqual(len(cli.calls), len(ledger.GRID))
        row = ratio(record, BATCH_GATE)
        self.assertEqual(row["values"], [4.0, 4.0, 8.0])
        self.assertEqual(row["median"], 4.0)
        config = next(c for c in record["configs"]
                      if (c["spec"], c["sut"], c["workers"]) ==
                      ("dispatch", "btree", 4))
        scalar, batch, whole = config["phases"]
        self.assertEqual(scalar["phase"], "scalar")
        self.assertEqual(scalar["rates"], [1048576, 524288, 262144])
        self.assertEqual(scalar["median"], 524288)
        self.assertEqual(batch["median"], 2097152)
        # The whole run: 2 * 1048576 elements over the summed durations.
        self.assertEqual(whole["rates"][0], round(2097152 / 1.25))
        self.assertEqual(ratio(record, SCALING_GATE)["median"], 4.0)

    def test_each_floor_passes_and_fails(self):
        cases = [
            (BATCH_GATE, ("dispatch", "btree", 4), (1.0, 1 / 3.5), 0),
            (BATCH_GATE, ("dispatch", "btree", 4), (1.0, 1 / 2.9), 1),
            (SCALING_GATE, ("scaling", "partitioned", 4),
             (1 / 1.4, 1 / 1.4), 0),
            (SCALING_GATE, ("scaling", "partitioned", 4),
             (1 / 1.2, 1 / 1.2), 1),
        ]
        for name, config, durations, expected in cases:
            with self.subTest(gate=name, durations=durations):
                status, record, err = run(FakeCli({config: durations}))
                self.assertEqual(status, expected)
                row = ratio(record, name)
                self.assertEqual(row["verdict"],
                                 "fail" if expected else "pass")
                if expected:
                    self.assertIn(name + " is", err)

    def test_scaling_gate_is_skipped_below_four_cores(self):
        cli = FakeCli({("scaling", "partitioned", 4): (1.0, 1.0)})
        status, record, _ = run(cli, nproc=2)
        self.assertEqual(status, 0)
        self.assertEqual(ratio(record, SCALING_GATE)["verdict"],
                         "skipped: 2 cores < 4")
        self.assertEqual(ratio(record, BATCH_GATE)["verdict"], "pass")
        status, record, _ = run(cli, nproc=4)
        self.assertEqual(status, 1)
        self.assertEqual(ratio(record, SCALING_GATE)["verdict"], "fail")

    def test_grid_mismatch_against_the_committed_record(self):
        _, committed, _ = run(FakeCli())
        status, _, err = run(FakeCli(), check=committed)
        self.assertEqual(status, 0, err)
        committed["configs"].pop()
        status, record, err = run(FakeCli(), check=committed)
        self.assertEqual(status, 1)
        self.assertIn("config grid differs", err)
        self.assertIsNotNone(record)

    def test_nonzero_cli_exit_fails_the_run(self):
        cli = FakeCli(exit_codes={("scaling", "partitioned", 2): 1})
        status, record, err = run(cli)
        self.assertEqual(status, 1)
        self.assertIsNone(record)
        self.assertIn("scaling --sut=partitioned --workers=2 exited 1", err)
        self.assertIn("spec error: boom", err)

    def test_element_count_off_the_spec_fails_the_run(self):
        cli = FakeCli(elements={("dispatch", "rmi", 1): (1048576, 1048320)})
        status, record, err = run(cli)
        self.assertEqual(status, 1)
        self.assertIsNone(record)
        self.assertIn("but the spec implies [1048576, 1048576]", err)


if __name__ == "__main__":
    unittest.main()
