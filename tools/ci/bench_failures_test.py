#!/usr/bin/env python3
"""Unit tests for bench_failures.py on canned benchmark results files."""

import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_failures  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def run_report(directories):
    out = io.StringIO()
    status = bench_failures.report(directories, out)
    return status, out.getvalue().splitlines()


class BenchFailuresTest(unittest.TestCase):
    def test_counts_per_workload_and_repetition(self):
        status, lines = run_report([TESTDATA])
        self.assertEqual(status, 0)
        self.assertEqual(lines, [
            "== " + TESTDATA,
            "cached_batch   trace0  failed/attempted per repetition: "
            "0/5000 3/4800",
            "dram_read      trace0  failed/attempted per repetition: 0/700",
            "== total over 1 directory",
            "cached_batch   failed 3 of 9800 elements in 2 repetitions",
            "dram_read      failed 0 of 700 elements in 1 repetitions",
        ])

    def test_totals_sum_over_directories(self):
        status, lines = run_report([TESTDATA, TESTDATA])
        self.assertEqual(status, 0)
        self.assertIn("cached_batch   failed 6 of 19600 elements in 4 "
                      "repetitions", lines)
        self.assertIn("dram_read      failed 0 of 1400 elements in 2 "
                      "repetitions", lines)

    def test_directory_without_results_is_an_error(self):
        with tempfile.TemporaryDirectory() as empty:
            status, _ = run_report([empty])
        self.assertEqual(status, 1)

    def test_malformed_results_file_is_an_error(self):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "open_loop-seed1-trace0.json")
            with open(path, "w") as f:
                f.write('{"workload": "open_loop", "trace": 0}\n')
            status, _ = run_report([directory])
        self.assertEqual(status, 2)


if __name__ == "__main__":
    unittest.main()
