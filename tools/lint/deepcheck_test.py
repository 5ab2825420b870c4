#!/usr/bin/env python3
"""Self-tests for lsbench-deepcheck.

Two layers:

  * unit tests for the pure pieces — name normalization, baseline
    round-trip, budget cross-check, source scanning;
  * fixture tests that run the real tool end-to-end over
    testdata/deepcheck/: every must-flag fixture must produce exactly its
    expected (rule, frontier, category) set, every must-pass fixture must
    come back clean. This is what proves each rule family is live — a
    checker that silently stops finding violations still fails here.

The gcc frontend runs always (the toolchain the repo builds with). The
clang frontend runs too when python3-clang + libclang are importable and
loadable (the CI deepcheck job installs them); otherwise those cases skip.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
DEEPCHECK = os.path.join(HERE, "deepcheck.py")
FIXTURES = os.path.join(HERE, "testdata", "deepcheck")

sys.path.insert(0, HERE)
import deepcheck  # noqa: E402


# (rule, frontier, category) sets each must-flag fixture must produce.
# Must-pass fixtures expect the empty set and exit 0.
EXPECTATIONS = {
    "fail_hot_alloc_direct.cc": {
        ("hot-alloc", "lsbench::HotAllocDirect", "operator-new"),
    },
    "fail_hot_alloc_transitive.cc": {
        ("hot-alloc", "lsbench::LevelThree", "malloc"),
    },
    "fail_hot_alloc_container.cc": {
        ("hot-alloc", "lsbench::HotPush", "operator-new"),
        ("hot-throw", "lsbench::HotPush", "std-throw"),
    },
    "fail_hot_alloc_virtual.cc": {
        ("hot-alloc", "lsbench::VecSink::Push", "operator-new"),
        ("hot-throw", "lsbench::VecSink::Push", "std-throw"),
    },
    "fail_hot_block_mutex.cc": {
        ("hot-block", "lsbench::HotLock", "mutex"),
        ("hot-throw", "lsbench::HotLock", "std-throw"),
    },
    "fail_hot_throw.cc": {
        ("hot-throw", "lsbench::HotThrow", "throw"),
    },
    "fail_determinism_clock.cc": {
        ("determinism", "lsbench::DeterministicStamp", "wall-clock"),
    },
    "pass_wrapper_clock.cc": set(),
    "pass_gated_mutex.cc": set(),
    "pass_clean_math.cc": set(),
    "pass_suppressed_alloc.cc": set(),
}


def run_fixture(fixture, frontend):
    """Copies one fixture into an isolated root and runs deepcheck on it.
    Returns (exit_code, {(rule, frontier, category)}, stdout+stderr)."""
    with tempfile.TemporaryDirectory(prefix="deepcheck_fixture_") as tmp:
        src = os.path.join(tmp, "src")
        os.makedirs(src)
        shutil.copy(os.path.join(FIXTURES, fixture), src)
        shutil.copy(os.path.join(FIXTURES, "fixture_prelude.h"), src)
        tu = os.path.join(src, fixture)
        with open(os.path.join(tmp, "compile_commands.json"), "w",
                  encoding="utf-8") as f:
            json.dump([{
                "directory": tmp,
                "command": f"g++ -std=c++20 -I{src} -c {tu}",
                "file": tu,
            }], f)
        proc = subprocess.run(
            [sys.executable, DEEPCHECK, "--root", tmp, "--baseline", "none",
             "--frontend", frontend],
            capture_output=True, text=True, timeout=300)
        found = set()
        for line in proc.stdout.splitlines():
            m = deepcheck.re.match(
                r"deepcheck: \[(\S+)\] (\S+) -> (\S+) \(root ", line)
            if m:
                found.add((m.group(1), m.group(2), m.group(3)))
        return proc.returncode, found, proc.stdout + proc.stderr


def clang_frontend_available():
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        return False
    try:
        deepcheck._configure_libclang()
        clang.cindex.Index.create()
    except Exception:
        return False
    return True


CLANG_OK = clang_frontend_available()


class FixtureTest(unittest.TestCase):
    maxDiff = None

    def check(self, fixture, frontend):
        expected = EXPECTATIONS[fixture]
        code, found, output = run_fixture(fixture, frontend)
        self.assertEqual(found, expected,
                         f"{fixture} [{frontend}]:\n{output}")
        self.assertEqual(code, 1 if expected else 0,
                         f"{fixture} [{frontend}]:\n{output}")


def _add_fixture_cases():
    for fixture in sorted(EXPECTATIONS):
        name = fixture.replace(".cc", "")

        def gcc_case(self, fixture=fixture):
            self.check(fixture, "gcc")

        setattr(FixtureTest, f"test_gcc_{name}", gcc_case)

        def clang_case(self, fixture=fixture):
            if not CLANG_OK:
                self.skipTest("libclang not available")
            self.check(fixture, "clang")

        setattr(FixtureTest, f"test_clang_{name}", clang_case)


_add_fixture_cases()


class NormalizationTest(unittest.TestCase):
    def test_strips_template_args(self):
        self.assertEqual(
            deepcheck.strip_template_args(
                "std::vector<lsbench::OpEvent, "
                "std::allocator<lsbench::OpEvent> >::push_back"),
            "std::vector::push_back")

    def test_protects_operator_symbols(self):
        self.assertEqual(
            deepcheck.strip_template_args(
                "std::operator<< <std::char_traits<char> >"),
            "std::operator<<")
        self.assertEqual(deepcheck.strip_template_args("operator<"),
                         "operator<")

    def test_strips_inline_namespaces(self):
        self.assertEqual(
            deepcheck.strip_template_args(
                "std::__cxx11::basic_string<char>::basic_string"),
            "std::basic_string::basic_string")
        self.assertEqual(
            deepcheck.strip_template_args(
                "std::chrono::_V2::steady_clock::now"),
            "std::chrono::steady_clock::now")

    def test_nested_template_args(self):
        self.assertEqual(
            deepcheck.strip_template_args(
                "std::map<int, std::vector<std::pair<int, int> > >::insert"),
            "std::map::insert")


class BaselineTest(unittest.TestCase):
    def test_round_trip_preserves_comments(self):
        finding = deepcheck.Finding(
            rule="hot-alloc", frontier="lsbench::Foo::Bar",
            category="operator-new", root="lsbench::Foo::Bar",
            path=("lsbench::Foo::Bar", "operator new"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline")
            old = {("hot-alloc", "lsbench::Foo::Bar", "operator-new"):
                   "reviewed: cold spill"}
            n = deepcheck.write_baseline(path, [finding], old)
            self.assertEqual(n, 1)
            loaded = deepcheck.load_baseline(path)
            self.assertEqual(
                loaded,
                {("hot-alloc", "lsbench::Foo::Bar", "operator-new"):
                 "reviewed: cold spill"})

    def test_rejects_unknown_rule(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline")
            with open(path, "w", encoding="utf-8") as f:
                f.write("1. not-a-rule lsbench::X operator-new\n")
            with self.assertRaises(RuntimeError):
                deepcheck.load_baseline(path)


class BudgetTest(unittest.TestCase):
    def _write(self, tmp, payload):
        path = os.path.join(tmp, "budget.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def test_clean_budget(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(tmp, {"per_op_heap_allocs": 0,
                                     "static_hot_alloc_baseline_entries": 1})
            baseline = {("hot-alloc", "lsbench::X", "operator-new"): ""}
            self.assertEqual(deepcheck.check_budget(path, baseline), [])

    def test_detects_divergence(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(tmp, {"per_op_heap_allocs": 0,
                                     "static_hot_alloc_baseline_entries": 3})
            problems = deepcheck.check_budget(path, {})
            self.assertEqual(len(problems), 1)
            self.assertIn("static_hot_alloc_baseline_entries", problems[0])


class ScannerTest(unittest.TestCase):
    def _scan(self, text):
        result = deepcheck.ScanResult()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "probe.h")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            deepcheck._scan_file(path, text, result)
        return result

    def test_roots_are_qualified(self):
        result = self._scan(
            "namespace lsbench {\n"
            "class Widget {\n"
            " public:\n"
            "  LSBENCH_HOT_PATH\n"
            "  LSBENCH_DETERMINISTIC\n"
            "  int Spin(int n);\n"
            "};\n"
            "}  // namespace lsbench\n")
        self.assertIn("lsbench::Widget::Spin", result.roots["hot_path"])
        self.assertIn("lsbench::Widget::Spin",
                      result.roots["deterministic"])
        self.assertEqual(result.errors, [])

    def test_suppression_attaches_to_next_function(self):
        result = self._scan(
            "namespace lsbench {\n"
            "// lsbench-deepcheck: allow(hot-alloc, hot-throw)\n"
            "void Widget::GrowSlow(int n) {}\n"
            "}  // namespace lsbench\n")
        self.assertEqual(
            result.suppressions.get("lsbench::Widget::GrowSlow"),
            {"hot-alloc", "hot-throw"})

    def test_unknown_rule_in_suppression_is_error(self):
        result = self._scan(
            "// lsbench-deepcheck: allow(no-such-rule)\n"
            "void Foo() {}\n")
        self.assertEqual(len(result.errors), 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
