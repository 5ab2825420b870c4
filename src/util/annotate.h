#ifndef LSBENCH_UTIL_ANNOTATE_H_
#define LSBENCH_UTIL_ANNOTATE_H_

// Analysis-root annotations for lsbench-deepcheck.
//
// The regex lint (lsbench-lint) and the include-graph DAG (lsbench-analyze)
// cannot see *through calls*: a wall-clock read or heap allocation three
// frames below the per-op loop is invisible to both. lsbench-deepcheck
// (tools/lint/deepcheck.py) closes that gap with an interprocedural call
// graph built from every src/ TU, and these macros mark where its
// reachability walks start.
//
//   LSBENCH_HOT_PATH       -- this function runs once (or more) per
//                             operation in the measured loop. Nothing
//                             reachable from it may allocate, block, or
//                             throw (rules hot-alloc / hot-block /
//                             hot-throw).
//   LSBENCH_DETERMINISTIC  -- this function participates in the
//                             reproducibility contract. Nothing reachable
//                             from it may read ambient nondeterminism
//                             (wall clocks, random_device, rand, getenv,
//                             locale) except through the sanctioned
//                             wrappers in util/ (rule determinism).
//
// Under Clang the macros expand to __attribute__((annotate(...))) so the
// clang.cindex frontend reads them straight off the AST; under GCC they
// expand to nothing and deepcheck's scanner finds the macro tokens in the
// source text instead. Either way the set of roots is identical.
//
// Placement: on the declaration, before the return type --
//
//   LSBENCH_HOT_PATH
//   ExecOutcome Execute(const Operation& op, int64_t arrival_rel_nanos,
//                       OpResult* results);
//
// Violations are reported against a committed numbered baseline
// (tools/lint/deepcheck_baseline). One-off sanctioned reaches use an
// lsbench-deepcheck allow-comment on or above the offending function's
// declaration. See docs/STATIC_ANALYSIS.md for the rule catalogue and
// the baseline/suppression workflow.

#if defined(__clang__)
#define LSBENCH_ANNOTATE(x) __attribute__((annotate(x)))
#else
#define LSBENCH_ANNOTATE(x)  // No-op: deepcheck's GCC frontend scans source.
#endif

/// Root of the per-operation measured loop: must not allocate, block, or
/// throw (deepcheck rules hot-alloc, hot-block, hot-throw).
#define LSBENCH_HOT_PATH LSBENCH_ANNOTATE("lsbench::hot_path")

/// Root of the reproducibility contract: must not read ambient
/// nondeterminism except through util/ wrappers (deepcheck rule
/// determinism).
#define LSBENCH_DETERMINISTIC LSBENCH_ANNOTATE("lsbench::deterministic")

#endif  // LSBENCH_UTIL_ANNOTATE_H_
