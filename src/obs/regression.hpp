// Counter-drift regression checking over JSON reports.
//
// Compares a candidate document (fresh bench/metrics output) against a
// committed baseline, walking both trees in parallel. Numeric leaves must
// agree within a relative tolerance; strings/bools must match exactly;
// structure (keys, array lengths) must match. Keys in the ignore set —
// host-dependent quantities like wall-clock and core counts — are skipped
// wherever they appear.
//
// This is the CI hook behind `bench_regression_check`: tier-1 counters
// (solutions, sim_time, quanta, packet counts) are deterministic, so any
// drift beyond the tolerance means either a real regression or an
// intentional cost-model change that must update the baseline in the same
// commit. Every value in a metrics snapshot, floats included, is a pure
// function of simulated state, so snapshots are compared at tolerance 0;
// bench trajectories keep a small tolerance for their formatted floats.
// Keys are checked in both directions: one that vanishes from the
// candidate or appears in it is a drift.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace abcl::obs {

struct Drift {
  std::string path;    // e.g. "runs[3].sim_time"
  std::string detail;  // human-readable "baseline X, candidate Y (+Z%)"
};

struct CompareResult {
  std::vector<Drift> drifts;
  bool ok() const { return drifts.empty(); }
  std::string to_string() const;  // one drift per line; empty when ok
};

// Fields excluded from bench-trajectory comparison: host-dependent ones
// (wall_ms, speedup, host_cores, parallel_meaningful) plus the
// fault-injection and migration counter blocks (present only in runs with
// those features on). The one canonical list — see regression.cpp.
extern const std::vector<std::string> kDefaultIgnoredKeys;

CompareResult compare_json(const JsonValue& baseline, const JsonValue& candidate,
                           double tol_pct,
                           const std::vector<std::string>& ignored_keys =
                               kDefaultIgnoredKeys);

// File-level convenience: parses both files and compares them with
// compare_json. Parse or I/O failures are reported as drifts so callers
// can treat any non-ok result uniformly.
CompareResult compare_json_files(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 double tol_pct,
                                 const std::vector<std::string>& ignored_keys =
                                     kDefaultIgnoredKeys);

}  // namespace abcl::obs
