// Structured metrics export (the machine-readable side of every table in
// the paper's evaluation).
//
// metrics_json serializes the whole World's observable state — per-node
// NodeStats including the per-AM-category send->dispatch latency histograms
// and scheduling-queue depth samples, Network::Stats, heap/object figures
// and the optional run report — into one stable JSON document.
//
// Determinism contract: every quantity is simulated (instruction counts,
// packet counts, exact moments of simulated latencies), key order and
// number formatting are fixed, and nothing host-dependent (thread count,
// wall time, pointers) is included. A serial Machine run and a
// ParallelMachine run of the same program therefore produce byte-identical
// snapshots; the cross-driver tests and the bench regression hook rely on
// this.
#pragma once

#include <string>

#include "abcl/machine_api.hpp"
#include "util/stats.hpp"

namespace abcl::sim {
class ParallelMachine;
}  // namespace abcl::sim

namespace abcl::obs {

// v2 adds the "pooling" flag plus per-node and total "alloc" blocks (slab
// allocator counters — all simulated-deterministic). "pooling" is the
// constant true: every heap is slab-pooled, and the field stays so v2
// documents keep their bytes.
inline constexpr const char* kMetricsSchema = "abclsim-metrics-v2";

// Serializes `world` (and, if non-null, the report of its last run). Safe
// on a world that has never run: all counters are zero.
std::string metrics_json(const World& world, const RunReport* rep = nullptr);

// Shared histogram serializer (also used by test assertions): count,
// p50/p90/p99 approximations and the non-empty buckets as [index, count].
void histogram_json(class JsonWriter& w, const util::Log2Histogram& h);

// Parallel-driver execution counters: window and occupancy totals. Kept
// OUT of metrics_json on purpose — windows_run depends on the driver (a
// serial Machine has no windows at all), so embedding it there would break
// the serial/parallel byte-identity contract above. Everything emitted is
// still deterministic for a fixed (program, pinned thread count), so
// benches splice this block into their own reports and pin it in
// baselines.
std::string driver_metrics_json(const sim::ParallelMachine& pm);

}  // namespace abcl::obs
