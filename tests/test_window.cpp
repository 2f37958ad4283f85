// Window driver counters: ParallelMachine's per-window bookkeeping
// (windows run, node-window occupancy) on a real workload, and the
// driver_metrics_json snapshot that exposes it. The node→worker map is
// fixed (node i on worker i mod T), so the driver has no shard or
// rebalance counters to report.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/nqueens.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_machine.hpp"

namespace {

using namespace abcl;

// Runs 6-queens on 16 nodes under a `threads`-worker ParallelMachine and
// hands the driver to `check` while its World is still alive.
template <class Check>
void with_nqueens_driver(int threads, Check check) {
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  World world(prog, WorldConfig{}.with_nodes(16).with_host_threads(threads));
  auto r = apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(6));
  EXPECT_EQ(r.solutions, 4);
  auto* pm = dynamic_cast<const sim::ParallelMachine*>(&world.machine());
  ASSERT_NE(pm, nullptr);
  check(*pm);
}

TEST(WindowPolicy, StaticShardCountersAreSane) {
  with_nqueens_driver(2, [](const sim::ParallelMachine& pm) {
    EXPECT_GT(pm.windows_run(), 0u);
    // Occupancy counts node-window incidences: at least one node per
    // window, at most every node.
    EXPECT_GE(pm.occupancy_sum(), pm.windows_run());
    EXPECT_LE(pm.occupancy_sum(), pm.windows_run() * 16);
  });
}

TEST(WindowPolicy, DriverMetricsJsonSnapshotsTheCounters) {
  with_nqueens_driver(8, [](const sim::ParallelMachine& pm) {
    std::string err;
    auto doc = obs::parse_json(obs::driver_metrics_json(pm), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(static_cast<std::uint64_t>(doc->find("windows_run")->integer),
              pm.windows_run());
    EXPECT_EQ(static_cast<std::uint64_t>(doc->find("occupancy_sum")->integer),
              pm.occupancy_sum());
    // One window policy and one static shard: no policy or balancer fields.
    for (const char* gone :
         {"horizon", "shard", "rebalances", "shard_moves"}) {
      EXPECT_EQ(doc->find(gone), nullptr) << gone;
    }
  });
}

}  // namespace
