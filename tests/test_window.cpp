// Deterministic shard balancing: unit tests for the ShardBalancer's
// deterministic LPT packing, the ParallelMachine shard-policy matrix
// ({static,balanced} x {1,2,8} threads) byte-identity contract, the
// driver's window counters, and the ABCLSIM_SHARD environment grammar.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "apps/nqueens.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_machine.hpp"
#include "sim/shard_balance.hpp"

namespace {

using namespace abcl;
using sim::Instr;
using sim::kInstrInf;

// Deterministic key stream: SplitMix64 over an index, occasionally idle.
Instr key_at(std::uint64_t seed, std::uint64_t i, bool allow_inf = true) {
  std::uint64_t z = seed + (i + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  if (allow_inf && (z & 7) == 0) return kInstrInf;  // 1/8 idle
  return static_cast<Instr>(z % 100'000);
}

// -------------------------------------------------------- ShardBalancer ---

TEST(ShardBalance, InitialAssignmentIsRoundRobin) {
  sim::ShardBalancer bal(10, 4, 7);
  for (std::int32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(bal.assignment()[static_cast<std::size_t>(i)], i % 4);
  }
}

TEST(ShardBalance, RebalanceIsDeterministicAndConsumesQuanta) {
  auto feed = [](sim::ShardBalancer& bal, std::uint64_t salt) {
    std::vector<std::int32_t> history;
    for (int round = 0; round < 6; ++round) {
      std::vector<std::uint64_t> q(16);
      for (std::size_t i = 0; i < q.size(); ++i) {
        q[i] = key_at(salt + round, i, /*allow_inf=*/false) & 31;
      }
      bal.rebalance(q.data());
      for (std::uint64_t v : q) EXPECT_EQ(v, 0u);  // consumed
      history.insert(history.end(), bal.assignment().begin(),
                     bal.assignment().end());
    }
    return history;
  };
  sim::ShardBalancer a(16, 4, 99), b(16, 4, 99);
  EXPECT_EQ(feed(a, 5), feed(b, 5));  // bit-identical history, same stream

  // A different tie-break seed may pack equal loads differently, but the
  // result is still a valid assignment into [0, workers).
  sim::ShardBalancer c(16, 4, 100);
  for (std::int32_t w : feed(c, 5)) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }
}

TEST(ShardBalance, LptIsolatesTheHeavyNode) {
  sim::ShardBalancer bal(4, 2, 1);
  std::vector<std::uint64_t> q = {100, 1, 1, 1};
  bal.rebalance(q.data());
  const auto& a = bal.assignment();
  // Largest-first onto least-loaded: the heavy node ends up alone on one
  // worker, the three light ones share the other.
  EXPECT_NE(a[0], a[1]);
  EXPECT_EQ(a[1], a[2]);
  EXPECT_EQ(a[2], a[3]);
}

TEST(ShardBalance, SteadyLoadConverges) {
  sim::ShardBalancer bal(32, 8, 3);
  std::vector<std::uint64_t> base(32);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = key_at(11, i, /*allow_inf=*/false) & 63;
  }
  int moves = -1;
  for (int round = 0; round < 12; ++round) {
    std::vector<std::uint64_t> q = base;
    moves = bal.rebalance(q.data());
  }
  // Identical per-window loads: the EWMAs converge and the LPT packing
  // stops churning — steady state must be a fixed point, not an oscillation.
  EXPECT_EQ(moves, 0);
}

// --------------------------------------- ParallelMachine policy matrix ----

struct PolicyFp {
  std::int64_t solutions = 0;
  Instr sim_time = 0;
  std::uint64_t quanta = 0;
  std::string metrics;
  bool operator==(const PolicyFp&) const = default;
};

PolicyFp run_policy(int host_threads, sim::ShardKind s,
                    sim::ParallelMachine** pm_out = nullptr) {
  static core::Program* prog = nullptr;
  static apps::NQueensProgram np;
  if (prog == nullptr) {
    prog = new core::Program();
    np = apps::register_nqueens(*prog);
    prog->finalize();
  }
  WorldConfig cfg;
  cfg.with_nodes(16);
  cfg.with_host_threads(host_threads);
  cfg.with_shard(s);
  static World* world = nullptr;
  delete world;
  world = new World(*prog, cfg);
  auto r = apps::run_nqueens(*world, np,
                             apps::NQueensParams::paper_calibrated(6));
  PolicyFp fp;
  fp.solutions = r.solutions;
  fp.sim_time = r.sim_time;
  fp.quanta = r.rep.quanta;
  fp.metrics = obs::metrics_json(*world);
  if (pm_out != nullptr) {
    *pm_out = dynamic_cast<sim::ParallelMachine*>(&world->machine());
  }
  return fp;
}

TEST(WindowPolicy, MatrixIsByteIdenticalToSerial) {
  const PolicyFp serial = run_policy(-1, sim::ShardKind::kStatic);
  EXPECT_EQ(serial.solutions, 4);  // 6-queens
  for (sim::ShardKind s :
       {sim::ShardKind::kStatic, sim::ShardKind::kBalanced}) {
    for (int t : {1, 2, 8}) {
      PolicyFp fp = run_policy(t, s);
      EXPECT_EQ(fp, serial) << "threads=" << t
                            << " shard=" << sim::to_string(s);
    }
  }
}

TEST(WindowPolicy, StaticShardCountersAreSane) {
  sim::ParallelMachine* pm = nullptr;
  run_policy(2, sim::ShardKind::kStatic, &pm);
  ASSERT_NE(pm, nullptr);
  EXPECT_GT(pm->windows_run(), 0u);
  // Occupancy counts node-window incidences: at least one node per window,
  // at most every node.
  EXPECT_GE(pm->occupancy_sum(), pm->windows_run());
  EXPECT_LE(pm->occupancy_sum(), pm->windows_run() * 16);
  EXPECT_EQ(pm->rebalances(), 0u);  // static shard never rebalances
  EXPECT_EQ(pm->shard_moves(), 0u);
}

TEST(WindowPolicy, BalancedShardRebalancesAtMultiThreadWidths) {
  sim::ParallelMachine* pm = nullptr;
  run_policy(8, sim::ShardKind::kBalanced, &pm);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->shard_kind(), sim::ShardKind::kBalanced);
  EXPECT_GT(pm->rebalances(), 0u);

  // A single worker has nothing to balance: the policy degrades to static.
  sim::ParallelMachine* pm1 = nullptr;
  run_policy(1, sim::ShardKind::kBalanced, &pm1);
  ASSERT_NE(pm1, nullptr);
  EXPECT_EQ(pm1->shard_kind(), sim::ShardKind::kStatic);
}

TEST(WindowPolicy, DriverMetricsJsonSnapshotsTheCounters) {
  sim::ParallelMachine* pm = nullptr;
  run_policy(8, sim::ShardKind::kBalanced, &pm);
  ASSERT_NE(pm, nullptr);
  const std::string js = obs::driver_metrics_json(*pm);
  std::string err;
  auto doc = obs::parse_json(js, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("horizon"), nullptr);  // one window policy: no field
  EXPECT_EQ(doc->find("shard")->string, "balanced");
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("windows_run")->integer),
            pm->windows_run());
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("occupancy_sum")->integer),
            pm->occupancy_sum());
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("rebalances")->integer),
            pm->rebalances());
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("shard_moves")->integer),
            pm->shard_moves());
}

// ------------------------------------------------------- env grammar ------

// Saves/restores one environment variable around a test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(WindowPolicyEnv, ParsesShard) {
  {
    ScopedEnv s("ABCLSIM_SHARD", nullptr);
    WorldConfig cfg = WorldConfig::from_env();
    EXPECT_EQ(cfg.shard, sim::ShardKind::kStatic);
  }
  {
    ScopedEnv s("ABCLSIM_SHARD", "balanced");
    WorldConfig cfg = WorldConfig::from_env();
    EXPECT_EQ(cfg.shard, sim::ShardKind::kBalanced);
  }
}

TEST(WindowPolicyEnvDeathTest, GarbageShardAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv s("ABCLSIM_SHARD", "spread");
  EXPECT_DEATH(WorldConfig::from_env(), "ABCLSIM_SHARD");
}

TEST(WindowPolicy, ToStringSpellsTheEnvGrammar) {
  EXPECT_STREQ(sim::to_string(sim::ShardKind::kStatic), "static");
  EXPECT_STREQ(sim::to_string(sim::ShardKind::kBalanced), "balanced");
}

}  // namespace
