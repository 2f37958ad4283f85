// Topology-aware lookahead + deterministic shard balancing: unit tests for
// HorizonMap's O(N) exclude-self min-plus relaxation against the O(N^2)
// brute force, the line transform it is built from, the ShardBalancer's
// deterministic LPT packing, the ParallelMachine policy matrix
// ({global,distance} x {static,balanced}) byte-identity contract, the
// fault-injection fallback to the flat window, and the ABCLSIM_HORIZON /
// ABCLSIM_SHARD environment grammar.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "apps/nqueens.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/lookahead.hpp"
#include "sim/parallel_machine.hpp"
#include "sim/shard_balance.hpp"

namespace {

using namespace abcl;
using net::Topology;
using net::TopologyKind;
using sim::HorizonMap;
using sim::Instr;
using sim::kInstrInf;
using sim::sat_add;

// Deterministic key stream: SplitMix64 over an index, occasionally idle.
Instr key_at(std::uint64_t seed, std::uint64_t i, bool allow_inf = true) {
  std::uint64_t z = seed + (i + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  if (allow_inf && (z & 7) == 0) return kInstrInf;  // 1/8 idle
  return static_cast<Instr>(z % 100'000);
}

// ------------------------------------------------------------ sat_add -----

TEST(Lookahead, SatAddSaturatesAtInf) {
  EXPECT_EQ(sat_add(5, 7), 12u);
  EXPECT_EQ(sat_add(kInstrInf, 0), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf, 5), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf - 3, 5), kInstrInf);
  EXPECT_EQ(sat_add(0, kInstrInf), kInstrInf);
}

// -------------------------------------------------- line_min_plus_excl ----

// O(n^2) reference of the exclude-self line transform.
void line_ref(const std::vector<Instr>& a, Instr w, bool wrap,
              std::vector<Instr>* out) {
  const std::size_t n = a.size();
  out->assign(n, kInstrInf);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      std::size_t d = i > j ? i - j : j - i;
      if (wrap) d = std::min(d, n - d);
      Instr v = sat_add(a[j], w * static_cast<Instr>(d));
      (*out)[i] = std::min((*out)[i], v);
    }
  }
}

TEST(Lookahead, LineMinPlusExclMatchesReference) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 17u}) {
    for (Instr w : {Instr{0}, Instr{1}, Instr{7}}) {
      for (bool wrap : {false, true}) {
        std::vector<Instr> a(n), got(n), want;
        for (std::size_t i = 0; i < n; ++i) a[i] = key_at(42 * n + w, i);
        sim::line_min_plus_excl(a.data(), n, w, wrap, got.data());
        line_ref(a, w, wrap, &want);
        EXPECT_EQ(got, want) << "n=" << n << " w=" << w << " wrap=" << wrap;
      }
    }
  }
}

TEST(Lookahead, LineMinPlusExclAllIdleIsIdle) {
  std::vector<Instr> a(6, kInstrInf), got(6);
  sim::line_min_plus_excl(a.data(), a.size(), 3, true, got.data());
  for (Instr v : got) EXPECT_EQ(v, kInstrInf);
}

// ----------------------------------------------------------- HorizonMap ---

// relax() must equal brute_force() exactly on every topology with an exact
// transform. Sizes deliberately include 1 (no other node -> inf), primes
// (grids degrade to Nx1) and non-square factorizations (12 = 4x3, 30 = 6x5).
TEST(Lookahead, RelaxMatchesBruteForceOnExactTopologies) {
  const TopologyKind kinds[] = {TopologyKind::kTorus2D, TopologyKind::kMesh2D,
                                TopologyKind::kFullyConnected,
                                TopologyKind::kRing};
  const std::int32_t sizes[] = {1, 2, 3, 4, 5, 7, 12, 16, 30, 64};
  for (TopologyKind kind : kinds) {
    for (std::int32_t n : sizes) {
      Topology topo(kind, n);
      for (Instr per_hop : {Instr{0}, Instr{1}, Instr{3}}) {
        HorizonMap hmap(&topo, per_hop);
        std::vector<Instr> keys(static_cast<std::size_t>(n)), got;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          keys[i] = key_at(static_cast<std::uint64_t>(n) * 31 + per_hop, i);
        }
        hmap.relax(keys, &got);
        ASSERT_EQ(got.size(), keys.size());
        for (std::int32_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[static_cast<std::size_t>(i)],
                    HorizonMap::brute_force(topo, per_hop, keys, i))
              << "kind=" << static_cast<int>(kind) << " n=" << n
              << " per_hop=" << per_hop << " i=" << i;
        }
      }
    }
  }
}

// The hypercube pass is exact for every j != i and only over-conservative
// in the self echo key_i + 2 * per_hop (a valid, smaller bound): relax ==
// min(brute, key_i + 2 * per_hop) exactly.
TEST(Lookahead, RelaxHypercubeIsBruteForceModuloSelfEcho) {
  for (std::int32_t n : {1, 2, 4, 8, 16, 64}) {
    Topology topo(TopologyKind::kHypercube, n);
    for (Instr per_hop : {Instr{0}, Instr{1}, Instr{3}}) {
      HorizonMap hmap(&topo, per_hop);
      std::vector<Instr> keys(static_cast<std::size_t>(n)), got;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = key_at(static_cast<std::uint64_t>(n) * 977 + per_hop, i);
      }
      hmap.relax(keys, &got);
      ASSERT_EQ(got.size(), keys.size());
      for (std::int32_t i = 0; i < n; ++i) {
        Instr brute = HorizonMap::brute_force(topo, per_hop, keys, i);
        // The self echo key_i + 2 * per_hop needs a neighbour to bounce off;
        // a 0-cube has none, and the exact answer (inf) comes out instead.
        Instr echo = n > 1
                         ? sat_add(keys[static_cast<std::size_t>(i)], 2 * per_hop)
                         : kInstrInf;
        EXPECT_EQ(got[static_cast<std::size_t>(i)], std::min(brute, echo))
            << "n=" << n << " per_hop=" << per_hop << " i=" << i;
        EXPECT_LE(got[static_cast<std::size_t>(i)], brute);
      }
    }
  }
}

TEST(Lookahead, RelaxAllIdleOrSingletonIsInf) {
  Topology topo(TopologyKind::kTorus2D, 16);
  HorizonMap hmap(&topo, 1);
  std::vector<Instr> keys(16, kInstrInf), got;
  hmap.relax(keys, &got);
  for (Instr v : got) EXPECT_EQ(v, kInstrInf);

  // One busy node: every *other* node is bounded by it, the busy node
  // itself sees only idle peers and gets inf. This is the exclude-self term
  // alone; the driver folds the node's own key back in, so a lone busy node
  // still re-barriers every wire latency.
  keys[5] = 1000;
  hmap.relax(keys, &got);
  EXPECT_EQ(got[5], kInstrInf);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i == 5) continue;
    EXPECT_EQ(got[i], 1000 + 1 * static_cast<Instr>(topo.hops(5,
                              static_cast<NodeId>(i))));
  }

  Topology one(TopologyKind::kRing, 1);
  HorizonMap hone(&one, 1);
  std::vector<Instr> k1{123};
  hone.relax(k1, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], kInstrInf);
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

PolicyFp run_policy(int host_threads, sim::HorizonKind h, sim::ShardKind s,
                    sim::ParallelMachine** pm_out = nullptr, World** w = nullptr,
                    bool faults = false) {
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
  cfg.with_horizon(h);
  cfg.with_shard(s);
  if (faults) {
    net::FaultConfig fc;
    fc.enabled = true;
    fc.drop_ppm = 50'000;
    fc.seed = 17;
    cfg.with_faults(fc);
  }
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
  if (w != nullptr) *w = world;
  return fp;
}

TEST(WindowPolicy, MatrixIsByteIdenticalToSerial) {
  const PolicyFp serial =
      run_policy(-1, sim::HorizonKind::kGlobal, sim::ShardKind::kStatic);
  EXPECT_EQ(serial.solutions, 4);  // 6-queens
  for (sim::HorizonKind h :
       {sim::HorizonKind::kGlobal, sim::HorizonKind::kDistance}) {
    for (sim::ShardKind s : {sim::ShardKind::kStatic, sim::ShardKind::kBalanced}) {
      for (int t : {1, 2, 8}) {
        PolicyFp fp = run_policy(t, h, s);
        EXPECT_EQ(fp, serial) << "threads=" << t << " horizon="
                              << sim::to_string(h) << " shard="
                              << sim::to_string(s);
      }
    }
  }
}

TEST(WindowPolicy, DistanceNeverAddsWindowsAndCountersAreSane) {
  sim::ParallelMachine* pm_g = nullptr;
  run_policy(2, sim::HorizonKind::kGlobal, sim::ShardKind::kStatic, &pm_g);
  ASSERT_NE(pm_g, nullptr);
  const std::uint64_t wg = pm_g->windows_run();
  const std::uint64_t og = pm_g->occupancy_sum();
  EXPECT_GT(wg, 0u);
  EXPECT_GT(og, 0u);
  EXPECT_EQ(pm_g->rebalances(), 0u);   // static shard never rebalances
  EXPECT_EQ(pm_g->shard_moves(), 0u);

  sim::ParallelMachine* pm_d = nullptr;
  run_policy(2, sim::HorizonKind::kDistance, sim::ShardKind::kStatic, &pm_d);
  ASSERT_NE(pm_d, nullptr);
  EXPECT_EQ(pm_d->horizon_kind(), sim::HorizonKind::kDistance);
  // Per-node horizons are >= the flat bound, so a window commits at least
  // as many quanta — the policy can only remove barriers, never add them.
  EXPECT_LE(pm_d->windows_run(), wg);
  // Occupancy counts node-window incidences: at most every node per window.
  EXPECT_GT(pm_d->occupancy_sum(), 0u);
  EXPECT_LE(pm_d->occupancy_sum(), pm_d->windows_run() * 16);
}

TEST(WindowPolicy, BalancedShardRebalancesAtMultiThreadWidths) {
  sim::ParallelMachine* pm = nullptr;
  run_policy(8, sim::HorizonKind::kGlobal, sim::ShardKind::kBalanced, &pm);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->shard_kind(), sim::ShardKind::kBalanced);
  EXPECT_GT(pm->rebalances(), 0u);

  // A single worker has nothing to balance: the policy degrades to static.
  sim::ParallelMachine* pm1 = nullptr;
  run_policy(1, sim::HorizonKind::kGlobal, sim::ShardKind::kBalanced, &pm1);
  ASSERT_NE(pm1, nullptr);
  EXPECT_EQ(pm1->shard_kind(), sim::ShardKind::kStatic);
}

TEST(WindowPolicy, FaultInjectionFallsBackToGlobalWindows) {
  // The retry protocol's timer keys are not priced by hop distance, so the
  // distance horizon is unsound under fault injection; the driver must
  // fall back to the flat bound (and say so via horizon_kind()).
  sim::ParallelMachine* pm = nullptr;
  run_policy(2, sim::HorizonKind::kDistance, sim::ShardKind::kStatic, &pm,
             nullptr, /*faults=*/true);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->horizon_kind(), sim::HorizonKind::kGlobal);
}

TEST(WindowPolicy, DriverMetricsJsonSnapshotsTheCounters) {
  sim::ParallelMachine* pm = nullptr;
  run_policy(8, sim::HorizonKind::kDistance, sim::ShardKind::kBalanced, &pm);
  ASSERT_NE(pm, nullptr);
  const std::string js = obs::driver_metrics_json(*pm);
  std::string err;
  auto doc = obs::parse_json(js, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("horizon")->string, "distance");
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

TEST(WindowPolicyEnv, ParsesHorizonAndShard) {
  {
    ScopedEnv h("ABCLSIM_HORIZON", nullptr);
    ScopedEnv s("ABCLSIM_SHARD", nullptr);
    WorldConfig cfg = WorldConfig::from_env();
    EXPECT_EQ(cfg.horizon, sim::HorizonKind::kGlobal);
    EXPECT_EQ(cfg.shard, sim::ShardKind::kStatic);
  }
  {
    ScopedEnv h("ABCLSIM_HORIZON", "distance");
    ScopedEnv s("ABCLSIM_SHARD", "balanced");
    WorldConfig cfg = WorldConfig::from_env();
    EXPECT_EQ(cfg.horizon, sim::HorizonKind::kDistance);
    EXPECT_EQ(cfg.shard, sim::ShardKind::kBalanced);
  }
}

TEST(WindowPolicyEnvDeathTest, GarbageHorizonAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv h("ABCLSIM_HORIZON", "nearby");
  ScopedEnv s("ABCLSIM_SHARD", nullptr);
  EXPECT_DEATH(WorldConfig::from_env(), "ABCLSIM_HORIZON");
}

TEST(WindowPolicyEnvDeathTest, GarbageShardAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv h("ABCLSIM_HORIZON", nullptr);
  ScopedEnv s("ABCLSIM_SHARD", "spread");
  EXPECT_DEATH(WorldConfig::from_env(), "ABCLSIM_SHARD");
}

TEST(WindowPolicy, ToStringSpellsTheEnvGrammar) {
  EXPECT_STREQ(sim::to_string(sim::HorizonKind::kGlobal), "global");
  EXPECT_STREQ(sim::to_string(sim::HorizonKind::kDistance), "distance");
  EXPECT_STREQ(sim::to_string(sim::ShardKind::kStatic), "static");
  EXPECT_STREQ(sim::to_string(sim::ShardKind::kBalanced), "balanced");
}

}  // namespace
