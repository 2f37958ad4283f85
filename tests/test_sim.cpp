// Tests for the simulation core: saturating time arithmetic, cost model
// arithmetic (Table 2) and the conservative min-clock machine driver —
// serial and host-parallel — using mock nodes.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "sim/parallel_machine.hpp"

namespace {

using namespace abcl;
using sim::Instr;

// ---------------------------------------------------------------- time -----

TEST(Time, SatAddSaturatesAtInf) {
  using sim::kInstrInf;
  using sim::sat_add;
  EXPECT_EQ(sat_add(5, 7), 12u);
  EXPECT_EQ(sat_add(kInstrInf, 0), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf, 5), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf - 3, 5), kInstrInf);
  EXPECT_EQ(sat_add(0, kInstrInf), kInstrInf);
}

// ----------------------------------------------------------- CostModel -----

TEST(CostModel, Table2DormantBreakdownIs25Instructions) {
  sim::CostModel cm = sim::CostModel::ap1000();
  // Table 2: 3 + 5 + 3 (to active) + 3 (mq) + 3 (back) + 5 (poll) + 3 = 25.
  EXPECT_EQ(cm.dormant_send_overhead(), 25u);
}

TEST(CostModel, OptimizedDormantSendIs8Instructions) {
  sim::CostModel cm = sim::CostModel::ap1000();
  cm.opt.elide_locality_check = true;
  cm.opt.elide_vftp_switch = true;
  cm.opt.elide_mq_check = true;
  cm.opt.elide_poll = true;
  // Section 6.1: "varies from 8 ... to 25 instructions".
  EXPECT_EQ(cm.dormant_send_overhead(), 8u);
}

TEST(CostModel, ActivePathIsRoughly4xDormant) {
  sim::CostModel cm = sim::CostModel::ap1000();
  double ratio = static_cast<double>(cm.active_send_overhead()) /
                 static_cast<double>(cm.dormant_send_overhead());
  // Table 1: 9.6 us vs 2.3 us -> "over 4 times". The static overhead sums
  // exclude the method-entry costs both paths share, so the bound here is
  // slightly looser; the bench measures the full end-to-end ratio.
  EXPECT_GE(ratio, 3.4);
  EXPECT_LE(ratio, 12.0);
}

TEST(CostModel, MicrosecondConversionUsesEffectiveCpi) {
  sim::CostModel cm = sim::CostModel::ap1000();
  // Anchor: the 25-instruction dormant send measures 2.3 us (Table 1/2).
  EXPECT_NEAR(cm.us(cm.dormant_send_overhead()), 2.3, 1e-9);
  EXPECT_DOUBLE_EQ(cm.us(0), 0.0);
  EXPECT_NEAR(cm.ms(25000), 2.3, 1e-9);
  // The raw conversion (no CPI) is still available for cycle math.
  EXPECT_DOUBLE_EQ(sim::instr_to_ms(25000, cm.clock_mhz), 1.0);
}

TEST(CostModel, ZeroModelKeepsPositiveLookahead) {
  sim::CostModel z = sim::CostModel::zero();
  EXPECT_GE(z.wire_latency + z.per_hop, 1u);
  EXPECT_EQ(z.dormant_send_overhead(), 0u);
}

// -------------------------------------------------------------- Machine ----

// A mock node: runs a scripted list of (work) quanta; each quantum may push
// work to another node at a future time.
class MockNode : public sim::NodeExec {
 public:
  struct Delivery {
    Instr when;
    bool consumed = false;
  };

  MockNode(sim::NodeId id, std::vector<MockNode*>* all) : id_(id), all_(all) {}

  sim::NodeId node_id() const override { return id_; }
  Instr clock() const override { return clock_; }
  bool runnable() const override {
    ++queries;
    if (pending_local_ > 0) return true;
    for (const auto& d : inbox_) {
      if (!d.consumed && d.when <= clock_) return true;
    }
    return false;
  }
  Instr next_wake() const override {
    ++queries;
    Instr w = sim::kInstrInf;
    for (const auto& d : inbox_) {
      if (!d.consumed && d.when < w) w = d.when;
    }
    return w;
  }
  void advance_clock(Instr t) override { clock_ = t; }
  void step() override {
    exec_order->push_back({id_, clock_});
    step_threads.insert(std::this_thread::get_id());
    if (pending_local_ > 0) {
      --pending_local_;
    } else {
      for (auto& d : inbox_) {
        if (!d.consumed && d.when <= clock_) {
          d.consumed = true;
          break;
        }
      }
    }
    clock_ += step_cost;
    ++steps_run;
  }

  void deliver_at(Instr when, sim::Driver* m) {
    inbox_.push_back({when, false});
    if (m != nullptr) m->notify_work(id_);
  }

  sim::NodeId id_;
  std::vector<MockNode*>* all_;
  Instr clock_ = 0;
  Instr step_cost = 10;
  int pending_local_ = 0;
  int steps_run = 0;
  // runnable() + next_wake() calls: the driver's per-node query cost.
  mutable std::uint64_t queries = 0;
  std::vector<Delivery> inbox_;
  std::vector<std::pair<sim::NodeId, Instr>>* exec_order = nullptr;
  // The host threads that ran this node's quanta.
  std::set<std::thread::id> step_threads;
};

struct MachineFixture {
  std::vector<MockNode*> raw;
  std::vector<std::unique_ptr<MockNode>> owned;
  std::vector<std::pair<sim::NodeId, Instr>> order;
  std::unique_ptr<sim::Machine> machine;

  explicit MachineFixture(int n) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<MockNode>(i, &raw));
      owned.back()->exec_order = &order;
      raw.push_back(owned.back().get());
    }
    std::vector<sim::NodeExec*> execs(raw.begin(), raw.end());
    machine = std::make_unique<sim::Machine>(std::move(execs));
  }
};

TEST(Machine, RunsToQuiescence) {
  MachineFixture f(3);
  f.raw[0]->pending_local_ = 5;
  f.raw[2]->pending_local_ = 2;
  auto rep = f.machine->run();
  EXPECT_EQ(rep.quanta, 7u);
  EXPECT_EQ(f.raw[0]->steps_run, 5);
  EXPECT_EQ(f.raw[2]->steps_run, 2);
  EXPECT_EQ(f.raw[1]->steps_run, 0);
}

TEST(Machine, ExecutesInGlobalClockOrder) {
  MachineFixture f(2);
  f.raw[0]->pending_local_ = 3;
  f.raw[0]->step_cost = 100;
  f.raw[1]->pending_local_ = 3;
  f.raw[1]->step_cost = 30;
  f.machine->run();
  // Observed execution instants must be nondecreasing.
  Instr last = 0;
  for (auto& [id, t] : f.order) {
    EXPECT_GE(t, last);
    last = t;
  }
}

TEST(Machine, TieBrokenByNodeId) {
  MachineFixture f(3);
  for (auto* n : f.raw) n->pending_local_ = 1;
  f.machine->run();
  ASSERT_EQ(f.order.size(), 3u);
  EXPECT_EQ(f.order[0].first, 0);
  EXPECT_EQ(f.order[1].first, 1);
  EXPECT_EQ(f.order[2].first, 2);
}

TEST(Machine, IdleNodeJumpsToDeliveryTime) {
  MachineFixture f(2);
  f.raw[1]->deliver_at(500, nullptr);
  auto rep = f.machine->run();
  EXPECT_EQ(rep.quanta, 1u);
  EXPECT_EQ(f.order[0], (std::pair<sim::NodeId, Instr>{1, 500}));
  EXPECT_EQ(f.raw[1]->clock_, 510u);
}

TEST(Machine, NotifyWorkWakesIdleNodeMidRun) {
  MachineFixture f(2);
  f.raw[0]->pending_local_ = 1;
  auto rep1 = f.machine->run();
  EXPECT_EQ(rep1.quanta, 1u);
  // Node 1 gets work after the machine already quiesced once.
  f.raw[1]->deliver_at(50, f.machine.get());
  auto rep2 = f.machine->run();
  EXPECT_EQ(rep2.quanta, 1u);
  EXPECT_EQ(f.raw[1]->steps_run, 1);
}

TEST(Machine, MaxTimeStopsEarly) {
  MachineFixture f(1);
  f.raw[0]->pending_local_ = 100;  // each step costs 10
  auto rep = f.machine->run(/*max_time=*/55);
  // Steps at clocks 0,10,20,30,40,50 run; clock 60 exceeds the bound.
  EXPECT_EQ(rep.quanta, 6u);
  // A later run() resumes where the bound stopped it.
  auto rep2 = f.machine->run();
  EXPECT_EQ(rep2.quanta, 94u);
  EXPECT_EQ(f.raw[0]->steps_run, 100);
}

TEST(Machine, EndTimeIsMaxClock) {
  MachineFixture f(2);
  f.raw[0]->pending_local_ = 2;  // -> clock 20
  f.raw[1]->pending_local_ = 5;  // -> clock 50
  auto rep = f.machine->run();
  EXPECT_EQ(rep.end_time, 50u);
}

// ------------------------------------------------------ ParallelMachine ----

// Same mock-node harness driven by the host-parallel machine. Each node gets
// a *private* order log (workers run concurrently), and per-node sequences
// are compared against a serial reference run.
struct ParallelFixture {
  std::vector<MockNode*> raw;
  std::vector<std::unique_ptr<MockNode>> owned;
  std::vector<std::vector<std::pair<sim::NodeId, Instr>>> per_node_order;
  std::unique_ptr<sim::ParallelMachine> machine;

  ParallelFixture(int n, int threads)
      : per_node_order(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<MockNode>(i, &raw));
      owned.back()->exec_order = &per_node_order[static_cast<size_t>(i)];
      raw.push_back(owned.back().get());
    }
    std::vector<sim::NodeExec*> execs(raw.begin(), raw.end());
    machine = std::make_unique<sim::ParallelMachine>(
        std::move(execs), /*net=*/nullptr, threads);
  }
};

// Splits a serial run's global execution order into per-node sequences.
std::vector<std::vector<std::pair<sim::NodeId, Instr>>> per_node(
    const std::vector<std::pair<sim::NodeId, Instr>>& order, int n) {
  std::vector<std::vector<std::pair<sim::NodeId, Instr>>> out(
      static_cast<size_t>(n));
  for (const auto& e : order) out[static_cast<size_t>(e.first)].push_back(e);
  return out;
}

class ParallelMachineThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMachineThreads, QuiescenceMatchesSerial) {
  MachineFixture s(3);
  s.raw[0]->pending_local_ = 5;
  s.raw[2]->pending_local_ = 2;
  auto want = s.machine->run();

  ParallelFixture p(3, GetParam());
  p.raw[0]->pending_local_ = 5;
  p.raw[2]->pending_local_ = 2;
  auto got = p.machine->run();

  EXPECT_EQ(got.quanta, want.quanta);
  EXPECT_EQ(got.end_time, want.end_time);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(p.raw[i]->steps_run, s.raw[i]->steps_run);
    EXPECT_EQ(p.raw[i]->clock_, s.raw[i]->clock_);
  }
}

TEST_P(ParallelMachineThreads, PerNodeQuantumSequencesMatchSerial) {
  MachineFixture s(5);
  ParallelFixture p(5, GetParam());
  for (auto* f : {&s.raw, &p.raw}) {
    (*f)[0]->pending_local_ = 4;
    (*f)[1]->pending_local_ = 7;
    (*f)[1]->step_cost = 3;
    (*f)[3]->pending_local_ = 2;
    (*f)[3]->step_cost = 25;
    (*f)[4]->deliver_at(40, nullptr);
  }
  s.machine->run();
  p.machine->run();

  const auto serial_per_node = per_node(s.order, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(p.per_node_order[static_cast<size_t>(i)], serial_per_node[static_cast<size_t>(i)])
        << "node " << i;
  }
}

TEST_P(ParallelMachineThreads, MaxTimeMatchesSerial) {
  MachineFixture s(1);
  s.raw[0]->pending_local_ = 100;
  auto want = s.machine->run(/*max_time=*/55);

  ParallelFixture p(1, GetParam());
  p.raw[0]->pending_local_ = 100;
  auto got = p.machine->run(/*max_time=*/55);
  EXPECT_EQ(got.quanta, want.quanta);  // 6: clocks 0..50
  EXPECT_EQ(got.end_time, want.end_time);
}

TEST_P(ParallelMachineThreads, ResumesAfterQuiescenceLikeSerial) {
  ParallelFixture p(2, GetParam());
  p.raw[0]->pending_local_ = 1;
  auto rep1 = p.machine->run();
  EXPECT_EQ(rep1.quanta, 1u);
  p.raw[1]->deliver_at(50, p.machine.get());  // outside a run() the notify is
  auto rep2 = p.machine->run();               // moot; run() re-seeds its scan
  EXPECT_EQ(rep2.quanta, 1u);
  EXPECT_EQ(p.raw[1]->steps_run, 1);
}

TEST_P(ParallelMachineThreads, WindowsAdvanceWithUnitLookahead) {
  ParallelFixture p(4, GetParam());
  for (auto* n : p.raw) n->pending_local_ = 3;
  auto rep = p.machine->run();
  EXPECT_EQ(rep.quanta, 12u);
  EXPECT_GT(p.machine->windows_run(), 0u);
}

// The per-shard active sets make a window cost O(nodes that run), not
// O(shard size): one busy node among 511 idle ones pays a small constant
// number of runnable()/next_wake() queries per quantum, plus the one full
// seeding scan (two queries per idle node) at run() entry. A driver that
// rescans its shard every window makes ~N queries per window instead.
TEST_P(ParallelMachineThreads, NodeQueriesScaleWithQuantaNotNodes) {
  constexpr int kNodes = 512;
  constexpr std::uint64_t kQuanta = 1000;
  ParallelFixture p(kNodes, GetParam());
  p.raw[kNodes / 3]->pending_local_ = static_cast<int>(kQuanta);
  auto rep = p.machine->run();
  ASSERT_EQ(rep.quanta, kQuanta);
  // Unit lookahead, 10-instruction quanta: one quantum per window.
  EXPECT_EQ(p.machine->windows_run(), kQuanta);
  std::uint64_t queries = 0;
  for (const auto* n : p.raw) queries += n->queries;
  EXPECT_LE(queries, 8 * kQuanta + 2 * kNodes);
}

// A run stopped at max_time and resumed must execute exactly the quanta of
// one uninterrupted run: run() re-seeds every shard's set at entry, so no
// entry left behind by the stopped leg can be lost or replayed.
TEST_P(ParallelMachineThreads, InterruptedRunMatchesUninterrupted) {
  auto setup = [](ParallelFixture& f) {
    f.raw[0]->pending_local_ = 9;
    f.raw[1]->pending_local_ = 4;
    f.raw[1]->step_cost = 35;
    f.raw[2]->deliver_at(60, nullptr);
    f.raw[2]->deliver_at(200, nullptr);
    f.raw[4]->deliver_at(45, nullptr);
    f.raw[4]->pending_local_ = 1;
    f.raw[4]->step_cost = 7;
  };
  ParallelFixture whole(5, GetParam());
  setup(whole);
  auto want = whole.machine->run();

  ParallelFixture split(5, GetParam());
  setup(split);
  auto first = split.machine->run(/*max_time=*/64);
  ASSERT_GT(first.quanta, 0u);
  ASSERT_LT(first.quanta, want.quanta);
  auto second = split.machine->run();

  EXPECT_EQ(first.quanta + second.quanta, want.quanta);
  EXPECT_EQ(second.end_time, want.end_time);
  for (int i = 0; i < 5; ++i) {
    const auto u = static_cast<size_t>(i);
    EXPECT_EQ(split.raw[u]->clock_, whole.raw[u]->clock_) << "node " << i;
    EXPECT_EQ(split.per_node_order[u], whole.per_node_order[u]) << "node " << i;
  }
}

// The thread that calls run() is participant 0 and runs shard 0; every
// other shard (node i is in shard i mod T) runs on one spawned thread of
// its own, the same thread in every window.
TEST(ParallelMachineShards, CallerRunsShardZeroAndEachShardKeepsOneThread) {
  constexpr int kNodes = 9;
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    ParallelFixture p(kNodes, threads);
    for (auto* n : p.raw) n->pending_local_ = 5;
    const auto rep = p.machine->run();
    ASSERT_EQ(rep.quanta, 5u * kNodes);
    ASSERT_EQ(p.machine->windows_run(), 5u);  // unit lookahead

    std::vector<std::set<std::thread::id>> by_shard(
        static_cast<std::size_t>(threads));
    for (int i = 0; i < kNodes; ++i) {
      const auto& ids = p.raw[static_cast<std::size_t>(i)]->step_threads;
      by_shard[static_cast<std::size_t>(i % threads)].insert(ids.begin(),
                                                            ids.end());
    }
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EQ(by_shard[0], std::set<std::thread::id>{caller});
    std::set<std::thread::id> seen{caller};
    for (std::size_t s = 1; s < by_shard.size(); ++s) {
      ASSERT_EQ(by_shard[s].size(), 1u) << "shard " << s;
      EXPECT_TRUE(seen.insert(*by_shard[s].begin()).second)
          << "shard " << s << " shares a thread";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelMachineThreads,
                         ::testing::Values(1, 2, 8));

}  // namespace
