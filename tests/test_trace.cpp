// Tracer lanes and the World's utilization reporting.
#include <gtest/gtest.h>

#include <limits>

#include "apps/counters.hpp"
#include "apps/fib.hpp"
#include "sim/trace.hpp"
#include "support.hpp"

namespace {

using namespace abcl;

TEST(Tracer, RecordsInOrder) {
  sim::Tracer t(8);
  for (int i = 0; i < 5; ++i) {
    t.record(static_cast<sim::Instr>(i * 10), i % 2, sim::TraceEv::kQuantum);
  }
  EXPECT_EQ(t.size(), 5u);
  auto ev = t.snapshot();
  ASSERT_EQ(ev.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ev[static_cast<std::size_t>(i)].t, static_cast<sim::Instr>(i * 10));
  }
}

TEST(Tracer, RingOverwritesOldest) {
  sim::Tracer t(4);
  for (int i = 0; i < 10; ++i) {
    t.record(static_cast<sim::Instr>(i), 0, sim::TraceEv::kSendRemote);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_recorded(), 10u);
  auto ev = t.snapshot();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev.front().t, 6u);
  EXPECT_EQ(ev.back().t, 9u);
}

// Regression: a zero-capacity ring used to make record() reduce its index
// modulo zero (UB / SIGFPE). Capacity is now clamped to 1.
TEST(Tracer, ZeroCapacityIsClampedToOne) {
  sim::Tracer t(0);
  EXPECT_EQ(t.capacity(), 1u);
  for (int i = 0; i < 3; ++i) {
    t.record(static_cast<sim::Instr>(i), 0, sim::TraceEv::kQuantum,
             static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.total_recorded(), 3u);
  auto ev = t.snapshot();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].t, 2u);
  EXPECT_EQ(ev[0].payload, 2u);
}

// The bound is per node: a hot node's lane wraps and keeps its newest
// events, a quiet node keeps all of its own, and each payload travels with
// its event through the wrap and the merge.
TEST(Tracer, WrapAroundKeepsOrderAndPayloads) {
  sim::Tracer t(4);
  for (int i = 0; i < 11; ++i) {
    t.record(static_cast<sim::Instr>(100 + 2 * i), 0, sim::TraceEv::kCreate,
             static_cast<std::uint64_t>(1000 + i));
  }
  t.record(101, 1, sim::TraceEv::kBlock, 7);
  t.record(117, 1, sim::TraceEv::kResume, 8);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.total_recorded(), 13u);
  // Node 0 keeps its events 7..10 (t = 114..120); node 1 keeps both of
  // its events, merged in by time.
  struct Want {
    sim::Instr t;
    sim::NodeId node;
    std::uint64_t payload;
  };
  const Want want[] = {{101, 1, 7},  {114, 0, 1007}, {116, 0, 1008},
                       {117, 1, 8},  {118, 0, 1009}, {120, 0, 1010}};
  auto ev = t.snapshot();
  ASSERT_EQ(ev.size(), 6u);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].t, want[i].t) << "event " << i;
    EXPECT_EQ(ev[i].node, want[i].node) << "event " << i;
    EXPECT_EQ(ev[i].payload, want[i].payload) << "event " << i;
  }
}

// Events at one instant come out in node order, and one node's events at
// one instant in the order it recorded them, whatever order the nodes
// recorded in.
TEST(Tracer, EqualTimesMergeInNodeThenRecordOrder) {
  sim::Tracer t(8);
  t.record(5, 2, sim::TraceEv::kSendRemote, 1);
  t.record(5, 0, sim::TraceEv::kQuantum, 2);
  t.record(5, 2, sim::TraceEv::kRecvRemote, 3);
  t.record(3, 1, sim::TraceEv::kCreate, 4);
  t.record(5, 0, sim::TraceEv::kBlock, 5);
  auto ev = t.snapshot();
  ASSERT_EQ(ev.size(), 5u);
  const std::uint64_t order[] = {4, 2, 5, 1, 3};  // payloads, merged
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].payload, order[i]) << "event " << i;
  }
  EXPECT_EQ(ev[0].t, 3u);
  EXPECT_EQ(ev[1].node, 0);
  EXPECT_EQ(ev[3].node, 2);
}

// The bound is a limit, not a reservation: a lane holds only what its node
// recorded. A per-node capacity no host could preallocate, over 512 lanes,
// still costs nothing until events arrive.
TEST(Tracer, LanesGrowOnlyAsTheyRecord) {
  sim::Tracer t(std::numeric_limits<std::size_t>::max());
  t.size_lanes(512);
  EXPECT_EQ(t.size(), 0u);
  for (int i = 0; i < 100; ++i) {
    t.record(static_cast<sim::Instr>(i), 3, sim::TraceEv::kQuantum);
    EXPECT_EQ(t.size(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_EQ(t.snapshot().size(), 100u);
}

TEST(Tracer, ClearResets) {
  sim::Tracer t(4);
  t.record(1, 0, sim::TraceEv::kBlock);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, CapturesRuntimeEventKinds) {
  core::Program prog;
  auto fp = apps::register_fib(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(prog, cfg);
  sim::Tracer tracer(1u << 16);
  world.attach_tracer(&tracer);
  apps::run_fib(world, fp, 10);

  bool saw[6] = {};
  for (const auto& e : tracer.snapshot()) {
    saw[static_cast<int>(e.kind)] = true;
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, 4);
  }
  EXPECT_TRUE(saw[static_cast<int>(sim::TraceEv::kQuantum)]);
  EXPECT_TRUE(saw[static_cast<int>(sim::TraceEv::kSendRemote)]);
  EXPECT_TRUE(saw[static_cast<int>(sim::TraceEv::kRecvRemote)]);
  EXPECT_TRUE(saw[static_cast<int>(sim::TraceEv::kBlock)]);
  EXPECT_TRUE(saw[static_cast<int>(sim::TraceEv::kResume)]);
  EXPECT_TRUE(saw[static_cast<int>(sim::TraceEv::kCreate)]);
}

TEST(Tracer, DetachStopsRecording) {
  core::Program prog;
  auto cp = apps::register_counter(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(prog, cfg);
  sim::Tracer tracer(64);
  world.attach_tracer(&tracer);
  MailAddr c;
  world.boot(0, [&](Ctx& ctx) { c = ctx.create_local(*cp.cls, nullptr, 0); });
  EXPECT_GT(tracer.total_recorded(), 0u);
  std::uint64_t before = tracer.total_recorded();
  world.attach_tracer(nullptr);
  world.boot(0, [&](Ctx& ctx) { ctx.create_local(*cp.cls, nullptr, 0); });
  EXPECT_EQ(tracer.total_recorded(), before);
}

TEST(Utilization, SingleBusyNodeShowsFullUtilization) {
  core::Program prog;
  auto cp = apps::register_counter(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(prog, cfg);
  world.boot(0, [&](Ctx& ctx) {
    MailAddr c = ctx.create_local(*cp.cls, nullptr, 0);
    for (int i = 0; i < 100; ++i) ctx.send_past(c, cp.inc, nullptr, 0);
  });
  world.run();
  EXPECT_NEAR(world.mean_utilization(), 1.0, 1e-9);
  std::string table = world.utilization_table().to_string();
  EXPECT_NE(table.find("100.0%"), std::string::npos);
}

TEST(Utilization, IdleNodesDragTheMeanDown) {
  core::Program prog;
  auto cp = apps::register_counter(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(prog, cfg);
  world.boot(0, [&](Ctx& ctx) {
    MailAddr c = ctx.create_local(*cp.cls, nullptr, 0);
    for (int i = 0; i < 100; ++i) ctx.send_past(c, cp.inc, nullptr, 0);
  });
  world.run();
  EXPECT_LT(world.mean_utilization(), 0.5);
  EXPECT_GT(world.mean_utilization(), 0.0);
}

}  // namespace
