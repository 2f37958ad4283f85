// Remote object creation (Section 5.2): chunk stocks, the split-phase
// fallback, the generic fault table for racing messages, replenishment, and
// seeding.
#include <gtest/gtest.h>

#include <set>

#include "apps/counters.hpp"
#include "remote/chunk_stock.hpp"
#include "support.hpp"

namespace {

using namespace abcl;
using namespace abcl::testsup;

struct Fixture {
  core::Program prog;
  apps::CounterProgram counter;
  SpawnerProgram spawner;

  Fixture() {
    counter = apps::register_counter(prog);
    spawner = register_spawner(prog);
    prog.finalize();
  }

  std::uint16_t counter_szcls() const {
    return static_cast<std::uint16_t>(util::SlabAllocator::size_class(
        core::object_alloc_bytes(counter.cls->state_bytes)));
  }

  void make(World& world, MailAddr sp, NodeId target, int incs) {
    world.boot(sp.node, [&](Ctx& ctx) {
      Word args[4] = {static_cast<Word>(static_cast<std::uint32_t>(target)),
                      static_cast<Word>(incs), counter.inc,
                      cls_word(counter.cls)};
      ctx.send_past(sp, spawner.make, args, 4);
    });
  }
};

TEST(ChunkStock, PushPopDepth) {
  remote::ChunkStock stock;
  auto c1 = reinterpret_cast<core::ObjectHeader*>(0x1000);
  auto c2 = reinterpret_cast<core::ObjectHeader*>(0x2000);
  EXPECT_FALSE(stock.try_pop(1, 3).has_value());
  stock.push(1, 3, c1);
  stock.push(1, 3, c2);
  EXPECT_EQ(stock.depth(1, 3), 2u);
  EXPECT_EQ(stock.depth(1, 4), 0u);  // distinct size class
  EXPECT_EQ(stock.depth(2, 3), 0u);  // distinct peer
  EXPECT_EQ(stock.try_pop(1, 3).value(), c2);
  EXPECT_EQ(stock.try_pop(1, 3).value(), c1);
  EXPECT_FALSE(stock.try_pop(1, 3).has_value());
}

TEST(ChunkStock, PendingReplenishClampsAtZero) {
  remote::ChunkStock stock;
  auto c = reinterpret_cast<core::ObjectHeader*>(0x1000);
  // An arrival with no recorded request (e.g. one seeded mid-flight before
  // the bookkeeping saw it) must clamp at zero, not wrap around.
  stock.replenish_arrived(1, 3, c);
  EXPECT_EQ(stock.pending_replenish(1, 3), 0u);
  EXPECT_EQ(stock.depth(1, 3), 1u);
  stock.note_replenish_requested(1, 3);
  stock.note_replenish_requested(1, 3);
  EXPECT_EQ(stock.pending_replenish(1, 3), 2u);
  EXPECT_EQ(stock.pending_replenish(2, 3), 0u);  // distinct peer
  EXPECT_EQ(stock.planned_depth(1, 3), 3u);      // on hand + in flight
  stock.replenish_arrived(1, 3, c);
  stock.replenish_arrived(1, 3, c);
  stock.replenish_arrived(1, 3, c);  // over-arrival clamps
  EXPECT_EQ(stock.pending_replenish(1, 3), 0u);
  EXPECT_EQ(stock.depth(1, 3), 4u);
  stock.note_replenish_requested(1, 3);
  EXPECT_EQ(stock.planned_depth(1, 3), 5u);
}

TEST(RemoteCreate, OverfullStockDrainsBackToTargetInsteadOfGrowing) {
  // Regression: replenishment used to be unconditional — one Category-3
  // message per create, regardless of how deep the creator's stock already
  // was. A stock seeded above chunk_stock_target then stayed above it
  // forever (pop + unconditional push-back), and a burst of creates after a
  // drain overshot without bound. With replenish requests gated on
  // depth + in-flight < target, an overfull stock must decay to the target.
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(fx.prog, cfg);
  world.seed_stocks(*fx.counter.cls, 4);  // above the default target of 2
  MailAddr sp;
  world.boot(0, [&](Ctx& ctx) { sp = ctx.create_local(*fx.spawner.cls, nullptr, 0); });
  for (int i = 0; i < 8; ++i) {
    fx.make(world, sp, 1, 1);
    world.run();
  }
  auto st = world.total_stats();
  EXPECT_EQ(st.chunk_stock_misses, 0u);  // never drained dry
  EXPECT_EQ(st.chunk_stock_hits, 8u);
  EXPECT_LE(world.node(0).chunk_stock().depth(1, fx.counter_szcls()), 2u)
      << "stock must decay to chunk_stock_target, not hold its seeded depth";
}

TEST(RemoteCreate, FirstCreateMissesThenStockStaysWarm) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(fx.prog, cfg);
  MailAddr sp;
  world.boot(0, [&](Ctx& ctx) { sp = ctx.create_local(*fx.spawner.cls, nullptr, 0); });

  fx.make(world, sp, 1, 2);
  world.run();
  auto st1 = world.total_stats();
  EXPECT_EQ(st1.chunk_stock_misses, 1u);  // cold stock: split-phase once
  EXPECT_EQ(st1.chunk_stock_hits, 0u);
  EXPECT_EQ(st1.blocks_await, 1u);        // the paper's "context switch"
  MailAddr c1 = sp.ptr->state_as<SpawnerState>()->last_created;
  EXPECT_EQ(c1.node, 1);
  EXPECT_EQ(apps::counter_state(c1).count, 2);
  // The creation replenished the stock.
  EXPECT_EQ(world.node(0).chunk_stock().depth(1, fx.counter_szcls()), 1u);

  fx.make(world, sp, 1, 3);
  world.run();
  auto st2 = world.total_stats();
  EXPECT_EQ(st2.chunk_stock_misses, 1u);  // no new miss
  EXPECT_EQ(st2.chunk_stock_hits, 1u);
  EXPECT_EQ(st2.blocks_await, 1u);        // no context switch this time
  MailAddr c2 = sp.ptr->state_as<SpawnerState>()->last_created;
  EXPECT_NE(c1.ptr, c2.ptr);
  EXPECT_EQ(apps::counter_state(c2).count, 3);
  EXPECT_EQ(world.node(0).chunk_stock().depth(1, fx.counter_szcls()), 1u);
}

TEST(RemoteCreate, SeededStocksNeverMiss) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(fx.prog, cfg);
  world.seed_stocks(*fx.counter.cls, 2);
  MailAddr sp;
  world.boot(0, [&](Ctx& ctx) { sp = ctx.create_local(*fx.spawner.cls, nullptr, 0); });
  for (NodeId t = 1; t < 4; ++t) fx.make(world, sp, t, 1);
  world.run();
  auto st = world.total_stats();
  EXPECT_EQ(st.chunk_stock_misses, 0u);
  EXPECT_EQ(st.chunk_stock_hits, 3u);
  EXPECT_EQ(st.blocks_await, 0u);  // latency fully hidden
}

TEST(RemoteCreate, ManyCreationsAllDistinctAndInitialized) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(3);
  World world(fx.prog, cfg);
  MailAddr sp;
  world.boot(0, [&](Ctx& ctx) { sp = ctx.create_local(*fx.spawner.cls, nullptr, 0); });
  std::set<core::ObjectHeader*> created;
  for (int i = 0; i < 50; ++i) {
    fx.make(world, sp, 1 + (i % 2), 1);
    world.run();
    MailAddr c = sp.ptr->state_as<SpawnerState>()->last_created;
    EXPECT_TRUE(created.insert(c.ptr).second) << "chunk double-issued";
    EXPECT_EQ(apps::counter_state(c).count, 1);
  }
  EXPECT_EQ(sp.ptr->state_as<SpawnerState>()->makes, 50);
}

TEST(RemoteCreate, MessagesRacingAheadAreFaultQueuedThenProcessedInOrder) {
  // A third party learns the new object's address before the creation
  // request reaches the target: its messages hit the pre-initialized fault
  // table and must be queued, then processed after installation, in order.
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(3);
  World world(fx.prog, cfg);

  // Manufacture the race deterministically: format a chunk on node 1 and
  // seed it into node 0's stock (exactly what predelivery does).
  std::uint16_t szcls = fx.counter_szcls();
  core::ObjectHeader* chunk = world.node(1).format_chunk(szcls);
  world.node(0).chunk_stock().push(1, szcls, chunk);
  MailAddr obj{1, chunk};

  // Node 2 sends to the object before it exists.
  world.boot(2, [&](Ctx& ctx) {
    for (int i = 0; i < 3; ++i) ctx.send_past(obj, fx.counter.inc, nullptr, 0);
  });
  world.run();
  EXPECT_EQ(chunk->mode, core::Mode::kFault);
  EXPECT_EQ(chunk->mq.size(), 3u);  // safely buffered by the fault table

  // Now node 0 performs the creation; the queued messages must drain.
  MailAddr sp;
  world.boot(0, [&](Ctx& ctx) { sp = ctx.create_local(*fx.spawner.cls, nullptr, 0); });
  fx.make(world, sp, 1, 1);
  world.run();
  MailAddr c = sp.ptr->state_as<SpawnerState>()->last_created;
  ASSERT_EQ(c.ptr, chunk);  // the seeded chunk was used
  EXPECT_EQ(chunk->mode, core::Mode::kDormant);
  EXPECT_EQ(apps::counter_state(c).count, 4);  // 3 raced + 1 after creation
}

TEST(RemoteCreate, LocalTargetFallsBackToLocalCreation) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(fx.prog, cfg);
  MailAddr sp;
  world.boot(0, [&](Ctx& ctx) { sp = ctx.create_local(*fx.spawner.cls, nullptr, 0); });
  fx.make(world, sp, 0, 5);  // target == home node
  world.run();
  MailAddr c = sp.ptr->state_as<SpawnerState>()->last_created;
  EXPECT_EQ(c.node, 0);
  EXPECT_EQ(apps::counter_state(c).count, 5);
  EXPECT_EQ(world.network().stats().packets, 0u);  // nothing crossed the wire
}

TEST(RemoteCreate, ReplenishUsesPerSizeClassHandlers) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(fx.prog, cfg);
  MailAddr sp;
  world.boot(0, [&](Ctx& ctx) { sp = ctx.create_local(*fx.spawner.cls, nullptr, 0); });
  fx.make(world, sp, 1, 0);
  world.run();
  // Protocol traffic: alloc request, reply, create request, replenish.
  const auto& ns = world.network().stats();
  EXPECT_EQ(ns.per_category[static_cast<int>(net::AmCategory::kCreateRequest)],
            2u);  // alloc-request + create
  EXPECT_EQ(ns.per_category[static_cast<int>(net::AmCategory::kAllocReply)], 1u);
  EXPECT_EQ(ns.per_category[static_cast<int>(net::AmCategory::kObjectMessage)],
            1u);  // the alloc reply travels as a reply message
}

}  // namespace
