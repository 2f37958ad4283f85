// Pattern registry, class-table construction and handler registration — the
// "compile time" layer (Sections 2.4, 4.2, 5.1).
#include <gtest/gtest.h>

#include "apps/buffer.hpp"
#include "apps/counters.hpp"
#include "core/program.hpp"
#include "support.hpp"

namespace {

using namespace abcl;

TEST(Patterns, InternAssignsDenseIds) {
  core::PatternRegistry reg;
  auto a = reg.intern("msg.a", 0);
  auto b = reg.intern("msg.b", 2);
  auto a2 = reg.intern("msg.a", 0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.info(b).arity, 2);
  EXPECT_EQ(reg.id_of("msg.b"), b);
}

TEST(Patterns, EmptyRegistryMatchesNothing) {
  core::PatternRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_FALSE(reg.frozen());
  // A frozen empty registry is legal (a program with no patterns); it just
  // can never dispatch anything.
  reg.freeze();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(PatternsDeath, UnknownLookupAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::PatternRegistry reg;
  reg.intern("msg.a", 0);
  EXPECT_DEATH(reg.id_of("msg.zzz"), "unknown message pattern");
  core::PatternRegistry empty;
  EXPECT_DEATH(empty.id_of("anything"), "unknown message pattern");
}

TEST(WaitSite, EmptyAcceptSetMatchesNoPattern) {
  // A selective-reception site with no accepted patterns: every arrival
  // must fall through to the queuing path, none may restore the frame.
  core::WaitSite ws;
  for (PatternId p = 0; p < 8; ++p) EXPECT_EQ(ws.find(p), nullptr);
}

TEST(WaitSite, OverlappingAcceptsFirstRegisteredWins) {
  // Two accepts for the same pattern (e.g. two textual arms of one select
  // matching the same message): the first registered arm must win,
  // deterministically, and its continuation pc is the one restored.
  core::WaitSite ws;
  ws.accepts.push_back(core::WaitSite::Accept{7, nullptr, 11});
  ws.accepts.push_back(core::WaitSite::Accept{7, nullptr, 22});
  ws.accepts.push_back(core::WaitSite::Accept{3, nullptr, 33});
  const core::WaitSite::Accept* a = ws.find(7);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->resume_pc, 11);  // first match, not last
  const core::WaitSite::Accept* b = ws.find(3);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->resume_pc, 33);
  EXPECT_EQ(ws.find(4), nullptr);
}

TEST(WaitSite, SpecificAcceptBeatsGenericQueueFallback) {
  // The waiting table is the wildcard-vs-specific split: awaited patterns
  // get the specific restore entry, every other pattern falls through to
  // the catch-all queuing entry — priority is encoded structurally, per
  // slot, not by scan order at delivery time.
  core::Program prog;
  auto bp = apps::register_buffer(prog);
  prog.finalize();
  const core::WaitSite& ws = *bp.cls->wait_sites[0];
  std::size_t restores = 0;
  for (std::size_t p = 0; p < prog.patterns().size(); ++p) {
    auto pid = static_cast<PatternId>(p);
    if (ws.find(pid) != nullptr) {
      EXPECT_EQ(ws.vft.entry(pid), &core::select_restore_entry);
      ++restores;
    } else {
      EXPECT_EQ(ws.vft.entry(pid), &core::generic_queue_entry);
    }
  }
  EXPECT_EQ(restores, 1u);  // the wait-empty site awaits exactly `put`
}

TEST(PatternsDeath, ArityMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::PatternRegistry reg;
  reg.intern("msg.a", 1);
  EXPECT_DEATH(reg.intern("msg.a", 2), "different arity");
}

TEST(PatternsDeath, FrozenRegistryRejectsIntern) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::PatternRegistry reg;
  reg.freeze();
  EXPECT_DEATH(reg.intern("late", 0), "frozen");
}

TEST(Program, FinalizeBuildsAllModeTables) {
  core::Program prog;
  auto cp = apps::register_counter(prog);
  auto bp = apps::register_buffer(prog);
  prog.finalize();

  const std::size_t np = prog.patterns().size();
  ASSERT_GE(np, 6u);

  const core::ClassInfo& counter = *cp.cls;
  EXPECT_TRUE(counter.finalized);
  EXPECT_EQ(counter.dormant.entries.size(), np);
  EXPECT_EQ(counter.active.entries.size(), np);
  EXPECT_EQ(counter.lazy_init.entries.size(), np);
  // Registered methods land in the dormant table; others are errors.
  EXPECT_NE(counter.dormant.entry(cp.inc), &core::not_understood_entry);
  EXPECT_EQ(counter.dormant.entry(bp.put), &core::not_understood_entry);
  // The active table queues everything.
  for (std::size_t p = 0; p < np; ++p) {
    EXPECT_EQ(counter.active.entry(static_cast<PatternId>(p)),
              &core::generic_queue_entry);
  }

  // The buffer's wait-empty site accepts exactly `put`; the wait-full site
  // accepts exactly `get`.
  const core::ClassInfo& buffer = *bp.cls;
  ASSERT_EQ(buffer.wait_sites.size(), 2u);
  const core::WaitSite& ws = *buffer.wait_sites[0];
  EXPECT_EQ(ws.vft.entry(bp.put), &core::select_restore_entry);
  EXPECT_EQ(ws.vft.entry(bp.get), &core::generic_queue_entry);
  EXPECT_EQ(ws.vft.wait_site, 0);
  EXPECT_NE(ws.find(bp.put), nullptr);
  EXPECT_EQ(ws.find(bp.get), nullptr);
  const core::WaitSite& wf = *buffer.wait_sites[1];
  EXPECT_EQ(wf.vft.entry(bp.get), &core::select_restore_entry);
  EXPECT_EQ(wf.vft.entry(bp.put), &core::generic_queue_entry);
  EXPECT_EQ(wf.vft.wait_site, 1);
}

TEST(Program, FaultVftQueuesEveryPattern) {
  core::Program prog;
  apps::register_counter(prog);
  prog.finalize();
  const core::Vft& f = prog.fault_vft();
  EXPECT_EQ(f.cls, nullptr);
  EXPECT_EQ(f.mode, core::Mode::kFault);
  for (std::size_t p = 0; p < prog.patterns().size(); ++p) {
    EXPECT_EQ(f.entry(static_cast<PatternId>(p)), &core::generic_queue_entry);
  }
}

TEST(Program, HandlerBlocksAreRegisteredPerPatternClassAndSizeClass) {
  core::Program prog;
  auto cp = apps::register_counter(prog);
  auto ep = testsup::register_echo(prog);
  prog.finalize();

  const auto& am = prog.am();
  // One Category-1 handler per pattern, with a readable name.
  EXPECT_EQ(am.entry(prog.h_obj_msg(cp.inc)).name, "msg:ctr.inc");
  EXPECT_EQ(am.entry(prog.h_obj_msg(cp.inc)).category,
            net::AmCategory::kObjectMessage);
  EXPECT_EQ(am.entry(prog.h_obj_msg(ep.run)).name, "msg:echo.run");
  // One Category-2 handler per class.
  EXPECT_EQ(am.entry(prog.h_create(cp.cls->id)).name, "create:Counter");
  EXPECT_EQ(am.entry(prog.h_create(cp.cls->id)).category,
            net::AmCategory::kCreateRequest);
  // Category-3 handlers per chunk size class.
  EXPECT_EQ(am.entry(prog.h_replenish(0)).category, net::AmCategory::kAllocReply);
  EXPECT_EQ(am.entry(prog.h_replenish(3)).name, "replenish:256B");
  // Category 4.
  EXPECT_EQ(am.entry(prog.h_load_gossip()).category, net::AmCategory::kService);
  // Round-tripping handler ids back to pattern/class/size-class.
  EXPECT_EQ(prog.pattern_of_handler(prog.h_obj_msg(cp.get)), cp.get);
  EXPECT_EQ(prog.class_of_handler(prog.h_create(cp.cls->id)), cp.cls->id);
  EXPECT_EQ(prog.size_class_of_handler(prog.h_replenish(5)), 5);
}

TEST(ProgramDeath, WorldRequiresFinalizedProgram) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  apps::register_counter(prog);
  WorldConfig cfg;
  cfg.with_nodes(1);
  EXPECT_DEATH({ World w(prog, cfg); }, "finalize");
}

TEST(Program, ObjectLayoutLeavesAlignedStateOffset) {
  EXPECT_EQ(core::ObjectHeader::state_offset() % 16, 0u);
  EXPECT_GE(core::ObjectHeader::state_offset(), sizeof(core::ObjectHeader));
  EXPECT_GE(core::object_alloc_bytes(0), core::ObjectHeader::state_offset() + 1);
  // One cache line; state starts right behind it.
  EXPECT_EQ(sizeof(core::ObjectHeader), 64u);
  EXPECT_EQ(core::ObjectHeader::state_offset(), 64u);
}

}  // namespace
