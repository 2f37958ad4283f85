// Now-type messages, reply destinations and blocking/resumption
// (Sections 2.2, 4.3).
#include <gtest/gtest.h>

#include "apps/counters.hpp"
#include "support.hpp"

namespace {

using namespace abcl;
using namespace abcl::testsup;

struct Fixture {
  core::Program prog;
  apps::CounterProgram counter;
  DelayProgram delay;
  AskerProgram asker;

  Fixture() {
    counter = apps::register_counter(prog);
    delay = register_delay(prog);
    asker = register_asker(prog);
    prog.finalize();
    clear_log();
  }
};

TEST(Reply, LocalNowTypeFastPathNeverBlocks) {
  // Stack scheduling runs the callee first, so the reply is already in the
  // box when the sender checks — the paper's common case.
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(fx.prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) {
    Word init = 41;
    MailAddr c = ctx.create_local(*fx.counter.cls, &init, 1);
    ctx.send_past(c, fx.counter.inc, nullptr, 0);
    a = ctx.create_local(*fx.asker.cls, nullptr, 0);
    Word args[3] = {c.word_node(), c.word_ptr(), fx.counter.get};
    ctx.send_past(a, fx.asker.go, args, 3);
    // Completed synchronously on the stack.
    EXPECT_EQ(a.ptr->state_as<AskerState>()->got, 42);
  });
  world.run();
  auto st = world.total_stats();
  EXPECT_EQ(st.blocks_await, 0u);
  EXPECT_EQ(st.await_fast_hits, 1u);
  EXPECT_EQ(st.resumes, 0u);
}

TEST(Reply, BlockingAwaitSpillsAndResumes) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(fx.prog, cfg);
  MailAddr a, d;
  world.boot(0, [&](Ctx& ctx) {
    d = ctx.create_local(*fx.delay.cls, nullptr, 0);
    a = ctx.create_local(*fx.asker.cls, nullptr, 0);
    Word args[3] = {d.word_node(), d.word_ptr(), fx.delay.ask};
    ctx.send_past(a, fx.asker.go, args, 3);
    // Delay holds the reply: the asker must be blocked now.
    EXPECT_EQ(a.ptr->mode, core::Mode::kWaiting);
    EXPECT_NE(a.ptr->blocked_frame(), nullptr);
    EXPECT_FALSE(a.ptr->state_as<AskerState>()->completed);
    // Kick: the reply resumes the asker directly on this stack.
    Word v = 1234;
    ctx.send_past(d, fx.delay.kick, &v, 1);
    EXPECT_TRUE(a.ptr->state_as<AskerState>()->completed);
    EXPECT_EQ(a.ptr->state_as<AskerState>()->got, 1234);
    EXPECT_EQ(a.ptr->blocked_frame(), nullptr);
  });
  world.run();
  auto st = world.total_stats();
  EXPECT_EQ(st.blocks_await, 1u);
  EXPECT_EQ(st.resumes, 1u);
}

TEST(Reply, WhileAwaitingAllMessagesAreQueued) {
  // An object blocked on a reply must buffer every incoming message
  // (the paper: the sender's VFT entries are all queuing procedures).
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(fx.prog, cfg);
  world.boot(0, [&](Ctx& ctx) {
    MailAddr d = ctx.create_local(*fx.delay.cls, nullptr, 0);
    MailAddr a = ctx.create_local(*fx.asker.cls, nullptr, 0);
    Word args[3] = {d.word_node(), d.word_ptr(), fx.delay.ask};
    ctx.send_past(a, fx.asker.go, args, 3);
    ASSERT_EQ(a.ptr->mode, core::Mode::kWaiting);
    // Send the asker another go: must be buffered, not run.
    ctx.send_past(a, fx.asker.go, args, 3);
    EXPECT_EQ(a.ptr->mq.size(), 1u);
    EXPECT_EQ(a.ptr->mode, core::Mode::kWaiting);
    // Release the first ask; the second go then runs (and blocks again).
    Word v = 1;
    ctx.send_past(d, fx.delay.kick, &v, 1);
    EXPECT_EQ(a.ptr->state_as<AskerState>()->got, 1);
  });
  world.run();
}

TEST(Reply, ReplyDestinationCanBeDelegated) {
  // D1 passes the reply destination to D2; D2's kick resumes the asker —
  // "reply messages are not necessarily sent by the original receiver".
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(fx.prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) {
    MailAddr d1 = ctx.create_local(*fx.delay.cls, nullptr, 0);
    MailAddr d2 = ctx.create_local(*fx.delay.cls, nullptr, 0);
    a = ctx.create_local(*fx.asker.cls, nullptr, 0);
    Word args[3] = {d1.word_node(), d1.word_ptr(), fx.delay.ask};
    ctx.send_past(a, fx.asker.go, args, 3);
    Word pass[3] = {d2.word_node(), d2.word_ptr(), fx.delay.adopt};
    ctx.send_past(d1, fx.delay.pass, pass, 3);
    Word v = 77;
    ctx.send_past(d2, fx.delay.kick, &v, 1);
  });
  world.run();
  EXPECT_EQ(a.ptr->state_as<AskerState>()->got, 77);
}

TEST(Reply, RemoteNowTypeRoundTrip) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(fx.prog, cfg);
  MailAddr a, c;
  world.boot(2, [&](Ctx& ctx) {
    Word init = 10;
    c = ctx.create_local(*fx.counter.cls, &init, 1);
  });
  world.boot(0, [&](Ctx& ctx) {
    a = ctx.create_local(*fx.asker.cls, nullptr, 0);
    Word args[3] = {c.word_node(), c.word_ptr(), fx.counter.get};
    ctx.send_past(a, fx.asker.go, args, 3);
    // Remote: reply cannot be there yet; the asker must block.
    EXPECT_EQ(a.ptr->mode, core::Mode::kWaiting);
  });
  world.run();
  EXPECT_EQ(a.ptr->state_as<AskerState>()->got, 10);
  auto st = world.total_stats();
  EXPECT_EQ(st.blocks_await, 1u);
  EXPECT_EQ(st.resumes, 1u);
}

TEST(Reply, RemoteDelegatedReplyAcrossThreeNodes) {
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(fx.prog, cfg);
  MailAddr a, d1, d2;
  world.boot(1, [&](Ctx& ctx) { d1 = ctx.create_local(*fx.delay.cls, nullptr, 0); });
  world.boot(2, [&](Ctx& ctx) { d2 = ctx.create_local(*fx.delay.cls, nullptr, 0); });
  world.boot(0, [&](Ctx& ctx) {
    a = ctx.create_local(*fx.asker.cls, nullptr, 0);
    Word args[3] = {d1.word_node(), d1.word_ptr(), fx.delay.ask};
    ctx.send_past(a, fx.asker.go, args, 3);
    Word pass[3] = {d2.word_node(), d2.word_ptr(), fx.delay.adopt};
    ctx.send_past(d1, fx.delay.pass, pass, 3);
  });
  world.run();  // the reply destination has settled at d2
  world.boot(0, [&](Ctx& ctx) {
    Word v = 555;
    ctx.send_past(d2, fx.delay.kick, &v, 1);
  });
  world.run();
  EXPECT_EQ(a.ptr->state_as<AskerState>()->got, 555);
}

TEST(ReplyDeath, DoubleReplyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(fx.prog, cfg);
  world.boot(0, [&](Ctx& ctx) {
    MailAddr d = ctx.create_local(*fx.delay.cls, nullptr, 0);
    // Ask from the host: the box is never consumed, so the second reply
    // must trip the double-reply check deterministically.
    core::NowCall call = ctx.send_now(d, fx.delay.ask, nullptr, 0);
    core::ReplyDest held = d.ptr->state_as<DelayState>()->held;
    Word v = 1;
    ctx.reply(held, &v, 1);
    ASSERT_TRUE(ctx.reply_ready(call));
    EXPECT_DEATH(ctx.reply(held, &v, 1), "double reply");
  });
  world.run();
}

TEST(Reply, PeekAllowsMultiWordReplies) {
  // Direct box-level check of multi-word storage.
  Fixture fx;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(fx.prog, cfg);
  world.boot(0, [&](Ctx& ctx) {
    core::ReplyBox* box = nullptr;
    {
      MailAddr d = ctx.create_local(*fx.delay.cls, nullptr, 0);
      core::NowCall call = ctx.send_now(d, fx.delay.ask, nullptr, 0);
      box = call.box;
      core::ReplyDest held = d.ptr->state_as<DelayState>()->held;
      Word vals[3] = {7, 8, 9};
      ctx.reply(held, vals, 3);
      core::NowCall c2{box};
      ASSERT_TRUE(ctx.reply_ready(c2));
      EXPECT_EQ(ctx.peek_reply(c2, 0), 7u);
      EXPECT_EQ(ctx.peek_reply(c2, 1), 8u);
      EXPECT_EQ(ctx.peek_reply(c2, 2), 9u);
      EXPECT_EQ(ctx.take_reply(c2), 7u);
    }
  });
  world.run();
}

}  // namespace
