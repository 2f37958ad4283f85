// Direct reproductions of the paper's worked examples:
//   Figure 1 — the intra-node scheduling strategy (A, B, C on one node);
//   Figure 3 — stack unwinding on a now-type send to an active object
//              (S, R, and S's activator O).
// Plus fidelity tests for the lazy heap spill (Section 4.3): every frame
// field must survive the stack-to-heap copy and resumption.
#include <gtest/gtest.h>

#include "support.hpp"

namespace {

using namespace abcl;
using namespace abcl::testsup;

// ---------------------------------------------------------------------------
// Figure 1. "A sends a message to B. B starts execution immediately. B sends
// a message to C. C starts execution immediately. C sends the second message
// to B, and C continues execution because B is already active. After C
// finished its execution, B executes the rest of the method. When B finishes
// its method, B enqueues itself in the scheduling queue and will be
// scheduled later."
// ---------------------------------------------------------------------------

namespace fig1 {
// "fig1.step" [stage, a2, b2, c2]: scripted sends per the figure.
// Object identities are passed as creation arg (tag) for logging.
struct State {
  std::int64_t tag = 0;
  void on_create(const Msg& m) { tag = m.i64(0); }
};

struct StepFrame : Frame {
  std::int64_t stage = 0;
  MailAddr b, c;
  PatternId pat = 0;
  static void init(StepFrame& f, const Msg& m) {
    f.stage = m.i64(0);
    f.b = m.addr(1);
    f.c = m.addr(3);
    f.pat = m.pattern;
  }
  static Status run(Ctx& ctx, State& self, StepFrame& f) {
    log_event("enter" + std::to_string(self.tag) + ".s" + std::to_string(f.stage));
    if (f.stage == 1) {
      // A's method: send to B (stage 2).
      Word a[5];
      a[0] = 2;
      a[1] = f.b.word_node();
      a[2] = f.b.word_ptr();
      a[3] = f.c.word_node();
      a[4] = f.c.word_ptr();
      ctx.send_past(f.b, f.pat, a, 5);
    } else if (f.stage == 2) {
      // B's method: send to C (stage 3) — C runs immediately; when control
      // returns here, "B executes the rest of the method" (step 4).
      Word a[5];
      a[0] = 3;
      a[1] = ctx.self_addr().word_node();
      a[2] = ctx.self_addr().word_ptr();
      a[3] = f.c.word_node();
      a[4] = f.c.word_ptr();
      ctx.send_past(f.c, f.pat, a, 5);
      log_event("rest-of-B");
    } else if (f.stage == 3) {
      // C's method: send the SECOND message to B (stage 4) — B is active,
      // so this buffers and C continues (step 3).
      Word a[5];
      a[0] = 4;
      a[1] = f.b.word_node();
      a[2] = f.b.word_ptr();
      a[3] = 0;
      a[4] = 0;
      ctx.send_past(f.b, f.pat, a, 5);
      log_event("C-continues");
    }
    log_event("exit" + std::to_string(self.tag) + ".s" + std::to_string(f.stage));
    return Status::kDone;
  }
};
}  // namespace fig1

TEST(Figure1, IntraNodeSchedulingStrategy) {
  core::Program prog;
  PatternId step = prog.patterns().intern("fig1.step", 5);
  ClassDef<fig1::State> def(prog, "Fig1");
  def.method<fig1::StepFrame>(step);
  prog.finalize();

  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(prog, cfg);
  clear_log();
  world.boot(0, [&](Ctx& ctx) {
    Word ta = 1, tb = 2, tc = 3;
    MailAddr a = ctx.create_local(def.info(), &ta, 1);
    MailAddr b = ctx.create_local(def.info(), &tb, 1);
    MailAddr c = ctx.create_local(def.info(), &tc, 1);
    // Warm all three (lazy init) so the trace below is pure scheduling.
    Word w[5] = {0, 0, 0, 0, 0};
    ctx.send_past(a, step, w, 5);
    ctx.send_past(b, step, w, 5);
    ctx.send_past(c, step, w, 5);
    clear_log();
    Word a1[5] = {1, b.word_node(), b.word_ptr(), c.word_node(), c.word_ptr()};
    ctx.send_past(a, step, a1, 5);
    // Steps 1-4 all happened synchronously on this stack; B's buffered
    // second message is pending in the scheduling queue (step 5).
    EXPECT_EQ(b.ptr->sched_state, core::SchedState::kQueuedNext);
  });
  world.run();

  const std::vector<std::string> expected = {
      "enter1.s1",      // A starts (step 1: B invoked immediately below)
      "enter2.s2",      //   B starts on A's stack
      "enter3.s3",      //     C starts on B's stack (step 2)
      "C-continues",    //     C's second message to B buffered (step 3)
      "exit3.s3",       //     C finishes
      "rest-of-B",      //   B executes the rest of its method (step 4)
      "exit2.s2",       //   B finishes; enqueues itself (step 5)
      "exit1.s1",       // A resumes and finishes
      "enter2.s4",      // the buffered message runs via the scheduling queue
      "exit2.s4",
  };
  EXPECT_EQ(event_log(), expected);
}

// ---------------------------------------------------------------------------
// Figure 3. "S sends now type message m to R and m is enqueued. S checks the
// reply destination object to find that no reply has arrived and saves its
// context into a heap-allocated frame. When R gets control, it enqueues
// itself into the scheduling queue at the end of the method. m is eventually
// scheduled and the reply reaches S."
// ---------------------------------------------------------------------------

namespace fig3 {
// R: a Delay-like object whose "fig3.m" replies immediately — but the test
// arranges for R to be ACTIVE when m arrives, so m buffers.
struct RState {
  std::int64_t serviced = 0;
};
struct MFrame : Frame {
  ReplyDest rd;
  static void init(MFrame& f, const Msg& m) { f.rd = m.reply; }
  static Status run(Ctx& ctx, RState& self, MFrame& f) {
    log_event("R-services-m");
    self.serviced += 1;
    Word v = 99;
    ctx.reply(f.rd, &v, 1);
    return Status::kDone;
  }
};
// "fig3.busy" [s_node, s_ptr, ask_pat]: while R runs this method (active!),
// it pokes S's `go`, making S send m to the active R.
struct BusyFrame : Frame {
  MailAddr s;
  PatternId go_pat = 0;
  Word m_pat = 0;
  static void init(BusyFrame& f, const Msg& m) {
    f.s = m.addr(0);
    f.go_pat = static_cast<PatternId>(m.at(2));
    f.m_pat = m.at(3);
  }
  static Status run(Ctx& ctx, RState&, BusyFrame& f) {
    log_event("R-busy-begin");
    // S runs now (dormant), sends m to us — we are active, m buffers, S
    // blocks, control returns here ("resumes the object which activated S").
    Word args[3] = {ctx.self_addr().word_node(), ctx.self_addr().word_ptr(),
                    f.m_pat};
    ctx.send_past(f.s, f.go_pat, args, 3);
    log_event("R-busy-end");
    return Status::kDone;
  }
};
}  // namespace fig3

TEST(Figure3, StackUnwindingOnNowTypeToActiveReceiver) {
  core::Program prog;
  AskerProgram ap = register_asker(prog);  // S: send_now + await
  PatternId m_pat = prog.patterns().intern("fig3.m", 0);
  PatternId busy = prog.patterns().intern("fig3.busy", 4);
  ClassDef<fig3::RState> rdef(prog, "Fig3R");
  rdef.method<fig3::MFrame>(m_pat);
  rdef.method<fig3::BusyFrame>(busy);
  prog.finalize();

  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(prog, cfg);
  clear_log();
  MailAddr s, r;
  world.boot(0, [&](Ctx& ctx) {
    r = ctx.create_local(rdef.info(), nullptr, 0);
    s = ctx.create_local(*ap.cls, nullptr, 0);
    Word args[4] = {s.word_node(), s.word_ptr(), ap.go, m_pat};
    ctx.send_past(r, busy, args, 4);
    // At this point: S blocked with a heap frame, R's queue holds m, R is
    // scheduled (its epilogue found the buffered m).
    EXPECT_EQ(s.ptr->mode, core::Mode::kWaiting);
    EXPECT_NE(s.ptr->blocked_frame(), nullptr);
    EXPECT_EQ(r.ptr->mq.size(), 1u);
    EXPECT_EQ(r.ptr->sched_state, core::SchedState::kQueuedNext);
    EXPECT_FALSE(s.ptr->state_as<AskerState>()->completed);
  });
  world.run();  // m is eventually scheduled and the reply reaches S

  EXPECT_TRUE(s.ptr->state_as<AskerState>()->completed);
  EXPECT_EQ(s.ptr->state_as<AskerState>()->got, 99);
  const std::vector<std::string> expected = {
      "R-busy-begin",
      "R-busy-end",     // S's m was buffered; S blocked; R finished first
      "R-services-m",   // scheduled later; its reply resumes S
      "asker-done",
  };
  EXPECT_EQ(event_log(), expected);
}

// ---------------------------------------------------------------------------
// Spill fidelity: a frame with many live fields blocks twice; every field
// must survive the memcpy spill and both resumptions.
// ---------------------------------------------------------------------------

namespace spill {
struct State {
  std::int64_t result = 0;
};
struct BigFrame : Frame {
  std::int64_t a = 0, b = 0, c = 0;
  double d = 0;
  MailAddr target;
  std::uint32_t arr[6] = {};
  NowCall c1, c2;
  static void init(BigFrame& f, const Msg& m) {
    f.a = m.i64(0);
    f.target = m.addr(1);
    f.b = f.a * 3;
    f.c = -f.a;
    f.d = 0.5 * static_cast<double>(f.a);
    for (int i = 0; i < 6; ++i) f.arr[i] = static_cast<std::uint32_t>(i + 7);
  }
  static Status run(Ctx& ctx, State& self, BigFrame& f) {
    ABCL_BEGIN(f);
    f.c1 = ctx.send_now(f.target, ctx.program().patterns().id_of("delay.ask"),
                        nullptr, 0);
    ABCL_AWAIT(ctx, f, 1, f.c1);  // blocks (Delay holds the reply)
    f.b += static_cast<std::int64_t>(ctx.take_reply(f.c1));
    f.c2 = ctx.send_now(f.target, ctx.program().patterns().id_of("delay.ask"),
                        nullptr, 0);
    ABCL_AWAIT(ctx, f, 2, f.c2);  // blocks again (frame already on heap)
    f.b += static_cast<std::int64_t>(ctx.take_reply(f.c2));
    {
      std::int64_t sum = 0;
      for (int i = 0; i < 6; ++i) sum += f.arr[i];
      self.result = f.a + f.b + f.c + static_cast<std::int64_t>(f.d * 2) + sum;
    }
    ABCL_END();
  }
};
}  // namespace spill

TEST(Spill, AllFrameFieldsSurviveRepeatedBlocks) {
  core::Program prog;
  DelayProgram dp = register_delay(prog);
  PatternId go = prog.patterns().intern("spill.go", 3);
  ClassDef<spill::State> def(prog, "Spill");
  def.method<spill::BigFrame>(go);
  prog.finalize();

  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(prog, cfg);
  MailAddr sp, d;
  world.boot(0, [&](Ctx& ctx) {
    d = ctx.create_local(*dp.cls, nullptr, 0);
    sp = ctx.create_local(def.info(), nullptr, 0);
    Word args[3] = {1000, d.word_node(), d.word_ptr()};
    ctx.send_past(sp, go, args, 3);
    EXPECT_EQ(sp.ptr->mode, core::Mode::kWaiting);
    Word v1 = 11;
    ctx.send_past(d, dp.kick, &v1, 1);  // resume #1; blocks again
    EXPECT_EQ(sp.ptr->mode, core::Mode::kWaiting);
    Word v2 = 31;
    ctx.send_past(d, dp.kick, &v2, 1);  // resume #2; completes
  });
  world.run();
  // a=1000, b=3000+11+31, c=-1000, d*2=1000, arr sum=7+..+12=57
  EXPECT_EQ(sp.ptr->state_as<spill::State>()->result,
            1000 + 3042 - 1000 + 1000 + 57);
  EXPECT_EQ(world.total_stats().blocks_await, 2u);
  EXPECT_EQ(world.total_stats().resumes, 2u);
}

}  // namespace
