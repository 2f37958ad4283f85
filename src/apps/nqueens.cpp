#include "apps/nqueens.hpp"

#include <bit>

namespace abcl::apps {

namespace {

// Creation-argument layout (9 words):
//   0,1  parent mail address
//   2    pattern to report completion with (nq.done, or latch.done for root)
//   3    nq.done pattern id (what this node's children report with)
//   4    (n << 8) | row
//   5,6,7 cols, d1, d2 bitboards
//   8    (charge_base << 16) | charge_per_col
struct NqState {
  MailAddr parent;
  PatternId parent_pat = 0;
  PatternId done_pat = 0;
  std::int32_t n = 0;
  std::int32_t row = 0;
  std::uint32_t cols = 0;
  std::uint32_t d1 = 0;
  std::uint32_t d2 = 0;
  std::uint32_t work = 0;
  std::int32_t pending = 0;
  std::int64_t solutions = 0;

  void on_create(const Msg& m) {
    parent = m.addr(0);
    parent_pat = static_cast<PatternId>(m.at(2));
    done_pat = static_cast<PatternId>(m.at(3));
    n = static_cast<std::int32_t>(m.at(4) >> 8);
    row = static_cast<std::int32_t>(m.at(4) & 0xFF);
    cols = static_cast<std::uint32_t>(m.at(5));
    d1 = static_cast<std::uint32_t>(m.at(6));
    d2 = static_cast<std::uint32_t>(m.at(7));
    work = static_cast<std::uint32_t>(m.at(8));
  }

  sim::Instr expand_charge(int candidates) const {
    return (work >> 16) +
           static_cast<sim::Instr>(work & 0xFFFF) *
               static_cast<sim::Instr>(candidates);
  }

  void report(Ctx& ctx) {
    Word v = static_cast<Word>(solutions);
    ctx.send_past(parent, parent_pat, &v, 1);
    ctx.retire_self();
  }
};

struct NqGoFrame : Frame {
  std::uint32_t cand = 0;
  PatternId go_pat = 0;  // this method's own pattern (inherited by children)
  CreateCall cc;

  static void init(NqGoFrame& f, const Msg& m) { f.go_pat = m.pattern; }
  static Status run(Ctx& ctx, NqState& self, NqGoFrame& f);
};

Status NqGoFrame::run(Ctx& ctx, NqState& self, NqGoFrame& f) {
  ABCL_BEGIN(f);
  if (self.row == self.n) {
    // All n queens placed: this object *is* a solution (the paper's
    // creation counts include one object per solution — 2,056 for N=8 =
    // 1,964 interior nodes + 92 solutions + root).
    ctx.charge(self.expand_charge(0));
    self.solutions = 1;
    self.report(ctx);
    ABCL_RETURN();
  }
  {
    const std::uint32_t mask = (1u << self.n) - 1;
    f.cand = ~(self.cols | self.d1 | self.d2) & mask;
    ctx.charge(self.expand_charge(std::popcount(f.cand)));
  }
  while (f.cand != 0) {
    {
      const std::uint32_t bit = f.cand & (0u - f.cand);
      const std::uint32_t mask = (1u << self.n) - 1;
      MailAddr me = ctx.self_addr();
      Word args[9];
      args[0] = me.word_node();
      args[1] = me.word_ptr();
      args[2] = self.done_pat;
      args[3] = self.done_pat;
      args[4] = (static_cast<Word>(static_cast<std::uint32_t>(self.n)) << 8) |
                static_cast<Word>(static_cast<std::uint32_t>(self.row + 1));
      args[5] = self.cols | bit;
      args[6] = ((self.d1 | bit) << 1) & mask;
      args[7] = (self.d2 | bit) >> 1;
      args[8] = self.work;
      NodeId target = ctx.placement().choose(ctx);
      f.cc = ctx.remote_create_begin(*ctx.current_object()->cls(), target, args, 9);
    }
    ABCL_AWAIT(ctx, f, 1, f.cc.call);
    {
      MailAddr child = ctx.remote_create_finish(f.cc);
      ctx.send_past(child, f.go_pat, nullptr, 0);
      self.pending += 1;
      f.cand &= f.cand - 1;
    }
  }
  if (self.pending == 0) self.report(ctx);
  ABCL_END();
}

struct NqDoneFrame : Frame {
  std::int64_t k = 0;
  static void init(NqDoneFrame& f, const Msg& m) { f.k = m.i64(0); }
  static Status run(Ctx& ctx, NqState& self, NqDoneFrame& f) {
    ctx.charge(20);  // accumulate + decrement bookkeeping
    self.solutions += f.k;
    self.pending -= 1;
    ABCL_CHECK(self.pending >= 0);
    if (self.pending == 0) self.report(ctx);
    return Status::kDone;
  }
};

}  // namespace

NQueensProgram register_nqueens(core::Program& prog) {
  NQueensProgram np;
  np.latch = register_completion_latch(prog);
  np.go = prog.patterns().intern("nq.go", 0);
  np.done = prog.patterns().intern("nq.done", 1);
  ClassDef<NqState> def(prog, "NqNode");
  def.method<NqGoFrame>(np.go);
  def.method<NqDoneFrame>(np.done);
  np.node_cls = &def.info();
  return np;
}

NQueensResult run_nqueens(World& world, const NQueensProgram& np,
                          const NQueensParams& p) {
  ABCL_CHECK(p.n >= 1 && p.n <= 16);
  ABCL_CHECK(p.charge_base < (1u << 16) && p.charge_per_col < (1u << 16));

  const core::NodeStats before = world.total_stats();
  MailAddr latch;
  world.boot(0, [&](Ctx& ctx) {
    latch = ctx.create_local(*np.latch.cls, {});
    ctx.send_past(latch, np.latch.expect, {1});
    Word work = (static_cast<Word>(p.charge_base) << 16) |
                static_cast<Word>(p.charge_per_col);
    Word args[9] = {latch.word_node(), latch.word_ptr(), np.latch.done,
                    np.done,           static_cast<Word>(p.n) << 8,
                    0,                 0,
                    0,                 work};
    MailAddr root = ctx.create_local(*np.node_cls, args, 9);
    ctx.send_past(root, np.go, nullptr, 0);
  });

  RunReport rep = world.run();
  const CompletionLatch& latch_s = latch_state(latch);
  ABCL_CHECK_MSG(latch_s.done(), "N-queens did not run to completion");

  NQueensResult r;
  r.solutions = latch_s.total;
  // Tree objects = all creations minus the latch (stock chunks are memory,
  // not objects, and are not counted by the creation stats).
  core::NodeStats after = world.total_stats();
  r.objects_created = (after.creations_local - before.creations_local) +
                      (after.creations_remote - before.creations_remote) - 1;
  r.messages = 2 * r.objects_created;  // one go + one done per tree object
  r.sim_time = rep.sim_time;
  r.sim_ms = rep.sim_ms;
  r.heap_bytes = world.total_heap_bytes();
  r.stats = world.total_stats();
  r.rep = rep;
  return r;
}

NQueensResult run_nqueens_on(core::Program& prog, const NQueensProgram& np,
                             const NQueensParams& p, WorldConfig cfg) {
  World world(prog, cfg);
  return run_nqueens(world, np, p);
}

}  // namespace abcl::apps
