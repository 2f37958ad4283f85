#include "apps/sieve.hpp"

namespace abcl::apps {

namespace {

// Creation args: [prime, latch_node, latch_ptr, latch_done_pat]
struct FilterState {
  std::int64_t prime = 0;
  MailAddr next;  // nil while this filter is the chain tail
  MailAddr latch;
  PatternId latch_done = 0;

  void on_create(const Msg& m) {
    prime = m.i64(0);
    latch = m.addr(1);
    latch_done = static_cast<PatternId>(m.at(3));
  }
};

struct NumFrame : Frame {
  std::int64_t n = 0;
  PatternId pat = 0;
  CreateCall cc;

  static void init(NumFrame& f, const Msg& m) {
    f.n = m.i64(0);
    f.pat = m.pattern;
  }
  static Status run(Ctx& ctx, FilterState& self, NumFrame& f) {
    ABCL_BEGIN(f);
    ctx.charge(12);  // one modulo + branch
    if (f.n % self.prime == 0) ABCL_RETURN();  // composite: drop
    if (!self.next.is_nil()) {
      Word w = static_cast<Word>(f.n);
      ctx.send_past(self.next, f.pat, &w, 1);
      ABCL_RETURN();
    }
    // Survived to the tail: n is prime. Grow the chain; candidates arriving
    // while we await the chunk are queued (waiting mode) and replayed in
    // order once `next` is set.
    f.cc = ctx.remote_create_begin(
        *ctx.current_object()->cls(), ctx.placement().choose(ctx),
        args(f.n, self.latch, self.latch_done));
    ABCL_AWAIT(ctx, f, 1, f.cc.call);
    self.next = ctx.remote_create_finish(f.cc);
    ABCL_END();
  }
};

struct EndFrame : Frame {
  std::int64_t count = 0;
  PatternId pat = 0;
  static void init(EndFrame& f, const Msg& m) {
    f.count = m.i64(0);
    f.pat = m.pattern;
  }
  static Status run(Ctx& ctx, FilterState& self, EndFrame& f) {
    ctx.charge(8);
    std::int64_t acc = f.count + 1;  // count this filter's prime
    if (self.next.is_nil()) {
      Word w = static_cast<Word>(acc);
      ctx.send_past(self.latch, self.latch_done, &w, 1);
    } else {
      Word w = static_cast<Word>(acc);
      ctx.send_past(self.next, f.pat, &w, 1);
    }
    return Status::kDone;
  }
};

}  // namespace

SieveProgram register_sieve(core::Program& prog) {
  SieveProgram sp;
  sp.latch = register_completion_latch(prog);
  sp.num = prog.patterns().intern("sv.num", 1);
  sp.end = prog.patterns().intern("sv.end", 1);
  ClassDef<FilterState> def(prog, "SieveFilter");
  def.method<NumFrame>(sp.num);
  def.method<EndFrame>(sp.end);
  sp.filter_cls = &def.info();
  return sp;
}

SieveResult run_sieve(World& world, const SieveProgram& sp, std::int64_t limit) {
  ABCL_CHECK(limit >= 2);
  const core::NodeStats before = world.total_stats();
  MailAddr latch;
  world.boot(0, [&](Ctx& ctx) {
    latch = ctx.create_local(*sp.latch.cls, nullptr, 0);
    ctx.send_past(latch, sp.latch.expect, {1});
    MailAddr head =
        ctx.create_local(*sp.filter_cls, args(2, latch, sp.latch.done));
    for (std::int64_t n = 3; n <= limit; ++n) {
      Word w = static_cast<Word>(n);
      ctx.send_past(head, sp.num, &w, 1);
    }
    Word zero = 0;
    ctx.send_past(head, sp.end, &zero, 1);
  });
  RunReport rep = world.run();
  const CompletionLatch& latch_s = latch_state(latch);
  ABCL_CHECK_MSG(latch_s.done(), "sieve did not run to completion");

  SieveResult r;
  r.primes = latch_s.total;
  core::NodeStats after = world.total_stats();
  r.filters_created = (after.creations_local - before.creations_local) +
                      (after.creations_remote - before.creations_remote) -
                      1;  // minus the latch
  r.rep = rep;
  r.stats = after;
  return r;
}

}  // namespace abcl::apps
