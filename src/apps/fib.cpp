#include "apps/fib.hpp"

namespace abcl::apps {

namespace {

struct FibState {};  // pure computation; no state variables

struct ComputeFrame : Frame {
  std::int64_t n = 0;
  PatternId pat = 0;
  ReplyDest rd;
  CreateCall cc;
  MailAddr ch1, ch2;
  NowCall c1, c2;
  std::int64_t r1 = 0;

  static void init(ComputeFrame& f, const Msg& m) {
    f.n = m.i64(0);
    f.pat = m.pattern;
    f.rd = m.reply;
  }
  static Status run(Ctx& ctx, FibState& self, ComputeFrame& f);
};

Status ComputeFrame::run(Ctx& ctx, FibState&, ComputeFrame& f) {
  ABCL_BEGIN(f);
  ctx.charge(25);
  if (f.n < 2) {
    Word v = static_cast<Word>(f.n);
    ctx.reply(f.rd, &v, 1);
    ctx.retire_self();
    ABCL_RETURN();
  }
  f.cc = ctx.remote_create_begin(*ctx.current_object()->cls(),
                                 ctx.placement().choose(ctx), nullptr, 0);
  ABCL_AWAIT(ctx, f, 1, f.cc.call);
  f.ch1 = ctx.remote_create_finish(f.cc);
  f.cc = ctx.remote_create_begin(*ctx.current_object()->cls(),
                                 ctx.placement().choose(ctx), nullptr, 0);
  ABCL_AWAIT(ctx, f, 2, f.cc.call);
  f.ch2 = ctx.remote_create_finish(f.cc);
  {
    Word a1 = static_cast<Word>(f.n - 1);
    f.c1 = ctx.send_now(f.ch1, f.pat, &a1, 1);
    Word a2 = static_cast<Word>(f.n - 2);
    f.c2 = ctx.send_now(f.ch2, f.pat, &a2, 1);
  }
  ABCL_AWAIT(ctx, f, 3, f.c1);
  f.r1 = static_cast<std::int64_t>(ctx.take_reply(f.c1));
  ABCL_AWAIT(ctx, f, 4, f.c2);
  {
    Word v = static_cast<Word>(f.r1 +
                               static_cast<std::int64_t>(ctx.take_reply(f.c2)));
    ctx.reply(f.rd, &v, 1);
    ctx.retire_self();
  }
  ABCL_END();
}

}  // namespace

FibProgram register_fib(core::Program& prog) {
  FibProgram fp;
  fp.compute = prog.patterns().intern("fib.compute", 1);
  ClassDef<FibState> def(prog, "Fib");
  def.method<ComputeFrame>(fp.compute);
  fp.cls = &def.info();
  return fp;
}

FibResult run_fib(World& world, const FibProgram& fp, int n) {
  // A latch-free harness: the root call's reply box is allocated on node 0
  // by send_now and read by the host after quiescence.
  core::ReplyBox* box = nullptr;
  world.boot(0, [&](Ctx& ctx) {
    MailAddr root = ctx.create_local(*fp.cls, nullptr, 0);
    Word a = static_cast<Word>(n);
    core::NowCall call = ctx.send_now(root, fp.compute, &a, 1);
    box = call.box;
  });
  RunReport rep = world.run();

  ABCL_CHECK(box != nullptr && box->state == core::ReplyBox::State::kFull);
  FibResult r;
  r.value = static_cast<std::int64_t>(box->vals[0]);
  r.rep = rep;
  return r;
}

}  // namespace abcl::apps
