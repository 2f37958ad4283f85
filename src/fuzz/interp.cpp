#include "fuzz/interp.hpp"

#include "abcl/dsl.hpp"
#include "core/program.hpp"
#include "util/assert.hpp"

namespace abcl::fuzz {

namespace {

// Wait sites, in registration order (asserted in register_interp).
constexpr std::int32_t kSiteSelect = 0;  // kSelectToken's site
constexpr std::int32_t kSiteHybrid = 1;  // kHybrid's site

// StepFrame resume labels (the case numbers in StepFrame::run).
constexpr std::uint16_t kPcAskReply = 1;
constexpr std::uint16_t kPcCreateDone = 2;
constexpr std::uint16_t kPcYield = 3;
constexpr std::uint16_t kPcSelectTok = 4;
constexpr std::uint16_t kPcHybridReply = 5;
constexpr std::uint16_t kPcHybridTok = 6;
constexpr std::uint16_t kPcHybridDrain = 7;

std::size_t idx(std::int64_t i) { return static_cast<std::size_t>(i); }

struct ActorState {
  const RunCtx* rc = nullptr;
  std::int32_t script = 0;
  std::int32_t dyn = 0;

  void on_create(const Msg& m) {
    rc = reinterpret_cast<const RunCtx*>(m.at(0));
    script = static_cast<std::int32_t>(m.i64(1));
    dyn = static_cast<std::int32_t>(m.i64(2));
  }

  const std::vector<Action>& actions() const {
    const Spec& s = *rc->spec;
    return (dyn != 0 ? s.dynamic : s.objects)[idx(script)].script;
  }

  Counters& nc(Ctx& ctx) const { return rc->per_node[idx(ctx.node_id())]; }
};

struct AskFrame : Frame {
  ReplyDest rd;

  static void init(AskFrame& f, const Msg& m) { f.rd = m.reply; }
  static Status run(Ctx& ctx, ActorState& self, AskFrame& f) {
    ABCL_BEGIN(f);
    {
      Counters& nc = self.nc(ctx);
      nc.asks_answered += 1;
      // Deterministic but state-dependent reply value: identical across
      // drivers (same execution order), different across schedules.
      Word v = static_cast<Word>((nc.asks_answered * 7 + nc.steps_run) & 0xFFFF);
      ctx.reply(f.rd, &v, 1);
    }
    ABCL_END();
  }
};

struct ReflectFrame : Frame {
  MailAddr req;

  static void init(ReflectFrame& f, const Msg& m) { f.req = m.addr(0); }
  static Status run(Ctx& ctx, ActorState& self, ReflectFrame& f) {
    ABCL_BEGIN(f);
    {
      Counters& nc = self.nc(ctx);
      nc.tokens_emitted += 1;
      Word v = static_cast<Word>(nc.tokens_emitted & 0xFFFF);
      ctx.send_past(f.req, self.rc->tok, &v, 1);
    }
    ABCL_END();
  }
};

// A token that reaches a dormant object (its wait already resumed via the
// hybrid's reply arm, or it never selected) dispatches here and is counted
// as a stray; without this method the generic not-understood entry would
// abort the run.
struct TokFrame : Frame {
  Word v = 0;

  static void init(TokFrame& f, const Msg& m) { f.v = m.at(0); }
  static Status run(Ctx& ctx, ActorState& self, TokFrame& f) {
    ABCL_BEGIN(f);
    {
      Counters& nc = self.nc(ctx);
      nc.tokens_stray += 1;
      nc.tok_sum += static_cast<std::uint64_t>(f.v);
    }
    ABCL_END();
  }
};

struct StepFrame : Frame {
  std::int32_t ip = 0;
  std::int32_t fuel = 0;
  std::int32_t chain = 0;
  std::int32_t forwarded = 0;
  std::int32_t iters = 0;
  std::int32_t pad = 0;
  Word tok = 0;
  NowCall call;
  CreateCall cc;

  static void init(StepFrame& f, const Msg& m) {
    f.fuel = static_cast<std::int32_t>(m.i64(0));
    f.chain = static_cast<std::int32_t>(m.i64(1));
  }
  static void copy_tok(StepFrame& f, const Msg& m) { f.tok = m.at(0); }
  static Status run(Ctx& ctx, ActorState& self, StepFrame& f);
};

Status StepFrame::run(Ctx& ctx, ActorState& self, StepFrame& f) {
  const RunCtx& rc = *self.rc;
  const std::vector<Action>& script = self.actions();
  Counters& nc = self.nc(ctx);
  ABCL_BEGIN(f);
  nc.steps_run += 1;
  for (f.ip = 0; f.ip < static_cast<std::int32_t>(script.size()); ++f.ip) {
    if (script[f.ip].op == Op::kForward) {
      // Fuel gates every message-producing op, so the step population is
      // finite. Exactly one forward per chain execution carries the chain
      // (fuel-1, chain=1); everything else is a zero-fuel spray.
      if (f.fuel > 0) {
        Word a0 = 0;
        Word a1 = 0;
        if (f.chain != 0 && f.forwarded == 0) {
          a0 = static_cast<Word>(f.fuel - 1);
          a1 = 1;
          f.forwarded = 1;
        }
        {
          Word args[2] = {a0, a1};
          ctx.send_past(rc.addrs[idx(script[f.ip].a)], rc.step, args, 2);
        }
        nc.steps_sent += 1;
      }
      continue;
    }
    if (script[f.ip].op == Op::kSprayWide) {
      if (f.fuel > 0) {
        for (std::int32_t k = 0; k < script[f.ip].b; ++k) {
          Word args[2] = {0, 0};
          std::size_t t =
              idx((script[f.ip].a + k) %
                  static_cast<std::int32_t>(rc.addrs.size()));
          ctx.send_past(rc.addrs[t], rc.step, args, 2);
          nc.steps_sent += 1;
        }
      }
      continue;
    }
    if (script[f.ip].op == Op::kCompute) {
      for (f.iters = script[f.ip].a; f.iters > 0; --f.iters) {
        ctx.charge(37);
        ABCL_YIELD(ctx, f, kPcYield);
        ;
      }
      continue;
    }
    if (script[f.ip].op == Op::kAsk) {
      f.call = ctx.send_now(rc.addrs[idx(script[f.ip].a)], rc.ask, nullptr, 0);
      nc.asks_made += 1;
      ABCL_AWAIT(ctx, f, kPcAskReply, f.call);
      nc.ask_sum += static_cast<std::uint64_t>(ctx.take_reply(f.call));
      continue;
    }
    if (script[f.ip].op == Op::kSelectToken) {
      {
        MailAddr me = ctx.self_addr();
        Word args[2] = {me.word_node(), me.word_ptr()};
        ctx.send_past(rc.addrs[idx(script[f.ip].a)], rc.reflect, args, 2);
        nc.tokens_requested += 1;
      }
      ABCL_SELECT(ctx, self, f, kSiteSelect);
    }
    if (false) {
      case kPcSelectTok:
        nc.tokens_got += 1;
        nc.tok_sum += static_cast<std::uint64_t>(f.tok);
        continue;
    }
    if (script[f.ip].op == Op::kHybrid) {
      {
        MailAddr me = ctx.self_addr();
        Word args[2] = {me.word_node(), me.word_ptr()};
        ctx.send_past(rc.addrs[idx(script[f.ip].a)], rc.reflect, args, 2);
        nc.tokens_requested += 1;
      }
      f.call = ctx.send_now(rc.addrs[idx(script[f.ip].a)], rc.ask, nullptr, 0);
      nc.asks_made += 1;
      ABCL_AWAIT_OR_SELECT(ctx, self, f, kPcHybridReply, f.call, kSiteHybrid);
      nc.ask_sum += static_cast<std::uint64_t>(ctx.take_reply(f.call));
      continue;
    }
    if (false) {
      // Token won the hybrid race: consume it, then drain the still-pending
      // reply (the registration was cancelled; the box stays valid).
      case kPcHybridTok:
        nc.tokens_got += 1;
        nc.tok_sum += static_cast<std::uint64_t>(f.tok);
        ABCL_AWAIT(ctx, f, kPcHybridDrain, f.call);
        nc.ask_sum += static_cast<std::uint64_t>(ctx.take_reply(f.call));
        continue;
    }
    if (script[f.ip].op == Op::kCreate) {
      if (f.fuel > 0) {
        {
          Word cargs[3] = {reinterpret_cast<Word>(self.rc),
                           static_cast<Word>(script[f.ip].a), 1};
          f.cc = ctx.remote_create_begin(
              *rc.actor_cls, static_cast<NodeId>(script[f.ip].b), cargs, 3);
        }
        nc.creates_begun += 1;
        ABCL_AWAIT(ctx, f, kPcCreateDone, f.cc.call);
        {
          MailAddr na = ctx.remote_create_finish(f.cc);
          Word args[2] = {0, 0};
          ctx.send_past(na, rc.step, args, 2);
        }
        nc.creates_done += 1;
        nc.steps_sent += 1;
      }
      continue;
    }
  }
  if (f.chain != 0 && f.forwarded == 0) {
    // Chain ends here: report the completion.
    Word one = 1;
    ctx.send_past(rc.latch, rc.latch_done, &one, 1);
    nc.dones += 1;
  }
  ABCL_END();
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  steps_run += o.steps_run;
  steps_sent += o.steps_sent;
  asks_made += o.asks_made;
  asks_answered += o.asks_answered;
  ask_sum += o.ask_sum;
  tokens_requested += o.tokens_requested;
  tokens_emitted += o.tokens_emitted;
  tokens_got += o.tokens_got;
  tokens_stray += o.tokens_stray;
  tok_sum += o.tok_sum;
  creates_begun += o.creates_begun;
  creates_done += o.creates_done;
  dones += o.dones;
  return *this;
}

InterpPatterns register_interp(core::Program& prog) {
  InterpPatterns ip;
  ip.step = prog.patterns().intern("fz.step", 2);
  ip.ask = prog.patterns().intern("fz.ask", 0);
  ip.reflect = prog.patterns().intern("fz.reflect", 2);
  ip.tok = prog.patterns().intern("fz.tok", 1);

  ClassDef<ActorState> def(prog, "FuzzActor");
  // Migration-eligible: ActorState is {pointer, two ints} — trivially
  // copyable/destructible — and RunCtx is process-global, so the pointer
  // survives a node change. Harmless when the spec carries no migration
  // block (the flag is only consulted by an enabled shedding policy).
  def.migratable();
  def.method<StepFrame>(ip.step);
  def.method<AskFrame>(ip.ask);
  def.method<ReflectFrame>(ip.reflect);
  def.method<TokFrame>(ip.tok);

  std::int32_t site_select = def.wait_site<StepFrame>();
  def.accept<StepFrame, &StepFrame::copy_tok>(site_select, ip.tok,
                                              kPcSelectTok);
  std::int32_t site_hybrid = def.wait_site<StepFrame>();
  def.accept<StepFrame, &StepFrame::copy_tok>(site_hybrid, ip.tok,
                                              kPcHybridTok);
  ABCL_CHECK(site_select == kSiteSelect && site_hybrid == kSiteHybrid);

  ip.cls = &def.info();
  return ip;
}

FuzzWorld::FuzzWorld(const Spec& spec, int host_threads, sim::Tracer* tracer,
                     const sim::CostModel& cost,
                     const ckpt::CheckpointConfig& ck)
    : spec_(spec) {
  std::string verr;
  ABCL_CHECK_MSG(spec_.validate(&verr), "invalid fuzz spec");

  ip_ = register_interp(prog_);
  lp_ = register_completion_latch(prog_);
  prog_.finalize();

  WorldConfig cfg;
  cfg.with_nodes(spec_.nodes)
      .with_host_threads(host_threads)
      .with_cost(cost)
      .with_seed(spec_.seed | 1)
      .with_ckpt(ck);
  cfg.node.max_call_depth = spec_.max_call_depth;
  cfg.node.reduction_budget = spec_.reduction_budget;
  cfg.node.disable_replenish = spec_.disable_replenish;
  if (spec_.faults.has_value()) cfg.with_faults(*spec_.faults);
  if (spec_.migration.has_value()) cfg.with_migration(*spec_.migration);

  counters_.assign(static_cast<std::size_t>(spec_.nodes), Counters{});
  rc_.spec = &spec_;
  rc_.per_node = counters_.data();
  rc_.step = ip_.step;
  rc_.ask = ip_.ask;
  rc_.reflect = ip_.reflect;
  rc_.tok = ip_.tok;
  rc_.latch_done = lp_.done;
  rc_.actor_cls = ip_.cls;

  world_ = std::make_unique<World>(prog_, cfg);
  if (tracer != nullptr) world_->attach_tracer(tracer);

  world_->boot(0, [&](core::NodeRuntime& ctx) {
    rc_.latch = ctx.create_local(*lp_.cls, {});
    ctx.send_past(rc_.latch, lp_.expect,
                  {static_cast<Word>(spec_.boot.size())});
  });
  rc_.addrs.reserve(spec_.objects.size());
  for (std::size_t i = 0; i < spec_.objects.size(); ++i) {
    world_->boot(spec_.objects[i].node, [&](core::NodeRuntime& ctx) {
      rc_.addrs.push_back(ctx.create_local(
          *ip_.cls, {reinterpret_cast<Word>(&rc_), static_cast<Word>(i),
                     Word{0}}));
    });
  }
  if (spec_.seed_stock_depth > 0) {
    world_->seed_stocks(*ip_.cls, spec_.seed_stock_depth);
  }
  // Start the chains only after every static object exists: a boot-time
  // local send cascades immediately and may touch any addrs entry.
  for (const BootMsg& bm : spec_.boot) {
    world_->boot(0, [&](core::NodeRuntime& ctx) {
      ctx.send_past(rc_.addrs[idx(bm.target)], ip_.step,
                    {static_cast<Word>(bm.fuel), Word{1}});
    });
  }
}

void FuzzWorld::restore_world(ckpt::Source& src, sim::Tracer* tracer,
                              int host_threads_override) {
  // The old world must die first: restore re-maps the node arenas at the
  // exact bases the snapshot records (MAP_FIXED_NOREPLACE).
  world_.reset();
  world_ = World::restore(prog_, src, host_threads_override);
  if (tracer != nullptr) world_->attach_tracer(tracer);
}

void FuzzWorld::reset_counters(const std::vector<Counters>& snap) {
  ABCL_CHECK_MSG(snap.size() == counters_.size(),
                 "counter snapshot is from a different world shape");
  counters_ = snap;
  rc_.per_node = counters_.data();
}

Counters FuzzWorld::total() const {
  Counters t;
  for (const Counters& c : counters_) t += c;
  return t;
}

const CompletionLatch& FuzzWorld::latch() const {
  return latch_state(rc_.latch);
}

namespace {

// A boot-time address may now be a forwarding stub (live migration): chase
// the chain to the object's current home. An in-transit stub reports its
// own address; at quiescence none exist, so the probe lands on the live
// header either way.
MailAddr resolve_home(const World& w, MailAddr a) {
  for (int hops = 0; hops < 64; ++hops) {
    auto f = w.node(a.node).forward_target(a.ptr);
    if (!f.has_value()) return a;
    if (f->node == a.node && f->ptr == a.ptr) return a;
    a = *f;
  }
  ABCL_CHECK_MSG(false, "forwarding chain exceeds 64 hops");
  return a;
}

}  // namespace

std::uint64_t FuzzWorld::waiting_static_objects() const {
  std::uint64_t n = 0;
  for (const MailAddr& a : rc_.addrs) {
    if (resolve_home(*world_, a).ptr->mode == core::Mode::kWaiting) ++n;
  }
  return n;
}

std::uint64_t FuzzWorld::queued_static_msgs() const {
  std::uint64_t n = 0;
  for (const MailAddr& a : rc_.addrs) {
    n += resolve_home(*world_, a).ptr->mq.size();
  }
  return n;
}

}  // namespace abcl::fuzz
