// Live object migration: spec parsing, the pure shed policy, forwarding
// stubs + sender-side path compression, inbox carryover ordering across a
// move, migrate-while-waiting, and a 6-node hot-spot scenario asserting the
// work-shedding balancer actually spreads load (see DESIGN.md "Object
// migration").
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "abcl/abcl.hpp"
#include "core/object.hpp"
#include "obs/metrics.hpp"
#include "remote/migration.hpp"

namespace {

using namespace abcl;
using remote::MigrationConfig;
using remote::ShedDecision;

// ----------------------------------------------------------- parsing -----

TEST(MigrationSpec, UnsetEmptyAndOffAllDisable) {
  std::string err;
  for (const char* t :
       {static_cast<const char*>(nullptr), "", "off", " off "}) {
    std::optional<MigrationConfig> cfg = remote::parse_migration_spec(t, &err);
    ASSERT_TRUE(cfg.has_value());
    EXPECT_FALSE(cfg->enabled);
  }
}

TEST(MigrationSpec, ParsesEveryKey) {
  std::string err;
  std::optional<MigrationConfig> cfg = remote::parse_migration_spec(
      "interval=32, hysteresis=2, max_batch=6, min_queue=5, seed=99", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->interval, 32u);
  EXPECT_EQ(cfg->hysteresis, 2u);
  EXPECT_EQ(cfg->max_batch, 6u);
  EXPECT_EQ(cfg->min_queue, 5u);
  EXPECT_EQ(cfg->seed, 99u);
}

TEST(MigrationSpec, PartialSpecKeepsDefaults) {
  std::string err;
  std::optional<MigrationConfig> cfg =
      remote::parse_migration_spec("interval=16", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->interval, 16u);
  EXPECT_EQ(cfg->hysteresis, MigrationConfig{}.hysteresis);
  EXPECT_EQ(cfg->min_queue, MigrationConfig{}.min_queue);
}

TEST(MigrationSpec, ToStringRoundTripsExactly) {
  std::string err;
  for (const char* t :
       {"off", "interval=1", "interval=8,hysteresis=0,max_batch=2,seed=7",
        "min_queue=1,seed=18446744073709551615"}) {
    std::optional<MigrationConfig> a = remote::parse_migration_spec(t, &err);
    ASSERT_TRUE(a.has_value()) << t << ": " << err;
    std::optional<MigrationConfig> b =
        remote::parse_migration_spec(remote::to_string(*a).c_str(), &err);
    ASSERT_TRUE(b.has_value()) << remote::to_string(*a) << ": " << err;
    EXPECT_EQ(*a, *b) << t;
  }
}

TEST(MigrationSpec, GarbageNeverFallsBackToOff) {
  // A typo in ABCLSIM_MIGRATION must be a hard error naming the raw text,
  // not a silent migration-free run.
  for (const char* t :
       {"bogus", "interval", "interval=", "interval=abc", "interval=-1",
        "interval=0x10", "interval=1,interval=2", "unknown_key=1",
        "interval=1,,seed=2", "seed=", "interval=0", "max_batch=0",
        "min_queue=0", "interval=4294967296"}) {
    std::string err;
    std::optional<MigrationConfig> cfg = remote::parse_migration_spec(t, &err);
    EXPECT_FALSE(cfg.has_value()) << t;
    EXPECT_NE(err.find(t), std::string::npos)
        << "diagnostic should quote the offending spec: " << err;
  }
}

// ------------------------------------------------------- shed policy -----

TEST(ShedRoll, PureAndCoordinateDependent) {
  EXPECT_EQ(remote::shed_roll(1, 3, 100), remote::shed_roll(1, 3, 100));
  int differ = 0;
  for (std::uint64_t q = 0; q < 64; ++q) {
    differ += remote::shed_roll(1, 3, q) != remote::shed_roll(2, 3, q);
    differ += remote::shed_roll(1, 3, q) != remote::shed_roll(1, 4, q);
    differ += remote::shed_roll(1, 3, q) != remote::shed_roll(1, 3, q + 1);
  }
  EXPECT_GT(differ, 150);  // the streams are genuinely distinct
}

MigrationConfig policy_cfg() {
  MigrationConfig cfg;
  cfg.enabled = true;
  cfg.hysteresis = 4;
  cfg.max_batch = 4;
  cfg.min_queue = 8;
  cfg.seed = 1;
  return cfg;
}

TEST(ShedPolicy, DisabledOrShallowQueueNeverSheds) {
  MigrationConfig cfg = policy_cfg();
  const std::vector<std::pair<std::int32_t, std::uint32_t>> idle = {{1, 0},
                                                                    {2, 0}};
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 7, idle).has_value());
  cfg.enabled = false;
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 100, idle).has_value());
}

TEST(ShedPolicy, NoFreshNeighborsMeansNoShed) {
  // Without gossip there is no safe target — a blind shed could dump on a
  // node even hotter than us.
  EXPECT_FALSE(remote::decide_shed(
                   policy_cfg(), 0, 64, 100,
                   std::vector<std::pair<std::int32_t, std::uint32_t>>{})
                   .has_value());
}

TEST(ShedPolicy, HysteresisBandHolds) {
  const MigrationConfig cfg = policy_cfg();
  const std::vector<std::pair<std::int32_t, std::uint32_t>> loads = {
      {1, 10}, {2, 20}};
  // Lower median of {10, 20} is 10; depth must exceed 10 + hysteresis(4).
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 10, loads).has_value());
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 14, loads).has_value());
  auto d = remote::decide_shed(cfg, 0, 64, 15, loads);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target, 1);  // least-loaded strictly-below neighbour
  EXPECT_EQ(d->quota, 2u);  // (15 - 10) / 2, under max_batch
}

TEST(ShedPolicy, QuotaIsCappedAtMaxBatch) {
  const MigrationConfig cfg = policy_cfg();
  auto d = remote::decide_shed(
      cfg, 0, 64, 100,
      std::vector<std::pair<std::int32_t, std::uint32_t>>{{1, 0}, {2, 0}});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->quota, cfg.max_batch);
}

TEST(ShedPolicy, TieBreakIsSeededAndDeterministic) {
  const MigrationConfig cfg = policy_cfg();
  const std::vector<std::pair<std::int32_t, std::uint32_t>> tied = {
      {1, 0}, {2, 0}, {3, 0}};
  // Same coordinates: always the same target (re-evaluation independence).
  auto first = remote::decide_shed(cfg, 0, 64, 40, tied);
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 8; ++i) {
    auto again = remote::decide_shed(cfg, 0, 64, 40, tied);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->target, first->target);
  }
  // Across quanta the choice rotates: a symmetric neighbourhood must not
  // always dump on one node (that just moves the hot spot one hop over).
  bool saw_other = false;
  for (std::uint64_t q = 0; q < 64; ++q) {
    auto d = remote::decide_shed(cfg, 0, q, 40, tied);
    ASSERT_TRUE(d.has_value());
    saw_other |= d->target != first->target;
  }
  EXPECT_TRUE(saw_other);
}

// --------------------------------------------------------- mechanism -----

// Minimal migratable class: counts messages, folds their values in arrival
// order (order-sensitive), and remembers the node that ran the last
// dispatch. Trivially copyable/destructible by construction.
struct RecState {
  std::uint64_t count = 0;
  std::uint64_t order_hash = 0;
  std::uint64_t last_node = 0;
};

struct RecFrame : Frame {
  Word v = 0;
  static void init(RecFrame& f, const Msg& m) { f.v = m.at(0); }
  static Status run(Ctx& ctx, RecState& self, RecFrame& f) {
    ABCL_BEGIN(f);
    self.count += 1;
    self.order_hash = self.order_hash * 1099511628211ull + f.v;
    self.last_node = static_cast<std::uint64_t>(ctx.node_id());
    ABCL_END();
  }
};

struct RecProgram {
  PatternId rec = 0;
  const core::ClassInfo* cls = nullptr;
};

RecProgram register_rec(core::Program& prog) {
  RecProgram rp;
  rp.rec = prog.patterns().intern("mig.rec", 1);
  ClassDef<RecState> def(prog, "MigRec");
  def.migratable();
  def.method<RecFrame>(rp.rec);
  rp.cls = &def.info();
  return rp;
}

// Chases forwarding stubs to the object's current home.
MailAddr resolve(const World& w, MailAddr a) {
  for (int hops = 0; hops < 64; ++hops) {
    auto f = w.node(a.node).forward_target(a.ptr);
    if (!f.has_value()) return a;
    if (f->node == a.node && f->ptr == a.ptr) return a;
    a = *f;
  }
  ADD_FAILURE() << "forwarding chain exceeded 64 hops";
  return a;
}

std::uint64_t fold(std::initializer_list<std::uint64_t> vals) {
  std::uint64_t h = 0;
  for (std::uint64_t v : vals) h = h * 1099511628211ull + v;
  return h;
}

TEST(Migration, InboxCarriesOverInFifoOrder) {
  core::Program prog;
  RecProgram rp = register_rec(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) {
    a = ctx.create_local(*rp.cls, {});
    // Pre-move mail may dispatch at the old home or ride out the move in
    // the stub's queue; either way arrival ORDER is the contract.
    for (Word v = 1; v <= 3; ++v) ctx.send_past(a, rp.rec, {v});
    ctx.migrate_object_to(a.ptr, 1);
    // Post-move mail lands on the in-transit stub and must be flushed to
    // the new home after the state arrives, still in order.
    for (Word v = 4; v <= 6; ++v) ctx.send_past(a, rp.rec, {v});
  });
  world.run();

  MailAddr home = resolve(world, a);
  EXPECT_EQ(home.node, 1);
  const auto* st = home.ptr->state_as<const RecState>();
  EXPECT_EQ(st->count, 6u);
  EXPECT_EQ(st->order_hash, fold({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(st->last_node, 1u);
  EXPECT_EQ(world.node(0).stats().migrations_out, 1u);
  EXPECT_EQ(world.node(1).stats().migrations_in, 1u);
  EXPECT_GT(world.total_stats().migration_mail, 0u);
}

TEST(Migration, ForwardingStubBouncesAndCompressesPerSender) {
  core::Program prog;
  RecProgram rp = register_rec(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) { a = ctx.create_local(*rp.cls, {}); });
  world.run();
  world.boot(0, [&](Ctx& ctx) { ctx.migrate_object_to(a.ptr, 1); });
  world.run();  // migration completes; node 0 now holds a forwarding stub

  // First message from node 2 to the OLD address bounces through the stub;
  // the stub's node notices the remote sender and mails back a kUpdateAddr.
  world.boot(2, [&](Ctx& ctx) { ctx.send_past(a, rp.rec, {41}); });
  world.run();
  const std::uint64_t forwards_after_first =
      world.total_stats().migration_forwards;
  EXPECT_GE(forwards_after_first, 1u);
  EXPECT_GT(world.total_stats().migration_updates, 0u);

  // Node 2 now routes straight to the new home: no further stub hops.
  world.boot(2, [&](Ctx& ctx) { ctx.send_past(a, rp.rec, {42}); });
  world.run();
  EXPECT_EQ(world.total_stats().migration_forwards, forwards_after_first);

  MailAddr home = resolve(world, a);
  EXPECT_EQ(home.node, 1);
  const auto* st = home.ptr->state_as<const RecState>();
  EXPECT_EQ(st->count, 2u);
  EXPECT_EQ(st->order_hash, fold({41, 42}));
}

TEST(Migration, SecondHopCollapsesOldStubChains) {
  // After 0 -> 1 -> 2, the kUpdateStub fan-out must point the node-0 stub
  // DIRECTLY at node 2: a message to the original address takes exactly one
  // forwarding hop, not two (the chain-length <= 1 bound from DESIGN.md).
  core::Program prog;
  RecProgram rp = register_rec(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) { a = ctx.create_local(*rp.cls, {}); });
  world.run();
  world.boot(0, [&](Ctx& ctx) { ctx.migrate_object_to(a.ptr, 1); });
  world.run();
  MailAddr hop1 = resolve(world, a);
  ASSERT_EQ(hop1.node, 1);
  world.boot(1, [&](Ctx& ctx) { ctx.migrate_object_to(hop1.ptr, 2); });
  world.run();

  auto direct = world.node(0).forward_target(a.ptr);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->node, 2);  // compressed, not 1

  const std::uint64_t forwards_before = world.total_stats().migration_forwards;
  world.boot(3, [&](Ctx& ctx) { ctx.send_past(a, rp.rec, {7}); });
  world.run();
  EXPECT_EQ(world.total_stats().migration_forwards, forwards_before + 1);
  const auto* st = resolve(world, a).ptr->state_as<const RecState>();
  EXPECT_EQ(st->count, 1u);
  EXPECT_EQ(st->last_node, 2u);
}

// Waits at a selective-reception site for mig.tok; the frame carries a
// marker that must survive serialization of the blocked context.
struct WaitState {
  std::uint64_t got = 0;
  std::uint64_t marker = 0;
  std::uint64_t resumed_node = 0;
};

struct WaitFrame : Frame {
  Word tok = 0;
  Word marker = 0;
  static void init(WaitFrame& f, const Msg& m) { f.marker = m.at(0); }
  static void copy_tok(WaitFrame& f, const Msg& m) { f.tok = m.at(0); }
  static Status run(Ctx& ctx, WaitState& self, WaitFrame& f) {
    ABCL_BEGIN(f);
    ABCL_SELECT(ctx, self, f, 0);
    case 1:
      self.got = f.tok;
      self.marker = f.marker;
      self.resumed_node = static_cast<std::uint64_t>(ctx.node_id());
    ABCL_END();
  }
};

struct WaitProgram {
  PatternId wait = 0;
  PatternId tok = 0;
  const core::ClassInfo* cls = nullptr;
};

WaitProgram register_wait(core::Program& prog) {
  WaitProgram wp;
  wp.wait = prog.patterns().intern("mig.wait", 1);
  wp.tok = prog.patterns().intern("mig.tok", 1);
  ClassDef<WaitState> def(prog, "MigWait");
  def.migratable();
  def.method<WaitFrame>(wp.wait);
  std::int32_t site = def.wait_site<WaitFrame>();
  def.accept<WaitFrame, &WaitFrame::copy_tok>(site, wp.tok, 1);
  EXPECT_EQ(site, 0);
  wp.cls = &def.info();
  return wp;
}

TEST(Migration, WaitingObjectMovesWithItsBlockedFrame) {
  core::Program prog;
  WaitProgram wp = register_wait(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(3);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) {
    a = ctx.create_local(*wp.cls, {});
    ctx.send_past(a, wp.wait, {777});  // runs, blocks at the select site
  });
  world.run();
  ASSERT_EQ(a.ptr->mode, core::Mode::kWaiting);

  world.boot(0, [&](Ctx& ctx) {
    ctx.migrate_object_to(a.ptr, 2);
    // Token sent to the old address while the object is in transit: it
    // must chase the move and resume the restored frame at the new home.
    ctx.send_past(a, wp.tok, {55});
  });
  world.run();

  MailAddr home = resolve(world, a);
  EXPECT_EQ(home.node, 2);
  EXPECT_EQ(home.ptr->mode, core::Mode::kDormant);  // resumed and finished
  const auto* st = home.ptr->state_as<const WaitState>();
  EXPECT_EQ(st->got, 55u);
  EXPECT_EQ(st->marker, 777u);  // frame contents survived the move
  EXPECT_EQ(st->resumed_node, 2u);
}

// Built from its creation arguments, so a move before the first message
// must carry them (the kMigPendingInit blob section).
struct SeedState {
  std::uint64_t base = 0;
  std::uint64_t scale = 0;
  std::uint64_t sum = 0;
  std::uint64_t ran_on = ~std::uint64_t{0};
  void on_create(const Msg& m) {
    base = m.at(0);
    scale = m.at(1);
  }
};

struct SeedFrame : Frame {
  Word v = 0;
  static void init(SeedFrame& f, const Msg& m) { f.v = m.at(0); }
  static Status run(Ctx& ctx, SeedState& self, SeedFrame& f) {
    ABCL_BEGIN(f);
    self.sum = self.base + self.scale * f.v;
    self.ran_on = static_cast<std::uint64_t>(ctx.node_id());
    ABCL_END();
  }
};

TEST(Migration, UninitializedObjectShipsItsCreationArguments) {
  // The creation arguments share the header's continuation word with the
  // blocked frame. An object that has not run yet must read as unblocked
  // (a raw read of the word would refuse it as yield-blocked), ship its
  // arguments, and build its state from them at the new home.
  core::Program prog;
  PatternId go = prog.patterns().intern("mig.seed", 1);
  ClassDef<SeedState> def(prog, "MigSeed");
  def.migratable();
  def.method<SeedFrame>(go);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) { a = ctx.create_local(def.info(), {40, 3}); });
  world.run();
  ASSERT_TRUE(a.ptr->needs_init);
  ASSERT_NE(a.ptr->pending_init(), nullptr);
  EXPECT_EQ(a.ptr->blocked_frame(), nullptr);
  EXPECT_EQ(a.ptr->resume_entry(), nullptr);
  EXPECT_TRUE(world.node(0).migratable_now(a.ptr));

  world.boot(0, [&](Ctx& ctx) { ctx.migrate_object_to(a.ptr, 1); });
  world.run();
  MailAddr home = resolve(world, a);
  ASSERT_EQ(home.node, 1);
  EXPECT_TRUE(home.ptr->needs_init);
  EXPECT_NE(home.ptr->pending_init(), nullptr);
  EXPECT_EQ(home.ptr->vftp, &def.info().lazy_init);

  world.boot(0, [&](Ctx& ctx) { ctx.send_past(a, go, {5}); });
  world.run();
  EXPECT_FALSE(home.ptr->needs_init);
  EXPECT_EQ(home.ptr->pending_init(), nullptr);
  const auto* st = home.ptr->state_as<const SeedState>();
  EXPECT_EQ(st->base, 40u);
  EXPECT_EQ(st->scale, 3u);
  EXPECT_EQ(st->sum, 55u);
  EXPECT_EQ(st->ran_on, 1u);
}

TEST(MigrationDeath, NonMigratableClassIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  PatternId p = prog.patterns().intern("plain.msg", 1);
  struct PlainState {
    std::uint64_t x = 0;
  };
  struct PlainFrame : Frame {
    static void init(PlainFrame&, const Msg&) {}
    static Status run(Ctx&, PlainState&, PlainFrame& f) {
      ABCL_BEGIN(f);
      ABCL_END();
    }
  };
  ClassDef<PlainState> def(prog, "Plain");  // no .migratable()
  def.method<PlainFrame>(p);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) { a = ctx.create_local(def.info(), {}); });
  world.run();
  EXPECT_DEATH(
      world.boot(0, [&](Ctx& ctx) { ctx.migrate_object_to(a.ptr, 1); }),
      "not migratable");
}

// ----------------------------------------------------------- hot spot -----

// All actors are created on node 0 of a 6-node world and churn through
// self-chains. With migration off everything runs where it was born; with
// the shedding policy on, node 0 must export objects and real work must
// land elsewhere — and the whole run stays deterministic.
struct ChurnState {
  std::uint64_t steps = 0;
};

struct HotSpotResult {
  std::vector<int> objects_per_node;
  std::uint64_t shed_out = 0;
  std::uint64_t shed_in_elsewhere = 0;
  std::uint64_t total_steps = 0;
  std::string metrics;
};

TEST(MigrationHotSpot, SixNodeShedSpreadsLoadDeterministically) {
  constexpr int kNodes = 6;
  constexpr int kActors = 40;
  constexpr Word kFuel = 60;

  auto run_once = [&](bool migrate) {
    core::Program prog;
    PatternId kick = prog.patterns().intern("churn.kick", 1);
    ClassDef<ChurnState> def(prog, "Churn");
    def.migratable();
    struct KickFrame : Frame {
      Word fuel = 0;
      PatternId pat = 0;
      static void init(KickFrame& f, const Msg& m) {
        f.fuel = m.at(0);
        f.pat = m.pattern;
      }
      static Status run(Ctx& ctx, ChurnState& self, KickFrame& f) {
        ABCL_BEGIN(f);
        self.steps += 1;
        ctx.charge(200);
        if (f.fuel > 0) {
          Word arg = f.fuel - 1;
          ctx.send_past(ctx.self_addr(), f.pat, &arg, 1);
        }
        ABCL_END();
      }
    };
    def.method<KickFrame>(kick);
    prog.finalize();

    WorldConfig cfg;
    cfg.with_nodes(kNodes);
    if (migrate) {
      MigrationConfig mc;
      mc.enabled = true;
      mc.interval = 8;
      mc.hysteresis = 2;
      mc.max_batch = 4;
      mc.min_queue = 6;
      mc.seed = 5;
      cfg.with_migration(mc);
    }
    World world(prog, cfg);
    std::vector<MailAddr> actors;
    world.boot(0, [&](Ctx& ctx) {
      for (int i = 0; i < kActors; ++i) {
        actors.push_back(ctx.create_local(def.info(), {}));
      }
    });
    world.boot(0, [&](Ctx& ctx) {
      for (const MailAddr& a : actors) ctx.send_past(a, kick, {kFuel});
    });
    world.run();

    HotSpotResult r;
    r.objects_per_node.assign(kNodes, 0);
    for (const MailAddr& a : actors) {
      MailAddr home = resolve(world, a);
      r.objects_per_node[static_cast<std::size_t>(home.node)] += 1;
      r.total_steps += home.ptr->state_as<const ChurnState>()->steps;
    }
    r.shed_out = world.node(0).stats().migrations_out;
    for (int n = 1; n < kNodes; ++n) {
      r.shed_in_elsewhere += world.node(n).stats().migrations_in;
    }
    r.metrics = obs::metrics_json(world);
    return r;
  };

  HotSpotResult off = run_once(false);
  // Exactly-once dispatch: every actor ran its whole chain, nothing lost
  // or duplicated, migration or not.
  const std::uint64_t kExpectedSteps =
      static_cast<std::uint64_t>(kActors) * (kFuel + 1);
  EXPECT_EQ(off.total_steps, kExpectedSteps);
  EXPECT_EQ(off.objects_per_node[0], kActors);  // no migration: all home
  EXPECT_EQ(off.shed_out, 0u);

  HotSpotResult on = run_once(true);
  EXPECT_EQ(on.total_steps, kExpectedSteps);
  EXPECT_GT(on.shed_out, 0u);  // the hot node really shed
  EXPECT_GT(on.shed_in_elsewhere, 0u);
  // Post-migration spread: node 0 no longer owns everything, and at least
  // one other node ended the run owning migrated objects.
  EXPECT_LT(on.objects_per_node[0], kActors);
  int nodes_with_objects = 0;
  for (int n : on.objects_per_node) nodes_with_objects += n > 0;
  EXPECT_GE(nodes_with_objects, 2);

  // Determinism: the same configuration replays to the byte.
  HotSpotResult again = run_once(true);
  EXPECT_EQ(again.metrics, on.metrics);
  EXPECT_EQ(again.objects_per_node, on.objects_per_node);
}

// ----------------------------------------------- ABCLSIM_MIGRATION env -----

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(MigrationEnv, UnsetMeansDisabled) {
  ScopedEnv e("ABCLSIM_MIGRATION", nullptr);
  EXPECT_FALSE(WorldConfig::from_env().migration.enabled);
}

TEST(MigrationEnv, ReadsFullSpec) {
  ScopedEnv e("ABCLSIM_MIGRATION", "interval=16,min_queue=3,seed=11");
  WorldConfig cfg = WorldConfig::from_env();
  EXPECT_TRUE(cfg.migration.enabled);
  EXPECT_EQ(cfg.migration.interval, 16u);
  EXPECT_EQ(cfg.migration.min_queue, 3u);
  EXPECT_EQ(cfg.migration.seed, 11u);
}

TEST(MigrationEnvDeath, GarbageAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv e("ABCLSIM_MIGRATION", "interval=lots");
  EXPECT_DEATH({ WorldConfig::from_env(); }, "ABCLSIM_MIGRATION");
}

}  // namespace
