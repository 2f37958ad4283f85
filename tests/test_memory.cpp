// Hot-path memory subsystem tests: slab-backed node heaps through the
// runtime's frame interfaces, packet-slot recycling through the Network,
// leak-free teardown (ASan-checked in CI), and the WorldConfig builder /
// from_env entry point.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "apps/nqueens.hpp"
#include "net/network.hpp"
#include "net/packet_pool.hpp"
#include "support.hpp"
#include "util/slab.hpp"

namespace {

using namespace abcl;
using namespace abcl::testsup;

struct Fixture {
  core::Program prog;
  EchoProgram echo;
  Fixture() {
    echo = register_echo(prog);
    prog.finalize();
    clear_log();
  }
};

// Saves/restores one environment variable around a test body.
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

// ------------------------------------------------- over-aligned frames -----

// Regression for the alloc_ctx_frame alignment bug: the old PoolAllocator
// handed every class at-best-max_align_t storage, so a frame demanding a
// 64-byte boundary (e.g. one holding a cacheline-aligned scratch buffer)
// could silently land on a 16-byte boundary. The slab guarantees
// min(class_bytes, 64) and alloc_ctx_frame now static_asserts the request
// is within that guarantee; anything stricter (alignas(128)) fails to
// compile instead of silently misaligning.
struct alignas(64) OverAlignedFrame : core::CtxFrameBase {
  unsigned char scratch[96] = {};
};
static_assert(alignof(OverAlignedFrame) ==
              util::SlabAllocator::kMaxAlignment);

TEST(CtxFrameAlignment, OverAlignedFrameLandsOnItsBoundary) {
  Fixture fx;
  World world(fx.prog, WorldConfig{}.with_nodes(1));
  core::NodeRuntime& rt = world.node(0);
  // Fresh slot, recycled slot, and an interleaved pair — every path the
  // allocator has for this class must respect the boundary.
  OverAlignedFrame* a = rt.alloc_ctx_frame<OverAlignedFrame>();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  rt.free_ctx_frame(a);
  OverAlignedFrame* b = rt.alloc_ctx_frame<OverAlignedFrame>();
  OverAlignedFrame* c = rt.alloc_ctx_frame<OverAlignedFrame>();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  rt.free_ctx_frame(c);
  rt.free_ctx_frame(b);
}

// ----------------------------------------------------- frame recycling -----

TEST(FrameRecycling, MsgFramesComeBackFromTheFreelist) {
  Fixture fx;
  World world(fx.prog, WorldConfig{}.with_nodes(1));
  core::NodeRuntime& rt = world.node(0);
  const std::uint64_t hits0 = rt.alloc_stats().freelist_hits;
  core::MsgFrame* f = rt.alloc_msg_frame();
  rt.free_msg_frame(f);
  core::MsgFrame* g = rt.alloc_msg_frame();
  EXPECT_EQ(g, f);  // LIFO freelist returns the slot just released
  EXPECT_EQ(rt.alloc_stats().freelist_hits, hits0 + 1);
  rt.free_msg_frame(g);
}

TEST(FrameRecycling, ReplyBoxesComeBackFromTheFreelist) {
  Fixture fx;
  World world(fx.prog, WorldConfig{}.with_nodes(1));
  core::NodeRuntime& rt = world.node(0);
  core::ReplyBox* b = rt.alloc_reply_box();
  rt.free_reply_box(b);
  EXPECT_EQ(rt.alloc_reply_box(), b);
}

TEST(FrameRecycling, QuiescentWorldHasBalancedAllocCounters) {
  // After run-to-quiescence every transient allocation (message frames,
  // context frames, reply boxes) must have been returned: live() counts
  // only the long-lived per-node structures.
  Fixture fx;
  World world(fx.prog, WorldConfig{}.with_nodes(4));
  world.boot(0, [&](Ctx& ctx) {
    Word tag = 5;
    MailAddr e = ctx.create_local(*fx.echo.cls, &tag, 1);
    Word args[3] = {e.word_node(), e.word_ptr(), 40};
    ctx.send_past(e, fx.echo.run, args, 3);
  });
  world.run();
  util::SlabAllocator::Stats t = world.total_alloc_stats();
  EXPECT_GT(t.allocs, 0u);
  EXPECT_GE(t.allocs, t.frees);
  EXPECT_GT(t.freelist_hits, 0u);
}

TEST(FrameRecycling, FreelistsServeMostFreesOnSerialNQueens) {
  // The Fig. 5 workload at N = 9, P = 64. Long-lived structures never
  // return, so the denominator is the churn: every free makes a slot
  // eligible for reuse, and most of them must come back as freelist hits.
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  World world(prog, WorldConfig{}.with_nodes(64).with_host_threads(-1));
  auto r = apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(9));
  EXPECT_EQ(r.solutions, 352);
  const util::SlabAllocator::Stats t = world.total_alloc_stats();
  EXPECT_GT(t.frees, 0u);
  EXPECT_GT(t.freelist_hits * 2, t.frees);
}

// --------------------------------------------------------- object layout -----

TEST(ObjectLayout, Table4NQueensWorldFitsThe128ByteClass) {
  // bench_table4's N=8 row: 64 nodes, paper-calibrated work. A 56-B N-queens
  // node behind the 64-B header needs 120 B, so objects and stock chunks
  // take 128-B slots; a header that grows again pushes them to 256 B and
  // the heap back to 3,072 KiB.
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  const std::size_t cls = util::SlabAllocator::size_class(
      core::object_alloc_bytes(np.node_cls->state_bytes));
  EXPECT_EQ(util::SlabAllocator::class_bytes(cls), 128u);
  World world(prog, WorldConfig{}.with_nodes(64));
  auto r = apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(8));
  EXPECT_EQ(r.solutions, 92);
  EXPECT_EQ(r.heap_bytes, std::size_t{2048} << 10);
}

// ----------------------------------------------------- packet recycling -----

net::Packet make_packet(std::int32_t src, std::int32_t dst, sim::Instr t,
                        net::Word w) {
  net::Packet p;
  p.handler = 0;
  p.src = src;
  p.dst = dst;
  p.send_time = t;
  p.push(w);
  return p;
}

TEST(PacketRecycling, SerialSendPollReusesOneSlab) {
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 4), &cm);
  for (int i = 0; i < 1000; ++i) {
    net.send(make_packet(0, 1, i, static_cast<net::Word>(i)),
             net::AmCategory::kObjectMessage);
    net::Packet out;
    ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
    EXPECT_EQ(out.at(0), static_cast<net::Word>(i));
  }
  // One packet in flight at a time: a single slab (and after warm-up the
  // home magazine alone) serves the entire run.
  EXPECT_EQ(net.packet_pool().slabs_allocated(), 1u);
  EXPECT_GT(net.home_magazine().cache_hits(), 1900u);
  EXPECT_TRUE(net.idle());
}

TEST(PacketRecycling, PolledPacketSurvivesSubsequentSends) {
  // poll() copies the payload out of the slot before releasing it, so the
  // slot's immediate reuse by the next send must not alias the result.
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 4), &cm);
  net.send(make_packet(0, 1, 0, 111), net::AmCategory::kObjectMessage);
  net::Packet first;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, first));
  net.send(make_packet(0, 1, 1, 222), net::AmCategory::kObjectMessage);
  EXPECT_EQ(first.at(0), 111u);
  net::Packet second;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, second));
  EXPECT_EQ(second.at(0), 222u);
}

TEST(PacketRecycling, HeldSlotIsNeverHandedToASend) {
  // The slot API's twin of the test above: a handler runs on the slot its
  // packet landed in, so until the poller releases that slot no send may
  // be handed it — not even after the magazine has cycled through the depot
  // several times.
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 4), &cm);
  net.send(make_packet(0, 1, 0, 111), net::AmCategory::kObjectMessage);
  net::Packet* held = net.poll(1, sim::kInstrInf);
  ASSERT_NE(held, nullptr);
  for (int i = 1; i <= 4 * net::PacketPool::kMagazineCap; ++i) {
    net::Packet* p = net.open(0, 2, 0, i);
    EXPECT_NE(p, held);
    p->push(222);
    net.send(p, net::AmCategory::kObjectMessage);
    net::Packet* q = net.poll(2, sim::kInstrInf);
    ASSERT_EQ(q, p);
    net.release(2, q);
  }
  EXPECT_EQ(held->at(0), 111u);
  EXPECT_EQ(held->nwords, 1);
  net.release(1, held);
  EXPECT_TRUE(net.idle());
}

TEST(PacketRecycling, EverySlotIsBackAtQuiescence) {
  // Every slot a send acquires goes back to the pool: after its handler
  // returns, or under a fault plan once its last delivery copy is enqueued
  // (each copy then returns after its own poll). With workers, the driver
  // drains their magazines into the depot at the end of each run.
  net::FaultConfig lossy;
  lossy.enabled = true;
  lossy.drop_ppm = 100'000;
  lossy.dup_ppm = 100'000;
  lossy.seed = 7;
  struct Case {
    const char* name;
    int threads;
    bool faults;
  };
  for (const Case& c : {Case{"serial", -1, false}, Case{"2 threads", 2, false},
                        Case{"serial, drop/dup", -1, true},
                        Case{"2 threads, drop/dup", 2, true}}) {
    SCOPED_TRACE(c.name);
    core::Program prog;
    auto np = apps::register_nqueens(prog);
    prog.finalize();
    WorldConfig cfg = WorldConfig{}.with_nodes(16).with_host_threads(c.threads);
    if (c.faults) cfg.with_faults(lossy);
    World world(prog, cfg);
    auto r =
        apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(7));
    EXPECT_EQ(r.solutions, 40);
    net::Network& net = world.network();
    EXPECT_TRUE(net.idle());
    EXPECT_GT(net.stats().packets, 0u);
    if (c.faults) {
      EXPECT_GT(net.fault_stats().duplicates, 0u);
    }
    EXPECT_EQ(net.free_slots(), net.packet_pool().slabs_allocated() *
                                    net::PacketPool::kSlabPackets);
  }
}

TEST(PacketRecycling, TeardownWithUndeliveredPacketsLeaksNothing) {
  // Destroying a Network with packets still queued must free every slot:
  // they live in the pool's slabs, which die with it. The ASan job turns
  // any miss here into a failure.
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 16), &cm);
  for (int i = 0; i < 200; ++i) {
    net.send(make_packet(i % 16, (i * 7) % 16, i, static_cast<net::Word>(i)),
             net::AmCategory::kObjectMessage);
  }
  EXPECT_EQ(net.stats().packets, 200u);
  EXPECT_FALSE(net.idle());
  // ~Network runs here.
}

// ------------------------------------------------- WorldConfig builder -----

TEST(WorldConfigBuilder, SettersChainAndCoverEveryField) {
  core::NodeRuntime::Config nc;
  nc.policy = core::SchedPolicy::kNaive;
  WorldConfig cfg = WorldConfig{}
                        .with_nodes(48)
                        .with_topology(net::TopologyKind::kMesh2D)
                        .with_cost(sim::CostModel::zero())
                        .with_node(nc)
                        .with_placement(remote::PlacementKind::kRandom)
                        .with_seed(99)
                        .with_host_threads(3)
                        .with_pooling(true);  // no-op shim
  EXPECT_EQ(cfg.nodes, 48);
  EXPECT_EQ(cfg.topology, net::TopologyKind::kMesh2D);
  EXPECT_EQ(cfg.cost.wire_latency, sim::CostModel::zero().wire_latency);
  EXPECT_EQ(cfg.node.policy, core::SchedPolicy::kNaive);
  EXPECT_EQ(cfg.placement, remote::PlacementKind::kRandom);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.host_threads, 3);
}

TEST(WorldConfigBuilderDeathTest, WithPoolingFalseAborts) {
  // There is no unpooled mode: asking for one must fail loudly, not
  // silently pool.
  EXPECT_DEATH(WorldConfig{}.with_pooling(false), "with_pooling\\(false\\)");
}

TEST(WorldConfigBuilder, AggregateInitStillWorks) {
  // The deprecated-for-new-code path must keep compiling and agreeing with
  // the builder defaults.
  WorldConfig cfg;
  cfg.nodes = 8;
  EXPECT_EQ(cfg.host_threads, 0);
  EXPECT_EQ(cfg.nodes, WorldConfig{}.with_nodes(8).nodes);
}

TEST(WorldConfigFromEnv, UnsetEnvironmentYieldsSerialDefaults) {
  ScopedEnv t("ABCLSIM_HOST_THREADS", nullptr);
  WorldConfig cfg = WorldConfig::from_env();
  // Unset threads is recorded as the resolved decision (-1 = force serial)
  // so a later World construction never re-reads the environment.
  EXPECT_EQ(cfg.host_threads, -1);
}

TEST(WorldConfigFromEnv, ReadsThreads) {
  ScopedEnv t("ABCLSIM_HOST_THREADS", "4");
  EXPECT_EQ(WorldConfig::from_env().host_threads, 4);
}

TEST(WorldConfigFromEnvDeathTest, GarbageThreadsValueAborts) {
  ScopedEnv t("ABCLSIM_HOST_THREADS", "8x");
  EXPECT_DEATH(WorldConfig::from_env(), "ABCLSIM_HOST_THREADS");
}

TEST(WorldConfigFromEnv, BuilderChainsOffTheResolvedConfig) {
  ScopedEnv t("ABCLSIM_HOST_THREADS", nullptr);
  Fixture fx;
  World world(fx.prog, WorldConfig::from_env().with_nodes(2).with_seed(7));
  EXPECT_EQ(world.num_nodes(), 2);
  EXPECT_EQ(world.host_threads(), 1);  // -1 resolves to the serial driver
  world.boot(0, [&](Ctx& ctx) {
    Word tag = 1;
    MailAddr e = ctx.create_local(*fx.echo.cls, &tag, 1);
    Word args[3] = {core::kNilAddr.word_node(), core::kNilAddr.word_ptr(), 0};
    ctx.send_past(e, fx.echo.run, args, 3);
  });
  world.run();
  EXPECT_EQ(event_log().size(), 3u);
}

}  // namespace
