// Host-nanosecond microbenchmarks of the runtime primitives themselves —
// separate from the paper tables (which report modeled machine time). These
// demonstrate the implementation is genuinely lightweight: the scheduling
// paths the paper counts in SPARC instructions cost a few host nanoseconds.
#include <benchmark/benchmark.h>

#include "apps/counters.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/machine.hpp"
#include "util/arena.hpp"
#include "util/intrusive_list.hpp"
#include "util/slab.hpp"

namespace {

using namespace abcl;

// ---- allocators -------------------------------------------------------------

void BM_SlabAllocFree(benchmark::State& state) {
  util::Arena arena;
  util::SlabAllocator pool(arena);
  for (auto _ : state) {
    void* p = pool.allocate(128);
    benchmark::DoNotOptimize(p);
    pool.deallocate(p, 128);
  }
}
BENCHMARK(BM_SlabAllocFree);

// Frame-churn shape: a burst of live frames across classes, then release —
// the pattern a dispatch cascade produces (the single-slot ping-pong above
// flatters any allocator).
void BM_SlabChurn(benchmark::State& state) {
  util::Arena arena;
  util::SlabAllocator pool(arena);
  void* live[64];
  const std::size_t sizes[4] = {48, 96, 160, 320};
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) live[i] = pool.allocate(sizes[i & 3]);
    for (int i = 63; i >= 0; --i) pool.deallocate(live[i], sizes[i & 3]);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SlabChurn);

void BM_ArenaBump(benchmark::State& state) {
  util::Arena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.allocate(64));
  }
}
BENCHMARK(BM_ArenaBump);

// ---- message queue ----------------------------------------------------------

void BM_MsgQueuePushPop(benchmark::State& state) {
  core::MsgFrame frames[8];
  util::IntrusiveFifo<core::MsgFrame, &core::MsgFrame::next> q;
  for (auto _ : state) {
    for (auto& f : frames) q.push_back(&f);
    while (core::MsgFrame* f = q.pop_front()) benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MsgQueuePushPop);

// ---- network ----------------------------------------------------------------

// One send and one poll on the slot path, as NodeRuntime makes them: the
// sender fills a pool slot in place, the receiver reads that slot and
// releases it.
void BM_NetworkSendPoll(benchmark::State& state) {
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 64), &cm);
  sim::Instr t = 0;
  for (auto _ : state) {
    net::Packet* p = net.open(0, 37, 0, t++);
    p->push(42);
    net.send(p, net::AmCategory::kObjectMessage);
    net::Packet* got = net.poll(37, sim::kInstrInf);
    benchmark::DoNotOptimize(got->at(0));
    net.release(37, got);
  }
}
BENCHMARK(BM_NetworkSendPoll);

// Same, but against a standing queue of 256 in-flight packets: heap sifts
// move 24-byte slot refs instead of whole Packets.
void BM_NetworkSendPollDeep(benchmark::State& state) {
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 64), &cm);
  sim::Instr t = 0;
  auto send_one = [&](std::int32_t src) {
    net::Packet* p = net.open(src, 37, 0, t);
    p->push(42);
    net.send(p, net::AmCategory::kObjectMessage);
  };
  for (std::int32_t s = 0; s < 64; ++s) {
    for (int i = 0; i < 4; ++i) send_one(s);
  }
  ++t;
  for (auto _ : state) {
    send_one(static_cast<std::int32_t>(t % 64));
    ++t;
    net::Packet* got = net.poll(37, sim::kInstrInf);
    benchmark::DoNotOptimize(got->at(0));
    net.release(37, got);
  }
}
BENCHMARK(BM_NetworkSendPollDeep);

// ---- barrier flush ----------------------------------------------------------

// The serial-phase cost of flush_outboxes committing a window's sends from
// 8 shard outboxes, box by box in append order. state.range(0) =
// packets per box. Fill and drain run under PauseTiming.
void BM_FlushOutboxes(benchmark::State& state) {
  const auto per_box = static_cast<int>(state.range(0));
  constexpr int kBoxes = 8;
  constexpr std::int32_t kNodes = 64;
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, kNodes), &cm);
  net::Network::Outbox boxes[kBoxes];
  net::Network::Outbox* ptrs[kBoxes];
  for (int b = 0; b < kBoxes; ++b) ptrs[b] = &boxes[b];
  for (std::int32_t src = 0; src < kNodes; ++src) {
    net.set_outbox(src, &boxes[src % kBoxes]);  // round-robin shard, as in
                                                // ParallelMachine
  }
  sim::Instr t = 1;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < per_box; ++i) {
      for (int b = 0; b < kBoxes; ++b) {
        auto src = static_cast<std::int32_t>(
            (b + kBoxes * (i % (kNodes / kBoxes))) % kNodes);
        net::Packet* p = net.open(src, (src + 17) % kNodes, 0, t);
        p->push(42);
        net.send(p, net::AmCategory::kObjectMessage);
      }
    }
    state.ResumeTiming();
    net.flush_outboxes(ptrs, kBoxes);
    state.PauseTiming();
    for (std::int32_t d = 0; d < kNodes; ++d) {
      while (net::Packet* got = net.poll(d, sim::kInstrInf)) {
        net.release(d, got);
      }
    }
    t += 128;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * per_box * kBoxes);
}
BENCHMARK(BM_FlushOutboxes)->Arg(16)->Arg(256)->Arg(4096);

// ---- end-to-end dispatch ------------------------------------------------------

struct Env {
  core::Program prog;
  apps::CounterProgram cp;
  Env() {
    cp = apps::register_counter(prog);
    prog.finalize();
  }
};

void BM_DormantDispatch(benchmark::State& state) {
  Env env;
  WorldConfig cfg;
  cfg.with_nodes(1);
  cfg.with_cost(sim::CostModel::zero());  // isolate host cost from model math
  World world(env.prog, cfg);
  world.boot(0, [&](Ctx& ctx) {
    MailAddr c = ctx.create_local(*env.cp.cls, nullptr, 0);
    ctx.send_past(c, env.cp.noop, nullptr, 0);
    for (auto _ : state) ctx.send_past(c, env.cp.noop, nullptr, 0);
  });
}
BENCHMARK(BM_DormantDispatch);

void BM_ActivePathPerMessage(benchmark::State& state) {
  Env env;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(env.prog, cfg);
  MailAddr c;
  world.boot(0, [&](Ctx& ctx) {
    c = ctx.create_local(*env.cp.cls, nullptr, 0);
    ctx.send_past(c, env.cp.noop, nullptr, 0);
  });
  std::int64_t msgs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    world.boot(0, [&](Ctx& ctx) {
      Word args[2] = {1024, env.cp.noop};
      ctx.send_past(c, env.cp.fill, args, 2);
    });
    state.ResumeTiming();
    world.run();
    msgs += 1024;
  }
  state.SetItemsProcessed(msgs);
}
BENCHMARK(BM_ActivePathPerMessage);

void BM_MachineQuantumOverhead(benchmark::State& state) {
  // Pure driver cost: a world whose only work is self-refilling noops.
  Env env;
  WorldConfig cfg;
  cfg.with_nodes(16);
  World world(env.prog, cfg);
  std::vector<MailAddr> cs(16);
  for (NodeId nid = 0; nid < 16; ++nid) {
    world.boot(nid, [&](Ctx& ctx) {
      cs[static_cast<std::size_t>(nid)] = ctx.create_local(*env.cp.cls, nullptr, 0);
    });
  }
  std::int64_t quanta = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (NodeId nid = 0; nid < 16; ++nid) {
      world.boot(nid, [&](Ctx& ctx) {
        Word args[2] = {256, env.cp.noop};
        ctx.send_past(cs[static_cast<std::size_t>(nid)], env.cp.fill, args, 2);
      });
    }
    state.ResumeTiming();
    quanta += static_cast<std::int64_t>(world.run().quanta);
  }
  state.SetItemsProcessed(quanta);
}
BENCHMARK(BM_MachineQuantumOverhead)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
