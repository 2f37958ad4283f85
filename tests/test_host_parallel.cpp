// Cross-driver determinism: the same program + seed must produce
// bit-identical traces, reports, app results, and network stats whether the
// world is driven by the serial Machine or by ParallelMachine at any host
// thread count. These are the contract tests for the bounded-window
// conservative-PDES driver (see DESIGN.md §4).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/nqueens.hpp"
#include "net/packet_pool.hpp"
#include "apps/pingpong.hpp"
#include "apps/sieve.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/program_gen.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_machine.hpp"
#include "sim/trace.hpp"

namespace {

using namespace abcl;

// kSerial forces the serial Machine regardless of ABCLSIM_HOST_THREADS;
// positive values force a ParallelMachine with that many workers.
constexpr int kSerial = -1;
const int kThreadCounts[] = {1, 2, 8};

struct Fingerprint {
  std::vector<std::tuple<sim::Instr, NodeId, int, std::uint64_t>> trace;
  std::uint64_t trace_total = 0;
  sim::Instr sim_time = 0;
  std::uint64_t quanta = 0;
  std::int64_t value = 0;  // app-specific result (solutions, primes, bounces)

  std::uint64_t packets = 0, payload_words = 0, wire_words = 0;
  std::uint64_t per_category[4] = {};
  std::uint64_t lat_n = 0, lat_sum = 0, lat_min = 0, lat_max = 0;
  double lat_mean = 0, lat_var = 0;

  std::uint64_t local_sends = 0, remote_sends = 0, sched_dispatches = 0;
  std::uint64_t stock_hits = 0, blocks_await = 0, created = 0;

  // Full serialized snapshots: the obs layer's determinism contract is that
  // these strings are byte-identical across drivers, not merely equal-ish.
  std::string metrics_json;
  std::string chrome_json;

  bool operator==(const Fingerprint&) const = default;
};

void capture(World& world, const sim::Tracer& tracer, Fingerprint& fp) {
  const auto events = tracer.snapshot();
  for (const auto& ev : events) {
    fp.trace.emplace_back(ev.t, ev.node, static_cast<int>(ev.kind), ev.payload);
  }
  fp.trace_total = tracer.total_recorded();
  const net::Network::Stats& ns = world.network().stats();
  fp.packets = ns.packets;
  fp.payload_words = ns.payload_words;
  fp.wire_words = ns.wire_words;
  for (int c = 0; c < 4; ++c) fp.per_category[c] = ns.per_category[c];
  fp.lat_n = ns.wire_latency_instr.count();
  fp.lat_sum = ns.wire_latency_instr.sum();
  fp.lat_mean = ns.wire_latency_instr.mean();
  fp.lat_var = ns.wire_latency_instr.variance();
  fp.lat_min = ns.wire_latency_instr.min();
  fp.lat_max = ns.wire_latency_instr.max();
  core::NodeStats s = world.total_stats();
  fp.local_sends = s.local_sends;
  fp.remote_sends = s.remote_sends;
  fp.sched_dispatches = s.sched_dispatches;
  fp.stock_hits = s.chunk_stock_hits;
  fp.blocks_await = s.blocks_await;
  fp.created = world.total_created_objects();
  fp.metrics_json = obs::metrics_json(world);
  fp.chrome_json = obs::chrome_trace_json(events);
}

Fingerprint run_nqueens_fp(int host_threads, int nodes, int n) {
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(nodes);
  cfg.with_host_threads(host_threads);
  World world(prog, cfg);
  sim::Tracer tracer(1u << 20);
  world.attach_tracer(&tracer);
  auto r = apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(n));
  Fingerprint fp;
  fp.sim_time = r.sim_time;
  fp.quanta = r.rep.quanta;
  fp.value = r.solutions;
  capture(world, tracer, fp);
  return fp;
}

// N-queens under a seeded fault plan. Every fault decision hashes only
// simulated quantities assigned in canonical commit order, so the whole
// schedule — drops, backoff retries, duplicates, dedup suppressions — is
// part of the bit-identical cross-driver contract like any other state.
Fingerprint run_nqueens_faulty_fp(int host_threads, int nodes, int n,
                                  std::uint64_t fault_seed) {
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  net::FaultConfig fc;
  fc.enabled = true;
  fc.drop_ppm = 100'000;   // 10% loss
  fc.dup_ppm = 50'000;     // 5% duplication
  fc.delay_ppm = 100'000;  // 10% reorder-delay
  fc.seed = fault_seed;
  WorldConfig cfg;
  cfg.with_nodes(nodes);
  cfg.with_host_threads(host_threads);
  cfg.with_faults(fc);
  World world(prog, cfg);
  sim::Tracer tracer(1u << 20);
  world.attach_tracer(&tracer);
  auto r = apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(n));
  Fingerprint fp;
  fp.sim_time = r.sim_time;
  fp.quanta = r.rep.quanta;
  fp.value = r.solutions;
  capture(world, tracer, fp);
  // The plan must really have fired (and been accounted) for the identity
  // below to mean anything.
  const net::FaultStats fs = world.network().fault_stats();
  EXPECT_GT(fs.drops, 0u);
  EXPECT_GT(fs.dup_suppressed, 0u);
  EXPECT_EQ(fs.delivered, fp.packets);  // exactly-once dispatch
  return fp;
}

Fingerprint run_sieve_fp(int host_threads, int nodes, std::int64_t limit) {
  core::Program prog;
  auto sp = apps::register_sieve(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(nodes);
  cfg.with_host_threads(host_threads);
  World world(prog, cfg);
  sim::Tracer tracer(1u << 20);
  world.attach_tracer(&tracer);
  auto r = apps::run_sieve(world, sp, limit);
  Fingerprint fp;
  fp.sim_time = r.rep.sim_time;
  fp.quanta = r.rep.quanta;
  fp.value = r.primes;
  capture(world, tracer, fp);
  return fp;
}

Fingerprint run_pingpong_fp(int host_threads, int nodes, std::uint64_t rounds) {
  core::Program prog;
  auto pp = apps::register_pingpong(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(nodes);
  cfg.with_host_threads(host_threads);
  World world(prog, cfg);
  sim::Tracer tracer(1u << 18);
  world.attach_tracer(&tracer);
  auto r = apps::run_pingpong(world, pp, 0, nodes - 1, rounds);
  Fingerprint fp;
  fp.sim_time = r.sim_time;
  fp.value = static_cast<std::int64_t>(r.bounces);
  capture(world, tracer, fp);
  return fp;
}

// Readable failure output: name the first differing field.
void expect_identical(const Fingerprint& serial, const Fingerprint& par,
                      int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(par.value, serial.value);
  EXPECT_EQ(par.sim_time, serial.sim_time);
  EXPECT_EQ(par.quanta, serial.quanta);
  EXPECT_EQ(par.trace_total, serial.trace_total);
  EXPECT_EQ(par.packets, serial.packets);
  EXPECT_EQ(par.lat_mean, serial.lat_mean);
  EXPECT_EQ(par.lat_var, serial.lat_var);
  EXPECT_EQ(par.local_sends, serial.local_sends);
  EXPECT_EQ(par.remote_sends, serial.remote_sends);
  EXPECT_EQ(par.sched_dispatches, serial.sched_dispatches);
  ASSERT_EQ(par.trace.size(), serial.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    ASSERT_EQ(par.trace[i], serial.trace[i]) << "first divergent event " << i;
  }
  EXPECT_EQ(par.metrics_json, serial.metrics_json);
  EXPECT_EQ(par.chrome_json, serial.chrome_json);
  EXPECT_TRUE(par == serial);  // any field the above missed
}

class NQueensCrossDriver : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(NQueensCrossDriver, BitIdenticalAtEveryThreadCount) {
  auto [nodes, n] = GetParam();
  Fingerprint serial = run_nqueens_fp(kSerial, nodes, n);
  EXPECT_GT(serial.value, 0);
  for (int t : kThreadCounts) {
    expect_identical(serial, run_nqueens_fp(t, nodes, n), t);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, NQueensCrossDriver,
                         ::testing::Values(std::tuple{16, 8}, std::tuple{64, 9},
                                           std::tuple{64, 10}));

// Tentpole acceptance check: any seeded FaultPlan must give byte-identical
// metrics and trace snapshots between the serial driver and every thread
// count — a lossy network is just more simulated state, not a source of
// host nondeterminism. Two fault seeds guard against a plan that happens to
// be schedule-neutral; they must also differ from each other and from the
// fault-free run, or the faults were never really in the loop.
TEST(FaultCrossDriver, SeededFaultScheduleIsBitIdentical) {
  Fingerprint clean = run_nqueens_fp(kSerial, 16, 8);
  for (std::uint64_t fault_seed : {7ull, 1234ull}) {
    SCOPED_TRACE("fault_seed=" + std::to_string(fault_seed));
    Fingerprint serial = run_nqueens_faulty_fp(kSerial, 16, 8, fault_seed);
    EXPECT_EQ(serial.value, clean.value);  // answers survive a lossy wire
    EXPECT_NE(serial.metrics_json, clean.metrics_json);
    EXPECT_NE(serial.trace, clean.trace);
    for (int t : kThreadCounts) {
      expect_identical(serial, run_nqueens_faulty_fp(t, 16, 8, fault_seed), t);
    }
  }
  EXPECT_NE(run_nqueens_faulty_fp(kSerial, 16, 8, 7).metrics_json,
            run_nqueens_faulty_fp(kSerial, 16, 8, 1234).metrics_json);
}

// Forwards the driver-facing calls and nothing else, as a timing wrapper
// does; swap_tracer keeps NodeExec's default.
class ForwardingNode final : public sim::NodeExec {
 public:
  explicit ForwardingNode(sim::NodeExec& inner) : inner_(inner) {}
  sim::NodeId node_id() const override { return inner_.node_id(); }
  sim::Instr clock() const override { return inner_.clock(); }
  bool runnable() const override { return inner_.runnable(); }
  sim::Instr next_wake() const override { return inner_.next_wake(); }
  void advance_clock(sim::Instr t) override { inner_.advance_clock(t); }
  void step() override { inner_.step(); }

 private:
  sim::NodeExec& inner_;
};

// Traced N=8 N-queens on 16 nodes: run by the world's own serial driver,
// or, with `wrapped`, by a 2-thread ParallelMachine built over forwarding
// wrappers, the way perfbench's traced legs build theirs.
Fingerprint run_nqueens_wrapped_fp(bool wrapped) {
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  World world(prog, WorldConfig().with_nodes(16).with_host_threads(kSerial));
  sim::Tracer tracer(1u << 20);
  world.attach_tracer(&tracer);
  const apps::NQueensParams p = apps::NQueensParams::paper_calibrated(8);
  MailAddr latch;
  world.boot(0, [&](Ctx& ctx) {
    latch = ctx.create_local(*np.latch.cls, {});
    ctx.send_past(latch, np.latch.expect, {1});
    const Word work = (static_cast<Word>(p.charge_base) << 16) |
                      static_cast<Word>(p.charge_per_col);
    Word args[9] = {latch.word_node(), latch.word_ptr(), np.latch.done,
                    np.done,           static_cast<Word>(p.n) << 8,
                    0,                 0,
                    0,                 work};
    MailAddr root = ctx.create_local(*np.node_cls, args, 9);
    ctx.send_past(root, np.go, nullptr, 0);
  });
  if (wrapped) {
    std::vector<std::unique_ptr<ForwardingNode>> owned;
    std::vector<sim::NodeExec*> execs;
    for (NodeId i = 0; i < world.num_nodes(); ++i) {
      owned.push_back(std::make_unique<ForwardingNode>(world.node(i)));
      execs.push_back(owned.back().get());
    }
    sim::ParallelMachine driver(std::move(execs), &world.network(), 2);
    world.network().set_on_deliverable(
        [&driver](NodeId dst) { driver.notify_work(dst); });
    driver.run();
    world.network().set_on_deliverable(
        [m = &world.machine()](NodeId dst) { m->notify_work(dst); });
  } else {
    world.run();
  }
  Fingerprint fp;
  fp.value = latch_state(latch).done() ? latch_state(latch).total : -1;
  capture(world, tracer, fp);
  return fp;
}

// Regression: a ParallelMachine built over wrappers that do not forward
// swap_tracer could not interpose its per-worker trace buffers, so both
// workers recorded straight into the one shared ring: a data race, and an
// event order that changed from run to run. With one lane per node, the
// wrapped run gives the serial world's snapshot() and Chrome JSON.
TEST(TraceCrossDriver, ForwardingWrappersKeepTheSerialTrace) {
  const Fingerprint serial = run_nqueens_wrapped_fp(false);
  EXPECT_EQ(serial.value, 92);
  expect_identical(serial, run_nqueens_wrapped_fp(true), 2);
}

// The magazine layer under the real 8-thread driver is exercised by every
// CrossDriver test above; this hammers the depot handoff directly —
// many owner threads, each with a private magazine, churning acquire/
// release hard enough to force constant depot refills and spills. TSan
// (which runs this binary in CI) checks the locking discipline; the
// assertions check slots never get lost or double-issued.
TEST(PacketPoolMagazines, ThreadedDrainRefill) {
  net::PacketPool pool;
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> sums(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&pool, &sums, w] {
      net::PacketPool::Magazine mag;
      net::Packet* held[net::PacketPool::kMagazineCap + 8] = {};
      std::uint64_t sum = 0;
      for (int r = 0; r < kRounds; ++r) {
        // Hold more slots than a magazine caches so every round crosses
        // the depot at least once in each direction.
        const int burst = static_cast<int>(sizeof(held) / sizeof(held[0]));
        for (int i = 0; i < burst; ++i) {
          held[i] = pool.acquire(mag);
          held[i]->seq = static_cast<std::uint64_t>(w * 1000 + i);
        }
        for (int i = 0; i < burst; ++i) {
          // The slot must still hold our write — nobody else owns it.
          sum += held[i]->seq - static_cast<std::uint64_t>(w * 1000 + i);
          pool.release(mag, held[i]);
        }
      }
      pool.flush(mag);
      sums[static_cast<std::size_t>(w)] = sum;
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(sums[static_cast<std::size_t>(w)], 0u) << "worker " << w;
  }
  // Steady-state churn must be served from a bounded slab population, not
  // one slab per burst.
  EXPECT_LE(pool.slabs_allocated(),
            static_cast<std::uint64_t>(kThreads * 2 + 4));
}

TEST(SieveCrossDriver, BitIdenticalAtEveryThreadCount) {
  Fingerprint serial = run_sieve_fp(kSerial, 16, 600);
  EXPECT_EQ(serial.value, 109);  // pi(600)
  for (int t : kThreadCounts) {
    expect_identical(serial, run_sieve_fp(t, 16, 600), t);
  }
}

TEST(PingPongCrossDriver, BitIdenticalAtEveryThreadCount) {
  Fingerprint serial = run_pingpong_fp(kSerial, 4, 500);
  for (int t : kThreadCounts) {
    expect_identical(serial, run_pingpong_fp(t, 4, 500), t);
  }
}

// Every observable of a fuzz run — metrics_json byte-for-byte, the
// order-sensitive trace fingerprint, counters — must match the baseline.
void expect_run_identical(const fuzz::RunResult& base,
                          const fuzz::RunResult& alt, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(alt.sim_time, base.sim_time);
  EXPECT_EQ(alt.quanta, base.quanta);
  EXPECT_EQ(alt.trace_events, base.trace_events);
  EXPECT_EQ(alt.trace_hash, base.trace_hash);
  EXPECT_EQ(alt.packets, base.packets);
  EXPECT_EQ(alt.wire_words, base.wire_words);
  EXPECT_EQ(alt.created, base.created);
  EXPECT_TRUE(alt.per_node == base.per_node);
  ASSERT_EQ(alt.metrics_json, base.metrics_json);
}

// Tentpole acceptance: a seeded shedding policy must be bit-identical
// between the serial driver and every thread count over the whole fuzz
// corpus — migration schedules, forwarding counters, metrics_json and the
// trace fingerprint are all simulated state. The overlay forces migration
// onto every generated spec (aggressive knobs so shedding really fires on
// the multi-node specs); run_spec/expect_run_identical then check the
// 1/2/8-thread runs against serial, including the migration counters.
TEST(MigrationCrossDriver, ByteIdenticalOnFuzzCorpus) {
  const sim::CostModel cost = sim::CostModel::ap1000();
  remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 8;
  mc.hysteresis = 1;
  mc.max_batch = 4;
  mc.min_queue = 2;
  mc.seed = 5;
  std::uint64_t specs_that_migrated = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::Spec spec = fuzz::generate(seed);
    spec.migration = mc;
    fuzz::RunResult base = fuzz::run_spec(spec, kSerial, cost);
    EXPECT_EQ(base.migrations_out, base.migrations_in);  // conservation
    specs_that_migrated += base.migrations_out > 0;
    for (int t : kThreadCounts) {
      fuzz::RunResult par = fuzz::run_spec(spec, t, cost);
      SCOPED_TRACE("threads=" + std::to_string(t));
      EXPECT_EQ(par.migrations_out, base.migrations_out);
      EXPECT_EQ(par.migrations_in, base.migrations_in);
      EXPECT_EQ(par.migration_mail, base.migration_mail);
      EXPECT_EQ(par.migration_forwards, base.migration_forwards);
      EXPECT_EQ(par.migration_updates, base.migration_updates);
      EXPECT_EQ(par.migration_holds, base.migration_holds);
      expect_run_identical(base, par, "migration overlay");
    }
  }
  // The corpus must really exercise the machinery, or the identity above
  // is vacuous.
  EXPECT_GT(specs_that_migrated, 0u);
}

TEST(HostThreads, EnvVariableSelectsDriver) {
  core::Program prog;
  apps::register_pingpong(prog);
  prog.finalize();
  ASSERT_EQ(setenv("ABCLSIM_HOST_THREADS", "3", 1), 0);
  {
    WorldConfig cfg;
    cfg.with_nodes(2);
    World world(prog, cfg);
    EXPECT_EQ(world.host_threads(), 3);
  }
  ASSERT_EQ(unsetenv("ABCLSIM_HOST_THREADS"), 0);
  {
    WorldConfig cfg;
    cfg.with_nodes(2);
    World world(prog, cfg);
    EXPECT_EQ(world.host_threads(), 1);  // serial
  }
  {
    WorldConfig cfg;
    cfg.with_nodes(2);
    cfg.with_host_threads(5);  // explicit config beats the environment
    World world(prog, cfg);
    EXPECT_EQ(world.host_threads(), 5);
  }
}

TEST(HostThreads, ParserAcceptsPlainPositiveIntegers) {
  std::string err;
  EXPECT_EQ(parse_host_threads(nullptr, &err), 0);  // unset -> serial
  EXPECT_EQ(parse_host_threads("", &err), 0);       // empty -> serial
  EXPECT_EQ(parse_host_threads("1", &err), 1);
  EXPECT_EQ(parse_host_threads("8", &err), 8);
  EXPECT_EQ(parse_host_threads("  16\t", &err), 16);  // blanks tolerated
  EXPECT_EQ(parse_host_threads("1024", &err), 1024);
}

TEST(HostThreads, ParserRejectsGarbageZeroAndNegative) {
  auto reject = [](const char* text, const char* why_fragment) {
    std::string err;
    std::optional<int> v = parse_host_threads(text, &err);
    EXPECT_FALSE(v.has_value()) << "\"" << text << "\" should be rejected";
    EXPECT_NE(err.find(text), std::string::npos)
        << "diagnostic must echo the offending value: " << err;
    EXPECT_NE(err.find(why_fragment), std::string::npos)
        << "diagnostic for \"" << text << "\" should mention '"
        << why_fragment << "', got: " << err;
  };
  reject("0", "at least 1");
  reject("-4", "negative");
  reject("-0", "negative");
  reject("eight", "not a decimal integer");
  reject("8x", "not a decimal integer");
  reject("3.5", "not a decimal integer");
  reject("+8", "not a decimal integer");  // atoi accepted this silently
  reject("1025", "implausibly large");
  reject("99999999999999999999", "implausibly large");  // no overflow UB
  reject(" ", "blank");
}

}  // namespace

