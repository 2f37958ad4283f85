// Host-parallel driver speedup: wall-clock of Figure-5-style N-queens runs
// (P in {64, 256, 512} simulated nodes), serial Machine vs ParallelMachine
// at 1/2/4/8 host threads. Every configuration must produce the identical
// solution count and modeled sim_time — the speedup is pure host-side.
//
// Machine-readable trajectory lands in BENCH_host_parallel.json (override
// the path with ABCLSIM_BENCH_JSON). N defaults to 10; set
// ABCLSIM_NQUEENS_N for other sizes. Note: the measured speedup is bounded
// by physical cores — the JSON records the real
// std::thread::hardware_concurrency() as host_cores and sets
// "parallel_meaningful": false when it is < 2, so trajectories from
// single-core boxes are never misread as scaling regressions.
//
// ABCLSIM_SCALING_GATE=1 additionally turns the scaling expectation into an
// exit-code gate on multi-core hosts: for every P the 2-thread wall clock
// must stay within 1.5x of serial (generous — real speedup is expected, but
// shared CI runners are noisy). Single-core hosts skip the gate.
//
// A full obs metrics snapshot of the canonical P=64 run additionally lands
// next to the trajectory (ABCLSIM_METRICS_JSON, default
// BENCH_host_parallel.metrics.json); the serial and 8-thread snapshots are
// diffed byte-for-byte here, so any cross-driver stats divergence fails the
// bench just like a solution-count divergence. CI feeds both files to
// bench_regression_check against the committed baselines.
//
// A second workload — a hot-spot world where every migratable actor is born
// on node 0 and the work-shedding balancer must spread them — runs serial
// and at 8 threads with migration enabled. Its six migration counters and final object placement are pure simulated
// quantities, so they must match across drivers (folded into the same exit
// gate) and are spliced into the metrics snapshot as "migration_hotspot"
// for the regression baseline.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/nqueens.hpp"
#include "bench_common.hpp"
#include "core/object.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "remote/migration.hpp"
#include "sim/parallel_machine.hpp"

namespace {

using namespace abcl;

struct Sample {
  int nodes = 0;
  int host_threads = 0;  // 0 = serial Machine
  double wall_ms = 0.0;
  std::int64_t solutions = 0;
  sim::Instr sim_time = 0;
  std::uint64_t quanta = 0;
  // Parallel-driver window count (0 under the serial Machine). A function
  // of simulated state only — identical at any thread count, so the
  // committed baseline pins it.
  std::uint64_t windows = 0;
};

Sample run_once(int nodes, int host_threads, const apps::NQueensParams& p,
                std::string* metrics_out = nullptr) {
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(nodes);
  cfg.with_host_threads(host_threads == 0 ? -1 : host_threads);
  World world(prog, cfg);

  auto t0 = std::chrono::steady_clock::now();
  auto r = apps::run_nqueens(world, np, p);
  auto t1 = std::chrono::steady_clock::now();

  Sample s;
  s.nodes = nodes;
  s.host_threads = host_threads;
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  s.solutions = r.solutions;
  s.sim_time = r.sim_time;
  s.quanta = r.rep.quanta;
  if (auto* pm = dynamic_cast<sim::ParallelMachine*>(&world.machine())) {
    s.windows = pm->windows_run();
  }
  if (metrics_out != nullptr) *metrics_out = obs::metrics_json(world, &r.rep);
  return s;
}

// ------------------------------------------ hot-spot migration workload -----

// All actors are born on node 0 of an 8-node world and churn through
// self-chains; the shedding balancer must export objects off the hot node.
// Every field below is a simulated quantity — identical across drivers by
// the determinism contract, which is exactly what main() gates on.
struct ChurnState {
  std::uint64_t steps = 0;
};

struct MigSample {
  double wall_ms = 0.0;
  std::uint64_t total_steps = 0;
  int hot_node_objects = 0;   // actors still homed on node 0 after the run
  int nodes_with_objects = 0;
  core::NodeStats totals{};   // world-summed; migration counters consumed
};

constexpr int kMigNodes = 8;
constexpr int kMigActors = 96;
constexpr Word kMigFuel = 120;

MigSample run_hotspot(int host_threads) {
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
  cfg.with_nodes(kMigNodes);
  cfg.with_host_threads(host_threads);
  remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 8;
  mc.hysteresis = 2;
  mc.max_batch = 4;
  mc.min_queue = 6;
  mc.seed = 5;
  cfg.with_migration(mc);
  World world(prog, cfg);

  std::vector<MailAddr> actors;
  world.boot(0, [&](Ctx& ctx) {
    for (int i = 0; i < kMigActors; ++i) {
      actors.push_back(ctx.create_local(def.info(), {}));
    }
  });
  world.boot(0, [&](Ctx& ctx) {
    for (const MailAddr& a : actors) ctx.send_past(a, kick, {kMigFuel});
  });
  auto t0 = std::chrono::steady_clock::now();
  world.run();
  auto t1 = std::chrono::steady_clock::now();

  MigSample s;
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::vector<int> per_node(kMigNodes, 0);
  for (MailAddr a : actors) {
    // Chase the forwarding chain (path compression bounds it, but a fixed
    // hop cap keeps a regression from hanging the bench).
    for (int hops = 0; hops < 8; ++hops) {
      auto f = world.node(a.node).forward_target(a.ptr);
      if (!f.has_value() || (f->node == a.node && f->ptr == a.ptr)) break;
      a = *f;
    }
    per_node[static_cast<std::size_t>(a.node)] += 1;
    s.total_steps += a.ptr->state_as<const ChurnState>()->steps;
  }
  s.hot_node_objects = per_node[0];
  for (int n : per_node) s.nodes_with_objects += n > 0;
  s.totals = world.total_stats();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // accepted for interface uniformity
  bench::header("Host-parallel driver: N-queens wall-clock, serial vs threads");

  const int n = bench::env_int("ABCLSIM_NQUEENS_N", 10);
  const auto p = apps::NQueensParams::paper_calibrated(n);
  const unsigned cores = std::thread::hardware_concurrency();
  const int thread_counts[] = {0, 1, 2, 4, 8};  // 0 = serial Machine

  const bool meaningful = cores >= 2;
  const bool scaling_gate =
      meaningful && bench::env_int("ABCLSIM_SCALING_GATE", 0) != 0;

  std::printf("N = %d, host cores = %u%s\n", n, cores,
              meaningful ? "" : " (single-core: speedups not meaningful)");
  std::vector<Sample> samples;
  bool identical = true;
  bool scaling_ok = true;
  std::string metrics_serial, metrics_par8;
  for (int nodes : {64, 256, 512}) {
    util::Table t({"P", "Driver", "Wall (ms)", "Speedup vs serial",
                   "Solutions", "Sim time (instr)", "Windows"});
    double serial_ms = 0.0;
    Sample serial{};
    for (int ht : thread_counts) {
      // Snapshot the canonical P=64 config from both drivers: the serial
      // snapshot is the published artifact, the 8-thread one only exists to
      // prove byte-identity below.
      std::string* mout = nullptr;
      if (nodes == 64 && ht == 0) mout = &metrics_serial;
      if (nodes == 64 && ht == 8) mout = &metrics_par8;
      Sample s = run_once(nodes, ht, p, mout);
      samples.push_back(s);
      if (ht == 0) {
        serial_ms = s.wall_ms;
        serial = s;
      } else if (s.solutions != serial.solutions ||
                 s.sim_time != serial.sim_time || s.quanta != serial.quanta) {
        identical = false;
        std::printf("DIVERGENCE at P=%d threads=%d!\n", nodes, ht);
      }
      if (scaling_gate && ht == 2 && s.wall_ms > 1.5 * serial_ms) {
        scaling_ok = false;
        std::printf("SCALING GATE at P=%d: 2-thread wall %.1f ms > 1.5x "
                    "serial %.1f ms\n",
                    nodes, s.wall_ms, serial_ms);
      }
      t.add_row({std::to_string(nodes),
                 ht == 0 ? "serial" : std::to_string(ht) + " threads",
                 util::Table::num(s.wall_ms, 1),
                 ht == 0 ? "1.00" : util::Table::num(serial_ms / s.wall_ms, 2),
                 util::Table::num(static_cast<std::uint64_t>(s.solutions)),
                 util::Table::num(static_cast<std::uint64_t>(s.sim_time)),
                 ht == 0 ? "-" : util::Table::num(s.windows)});
    }
    t.print();
  }

  if (metrics_serial != metrics_par8) {
    identical = false;
    std::printf("METRICS DIVERGENCE: serial and 8-thread snapshots differ!\n");
  }

  // Hot-spot migration workload: serial vs 8 threads with the shedding
  // balancer on. Placement, step totals, and all six migration counters are
  // modeled quantities — any cross-driver difference is a determinism bug
  // and fails the bench exactly like an N-queens divergence. The workload
  // must also actually shed: a silently migration-free run would turn the
  // counters (and the committed baseline) vacuous.
  {
    util::Table t({"Driver", "Wall (ms)", "Shed out", "Shed in",
                   "Node-0 objects", "Nodes w/ objects"});
    MigSample ms = run_hotspot(-1);
    MigSample mp = run_hotspot(8);
    for (const MigSample* s : {&ms, &mp}) {
      t.add_row({s == &ms ? "serial" : "8 threads",
                 util::Table::num(s->wall_ms, 1),
                 util::Table::num(s->totals.migrations_out),
                 util::Table::num(s->totals.migrations_in),
                 util::Table::num(static_cast<std::uint64_t>(
                     s->hot_node_objects)),
                 util::Table::num(static_cast<std::uint64_t>(
                     s->nodes_with_objects))});
    }
    t.print();
    const std::uint64_t expected_steps =
        static_cast<std::uint64_t>(kMigActors) * (kMigFuel + 1);
    auto mig_matches = [&](const MigSample& x) {
      return x.total_steps == expected_steps &&
             x.hot_node_objects == ms.hot_node_objects &&
             x.nodes_with_objects == ms.nodes_with_objects &&
             x.totals.migrations_out == ms.totals.migrations_out &&
             x.totals.migrations_in == ms.totals.migrations_in &&
             x.totals.migration_mail == ms.totals.migration_mail &&
             x.totals.migration_forwards == ms.totals.migration_forwards &&
             x.totals.migration_updates == ms.totals.migration_updates &&
             x.totals.migration_holds == ms.totals.migration_holds;
    };
    if (ms.total_steps != expected_steps || !mig_matches(mp)) {
      identical = false;
      std::printf("MIGRATION DIVERGENCE: hot-spot runs differ across "
                  "drivers (or lost steps)!\n");
    }
    if (ms.totals.migrations_out == 0 || ms.nodes_with_objects < 2) {
      identical = false;
      std::printf("MIGRATION GATE: hot-spot workload did not shed!\n");
    }
    // Splice the (deterministic) hot-spot counters into the serial metrics
    // snapshot so bench_regression_check pins them. metrics_json output is
    // one compact object + '\n'; insert before the closing brace.
    char hot[512];
    std::snprintf(
        hot, sizeof hot,
        ",\"migration_hotspot\":{\"nodes\":%d,\"actors\":%d,\"fuel\":%llu,"
        "\"migrations_out\":%llu,\"migrations_in\":%llu,"
        "\"migration_mail\":%llu,\"migration_forwards\":%llu,"
        "\"migration_updates\":%llu,\"migration_holds\":%llu,"
        "\"hot_node_final_objects\":%d,\"nodes_with_objects\":%d}",
        kMigNodes, kMigActors, static_cast<unsigned long long>(kMigFuel),
        static_cast<unsigned long long>(ms.totals.migrations_out),
        static_cast<unsigned long long>(ms.totals.migrations_in),
        static_cast<unsigned long long>(ms.totals.migration_mail),
        static_cast<unsigned long long>(ms.totals.migration_forwards),
        static_cast<unsigned long long>(ms.totals.migration_updates),
        static_cast<unsigned long long>(ms.totals.migration_holds),
        ms.hot_node_objects, ms.nodes_with_objects);
    const std::size_t brace = metrics_serial.rfind('}');
    if (brace != std::string::npos) metrics_serial.insert(brace, hot);
  }

  const char* mpath = std::getenv("ABCLSIM_METRICS_JSON");
  if (mpath == nullptr || *mpath == '\0') mpath = "BENCH_host_parallel.metrics.json";
  if (obs::write_file(mpath, metrics_serial)) {
    std::printf("wrote %s\n", mpath);
  } else {
    std::printf("could not open %s for writing\n", mpath);
  }

  const char* path = std::getenv("ABCLSIM_BENCH_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_host_parallel.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"host_parallel_nqueens\",\n");
    std::fprintf(f, "  \"n\": %d,\n  \"host_cores\": %u,\n", n, cores);
    std::fprintf(f, "  \"parallel_meaningful\": %s,\n",
                 meaningful ? "true" : "false");
    std::fprintf(f, "  \"results_identical_across_drivers\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::fprintf(f,
                   "    {\"nodes\": %d, \"host_threads\": %d, "
                   "\"wall_ms\": %.3f, \"solutions\": %lld, "
                   "\"sim_time\": %llu, \"quanta\": %llu, "
                   "\"windows\": %llu}%s\n",
                   s.nodes, s.host_threads, s.wall_ms,
                   static_cast<long long>(s.solutions),
                   static_cast<unsigned long long>(s.sim_time),
                   static_cast<unsigned long long>(s.quanta),
                   static_cast<unsigned long long>(s.windows),
                   i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
  } else {
    std::printf("\ncould not open %s for writing\n", path);
  }
  return (identical && scaling_ok) ? 0 : 1;
}
