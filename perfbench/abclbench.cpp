// abclbench: one sample of one repo-benchmark workload.
//
// A sample is one simulation from boot to quiescence in a fresh process:
// Program registration, World construction and boot (set-up), then the run
// (for `churn`: run to mid-run, checkpoint into memory, destroy the world,
// restore it and finish). The binary times the phases, checks the outputs
// it can check alone and prints one JSON object on stdout. run.py spawns the
// samples, aggregates them and applies the cross-sample gates (pinned
// counters, cross-driver and restore identity); see README.md.
//
// Only public APIs are used. With --trace FILE the sample is the traced
// run: every NodeRuntime is wrapped in a forwarding sim::NodeExec that times
// step(), runnable(), next_wake() and advance_clock(), a driver is built
// from the public Machine/ParallelMachine constructors with the options
// World would pick, and the spans are aggregated in memory and written to
// FILE at exit.
//
//   abclbench --workload nqueens|nqueens-1t|nqueens-2t|churn --seed N
//             [--size full|tiny] [--reference] [--ckpt-at T] [--trace FILE]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "abcl/abcl.hpp"
#include "apps/nqueens.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_machine.hpp"

extern char** environ;

namespace {

using namespace abcl;

// ----------------------------------------------------------------- sizes ---

// `full` is what the benchmark measures; `tiny` only feeds the self-test.
struct Sizes {
  int nq_n;              // board size
  int nq_nodes;          // simulated processors (Fig. 5's P)
  int churn_nodes;
  int churn_actors;      // all born on the hot node
  Word churn_fuel;       // chain length = fuel + 1 steps
};

constexpr Sizes kFull{10, 512, 64, 1024, 500};
constexpr Sizes kTiny{6, 16, 16, 16, 50};

// Solutions of the N-queens problem (OEIS A000170), the workload's result.
std::int64_t nqueens_solutions(int n) {
  static const std::int64_t kTable[] = {1,   1,    0,     0,     2,
                                        10,  4,    40,    92,    352,
                                        724, 2680, 14200, 73712, 365596};
  return n >= 0 && n < 15 ? kTable[n] : -1;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ----------------------------------------------------------------- spans ---

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Mean cost of one now_ns() call, measured before a traced run. A timed
// interval holds about one clock read and each timed call costs its thread
// two, so both are taken out of the per-layer times.
double g_clock_read_ns = 0;

void calibrate_clock_read() {
  constexpr int kReads = 200000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kReads; ++i) now_ns();
  g_clock_read_ns = static_cast<double>(now_ns() - t0) / kReads;
}

// World-level spans of one sample, in memory until exit. Every span carries
// its parent; span 0 is the sample itself.
class SpanLog {
 public:
  struct Span {
    int parent;
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  SpanLog() { spans_.push_back({-1, "sample", now_ns(), 0}); }

  int begin(const char* name, int parent = 0) {
    spans_.push_back({parent, name, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  // Sum over every span called `name` (churn runs two legs).
  double total_seconds(const std::string& name) const {
    double t = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) t += seconds(static_cast<int>(i));
    }
    return t;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void finish() { spans_[0].end_ns = now_ns(); }

 private:
  std::vector<Span> spans_;
};

// Host time of the NodeExec calls made on one thread during one driver run:
// the parallel driver's per-worker split.
struct ThreadTotals {
  double step_ns = 0;
  std::uint64_t steps = 0;
  double cover_ns = 0;  // all four calls, scaled, plus the clock reads
};

// One traced driver run ("leg"): the per-node call totals of its wrappers
// and the per-thread totals, all children of the leg's sim.run span.
class Leg {
 public:
  // This thread's accumulator, registered on first use. Legs live until
  // the process exits, so a cached pointer never outlives its leg.
  ThreadTotals& mine() {
    thread_local Leg* cached_leg = nullptr;
    thread_local ThreadTotals* cached = nullptr;
    if (cached_leg != this) {
      std::lock_guard<std::mutex> lk(mu_);
      threads_.push_back(std::make_unique<ThreadTotals>());
      cached = threads_.back().get();
      cached_leg = this;
    }
    return *cached;
  }
  void set_span(int span) { span_ = span; }
  int span() const { return span_; }
  const std::vector<std::unique_ptr<ThreadTotals>>& threads() const {
    return threads_;
  }

 private:
  int span_ = -1;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTotals>> threads_;
};

// Calls of one kind on one node. `timed` of the `n` calls were timed, for
// `ns` in total; est_ns() takes the clock reads out and scales that up to
// all `n`.
struct CallTotals {
  std::uint64_t n = 0;
  std::uint64_t timed = 0;
  std::int64_t ns = 0;

  double est_ns() const {
    if (timed == 0) return 0.0;
    const double own = static_cast<double>(ns) -
                       static_cast<double>(timed) * g_clock_read_ns;
    return std::max(0.0, own) * static_cast<double>(n) /
           static_cast<double>(timed);
  }
};

// Forwarding NodeExec that times the four driver-facing calls. A node is
// touched by one thread at a time (the drivers' own partition), so the
// per-node totals need no synchronization.
class TimedNode final : public sim::NodeExec {
 public:
  enum Call { kStep, kRunnable, kNextWake, kAdvance, kNumCalls };
  static constexpr const char* kCallNames[kNumCalls] = {
      "step", "runnable", "next_wake", "advance_clock"};
  // runnable() and next_wake() cost about as much as the two clock reads
  // around them and the parallel driver makes ~100 per quantum, so one call
  // in kQuerySample is timed and the total is scaled from those.
  static constexpr std::uint64_t kQuerySample = 16;

  TimedNode(sim::NodeExec& inner, Leg& leg) : inner_(inner), leg_(leg) {}

  sim::NodeId node_id() const override { return inner_.node_id(); }
  sim::Instr clock() const override { return inner_.clock(); }
  bool runnable() const override {
    return query(kRunnable, [&] { return inner_.runnable(); });
  }
  sim::Instr next_wake() const override {
    return query(kNextWake, [&] { return inner_.next_wake(); });
  }
  void advance_clock(sim::Instr t) override {
    const std::int64_t t0 = now_ns();
    inner_.advance_clock(t);
    totals_[kAdvance].n += 1;
    add(kAdvance, now_ns() - t0, 1);
  }
  void step() override {
    const std::int64_t t0 = now_ns();
    inner_.step();
    const std::int64_t d = now_ns() - t0;
    totals_[kStep].n += 1;
    ThreadTotals& tt = add(kStep, d, 1);
    tt.step_ns += static_cast<double>(d) - g_clock_read_ns;
    tt.steps += 1;
  }
  sim::Tracer* swap_tracer(sim::Tracer* t) override {
    return inner_.swap_tracer(t);
  }

  const CallTotals& totals(Call c) const { return totals_[c]; }

 private:
  template <class F>
  auto query(Call c, F&& f) const -> decltype(f()) {
    if (totals_[c].n++ % kQuerySample != 0) return f();
    const std::int64_t t0 = now_ns();
    auto r = f();
    add(c, now_ns() - t0, kQuerySample);
    return r;
  }
  ThreadTotals& add(Call c, std::int64_t d, std::uint64_t weight) const {
    totals_[c].timed += 1;
    totals_[c].ns += d;
    ThreadTotals& tt = leg_.mine();
    tt.cover_ns += (static_cast<double>(d) - g_clock_read_ns) *
                       static_cast<double>(weight) +
                   2 * g_clock_read_ns;
    return tt;
  }

  sim::NodeExec& inner_;
  Leg& leg_;
  mutable CallTotals totals_[kNumCalls];
};

// Everything the traced run keeps: world-level spans, and per leg the
// per-node and per-thread totals.
struct TraceLog {
  struct NodeRecord {
    int parent;
    int node;
    CallTotals calls[TimedNode::kNumCalls];
  };
  std::vector<std::unique_ptr<Leg>> legs;
  std::vector<NodeRecord> nodes;
};

// ----------------------------------------------------------- the sample ---

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  Sizes size = kFull;
  std::string size_name = "full";
  bool reference = false;
  sim::Instr ckpt_at = 0;
  std::string trace_path;  // empty = untraced
};

// What a sample measured and observed. `observed` holds the simulated
// counters run.py pins for the default seed; heap and slab bytes are not
// among them on purpose (they are expected to shrink).
struct Sample {
  std::vector<std::string> errors;
  std::int64_t result = 0;
  std::int64_t expected_result = 0;
  std::string digest;
  double wall_s = 0;
  double setup_s = 0;
  std::uint64_t messages = 0;
  double heap_mb = 0;
  double snapshot_mb = 0;  // churn only
  sim::Instr sim_time = 0;
  std::uint64_t quanta = 0;
  std::vector<std::pair<std::string, std::uint64_t>> observed;
  std::vector<std::pair<std::string, double>> layers;
};

// Runs one driver leg. Untraced, that is World::run(), which stops at the
// world's configured checkpoint boundary by itself; traced, the wrapped
// driver runs to `stop_at`. Windows of the parallel driver add to *windows.
RunReport run_leg(World& world, SpanLog& spans, TraceLog* trace,
                  sim::Instr stop_at, std::uint64_t* windows) {
  if (trace == nullptr) {
    const int span = spans.begin("sim.run");
    const RunReport rep = world.run();
    spans.end(span);
    if (auto* pm = dynamic_cast<sim::ParallelMachine*>(&world.machine())) {
      *windows += pm->windows_run();
    }
    return rep;
  }

  trace->legs.push_back(std::make_unique<Leg>());
  Leg& leg = *trace->legs.back();
  std::vector<std::unique_ptr<TimedNode>> wrapped;
  std::vector<sim::NodeExec*> execs;
  for (std::int32_t i = 0; i < world.num_nodes(); ++i) {
    wrapped.push_back(std::make_unique<TimedNode>(world.node(i), leg));
    execs.push_back(wrapped.back().get());
  }
  // The driver World::build_machine would pick for this config.
  const WorldConfig& cfg = world.config();
  std::unique_ptr<sim::Driver> driver;
  sim::ParallelMachine* pm = nullptr;
  if (cfg.host_threads >= 1) {
    sim::ParallelMachine::Options opts;
    opts.horizon = cfg.horizon;
    opts.shard = cfg.shard;
    opts.seed = cfg.seed;
    auto p = std::make_unique<sim::ParallelMachine>(
        std::move(execs), &world.network(), cfg.host_threads, opts);
    pm = p.get();
    driver = std::move(p);
  } else {
    driver = std::make_unique<sim::Machine>(std::move(execs), cfg.queue);
  }
  world.network().set_on_deliverable(
      [d = driver.get()](core::NodeId dst) { d->notify_work(dst); });

  leg.set_span(spans.begin("sim.run"));
  const sim::Driver::RunReport r = driver->run(stop_at);
  spans.end(leg.span());

  if (pm != nullptr) *windows += pm->windows_run();
  for (const auto& w : wrapped) {
    TraceLog::NodeRecord rec{leg.span(), w->node_id(), {}};
    for (int c = 0; c < TimedNode::kNumCalls; ++c) {
      rec.calls[c] = w->totals(static_cast<TimedNode::Call>(c));
    }
    trace->nodes.push_back(rec);
  }
  // Hand the network back to the world's own driver before this one dies.
  world.network().set_on_deliverable(
      [m = &world.machine()](core::NodeId dst) { m->notify_work(dst); });

  RunReport rep;
  rep.quanta = r.quanta;
  rep.sim_time = r.end_time;
  rep.sim_ms = cfg.cost.ms(r.end_time);
  rep.stop_reason = world.work_remaining() ? StopReason::kMaxTime
                                           : StopReason::kQuiesced;
  return rep;
}

WorldConfig base_config(const Options& o, int nodes, int host_threads) {
  // Every knob explicit, starting from WorldConfig{} (never from_env()).
  return WorldConfig{}
      .with_nodes(nodes)
      .with_topology(net::TopologyKind::kTorus2D)
      .with_cost(sim::CostModel::ap1000())
      .with_node(core::NodeRuntime::Config{})
      .with_placement(remote::PlacementKind::kRoundRobin)
      .with_seed(o.seed)
      .with_host_threads(host_threads)
      .with_pooling(true)
      .with_queue(util::QueueKind::kBucket)
      .with_flush(net::FlushKind::kMerge)
      .with_horizon(sim::HorizonKind::kGlobal)
      .with_shard(sim::ShardKind::kStatic)
      .with_faults(net::FaultConfig{})
      .with_migration(remote::MigrationConfig{})
      .with_ckpt(ckpt::CheckpointConfig{});
}

// Counters and per-layer figures read from public getters after the run.
void observe(World& world, const RunReport& rep, std::uint64_t windows,
             Sample& s) {
  const core::NodeStats t = world.total_stats();
  const net::Network::Stats& ns = world.network().stats();
  s.sim_time = rep.sim_time;
  s.quanta = rep.quanta;
  s.messages = ns.packets + t.local_sends;
  s.heap_mb = static_cast<double>(world.total_heap_bytes()) / 1e6;
  s.digest = fnv1a_hex(obs::metrics_json(world, &rep));

  auto& o = s.observed;
  o = {{"sim_time", rep.sim_time},
       {"quanta", rep.quanta},
       {"packets", ns.packets},
       {"payload_words", ns.payload_words},
       {"wire_words", ns.wire_words}};
  for (int c = 0; c < 4; ++c) {
    o.emplace_back(std::string("am.") +
                       net::to_string(static_cast<net::AmCategory>(c)),
                   ns.per_category[c]);
  }
  o.insert(o.end(), {{"local_sends", t.local_sends},
                     {"local_to_dormant", t.local_to_dormant},
                     {"local_to_active", t.local_to_active},
                     {"local_to_waiting_hit", t.local_to_waiting_hit},
                     {"forced_buffer_depth", t.forced_buffer_depth},
                     {"remote_sends", t.remote_sends},
                     {"remote_recv", t.remote_recv},
                     {"replies_sent", t.replies_sent},
                     {"blocks_await", t.blocks_await},
                     {"blocks_select", t.blocks_select},
                     {"yields", t.yields},
                     {"resumes", t.resumes},
                     {"await_fast_hits", t.await_fast_hits},
                     {"creations_local", t.creations_local},
                     {"creations_remote", t.creations_remote},
                     {"chunk_stock_hits", t.chunk_stock_hits},
                     {"chunk_stock_misses", t.chunk_stock_misses},
                     {"sched_enqueues", t.sched_enqueues},
                     {"sched_dispatches", t.sched_dispatches},
                     {"migrations_out", t.migrations_out},
                     {"migrations_in", t.migrations_in},
                     {"migration_mail", t.migration_mail},
                     {"migration_forwards", t.migration_forwards},
                     {"migration_updates", t.migration_updates},
                     {"migration_holds", t.migration_holds}});
  net::FaultStats fs;
  if (world.network().faults_enabled()) fs = world.network().fault_stats();
  o.insert(o.end(), {{"fault.attempts", fs.attempts},
                     {"fault.drops", fs.drops},
                     {"fault.blackout_drops", fs.blackout_drops},
                     {"fault.duplicates", fs.duplicates},
                     {"fault.delays", fs.delays},
                     {"fault.spurious_retransmits", fs.spurious_retransmits},
                     {"fault.forced_deliveries", fs.forced_deliveries},
                     {"fault.copies_enqueued", fs.copies_enqueued},
                     {"fault.delivered", fs.delivered},
                     {"fault.dup_suppressed", fs.dup_suppressed}});

  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const util::SlabAllocator::Stats al = world.total_alloc_stats();
  const double slab_bytes = static_cast<double>(net::PacketPool::kSlabPackets) *
                            static_cast<double>(sizeof(net::Packet));
  const auto q = static_cast<double>(rep.quanta);
  s.layers.insert(s.layers.end(), {
      {"sim.quanta", q},
      {"sim.windows", static_cast<double>(windows)},
      {"sim.quanta_per_window", ratio(q, static_cast<double>(windows))},
      {"core.remote_sends", static_cast<double>(t.remote_sends)},
      {"core.local_to_active", static_cast<double>(t.local_to_active)},
      {"core.blocks", static_cast<double>(t.blocks_await + t.blocks_select)},
      {"core.creations_remote", static_cast<double>(t.creations_remote)},
      {"core.sched_dispatches", static_cast<double>(t.sched_dispatches)},
      {"core.live_objects", static_cast<double>(world.total_live_objects())},
      {"net.packets", static_cast<double>(ns.packets)},
      {"net.wire_words", static_cast<double>(ns.wire_words)},
      {"net.pool_mb",
       static_cast<double>(world.network().packet_pool().slabs_allocated()) *
           slab_bytes / 1e6},
      {"net.fault.attempts_per_packet",
       ratio(static_cast<double>(fs.attempts), static_cast<double>(ns.packets))},
      {"net.fault.dup_suppressed", static_cast<double>(fs.dup_suppressed)},
      {"remote.stock_hit_ratio",
       ratio(static_cast<double>(t.chunk_stock_hits),
             static_cast<double>(t.chunk_stock_hits + t.chunk_stock_misses))},
      {"remote.migrations_out", static_cast<double>(t.migrations_out)},
      {"remote.migration_forwards", static_cast<double>(t.migration_forwards)},
      {"remote.migration_updates", static_cast<double>(t.migration_updates)},
      {"util.slab.allocs", static_cast<double>(al.allocs)},
      {"util.slab.freelist_hit_ratio",
       ratio(static_cast<double>(al.freelist_hits),
             static_cast<double>(al.allocs))},
      {"util.slab.backing_mb", static_cast<double>(al.backing_bytes) / 1e6},
  });
}

// Per-layer host times of the traced run: self time of the driver is its
// run span minus the NodeExec child spans. Under the parallel driver the
// children overlap in time; the busiest thread's child time stands for the
// interval they cover.
void trace_layers(const SpanLog& spans, const TraceLog& tr, std::uint64_t quanta,
                  Sample& s) {
  double run_s = 0, self_s = 0, exec_s = 0, mean_step_s = 0;
  for (const auto& leg : tr.legs) {
    const double leg_s = spans.seconds(leg->span());
    double busiest_calls = 0, busiest_step = 0, sum_step = 0;
    int workers = 0;
    for (const auto& t : leg->threads()) {
      const double st = t->step_ns * 1e-9;
      busiest_calls = std::max(busiest_calls, t->cover_ns * 1e-9);
      busiest_step = std::max(busiest_step, st);
      if (t->steps > 0) {
        sum_step += st;
        ++workers;
      }
    }
    run_s += leg_s;
    self_s += leg_s - busiest_calls;
    exec_s += busiest_step;
    mean_step_s += workers == 0 ? 0.0 : sum_step / workers;
  }
  double step_s = 0, wake_s = 0;
  std::uint64_t queries = 0;
  for (const auto& n : tr.nodes) {
    step_s += n.calls[TimedNode::kStep].est_ns() * 1e-9;
    wake_s += n.calls[TimedNode::kNextWake].est_ns() * 1e-9;
    queries += n.calls[TimedNode::kRunnable].n + n.calls[TimedNode::kNextWake].n;
  }
  const double q = quanta == 0 ? 1.0 : static_cast<double>(quanta);
  s.layers.insert(
      s.layers.end(),
      {{"sim.self_s", self_s},
       {"sim.self_ns_per_quantum", self_s * 1e9 / q},
       {"sim.node_queries_per_quantum", static_cast<double>(queries) / q},
       {"sim.exec_s", exec_s},
       {"sim.overhead_s", run_s - exec_s},
       {"sim.worker_imbalance", mean_step_s == 0 ? 0.0 : exec_s / mean_step_s},
       {"core.step_s", step_s},
       {"core.step_ns_per_quantum", step_s * 1e9 / q},
       {"net.next_wake_s", wake_s}});
}

void write_trace(const std::string& path, const Options& o,
                 const SpanLog& spans, const TraceLog& tr) {
  obs::JsonWriter w(0);
  w.begin_object();
  w.field("schema", "abclbench-spans-v1");
  w.field("clock_read_ns", g_clock_read_ns);
  w.field("run_id", o.workload + "-seed" + std::to_string(o.seed) + "-pid" +
                        std::to_string(static_cast<long long>(getpid())));
  w.key("spans");
  w.begin_array();
  const std::int64_t origin = spans.spans()[0].start_ns;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanLog::Span& s = spans.spans()[i];
    w.begin_object();
    w.field("id", static_cast<std::int64_t>(i));
    w.field("parent", static_cast<std::int64_t>(s.parent));
    w.field("name", s.name);
    w.field("start_ns", s.start_ns - origin);
    w.field("dur_ns", s.end_ns - s.start_ns);
    w.end_object();
  }
  w.end_array();
  // NodeExec call spans, aggregated per (parent run span, node, call).
  w.key("node_calls");
  w.begin_array();
  for (const auto& n : tr.nodes) {
    for (int c = 0; c < TimedNode::kNumCalls; ++c) {
      w.begin_object();
      w.field("parent", static_cast<std::int64_t>(n.parent));
      w.field("node", static_cast<std::int64_t>(n.node));
      w.field("call", TimedNode::kCallNames[c]);
      w.field("count", n.calls[c].n);
      w.field("timed", n.calls[c].timed);
      w.field("timed_ns", n.calls[c].ns);
      w.end_object();
    }
  }
  w.end_array();
  w.key("threads");
  w.begin_array();
  for (const auto& leg : tr.legs) {
    for (std::size_t i = 0; i < leg->threads().size(); ++i) {
      const ThreadTotals& t = *leg->threads()[i];
      w.begin_object();
      w.field("parent", static_cast<std::int64_t>(leg->span()));
      w.field("thread", static_cast<std::int64_t>(i));
      w.field("steps", t.steps);
      w.field("step_ns", t.step_ns);
      w.field("cover_ns", t.cover_ns);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  std::string out = w.take();
  out += '\n';
  if (!obs::write_file(path, out)) {
    std::fprintf(stderr, "abclbench: cannot write %s\n", path.c_str());
  }
}

// --------------------------------------------------------- the workloads ---

// Fig. 5 N-queens. The seed picks the boot node of the root object (and
// with it every placement decision); the solution count never changes.
void run_nqueens(const Options& o, int host_threads, SpanLog& spans,
                 TraceLog* trace, Sample& s) {
  const int nodes = o.size.nq_nodes;
  const int program_span = spans.begin("abcl.program");
  core::Program prog;
  const apps::NQueensProgram np = apps::register_nqueens(prog);
  prog.finalize();
  spans.end(program_span);

  const int ctor_span = spans.begin("abcl.ctor");
  World world(prog, base_config(o, nodes, host_threads));
  spans.end(ctor_span);

  // The boot code of apps::run_nqueens, on the seed's root node.
  const apps::NQueensParams p = apps::NQueensParams::paper_calibrated(o.size.nq_n);
  const auto root_node =
      static_cast<core::NodeId>(splitmix64(o.seed) % static_cast<std::uint64_t>(nodes));
  const int boot_span = spans.begin("abcl.boot");
  MailAddr latch;
  world.boot(root_node, [&](Ctx& ctx) {
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
  spans.end(boot_span);
  s.setup_s = spans.seconds(program_span) + spans.seconds(ctor_span) +
              spans.seconds(boot_span);

  std::uint64_t windows = 0;
  const RunReport rep = run_leg(world, spans, trace, sim::kInstrInf, &windows);
  s.wall_s = spans.total_seconds("sim.run");

  const CompletionLatch& l = latch_state(latch);
  s.expected_result = nqueens_solutions(o.size.nq_n);
  s.result = l.done() ? l.total : -1;
  if (rep.stop_reason != StopReason::kQuiesced) s.errors.push_back("did not quiesce");
  observe(world, rep, windows, s);
}

struct ChurnState {
  MailAddr latch;
  PatternId done = 0;
  std::uint64_t steps = 0;

  void on_create(const Msg& m) {
    latch = m.addr(0);
    done = static_cast<PatternId>(m.at(2));
  }
};

struct KickFrame : Frame {
  Word fuel = 0;
  PatternId pat = 0;
  static void init(KickFrame& f, const Msg& m) {
    f.fuel = m.at(0);
    f.pat = m.pattern;
  }
  static Status run(Ctx& ctx, ChurnState& self, KickFrame& f) {
    self.steps += 1;
    ctx.charge(200);
    if (f.fuel > 0) {
      Word arg = f.fuel - 1;
      ctx.send_past(ctx.self_addr(), f.pat, &arg, 1);
    } else {
      Word steps = self.steps;
      ctx.send_past(self.latch, self.done, &steps, 1);
    }
    return Status::kDone;
  }
};

// Migratable actors, all born on one hot node, each running a self-send
// chain under a seeded fault plan and the work-shedding balancer; one
// in-memory checkpoint at mid-run, then destroy, restore and finish. The
// reference is the same world run uninterrupted without the checkpoint.
void run_churn(const Options& o, SpanLog& spans, TraceLog* trace, Sample& s) {
  const Sizes& z = o.size;
  const int program_span = spans.begin("abcl.program");
  core::Program prog;
  const CompletionPatterns lp = register_completion_latch(prog);
  const PatternId kick = prog.patterns().intern("churn.kick", 1);
  ClassDef<ChurnState> def(prog, "Churn");
  def.migratable();
  def.method<KickFrame>(kick);
  prog.finalize();
  spans.end(program_span);

  std::string err;
  const std::string seed = std::to_string(o.seed);
  std::optional<net::FaultConfig> faults =
      net::parse_fault_spec(("drop=0.05,dup=0.02,seed=" + seed).c_str(), &err);
  std::optional<remote::MigrationConfig> mig = remote::parse_migration_spec(
      ("interval=8,hysteresis=2,max_batch=4,min_queue=6,seed=" + seed).c_str(),
      &err);
  if (!faults || !mig) {
    s.errors.push_back("churn config: " + err);
    return;
  }
  WorldConfig cfg =
      base_config(o, z.churn_nodes, -1).with_faults(*faults).with_migration(*mig);
  if (!o.reference) {
    ckpt::CheckpointConfig ck;
    ck.enabled = true;
    ck.at = o.ckpt_at;
    cfg.with_ckpt(ck);
  }

  const int ctor_span = spans.begin("abcl.ctor");
  auto world = std::make_unique<World>(prog, cfg);
  spans.end(ctor_span);

  const auto hot = static_cast<core::NodeId>(
      splitmix64(o.seed ^ 0x636875726e) % static_cast<std::uint64_t>(z.churn_nodes));
  const int boot_span = spans.begin("abcl.boot");
  MailAddr latch;
  world->boot(hot, [&](Ctx& ctx) {
    latch = ctx.create_local(*lp.cls, {});
    ctx.send_past(latch, lp.expect, {static_cast<Word>(z.churn_actors)});
    Word args[3] = {latch.word_node(), latch.word_ptr(), lp.done};
    for (int i = 0; i < z.churn_actors; ++i) {
      MailAddr a = ctx.create_local(def.info(), args, 3);
      ctx.send_past(a, kick, {z.churn_fuel});
    }
  });
  spans.end(boot_span);
  s.setup_s = spans.seconds(program_span) + spans.seconds(ctor_span) +
              spans.seconds(boot_span);

  std::uint64_t windows = 0;
  const std::int64_t t0 = now_ns();
  RunReport rep;
  if (o.reference) {
    rep = run_leg(*world, spans, trace, sim::kInstrInf, &windows);
  } else {
    const RunReport first = run_leg(*world, spans, trace, o.ckpt_at, &windows);
    if (first.stop_reason == StopReason::kQuiesced) {
      s.errors.push_back("churn quiesced before the checkpoint boundary");
    }
    const int cap_span = spans.begin("ckpt.capture");
    ckpt::MemSink sink;
    world->checkpoint(sink);
    spans.end(cap_span);
    const std::size_t snapshot_bytes = sink.bytes().size();

    // Restore re-maps the node arenas at their recorded bases, so the
    // checkpointed world must be gone first.
    const int restore_span = spans.begin("ckpt.restore");
    world.reset();
    ckpt::MemSource src(sink.take());
    world = World::restore(prog, src, -1);
    spans.end(restore_span);

    rep = run_leg(*world, spans, trace, sim::kInstrInf, &windows);
    rep.quanta += first.quanta;
    s.snapshot_mb = static_cast<double>(snapshot_bytes) / 1e6;
  }
  s.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

  const CompletionLatch& l = latch_state(latch);
  s.expected_result = static_cast<std::int64_t>(z.churn_actors) *
                      static_cast<std::int64_t>(z.churn_fuel + 1);
  s.result = l.done() && l.received == z.churn_actors ? l.total : -1;
  if (rep.stop_reason != StopReason::kQuiesced) s.errors.push_back("did not quiesce");
  observe(*world, rep, windows, s);
}

// ------------------------------------------------------------------ main ---

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "abclbench: %s\nusage: abclbench --workload "
               "nqueens|nqueens-1t|nqueens-2t|churn --seed N "
               "[--size full|tiny] "
               "[--reference] [--ckpt-at T] [--trace FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || *s == '-') usage(what);
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = parse_u64(next(), "--seed needs a decimal integer");
    } else if (a == "--size") {
      o.size_name = next();
      if (o.size_name == "full") {
        o.size = kFull;
      } else if (o.size_name == "tiny") {
        o.size = kTiny;
      } else {
        usage("--size must be full or tiny");
      }
    } else if (a == "--reference") {
      o.reference = true;
    } else if (a == "--ckpt-at") {
      o.ckpt_at = parse_u64(next(), "--ckpt-at needs a decimal integer");
    } else if (a == "--trace") {
      o.trace_path = next();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "nqueens" && o.workload != "nqueens-1t" &&
      o.workload != "nqueens-2t" && o.workload != "churn") {
    usage("--workload must be nqueens, nqueens-1t, nqueens-2t or churn");
  }
  if (o.workload == "churn" && !o.reference && o.ckpt_at == 0) {
    usage("churn samples need --ckpt-at (half the reference's sim_time)");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Every WorldConfig knob is set explicitly and from_env() is never
  // called; a set ABCLSIM_* variable is still refused, so that no result is
  // ever taken while one is in the environment.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ABCLSIM_", 8) == 0) {
      std::fprintf(stderr, "abclbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  const Options o = parse(argc, argv);
  const bool traced = !o.trace_path.empty();

  if (traced) calibrate_clock_read();
  SpanLog spans;
  TraceLog trace;
  Sample s;
  // ParallelMachine with 1 or 2 host worker threads; the reference of
  // every N-queens workload is the serial run of the same seed.
  int host_threads = -1;
  if (!o.reference && o.workload == "nqueens-1t") host_threads = 1;
  if (!o.reference && o.workload == "nqueens-2t") host_threads = 2;
  if (o.workload == "churn") {
    run_churn(o, spans, traced ? &trace : nullptr, s);
  } else {
    run_nqueens(o, host_threads, spans, traced ? &trace : nullptr, s);
  }
  spans.finish();
  if (s.result != s.expected_result) {
    s.errors.push_back("result " + std::to_string(s.result) + " != expected " +
                       std::to_string(s.expected_result));
  }

  const double ctor_s = spans.total_seconds("abcl.ctor");
  const double boot_s = spans.total_seconds("abcl.boot");
  s.layers.insert(s.layers.end(),
                  {{"abcl.ctor_s", ctor_s},
                   {"abcl.boot_s", boot_s},
                   {"ckpt.capture_s", spans.total_seconds("ckpt.capture")},
                   {"ckpt.restore_s", spans.total_seconds("ckpt.restore")},
                   {"ckpt.snapshot_mb", s.snapshot_mb}});
  if (traced) {
    trace_layers(spans, trace, s.quanta, s);
    write_trace(o.trace_path, o, spans, trace);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;

  obs::JsonWriter w(0);
  w.begin_object();
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("size", o.size_name);
  w.field("reference", o.reference);
  w.field("traced", traced);
  w.field("build_type", ABCLBENCH_BUILD_TYPE);
  w.field("cxx_flags", ABCLBENCH_CXX_FLAGS);
  w.field("compiler", ABCLBENCH_COMPILER);
  w.field("ok", s.errors.empty());
  w.key("errors");
  w.begin_array();
  for (const std::string& e : s.errors) w.value(e);
  w.end_array();
  w.field("result", s.result);
  w.field("expected_result", s.expected_result);
  w.field("digest", s.digest);
  w.field("sim_time", s.sim_time);
  w.field("wall_s", s.wall_s);
  w.field("setup_s", s.setup_s);
  w.field("messages", s.messages);
  w.field("heap_mb", s.heap_mb);
  w.field("peak_rss_mb", peak_rss_mb);
  w.key("observed");
  w.begin_object();
  for (const auto& [k, v] : s.observed) w.field(k, v);
  w.end_object();
  w.key("layers");
  w.begin_object();
  for (const auto& [k, v] : s.layers) w.field(k, v);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return s.errors.empty() ? 0 : 1;
}
