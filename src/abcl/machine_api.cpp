#include "abcl/machine_api.hpp"

#include <cstdlib>
#include <string>

#include "sim/parallel_machine.hpp"
#include "util/assert.hpp"

namespace abcl {

namespace {

// WorldConfig.host_threads == 0 defers to the environment so any existing
// binary can be parallelized without a rebuild: ABCLSIM_HOST_THREADS=8.
int resolve_host_threads(int configured) {
  if (configured != 0) return configured;
  std::string err;
  std::optional<int> v =
      parse_host_threads(std::getenv("ABCLSIM_HOST_THREADS"), &err);
  ABCL_CHECK_MSG(v.has_value(), err.c_str());
  return *v;
}

}  // namespace

WorldConfig WorldConfig::from_env() {
  WorldConfig cfg;
  std::string err;
  std::optional<int> threads =
      parse_host_threads(std::getenv("ABCLSIM_HOST_THREADS"), &err);
  ABCL_CHECK_MSG(threads.has_value(), err.c_str());
  // Record the resolved decision: -1 forces serial, so constructing a World
  // from this config later never re-reads the environment.
  cfg.host_threads = *threads == 0 ? -1 : *threads;
  err.clear();
  std::optional<net::FaultConfig> faults =
      net::parse_fault_spec(std::getenv("ABCLSIM_FAULTS"), &err);
  ABCL_CHECK_MSG(faults.has_value(), ("ABCLSIM_FAULTS " + err).c_str());
  cfg.faults = *faults;
  err.clear();
  std::optional<remote::MigrationConfig> mig =
      remote::parse_migration_spec(std::getenv("ABCLSIM_MIGRATION"), &err);
  ABCL_CHECK_MSG(mig.has_value(), ("ABCLSIM_MIGRATION " + err).c_str());
  cfg.migration = *mig;
  err.clear();
  std::optional<ckpt::CheckpointConfig> ck =
      ckpt::parse_checkpoint_spec(std::getenv("ABCLSIM_CHECKPOINT"), &err);
  ABCL_CHECK_MSG(ck.has_value(), ("ABCLSIM_CHECKPOINT " + err).c_str());
  cfg.ckpt = *ck;
  return cfg;
}

WorldConfig& WorldConfig::with_pooling(bool on) {
  ABCL_CHECK_MSG(on,
                 "with_pooling(false): the unpooled allocation mode was "
                 "removed; every node heap and packet buffer is slab-pooled");
  return *this;
}

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kQuiesced: return "quiesced";
    case StopReason::kMaxTime: return "max_time";
    case StopReason::kCheckpointRequested: return "checkpoint_requested";
  }
  return "?";
}

std::optional<int> parse_host_threads(const char* text, std::string* err) {
  if (text == nullptr || *text == '\0') return 0;  // unset: serial driver
  const std::string raw = text;
  std::size_t b = raw.find_first_not_of(" \t");
  std::size_t e = raw.find_last_not_of(" \t");
  auto fail = [&](const char* why) -> std::optional<int> {
    if (err != nullptr) {
      *err = "ABCLSIM_HOST_THREADS=\"" + raw + "\": " + why +
             " (expected an integer in [1, 1024], or unset for the serial "
             "driver)";
    }
    return std::nullopt;
  };
  if (b == std::string::npos) return fail("value is blank");
  const std::string s = raw.substr(b, e - b + 1);
  // atoi-style silent fallback hid typos ("8x", "eight") as thread-count 0;
  // anything but a plain positive decimal is now an error.
  if (s[0] == '-') return fail("thread count cannot be negative");
  long v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return fail("not a decimal integer");
    v = v * 10 + (ch - '0');
    if (v > 1024) return fail("thread count is implausibly large");
  }
  if (v == 0) return fail("thread count must be at least 1");
  return static_cast<int>(v);
}

World::World(core::Program& prog, WorldConfig cfg) : cfg_(cfg), prog_(&prog) {
  ABCL_CHECK_MSG(prog.finalized(), "finalize the Program before building a World");
  ABCL_CHECK(cfg_.nodes >= 1);

  net_ = std::make_unique<net::Network>(
      net::Topology(cfg_.topology, cfg_.nodes), &cfg_.cost,
      std::function<void(core::NodeId)>{}, cfg_.faults);

  {
    std::string merr;
    ABCL_CHECK_MSG(remote::validate_migration_config(cfg_.migration, &merr),
                   merr.c_str());
    ABCL_CHECK_MSG(ckpt::validate_checkpoint_config(cfg_.ckpt, &merr),
                   merr.c_str());
  }

  nodes_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (std::int32_t i = 0; i < cfg_.nodes; ++i) {
    // Checkpointable worlds pin every node heap at a fixed virtual base so
    // a snapshot can be restored address-faithfully (util/arena.hpp).
    add_node(cfg_.ckpt.enabled, cfg_.node.arena_base);
  }

  build_machine();
}

core::NodeRuntime& World::add_node(bool reserved_arena,
                                   std::uint64_t arena_base) {
  core::NodeRuntime::Config nc = cfg_.node;
  nc.seed = cfg_.seed;
  nc.migration = cfg_.migration;
  // The shed policy is blind without load figures: when the app enabled
  // migration but left gossip off, gossip runs at the shed interval.
  if (nc.migration.enabled && nc.gossip_interval == 0) {
    nc.gossip_interval = nc.migration.interval;
  }
  nc.reserved_arena = reserved_arena;
  nc.arena_base = arena_base;
  const auto id = static_cast<core::NodeId>(nodes_.size());
  nodes_.push_back(
      std::make_unique<core::NodeRuntime>(id, *prog_, *net_, cfg_.cost, nc));
  nodes_.back()->placement().set_kind(cfg_.placement);
  return *nodes_.back();
}

void World::build_machine() {
  std::vector<sim::NodeExec*> execs;
  execs.reserve(nodes_.size());
  for (auto& n : nodes_) execs.push_back(n.get());

  int threads = resolve_host_threads(cfg_.host_threads);
  if (threads >= 1) {
    machine_ = std::make_unique<sim::ParallelMachine>(std::move(execs),
                                                      net_.get(), threads);
    host_threads_ = threads;
  } else {
    machine_ = std::make_unique<sim::Machine>(std::move(execs));
    host_threads_ = 1;
  }

  net_->set_on_deliverable(
      [m = machine_.get()](core::NodeId dst) { m->notify_work(dst); });
}

bool World::work_remaining() const {
  if (net_->in_flight() > 0) return true;
  for (const auto& n : nodes_) {
    if (n->runnable()) return true;
  }
  return false;
}

void World::boot(core::NodeId id,
                 const std::function<void(core::NodeRuntime&)>& fn) {
  ABCL_CHECK(id >= 0 && id < cfg_.nodes);
  node(id).boot(fn);
}

RunReport World::run(sim::Instr max_time) {
  // A pending checkpoint boundary strictly before the caller's horizon
  // shortens the first driver leg; the snapshot fires once, then later
  // run() calls proceed to the caller's own limit (drivers are resumable).
  const ckpt::CheckpointConfig& ck = cfg_.ckpt;
  const bool stop_for_ckpt = ck.enabled && !ckpt_taken_ && ck.at < max_time;
  sim::Driver::RunReport r = machine_->run(stop_for_ckpt ? ck.at : max_time);
  quanta_total_ += r.quanta;

  RunReport out;
  out.quanta = r.quanta;

  bool at_ckpt_boundary = false;
  if (stop_for_ckpt) {
    ckpt_taken_ = true;
    if (ck.path.empty()) {
      // Caller-driven capture: hand control back at the boundary.
      at_ckpt_boundary = true;
    } else {
      // File checkpoints are fire-and-forget: write the snapshot at the
      // boundary, then resume to the caller's horizon inside this same
      // call — so ABCLSIM_CHECKPOINT=at=T,path=F is transparent to
      // checkpoint-unaware programs (identical results, plus a snapshot).
      ckpt::FileSink sink(ck.path);
      checkpoint(sink);
      r = machine_->run(max_time);
      quanta_total_ += r.quanta;
      out.quanta += r.quanta;
    }
  }

  out.sim_time = r.end_time;
  out.sim_ms = cfg_.cost.ms(r.end_time);
  if (at_ckpt_boundary) {
    out.stop_reason = work_remaining() ? StopReason::kCheckpointRequested
                                       : StopReason::kQuiesced;
  } else {
    out.stop_reason =
        work_remaining() ? StopReason::kMaxTime : StopReason::kQuiesced;
  }
  return out;
}

void World::seed_stocks(const core::ClassInfo& cls, int depth) {
  for (auto& consumer : nodes_) {
    for (auto& producer : nodes_) {
      if (consumer.get() == producer.get()) continue;
      consumer->seed_stock_from(*producer, cls, depth);
    }
  }
}

void World::attach_tracer(sim::Tracer* tracer) {
  for (auto& n : nodes_) n->set_tracer(tracer);
}

util::Table World::utilization_table() const {
  util::Table t({"Node", "Busy (instr)", "Idle (instr)", "Utilization",
                 "Objects created", "Sched dispatches"});
  for (const auto& n : nodes_) {
    const core::NodeStats& s = n->stats();
    // busy + idle is 0 for a node that never ran a quantum (zero-quantum
    // run, or a report taken before any run()): report 0% rather than
    // dividing by zero.
    sim::Instr total = s.busy_instr + s.idle_instr;
    double util = total == 0 ? 0.0
                             : static_cast<double>(s.busy_instr) /
                                   static_cast<double>(total);
    t.add_row({std::to_string(n->node_id()), util::Table::num(s.busy_instr),
               util::Table::num(s.idle_instr),
               util::Table::num(util * 100.0, 1) + "%",
               util::Table::num(n->total_created()),
               util::Table::num(s.sched_dispatches)});
  }
  return t;
}

double World::mean_utilization() const {
  sim::Instr end = max_clock();
  if (end == 0) return 0.0;
  double sum = 0;
  for (const auto& n : nodes_) {
    sum += static_cast<double>(n->stats().busy_instr) / static_cast<double>(end);
  }
  return sum / static_cast<double>(nodes_.size());
}

core::NodeStats World::total_stats() const {
  core::NodeStats total;
  for (const auto& n : nodes_) total.merge(n->stats());
  return total;
}

util::SlabAllocator::Stats World::total_alloc_stats() const {
  util::SlabAllocator::Stats total;
  for (const auto& n : nodes_) total.merge(n->alloc_stats());
  return total;
}

std::size_t World::total_live_objects() const {
  std::size_t t = 0;
  for (const auto& n : nodes_) t += n->live_objects();
  return t;
}

std::uint64_t World::total_created_objects() const {
  std::uint64_t t = 0;
  for (const auto& n : nodes_) t += n->total_created();
  return t;
}

std::size_t World::total_heap_bytes() const {
  std::size_t t = 0;
  for (const auto& n : nodes_) t += n->heap_bytes();
  return t;
}

sim::Instr World::max_clock() const {
  sim::Instr t = 0;
  for (const auto& n : nodes_) {
    if (n->clock() > t) t = n->clock();
  }
  return t;
}

}  // namespace abcl
