// World: the whole simulated multicomputer behind one facade.
//
// Owns the network, one NodeRuntime per node and the PDES driver; provides
// bootstrapping, the run-to-quiescence loop, chunk-stock seeding and
// aggregate reporting. A World is built from a finalized Program and a
// WorldConfig; everything is deterministic given (program, config).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "core/node_runtime.hpp"
#include "net/network.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "util/table.hpp"

namespace abcl::ckpt {
struct WorldIo;
}

namespace abcl {

// World construction parameters. Preferred style is the fluent builder —
//   World w(prog, WorldConfig::from_env().with_nodes(64).with_seed(7));
// — with from_env() as the single place environment variables are read.
// Plain aggregate initialization (`WorldConfig cfg; cfg.nodes = 64;`) keeps
// working but is deprecated for new code; see API.md.
struct WorldConfig {
  std::int32_t nodes = 1;
  net::TopologyKind topology = net::TopologyKind::kTorus2D;
  sim::CostModel cost = sim::CostModel::ap1000();
  core::NodeRuntime::Config node;
  remote::PlacementKind placement = remote::PlacementKind::kRoundRobin;
  std::uint64_t seed = 1;
  // Host worker threads for the simulation driver. 0 = consult the
  // ABCLSIM_HOST_THREADS environment variable (unset/empty -> serial
  // Machine; otherwise a strictly validated integer in [1, 1024]);
  // >= 1 = host-parallel ParallelMachine with that many workers;
  // < 0 = force the serial Machine regardless of the environment. Results
  // are bit-identical across all settings.
  int host_threads = 0;
  // No-op, kept so older callers compile: every time queue is now one
  // binary heap (util/min_heap.hpp), and nothing reads this field.
  util::QueueKind queue = util::QueueKind::kBucket;
  // No-op, kept so older callers compile: the host-parallel driver always
  // merges the workers' pre-sorted outboxes, and nothing reads this field.
  net::FlushKind flush = net::FlushKind::kMerge;
  // No-op, kept so older callers compile: the host-parallel driver always
  // runs the flat global window, and nothing reads this field.
  sim::HorizonKind horizon = sim::HorizonKind::kGlobal;
  // No-op, kept so older callers compile: the host-parallel driver always
  // assigns node i to worker i mod T, and nothing reads this field.
  sim::ShardKind shard = sim::ShardKind::kStatic;
  // Deterministic network fault injection (drop/dup/delay/blackout) plus
  // the delivery-hardening protocol; see net/fault.hpp. Disabled by default
  // — a faults-off World is byte-identical to one built before this knob
  // existed. Set via with_faults(), or ABCLSIM_FAULTS through from_env().
  net::FaultConfig faults;
  // Live object migration + deterministic work shedding; see
  // remote/migration.hpp. Disabled by default — a migration-off World is
  // byte-identical to one built before this knob existed. Set via
  // with_migration(), or ABCLSIM_MIGRATION through from_env(). When enabled
  // and gossip is off, World auto-enables gossip at the shed interval (the
  // policy needs neighbour loads).
  remote::MigrationConfig migration;
  // Deterministic checkpoint capture; see ckpt/snapshot.hpp. Disabled by
  // default. When enabled with a `path`, run() writes the snapshot file at
  // the `at` boundary and resumes in the same call (fire-and-forget:
  // transparent to checkpoint-unaware programs). With an empty `path`,
  // run() hands control back at the boundary with
  // StopReason::kCheckpointRequested so the caller captures via
  // World::checkpoint. Either way node heaps are placed in fixed-base
  // reserved arenas so a restored world is address-faithful. Set via
  // with_ckpt(), or ABCLSIM_CHECKPOINT through from_env().
  ckpt::CheckpointConfig ckpt;

  // Builds a config with every environment-controlled knob resolved here,
  // once, strictly: ABCLSIM_HOST_THREADS (see parse_host_threads; unset ->
  // serial, recorded as host_threads = -1 so the result never re-consults
  // the environment), ABCLSIM_FAULTS (unset or "off" -> no faults;
  // otherwise a strict net::parse_fault_spec string like
  // "drop=0.05,dup=0.01,seed=7"), ABCLSIM_MIGRATION (unset or "off" -> no
  // migration; otherwise a strict remote::parse_migration_spec string like
  // "interval=32,hysteresis=2,seed=7") and ABCLSIM_CHECKPOINT (unset or
  // "off" -> no checkpoint; otherwise a ckpt::parse_checkpoint_spec string
  // like "at=1000,path=snap.bin"); anything else aborts. New environment
  // knobs must be absorbed here, not scattered.
  static WorldConfig from_env();

  // Fluent setters, chainable from from_env() or a default-constructed
  // config.
  WorldConfig& with_nodes(std::int32_t n) { nodes = n; return *this; }
  WorldConfig& with_topology(net::TopologyKind k) { topology = k; return *this; }
  WorldConfig& with_cost(const sim::CostModel& c) { cost = c; return *this; }
  WorldConfig& with_node(const core::NodeRuntime::Config& nc) {
    node = nc;
    return *this;
  }
  WorldConfig& with_placement(remote::PlacementKind p) {
    placement = p;
    return *this;
  }
  WorldConfig& with_seed(std::uint64_t s) { seed = s; return *this; }
  WorldConfig& with_host_threads(int t) { host_threads = t; return *this; }
  // Kept so older callers compile: every node heap and packet buffer is
  // slab-pooled, so `true` is a no-op and `false` aborts.
  WorldConfig& with_pooling(bool on);
  // No-op shims: see `queue`, `flush`, `horizon` and `shard`.
  WorldConfig& with_queue(util::QueueKind q) { queue = q; return *this; }
  WorldConfig& with_flush(net::FlushKind f) { flush = f; return *this; }
  WorldConfig& with_horizon(sim::HorizonKind h) { horizon = h; return *this; }
  WorldConfig& with_shard(sim::ShardKind s) { shard = s; return *this; }
  WorldConfig& with_faults(const net::FaultConfig& f) {
    faults = f;
    return *this;
  }
  WorldConfig& with_migration(const remote::MigrationConfig& m) {
    migration = m;
    return *this;
  }
  WorldConfig& with_ckpt(const ckpt::CheckpointConfig& c) {
    ckpt = c;
    return *this;
  }
};

// Strict parser behind ABCLSIM_HOST_THREADS. nullptr/empty -> 0 (serial);
// a decimal integer in [1, 1024] (surrounding blanks allowed) -> that
// count; anything else -> nullopt with a diagnostic in *err. Garbage never
// falls back silently: a typo in the variable aborts World construction
// instead of quietly running serial.
std::optional<int> parse_host_threads(const char* text, std::string* err);

// Why a run() call returned: the world drained (quiesced), the caller's
// max_time arrived with work still pending, or the configured caller-driven
// checkpoint boundary stopped it (work still pending — capture with
// World::checkpoint, then resume with another run(), or restore elsewhere;
// path-configured file checkpoints resume internally and never surface
// this reason).
enum class StopReason { kQuiesced, kMaxTime, kCheckpointRequested };

const char* to_string(StopReason r);

struct RunReport {
  sim::Instr sim_time = 0;       // end-of-run instant (max node clock)
  std::uint64_t quanta = 0;      // scheduling quanta executed
  double sim_ms = 0.0;           // sim_time at the model's clock rate
  StopReason stop_reason = StopReason::kQuiesced;
};

class World {
 public:
  World(core::Program& prog, WorldConfig cfg);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::int32_t num_nodes() const { return cfg_.nodes; }
  core::NodeRuntime& node(core::NodeId id) {
    return *nodes_[static_cast<std::size_t>(id)];
  }
  const core::NodeRuntime& node(core::NodeId id) const {
    return *nodes_[static_cast<std::size_t>(id)];
  }
  net::Network& network() { return *net_; }
  const net::Network& network() const { return *net_; }
  sim::Driver& machine() { return *machine_; }
  const WorldConfig& config() const { return cfg_; }
  // Host worker threads actually driving the simulation (1 = serial).
  int host_threads() const { return host_threads_; }

  // Runs `fn` as bootstrap code on `node` (typically: create the root
  // objects and send the first messages).
  void boot(core::NodeId id, const std::function<void(core::NodeRuntime&)>& fn);

  // Runs the machine to quiescence (all nodes idle, no packets in flight).
  RunReport run(sim::Instr max_time = sim::kInstrInf);

  // Pre-delivers `depth` chunks of `cls`'s size class from every node into
  // every other node's stock (warm start for creation-heavy workloads).
  void seed_stocks(const core::ClassInfo& cls, int depth);

  // Attaches an execution tracer to every node (nullptr detaches), sizing
  // one lane per node (sim/trace.hpp) before any run.
  void attach_tracer(sim::Tracer* tracer);

  // Serializes the whole world into `sink` (see ckpt/snapshot.hpp for the
  // format and its same-process contract). Only legal between run() calls —
  // a quantum boundary — and only on a world built with checkpointing
  // enabled (reserved arenas).
  void checkpoint(ckpt::Sink& sink) const;

  // Rebuilds a world from a snapshot taken by checkpoint(). `prog` must be
  // the same finalized Program the snapshot was captured under (validated
  // via a fingerprint). The checkpointed world must have been destroyed
  // first: restore re-maps the node arenas at their original fixed bases.
  // host_threads_override: 0 = keep the snapshot's driver configuration;
  // otherwise same semantics as WorldConfig::host_threads (results are
  // bit-identical either way).
  static std::unique_ptr<World> restore(core::Program& prog,
                                        ckpt::Source& src,
                                        int host_threads_override = 0);

  // Quanta executed before the snapshot this world was restored from (0 for
  // a world built normally). run() reports only quanta it ran itself;
  // resumed_quanta() + sum of reports = the uninterrupted run's quanta.
  std::uint64_t resumed_quanta() const { return resumed_quanta_; }

  // True while any node is runnable or any packet is in flight — i.e. a
  // further run() would make progress.
  bool work_remaining() const;

  // Per-node utilization summary (busy vs idle instructions) as a printable
  // table, plus machine-wide figures — useful after any run.
  util::Table utilization_table() const;
  double mean_utilization() const;

  // Aggregates across nodes.
  core::NodeStats total_stats() const;
  util::SlabAllocator::Stats total_alloc_stats() const;
  std::size_t total_live_objects() const;
  std::uint64_t total_created_objects() const;
  std::size_t total_heap_bytes() const;
  sim::Instr max_clock() const;

 private:
  friend struct ckpt::WorldIo;

  // Restore path: members are filled in by ckpt::WorldIo, not the normal
  // constructor.
  struct RestoreTag {};
  World(RestoreTag, core::Program& prog) : prog_(&prog) {}

  // Builds the next node from cfg_ and appends it: cfg_.node plus the world
  // seed and migration config, with gossip at the shed interval when
  // migration is on and gossip was left off, placing by cfg_.placement.
  // `reserved_arena` pins its heap at `arena_base` (util/arena.hpp). Shared
  // by the constructor and restore.
  core::NodeRuntime& add_node(bool reserved_arena, std::uint64_t arena_base);

  // (Re)builds the driver from cfg_.host_threads and wires the network's
  // deliverable callback to it. Shared by the constructor and restore.
  void build_machine();

  WorldConfig cfg_;
  core::Program* prog_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<core::NodeRuntime>> nodes_;
  std::unique_ptr<sim::Driver> machine_;
  int host_threads_ = 1;
  std::uint64_t quanta_total_ = 0;    // cumulative across run() calls
  std::uint64_t resumed_quanta_ = 0;  // quanta before the restored snapshot
  bool ckpt_taken_ = false;           // the cfg_.ckpt boundary already fired
};

}  // namespace abcl
