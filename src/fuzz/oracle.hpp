// Differential + metamorphic oracle.
//
// The repo's determinism contract says a program's observable behavior is a
// pure function of (program, config) — independent of the host driver. The
// oracle turns that into a checked property per fuzz Spec:
//
//  1. Differential: run the Spec under the serial Machine and under
//     ParallelMachine at 1/2/8 workers; the metrics_json snapshot must be
//     byte-identical and the trace fingerprint (each node's events hashed
//     in record order, the lanes folded in node order) must match exactly,
//     along with sim time, quanta, per-node flow counters, network totals
//     and the created-object count.
//
//  2. Invariants (any single run): the completion latch reports every boot
//     chain done; message conservation (steps run == steps sent + boots,
//     asks made == asks answered, tokens requested == emitted ==
//     consumed + stray, creations begun == finished); created objects ==
//     statics + latch + finished creations; and at quiescence no static
//     object is left in waiting mode or with a non-empty queue (probed at
//     its current home, following forwarding stubs). With a migration
//     block, migrations out == in and buffered/held mail is fully flushed.
//
//  3. Metamorphic: scaling the network cost model (wire latency x4,
//     per-hop x2) must not change any flow-determined counter — the
//     message *multiset* is schedule-independent even though interleavings,
//     reply values and the got/stray token split are not — and must not
//     shorten the simulated completion time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/interp.hpp"
#include "sim/cost_model.hpp"
#include "sim/trace.hpp"

namespace abcl::fuzz {

// Order-sensitive fingerprint of the trace stream, one hash lane per node.
// Each node folds its events into its own lane in record order, so under
// either driver a lane is written only by the thread that runs its node
// (attaching sizes the lanes, see sim/trace.hpp); hash() folds the lanes in
// node order.
class HashTracer final : public sim::Tracer {
 public:
  static constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;
  // Cache-line aligned: nodes on different host threads hash into
  // neighbouring lanes.
  struct alignas(64) Lane {
    std::uint64_t h = kSeed;
    std::uint64_t n = 0;
  };

  void size_lanes(std::size_t nodes) override {
    if (lanes_.size() < nodes) lanes_.resize(nodes);
  }

  void record(sim::Instr t, sim::NodeId node, sim::TraceEv kind,
              std::uint64_t payload) override {
    const auto i = static_cast<std::size_t>(node);
    if (i >= lanes_.size()) lanes_.resize(i + 1);
    Lane& l = lanes_[i];
    std::uint64_t x = l.h;
    x = mix(x ^ static_cast<std::uint64_t>(t));
    x = mix(x ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
                 << 8) ^
            static_cast<std::uint64_t>(kind));
    x = mix(x ^ payload);
    l.h = x;
    ++l.n;
  }

  // Lanes that recorded nothing do not contribute.
  std::uint64_t hash() const {
    std::uint64_t x = kSeed;
    for (const Lane& l : lanes_) {
      if (l.n != 0) x = mix(x ^ l.h);
    }
    return x;
  }
  std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const Lane& l : lanes_) n += l.n;
    return n;
  }

  // Crash-recovery support: the fingerprint state is one small lane per
  // node, so a harness can save it alongside a world checkpoint and roll
  // back to it, discarding the events of a crashed (to-be-replayed)
  // segment.
  using State = std::vector<Lane>;
  State state() const { return lanes_; }
  void restore_state(const State& s) { lanes_ = s; }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::vector<Lane> lanes_;
};

// Everything observable about one run of a Spec.
struct RunResult {
  std::string metrics_json;
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t sim_time = 0;
  std::uint64_t quanta = 0;
  std::vector<Counters> per_node;
  Counters total;
  std::uint64_t packets = 0;
  std::uint64_t wire_words = 0;
  std::uint64_t per_category[4] = {};
  std::uint64_t created = 0;
  std::int64_t latch_received = 0;
  std::int64_t latch_total = 0;
  bool latch_done = false;
  std::uint64_t waiting_objects = 0;
  std::uint64_t queued_msgs = 0;
  // Fault-layer accounting (all zero when the Spec carries no faults block).
  // check_invariants turns these into an exactly-once-delivery proof:
  // every logical packet is dispatched once, every extra copy suppressed.
  std::uint64_t fault_attempts = 0;
  std::uint64_t fault_drops = 0;  // drop-hash + blackout losses combined
  std::uint64_t fault_duplicates = 0;
  std::uint64_t fault_copies = 0;
  std::uint64_t fault_delivered = 0;
  std::uint64_t fault_dup_suppressed = 0;
  std::uint64_t fault_forced = 0;
  // Migration-layer accounting (all zero when the Spec carries no migration
  // block). check_invariants turns migrations_out == migrations_in into a
  // conservation proof: every shipped object is installed at exactly one
  // new home, and (with the step/ask/token identities above, which count
  // dispatches at whatever home the message lands on) every message is
  // dispatched exactly once even while its target moves.
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migration_mail = 0;
  std::uint64_t migration_forwards = 0;
  std::uint64_t migration_updates = 0;
  std::uint64_t migration_holds = 0;
};

RunResult run_spec(const Spec& spec, int host_threads,
                   const sim::CostModel& cost = sim::CostModel::ap1000());

// Snapshot-equivalence drill: run `spec` to the quantum boundary at `at`,
// serialize the whole world into memory, destroy it, restore it (under
// `restore_host_threads` if nonzero — 0 keeps the snapshot's driver) and
// run the restored world to quiescence, all under one trace fingerprint.
// The result must be byte-identical to run_spec with the same arguments;
// check_spec_checkpoint turns that into a checked property.
RunResult run_spec_with_checkpoint(
    const Spec& spec, int host_threads, std::uint64_t at,
    int restore_host_threads = 0,
    const sim::CostModel& cost = sim::CostModel::ap1000());

// Crash-recovery drill: checkpoint at `at`, keep running toward the later
// simulated instant `crash_at`, then "crash" — destroy the world, roll the
// app-side counters and the trace fingerprint back to their
// checkpoint-time copies, restore from the snapshot and run to quiescence.
// Deterministic replay makes the recovered run byte-identical to an
// uninterrupted one.
RunResult run_spec_with_crash(
    const Spec& spec, int host_threads, std::uint64_t at,
    std::uint64_t crash_at,
    const sim::CostModel& cost = sim::CostModel::ap1000());

struct OracleOptions {
  std::vector<int> thread_counts = {1, 2, 8};
  bool metamorphic = true;
};

struct OracleResult {
  bool ok = true;
  std::string failure;  // first failed check, human-readable
  RunResult serial;
};

// Runs the full oracle on `spec`. Also usable as the shrinker's
// still-failing predicate via !check_spec(spec).ok.
OracleResult check_spec(const Spec& spec, const OracleOptions& opts = {});

struct CheckpointOracleOptions {
  std::vector<int> thread_counts = {1, 2, 8};
  // Simulated boundary to checkpoint at; 0 = halfway through the baseline
  // run (derived from its sim_time, so it always lands mid-workload).
  std::uint64_t at = 0;
  // Simulated instant of the simulated crash; 0 = halfway between the
  // checkpoint and the baseline's quiescence.
  std::uint64_t crash_at = 0;
};

// Snapshot-equivalence oracle: the uninterrupted serial run is the
// baseline; a checkpoint+restore run under the serial machine and under
// each thread count, a cross-driver run (checkpointed serial, restored
// host-parallel), and a crash-recovery run must all match it
// byte-for-byte (same checks as check_spec's differential pass).
OracleResult check_spec_checkpoint(const Spec& spec,
                                   const CheckpointOracleOptions& opts = {});

}  // namespace abcl::fuzz
