// Spec interpreter — a single generic actor class whose methods execute a
// fuzz::Spec script through the real DSL macros, so generated programs
// exercise exactly the code paths hand-written apps do: dormant/active
// dispatch, await blocking with stack->heap frame spill, selective
// reception (waiting-mode VFT), hybrid await-or-select, ABCL_YIELD
// preemption and the full remote-creation protocol (stock hit, split-phase
// miss, messages racing into fault mode).
//
// Patterns:
//   fz.step    [fuel, chain] — run this object's script once; fuel gates
//                              message-producing ops, chain==1 marks the
//                              message as a chain step that must either be
//                              forwarded once or report latch.done
//   fz.ask     []            — now-type; replies one deterministic word
//   fz.reflect [node, ptr]   — send fz.tok back to the requester (past)
//   fz.tok     [v]           — token; consumed by a wait site, or counted
//                              as a stray when it arrives after the site
//                              already resumed via the hybrid's reply arm
//
// Flow accounting is kept per *node* (RunCtx::per_node): one node's quanta
// never run concurrently, and cross-window handoff in the parallel driver
// is barrier-synchronized — the same discipline that makes NodeRuntime's
// own state safe. The oracle sums and compares these counters across
// drivers and uses them for conservation invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "abcl/machine_api.hpp"
#include "abcl/termination.hpp"
#include "fuzz/spec.hpp"

namespace abcl::fuzz {

struct alignas(64) Counters {
  std::uint64_t steps_run = 0;      // fz.step method executions
  std::uint64_t steps_sent = 0;     // fz.step messages sent by scripts
  std::uint64_t asks_made = 0;      // now-type fz.ask sends
  std::uint64_t asks_answered = 0;  // fz.ask method executions
  std::uint64_t ask_sum = 0;        // sum of reply values consumed
  std::uint64_t tokens_requested = 0;
  std::uint64_t tokens_emitted = 0;  // fz.reflect executions
  std::uint64_t tokens_got = 0;      // consumed by a wait site
  std::uint64_t tokens_stray = 0;    // dispatched as a dormant method
  std::uint64_t tok_sum = 0;
  std::uint64_t creates_begun = 0;
  std::uint64_t creates_done = 0;
  std::uint64_t dones = 0;  // latch.done sends (chain terminations)

  bool operator==(const Counters&) const = default;
  Counters& operator+=(const Counters& o);
};

// Everything a running method needs to resolve script references. Built by
// FuzzWorld before the first message is sent and immutable during the run
// (per_node points at mutable counter slots, see above).
struct RunCtx {
  const Spec* spec = nullptr;
  std::vector<MailAddr> addrs;  // static objects, by index
  MailAddr latch = core::kNilAddr;
  Counters* per_node = nullptr;
  PatternId step = 0, ask = 0, reflect = 0, tok = 0;
  PatternId latch_done = 0;
  const core::ClassInfo* actor_cls = nullptr;
};

struct InterpPatterns {
  PatternId step = 0, ask = 0, reflect = 0, tok = 0;
  const core::ClassInfo* cls = nullptr;
};

// Registers the interpreter actor class and its patterns on `prog`.
// Call before prog.finalize().
InterpPatterns register_interp(core::Program& prog);

// A World built from a Spec: registers the interpreter + completion latch,
// creates the static objects on their home nodes, optionally warms the
// chunk stocks, and enqueues the boot chains. Run with world().run().
class FuzzWorld {
 public:
  // `spec` must validate; aborts otherwise. `tracer` (optional) is attached
  // before boot so boot-time cascades are fingerprinted too.
  // `ck` (optional) enables deterministic checkpoint capture at a
  // simulated-time boundary (see ckpt/snapshot.hpp and checkpoint_to below).
  FuzzWorld(const Spec& spec, int host_threads, sim::Tracer* tracer = nullptr,
            const sim::CostModel& cost = sim::CostModel::ap1000(),
            const ckpt::CheckpointConfig& ck = {});

  FuzzWorld(const FuzzWorld&) = delete;
  FuzzWorld& operator=(const FuzzWorld&) = delete;

  World& world() { return *world_; }
  const Spec& spec() const { return spec_; }
  const RunCtx& rc() const { return rc_; }

  const std::vector<Counters>& per_node() const { return counters_; }
  Counters total() const;

  // Valid once the world has quiesced.
  const CompletionLatch& latch() const;
  std::int64_t expected_chains() const {
    return static_cast<std::int64_t>(spec_.boot.size());
  }

  // Post-quiescence probes over the static objects (dynamic objects are
  // covered indirectly by the conservation invariants).
  std::uint64_t waiting_static_objects() const;
  std::uint64_t queued_static_msgs() const;

  // Serializes the current world (requires a checkpoint-enabled `ck` at
  // construction; only legal between run() calls — a quantum boundary).
  void checkpoint_to(ckpt::Sink& sink) const { world_->checkpoint(sink); }

  // Destroys the current World (unmapping its fixed-base arenas) and
  // rebuilds it from `src`. Restored actor frames hold `const RunCtx*`
  // words pointing back into this FuzzWorld, so restore must reuse the SAME
  // FuzzWorld instance — spec, program, counters and RunCtx stay at their
  // original addresses. `tracer` is re-attached to the restored world (pass
  // the original to keep one fingerprint spanning the gap).
  // `host_threads_override`: 0 keeps the snapshot's driver configuration;
  // otherwise same semantics as WorldConfig::host_threads.
  void restore_world(ckpt::Source& src, sim::Tracer* tracer = nullptr,
                     int host_threads_override = 0);

  // Crash-recovery support: rolls the app-side flow counters back to a copy
  // of per_node() captured alongside a checkpoint, discarding whatever a
  // crashed (to-be-replayed) segment accumulated.
  void reset_counters(const std::vector<Counters>& snap);

 private:
  Spec spec_;  // owned copy; RunCtx points into it
  core::Program prog_;
  InterpPatterns ip_;
  CompletionPatterns lp_;
  std::vector<Counters> counters_;
  RunCtx rc_;
  std::unique_ptr<World> world_;
};

}  // namespace abcl::fuzz
