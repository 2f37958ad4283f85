// Intra-node scheduling queue, policy selection and per-node statistics
// (Sections 4.1, 4.3, 6.3).
//
// The scheduling queue is node-wise and FIFO; each item is an object plus a
// continuation kind — "process the next buffered message" or "resume the
// saved context" — which together with the frame's pc is the paper's
// (object pointer, continuation address) pair. Under the stack policy the
// queue is used only for once-buffered messages and preempted objects; the
// naive policy (Figure 6's baseline) routes *every* local message through
// it.
#pragma once

#include <cstdint>

#include "core/object.hpp"
#include "sim/time.hpp"
#include "util/intrusive_list.hpp"
#include "util/stats.hpp"

namespace abcl::core {

enum class SchedPolicy : std::uint8_t {
  kStack,  // the paper's integrated stack/queue scheduling
  kNaive,  // always buffer + schedule through the queue
};

class SchedQueue {
 public:
  bool empty() const { return q_.empty(); }
  // O(1): sampled every quantum (sched_depth, gossip, the shed policy),
  // so the queue counts its items rather than walking the list.
  std::size_t size() const { return size_; }

  // Enqueues `o` with the given continuation kind. An object is in the
  // queue at most once; conflicting kinds indicate a runtime bug.
  void push(ObjectHeader* o, SchedState kind) {
    ABCL_DCHECK(kind != SchedState::kNone);
    if (o->sched_state != SchedState::kNone) {
      ABCL_CHECK_MSG(o->sched_state == kind,
                     "conflicting scheduling-continuation kinds");
      return;
    }
    o->sched_state = kind;
    q_.push_back(o);
    ++size_;
  }

  ObjectHeader* pop() {
    ObjectHeader* o = q_.pop_front();
    if (o != nullptr) --size_;
    return o;
  }

  // Detaches `o` wherever it sits in the queue (migration shed). Returns
  // true iff it was queued; its sched_state is reset so a later push is a
  // fresh enqueue.
  bool remove(ObjectHeader* o) {
    if (o->sched_state == SchedState::kNone) return false;
    ObjectHeader* out =
        q_.remove_first_if([o](ObjectHeader& x) { return &x == o; });
    ABCL_CHECK(out == o);
    --size_;
    o->sched_state = SchedState::kNone;
    return true;
  }

  // FIFO-order read-only walk (shed candidate scan).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    q_.for_each(fn);
  }

  // Checkpoint restore: re-link `o` at the tail, bypassing push()'s
  // sched_state transition — the restored arena image already carries the
  // object's sched_state, and push() would early-return on it. Relinking in
  // the snapshot's FIFO order rebuilds the identical sched_next chain.
  void ckpt_relink_tail(ObjectHeader* o) {
    q_.push_back(o);
    ++size_;
  }

 private:
  util::IntrusiveFifo<ObjectHeader, &ObjectHeader::sched_next> q_;
  std::size_t size_ = 0;
};

// Per-node runtime statistics; aggregated by the World into run reports and
// used directly by the Table/Figure benches.
struct NodeStats {
  // local message delivery
  std::uint64_t local_sends = 0;
  std::uint64_t local_to_dormant = 0;   // ran immediately on the stack
  std::uint64_t local_to_active = 0;    // buffered via a queuing procedure
  std::uint64_t local_to_waiting_hit = 0;  // awaited pattern, restored context
  std::uint64_t forced_buffer_depth = 0;   // stack-depth preemption
  // remote messaging
  std::uint64_t remote_sends = 0;
  std::uint64_t remote_recv = 0;
  std::uint64_t replies_sent = 0;
  // blocking
  std::uint64_t blocks_await = 0;
  std::uint64_t blocks_select = 0;
  std::uint64_t yields = 0;
  std::uint64_t resumes = 0;
  std::uint64_t await_fast_hits = 0;   // reply already present at check
  // creation
  std::uint64_t creations_local = 0;
  std::uint64_t creations_remote = 0;
  std::uint64_t chunk_stock_hits = 0;
  std::uint64_t chunk_stock_misses = 0;
  // scheduling queue
  std::uint64_t sched_enqueues = 0;
  std::uint64_t sched_dispatches = 0;
  // live migration (remote/migration.*; all zero when migration is off so
  // the migration-off metrics snapshot stays byte-identical to baselines)
  std::uint64_t migrations_out = 0;     // objects shed from this node
  std::uint64_t migrations_in = 0;      // objects attached at this node
  std::uint64_t migration_mail = 0;     // inbox frames flushed across a move
  std::uint64_t migration_forwards = 0; // messages bounced by a stub here
  std::uint64_t migration_updates = 0;  // kUpdateAddr/kUpdateStub sent
  std::uint64_t migration_holds = 0;    // sends held during a flush window
  // time accounting
  sim::Instr busy_instr = 0;   // total charged work
  sim::Instr idle_instr = 0;   // clock jumps while waiting for packets

  // distributions (all in simulated quantities, so they are bit-identical
  // across host drivers)
  static constexpr int kNumAmCategories = 4;  // mirrors net::AmCategory
  // Per-AM-category message latency, send_time -> dispatch, in simulated
  // instructions (wire latency + time the packet sat in the receive queue).
  util::Log2Histogram msg_latency[kNumAmCategories];
  // Scheduling-queue length sampled at the start of every quantum.
  util::Log2Histogram sched_depth;

  // Accumulates every field of `o` into this block; keep in sync with the
  // field list above (tests/test_obs.cpp carries a field-coverage check).
  void merge(const NodeStats& o);
};

}  // namespace abcl::core
