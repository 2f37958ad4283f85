// The simulated interconnect.
//
// Pricing: arrive = send_time + wire_latency + hops * per_hop +
// wire_words * per_word, clamped so arrivals on each (src,dst) channel are
// nondecreasing — the paper's "preservation of transmission order" between
// a fixed sender/receiver pair. Per destination, packets are delivered in
// (arrive_time, src, src_seq) order — all simulated quantities — so delivery
// is deterministic no matter which host driver (serial or parallel) issued
// the sends, and same-instant arrivals from different sources are ordered by
// source id rather than by host-side send call order.
//
// The sender's software setup cost and the receiver's handler cost are NOT
// part of wire latency; the core runtime charges those to the node clocks
// (send_setup before send(), recv_handler at poll time), mirroring the
// paper's breakdown: ~20 sender instructions + ~1.5 us wire each way +
// ~50 receiver instructions.
//
// Commit order: every piece of commit state is per source or per channel
// — the channel floors, the per-source seqs, the fault layer's link seqs —
// or does not depend on order at all: counters, exact integer latency
// moments (util::RunningStat), pure-hash fault decisions and destination
// heaps with a strict (arrive, src, seq) order. So the results depend only
// on each source's own send order, the paper's "preservation of
// transmission order", and not on how sends of different sources
// interleave.
//
// Host-parallel support: during a ParallelMachine time window each
// participant thread redirects its nodes' sends into its shard's Outbox
// (set_outbox); flush_outboxes commits the boxes in the window barrier's
// completion step, each in append order. A source lives in exactly one outbox and appends in program
// order, so seqs, channel floors and Stats are bit-identical to a serial
// run. Destination queues are only popped by the worker that owns the
// destination node and only pushed by the flush between windows; the
// in-flight count is summed from the queue sizes between runs, so polls
// update no shared counter. Deliverability wakeups are batched: instead of
// one on_deliverable(dst) per committed packet, flush_outboxes runs a
// single deduplicated rekey pass per destination after all commits —
// equivalent, because a destination's effective key only falls as packets
// accumulate, so the post-flush key equals the min over per-packet
// observations.
//
// Buffer management: a PacketPool slot is a packet's only home from its
// send to the end of its handler. The sender opens a slot through the
// magazine of the thread that runs the source node and fills it in place;
// outbox items (16 B) and destination-heap entries (32 B) reference it;
// poll hands the receiver the slot itself, and the poller releases it
// through its own magazine after the handler returns. The fault layer's extra delivery
// copies (retransmits, duplicates) are the only whole-packet copies: each
// gets its own slot, and the original slot goes back to the pool once the
// last copy is enqueued. Per-node magazine hooks (set_magazine) route a
// node's acquires and releases to the participant that runs it; the home
// magazine serves the serial driver, boot code, restores and the fault
// copies the flush commits between windows. Slot addresses are
// host-dependent, but nothing observable reads them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "net/active_message.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "sim/cost_model.hpp"
#include "util/min_heap.hpp"
#include "util/stats.hpp"

namespace abcl::ckpt {
struct WorldIo;
}

namespace abcl::net {

// No-op, kept so older callers compile: flush_outboxes commits each outbox
// in append order, and nothing reads a FlushKind.
enum class FlushKind { kMerge };

class Network {
 public:
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t payload_words = 0;
    std::uint64_t wire_words = 0;
    std::uint64_t per_category[4] = {};
    util::RunningStat wire_latency_instr;
  };
  // The snapshot writes Stats as raw bytes: no padding may carry host
  // garbage into it.
  static_assert(std::has_unique_object_representations_v<Stats>);

  // A per-worker send buffer for the host-parallel driver. Appends are made
  // by exactly one worker thread, in its nodes' program order.
  class Outbox {
   public:
    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

   private:
    friend class Network;
    // A buffered send: the filled slot and its stats category.
    struct Item {
      Packet* slot;
      AmCategory cat;
    };
    static_assert(sizeof(Item) <= 16, "outbox items are slot references");
    std::vector<Item> items_;
  };

  // on_deliverable(dst) fires whenever a packet is enqueued toward dst; the
  // machine driver uses it to re-key the node in its ready heap.
  // `faults` installs a deterministic FaultPlan (see net/fault.hpp); the
  // default disabled config leaves every commit/poll path byte-identical to
  // a fault-free network.
  Network(Topology topology, const sim::CostModel* cm,
          std::function<void(NodeId)> on_deliverable = {},
          FaultConfig faults = {});

  void set_on_deliverable(std::function<void(NodeId)> fn) {
    on_deliverable_ = std::move(fn);
  }

  const Topology& topology() const { return topology_; }

  // Opens a packet from `src` to `dst`: acquires a pool slot through the
  // magazine installed for `src` and writes every header field a receiver
  // reads (no payload words, no retries, no dup mark). The caller pushes
  // the payload into the slot and hands it to send().
  Packet* open(NodeId src, NodeId dst, HandlerId handler, sim::Instr send_time);

  // Sends a slot open() returned (category recorded for stats). Computes
  // arrive_time and seq in the slot and enqueues it toward its dst — or,
  // when an outbox is installed for its src, buffers it for flush_outboxes.
  // While any outbox is installed (a parallel run), every source must have
  // one: a direct commit from a worker thread would race the barrier-side
  // flush and the workers' polls on the shared queues, so it aborts.
  void send(Packet* slot, AmCategory category);

  // Test and micro-bench wrapper: copies `p`'s header and payload into a
  // slot opened for p.src -> p.dst and sends it.
  void send(const Packet& p, AmCategory category);

  // Redirects sends with src == `src` into `ob` (nullptr restores the
  // direct path). Only the parallel driver installs these, around a run.
  void set_outbox(NodeId src, Outbox* ob);

  // Commits every buffered send, box by box in append order, which keeps
  // each source's program order (a source appends to one box only). Fires
  // on_deliverable at most once per destination, after all commits.
  void flush_outboxes(Outbox* const* boxes, std::size_t nboxes);

  // Pops the next packet for `dst` with arrive_time <= now and returns its
  // slot, or nullptr if none. The receiver dispatches on the slot in place
  // and hands it back with release(dst, slot) when its handler returns; no
  // send reuses the slot before that. Out-of-order across channels never
  // happens because the per-destination heap orders by arrival. With a
  // fault plan installed, `*was_dup` (when non-null) reports the copy's
  // commit-time mark (Packet::dup): a duplicate or retransmit the receiver
  // must discard — the caller still pays its handler cost but must not
  // dispatch it. Always false when faults are off.
  Packet* poll(NodeId dst, sim::Instr now, bool* was_dup = nullptr);

  // Returns a slot poll(dst, ...) handed out, through dst's magazine.
  void release(NodeId dst, Packet* slot) {
    pool_.release(*mags_[idx(dst)], slot);
  }

  // Test and micro-bench wrapper: copies the polled packet into `out` and
  // releases its slot. Returns false if nothing is deliverable.
  bool poll(NodeId dst, sim::Instr now, Packet& out, bool* was_dup = nullptr);

  // Earliest pending arrival for `dst`, or kInstrInf.
  sim::Instr next_arrival(NodeId dst) const;

  // Packets currently queued toward `dst` (delivered or not yet arrived);
  // observability hook for mid-run snapshots. Zero at quiescence.
  std::size_t pending(NodeId dst) const {
    return queues_[static_cast<std::size_t>(dst)].size();
  }

  // A strictly positive lower bound on any packet's priced latency: the
  // parallel driver's lookahead. (Every packet carries >= 4 header words
  // and hops >= 0; send() clamps zero wire latency up to 1.) Cached at
  // construction — the window loop reads it every barrier — under the
  // standing contract that the cost model and topology are immutable for
  // the network's lifetime (nothing exposes a mutation path; a changed
  // model requires a new Network).
  sim::Instr min_packet_latency() const { return min_latency_; }

  // Packets queued toward any destination: the sum of pending(). O(nodes);
  // read only between runs (World::work_remaining, metrics snapshots).
  std::uint64_t in_flight() const;
  bool idle() const { return in_flight() == 0; }
  const Stats& stats() const { return stats_; }

  // Routes the slot acquires of `node`'s sends and the slot releases after
  // its polls through `m` (nullptr restores the home magazine). Only the
  // parallel driver installs these, around a run; the caller guarantees
  // that `m` is owned by the thread that runs `node`.
  void set_magazine(NodeId node, PacketPool::Magazine* m);

  PacketPool& packet_pool() { return pool_; }
  // The magazine of the serial driver, boot code, restores and the fault
  // layer's delivery copies (committed between windows).
  const PacketPool::Magazine& home_magazine() const { return home_mag_; }
  // Free slots in the pool's depot plus the home magazine (host-dependent;
  // never exported into metrics). The parallel driver drains its shards'
  // magazines at the end of every run, so between runs at quiescence this
  // is packet_pool().slabs_allocated() * PacketPool::kSlabPackets.
  std::uint64_t free_slots() const {
    return pool_.free_slots() + static_cast<std::uint64_t>(home_mag_.size());
  }

  // ----- fault injection ---------------------------------------------------
  bool faults_enabled() const { return fault_plan_ != nullptr; }
  // The installed plan; only valid when faults_enabled().
  const FaultPlan& fault_plan() const { return *fault_plan_; }
  // Aggregated fault accounting: the commit-side block plus every
  // destination's receive-side counters. Call from a single thread with no
  // run in progress (the same contract as stats()).
  FaultStats fault_stats() const;

 private:
  // Checkpoint serializer (src/ckpt/world_io.cpp).
  friend struct abcl::ckpt::WorldIo;

  // Destination-queue entry: the simulated delivery key plus the pooled
  // slot holding the payload. Moving 32 bytes instead of sizeof(Packet)
  // is most of the pooled send/poll win at depth.
  struct QueuedPacket {
    sim::Instr arrive;
    std::int32_t src;
    std::uint64_t seq;
    Packet* slot;
  };
  // Delivery order: ascending (arrive, src, seq) — a strict total order
  // (seqs are unique per src), so pop order never depends on push order.
  struct PacketOrder {
    bool operator()(const QueuedPacket& a, const QueuedPacket& b) const {
      if (a.arrive != b.arrive) return a.arrive < b.arrive;
      if (a.src != b.src) return a.src < b.src;
      return a.seq < b.seq;
    }
  };
  using DstQueue = util::MinHeap<QueuedPacket, PacketOrder>;

  static std::size_t idx(NodeId n) { return static_cast<std::size_t>(n); }
  sim::Instr& channel_floor(NodeId src, NodeId dst);
  std::uint64_t& link_seq(NodeId src, NodeId dst);
  void commit(Packet* p, AmCategory category);
  // Plays out the whole retry protocol for one committed packet (see
  // net/fault.hpp): enqueues `p` itself as the first surviving delivery
  // copy and every later copy in a slot of its own, marked Packet::dup.
  void commit_faulty(Packet* p);
  // Common tail of commit: enqueue the stamped slot toward its dst, and
  // record/fire the deliverability wakeup.
  void enqueue(Packet* p);

  Topology topology_;
  const sim::CostModel* cm_;
  std::function<void(NodeId)> on_deliverable_;
  std::vector<DstQueue> queues_;
  // Last arrival per (src,dst) channel; flat matrix for small machines,
  // hash map above the threshold to avoid O(N^2) memory.
  std::vector<sim::Instr> channel_matrix_;
  std::unordered_map<std::uint64_t, sim::Instr> channel_map_;
  bool use_matrix_;
  std::vector<std::uint64_t> src_seq_;
  std::vector<Outbox*> outboxes_;     // per-src redirect; nullptr = direct
  std::int32_t outboxes_installed_ = 0;  // non-null entries of outboxes_
  // Batched-wakeup scratch: destinations touched by the current flush, in
  // first-commit order, deduplicated via the mark vector.
  bool flush_active_ = false;
  std::vector<NodeId> flush_touched_;
  std::vector<std::uint8_t> flush_touched_mark_;
  sim::Instr min_latency_;  // cached min_packet_latency (immutable model)
  Stats stats_;
  PacketPool pool_;
  PacketPool::Magazine home_mag_;
  // Per-node magazine for send acquires and poll releases; &home_mag_
  // unless the parallel driver installed a worker's.
  std::vector<PacketPool::Magazine*> mags_;

  // ----- fault-injection state (all empty/null when faults are off) -------
  // Receive side of one destination: the delivery counters. Touched only
  // by the worker that polls `dst`, so the parallel driver needs no extra
  // synchronization.
  struct DstFaultState {
    std::uint64_t delivered = 0;
    std::uint64_t dup_suppressed = 0;
  };
  std::unique_ptr<FaultPlan> fault_plan_;
  // Per-(src,dst) channel sequence counters, the fault hashes' sequence
  // input; same matrix/map split as the channel floors. Advanced on the
  // commit path only.
  std::vector<std::uint64_t> link_seq_matrix_;
  std::unordered_map<std::uint64_t, std::uint64_t> link_seq_map_;
  FaultStats fault_commit_;           // commit-side counters
  std::vector<DstFaultState> dst_fault_;
};

}  // namespace abcl::net
