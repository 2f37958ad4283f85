// Host-parallel conservative PDES driver.
//
// Bounded-window synchronization. Each round computes
//   horizon = min(effective key over all nodes) + lookahead
// where lookahead is the minimum positive latency any packet can have
// (net::Network::min_packet_latency). Every quantum with key < horizon is
// independent of every send issued inside the window — such a send arrives
// at >= min_key + lookahead = horizon — so T participants execute all of
// them concurrently.
//
// Determinism: participants never touch the shared network state during a
// window. Sends are buffered into per-shard outboxes and committed between
// windows, box by box in append order. A node's sends sit in one outbox in
// program order, and the network's commit state depends on nothing else
// (see net/network.hpp): channel floors and seqs are per source, every
// other commit-side result is independent of how sources interleave.
// Traces need no order either: each node records into its own lane of the
// attached tracer (sim/trace.hpp), and readers merge the lanes. The results
// are bit-identical to a serial run at any thread count.
//
// Participants and shards: node i belongs to shard i mod T for the whole
// run. The thread that calls run() is participant 0 and runs shard 0; T-1
// threads spawned by run() run shards 1..T-1, each its own. At T=1 nothing
// is spawned and the same loop runs. Any fixed assignment preserves
// determinism; round-robin balances the common case where load correlates
// with id ranges.
//
// Active sets: each shard is one shard of a sim::ReadySet (machine.hpp),
// the key-ordered set of its nodes that have work. A window pops only the
// nodes keyed below the horizon, so it costs O(nodes that run), not O(shard
// size). A popped node runs to the horizon and re-enters at its break-time
// key, which is at or above the pop limit, so no window pops a node twice;
// flush-time deliveries enter through notify_work. The next window's floor
// is the min of the shard tops after the flush — exactly the min over all
// nodes' keys, so the window sequence is the one a full rescan would give.
// run() re-seeds every shard from one full scan at entry, so no driver
// state outlives a run() and snapshots carry none.
//
// Window barrier: every participant repeats "run my shard, then
// arrive_and_wait" on one std::barrier. Its completion step is the
// window's serial phase (end_window): it commits the outboxes, folds the
// shard tops and occupancy into the next window's floor, counts the window
// and sets the next horizon or the finished flag. It runs on whichever
// participant arrives last, while all others wait, and the barrier orders
// it after every participant's window and before any participant's next
// one; that is the only synchronization the window state needs.
//
// Thread-safety partition during a window: a participant touches only its
// own nodes' state and trace lanes, those nodes' destination queues (poll
// side), its own outbox, packet-pool magazine and ready-set shard, plus its
// nodes' slots in the ready set's key array (disjoint indices), and the
// packet slots it acquired for its nodes' sends or polled for their
// handlers. The one shared mutable structure is the packet pool's depot,
// which a participant only reaches through its magazine's underflow and
// overflow paths (mutex-guarded, amortized one trip per kMagazineCap/2
// operations); the depot mutex orders every slot handoff between threads.
// The completion step commits the filled slots without copying them and
// takes the fault layer's delivery copies from the network's home magazine;
// its notify_work calls push woken nodes into their owners' shards.
// notify_work runs only there or outside run().
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/machine.hpp"

namespace abcl::sim {

// No-op, kept so older callers compile: the parallel driver has one window
// policy and one shard assignment, and reads none of these fields
// (namespace-scope so the in-class default argument below can use the
// member initializers).
struct ParallelOptions {
  HorizonKind horizon = HorizonKind::kGlobal;
  ShardKind shard = ShardKind::kStatic;
  std::uint64_t seed = 1;
};

class ParallelMachine : public Driver {
 public:
  using Options = ParallelOptions;

  // `net` may be nullptr for driver-only unit tests (lookahead falls back
  // to 1 and sends are not redirected). `num_threads` is clamped to >= 1.
  ParallelMachine(std::vector<NodeExec*> nodes, net::Network* net,
                  int num_threads, Options opts = Options());
  // run()'s threads and the network hold this object's address, and
  // outbox_ptrs_ points into workers_.
  ParallelMachine(const ParallelMachine&) = delete;
  ParallelMachine& operator=(const ParallelMachine&) = delete;

  // Called by the window's completion step or outside run() (see file
  // header); enters the destination into its owner's shard at its new key.
  // Arrivals only lower next_wake, so the entry is the node's exact
  // post-flush key.
  void notify_work(NodeId dst) override;
  RunReport run(Instr max_time = kInstrInf) override;

  int num_threads() const { return static_cast<int>(workers_.size()); }
  std::uint64_t windows_run() const { return windows_; }
  // Sum over windows of nodes that executed >= 1 quantum: occupancy_sum /
  // windows_run is the mean window occupancy. A function of simulated state
  // only — identical at any thread count.
  std::uint64_t occupancy_sum() const { return occupancy_sum_; }

 private:
  // One per participant: the state of its shard.
  struct Worker {
    net::Network::Outbox outbox;
    // Thread-local cache of free packet slots: this shard's sends acquire
    // from it and its polls release into it after the handler returns,
    // touching the shared depot only on underflow or overflow.
    net::PacketPool::Magazine magazine;
    std::uint64_t quanta = 0;
    // Nodes of this shard that executed >= 1 quantum in the last window.
    std::uint64_t active = 0;
  };

  void run_shard(std::size_t me);
  // The barrier's completion step (see file header).
  void end_window();
  // Sets the horizon of the window that starts at `min_key`, or finished_.
  void start_window(Instr min_key);

  net::Network* net_;
  Instr lookahead_;
  std::vector<Worker> workers_;

  // Window parameters, written only by run() before the first window and
  // by the completion step between windows.
  Instr window_horizon_ = 0;
  Instr window_max_time_ = kInstrInf;
  bool finished_ = false;

  // One shard per worker; its owner map is the node -> shard assignment.
  ReadySet ready_;

  std::vector<net::Network::Outbox*> outbox_ptrs_;
  std::uint64_t windows_ = 0;
  std::uint64_t occupancy_sum_ = 0;
};

}  // namespace abcl::sim
