// Host-parallel conservative PDES driver.
//
// Bounded-window synchronization. Each round computes
//   horizon = min(effective key over all nodes) + lookahead
// where lookahead is the minimum positive latency any packet can have
// (net::Network::min_packet_latency). Every quantum with key < horizon is
// independent of every send issued inside the window — such a send arrives
// at >= min_key + lookahead = horizon — so a fixed pool of worker threads
// executes all of them concurrently.
//
// Determinism: workers never touch the shared network state. Sends are
// buffered into per-worker outboxes and committed at the window barrier,
// box by box in append order. A node's sends sit in one outbox in program
// order, and the network's commit state depends on nothing else (see
// net/network.hpp): channel floors and seqs are per source, every other
// commit-side result is independent of how sources interleave. Traces
// need no order either: each node records into its own lane of the
// attached tracer (sim/trace.hpp), and readers merge the lanes. The
// results are bit-identical to a serial run at any thread count.
//
// Shard: node i belongs to worker i mod T for the whole run, so each source
// lives in exactly one outbox. Any fixed assignment preserves determinism;
// round-robin balances the common case where load correlates with id
// ranges.
//
// Active sets: each worker drives one shard of a sim::ReadySet
// (machine.hpp), the key-ordered set of its nodes that have work. A window
// pops only the nodes keyed below the horizon, so it costs O(nodes that
// run), not O(shard size). A popped node runs to the horizon and re-enters
// at its break-time key, which is at or above the pop limit, so no window
// pops a node twice; flush-time deliveries enter through notify_work. The
// next window's floor is the min of the shard tops after the flush —
// exactly the min over all nodes' keys, so the window sequence is the one a
// full rescan would give. run() re-seeds every shard from one full scan at
// entry, so no driver state outlives a run() and snapshots carry none.
//
// Thread-safety partition during a window: a worker touches only its own
// nodes' state and trace lanes, those nodes' destination queues (poll
// side), its own outbox, packet-pool magazine and ready-set shard, plus its
// nodes' slots in the ready set's key array (disjoint indices), and the packet
// slots it acquired for its nodes' sends or polled for their handlers. The
// one shared mutable structure is the packet pool's depot, which a worker
// only reaches through its magazine's underflow and overflow paths
// (mutex-guarded, amortized one trip per kMagazineCap/2 operations); the
// depot mutex orders every slot handoff between threads. Between windows
// the coordinator alone runs the flush — it commits the workers' filled
// slots without copying them, and takes the fault layer's delivery copies
// from the home magazine — and its notify_work calls push woken nodes into
// their owners' shards. Window parameters — the horizon and max_time — are
// written by the coordinator between windows and published by the
// release/acquire pair on epoch_; each worker's shard writes reach the
// coordinator through the release-store on its `done`.
//
// Epoch waits are spin-then-park: a bounded busy-wait burst (skipped
// entirely on single-core hosts, where spinning only steals cycles from
// the thread being waited on), then a condvar park. The atomics still
// carry the synchronization; the mutex/condvar pair only prevents lost
// wakeups around the park.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
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
  ~ParallelMachine() override;

  // Only ever invoked on the coordinator thread (commits happen at window
  // barriers or outside run()); enters the destination into its owner's
  // shard at its new key. Arrivals only lower next_wake, so the entry is
  // the node's exact post-flush key.
  void notify_work(NodeId dst) override;
  RunReport run(Instr max_time = kInstrInf) override;

  int num_threads() const { return static_cast<int>(workers_.size()); }
  std::uint64_t windows_run() const { return windows_; }
  // Sum over windows of nodes that executed >= 1 quantum: occupancy_sum /
  // windows_run is the mean window occupancy. A function of simulated state
  // only — identical at any thread count.
  std::uint64_t occupancy_sum() const { return occupancy_sum_; }

 private:
  struct Worker {
    net::Network::Outbox outbox;
    // Thread-local cache of free packet slots: this shard's sends acquire
    // from it and its polls release into it after the handler returns,
    // touching the shared depot only on underflow or overflow.
    net::PacketPool::Magazine magazine;
    std::uint64_t quanta = 0;
    // Nodes of this shard that executed >= 1 quantum in the last window.
    std::uint64_t active = 0;
    std::atomic<std::uint64_t> done{0};
  };

  void run_shard(std::size_t me);
  void worker_main(std::size_t me);
  void flush_commits();

  net::Network* net_;
  Instr lookahead_;
  std::vector<Worker> workers_;

  // Window parameters, written by the coordinator before it releases an
  // epoch; the release/acquire pair on epoch_ publishes them.
  Instr window_horizon_ = 0;
  Instr window_max_time_ = kInstrInf;

  // One shard per worker; its owner map is the node -> worker assignment.
  ReadySet ready_;

  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};

  // Park support for the epoch handshake (see file header). wake_mu_ is
  // only ever held for empty critical sections or around a cv wait; the
  // epoch_/done atomics remain the published state.
  int spin_limit_;  // busy-wait iterations before parking; 0 = park at once
  std::mutex wake_mu_;
  std::condition_variable epoch_cv_;  // workers park here between windows
  std::condition_variable done_cv_;   // coordinator parks here at barriers

  std::vector<net::Network::Outbox*> outbox_ptrs_;
  std::uint64_t windows_ = 0;
  std::uint64_t occupancy_sum_ = 0;
};

}  // namespace abcl::sim
