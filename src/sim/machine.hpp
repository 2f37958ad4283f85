// Conservative discrete-event drivers for the simulated multicomputer.
//
// Each node is a single-threaded processor with its own instruction clock.
// The serial `Machine` always executes the runnable node with the globally
// smallest clock (ties broken by node id), which is safe because every
// packet has strictly positive latency (lookahead): no node with a larger
// clock can retroactively deliver work into the past of the node being run.
// Idle nodes' clocks jump forward to their next packet arrival. The run
// ends at quiescence: no node runnable and no packet in flight.
//
// `ParallelMachine` (parallel_machine.hpp) is a drop-in `Driver` that runs
// whole time windows of nodes concurrently on host threads while producing
// bit-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/min_heap.hpp"

namespace abcl::sim {

using NodeId = std::int32_t;

// No-op, kept so older callers compile: ParallelMachine has one window
// policy, the flat global window (parallel_machine.hpp), and nothing reads
// a HorizonKind.
enum class HorizonKind : std::uint8_t { kGlobal };

// No-op, kept so older callers compile: ParallelMachine assigns node i to
// worker i mod T for the whole run, and nothing reads a ShardKind.
enum class ShardKind : std::uint8_t { kStatic };

class Tracer;

// Implemented by core::NodeRuntime. One step() executes one scheduling
// quantum (drain arrived packets, then run one scheduling-queue item or one
// freshly delivered message cascade) and advances the node's clock.
class NodeExec {
 public:
  virtual ~NodeExec() = default;

  virtual NodeId node_id() const = 0;
  virtual Instr clock() const = 0;

  // True if the node has local work it could run right now (scheduling
  // queue nonempty or packets already arrived at or before clock()).
  virtual bool runnable() const = 0;

  // Earliest future instant at which the node becomes runnable because of a
  // pending packet, or kInstrInf if none is in flight toward it.
  virtual Instr next_wake() const = 0;

  // Advance the local clock to `t` (only ever forward).
  virtual void advance_clock(Instr t) = 0;

  // Run one quantum. Precondition: runnable().
  virtual void step() = 0;

  // No-op, kept so older callers compile: each node records into its own
  // lane of the attached tracer (trace.hpp), so no driver swaps tracers,
  // and nothing calls this.
  virtual Tracer* swap_tracer(Tracer*) { return nullptr; }
};

// Common driver interface: the abcl::World runs its nodes through one of
// these. The network's on_deliverable callback must call notify_work.
class Driver {
 public:
  struct RunReport {
    Instr end_time = 0;        // max node clock at quiescence
    std::uint64_t quanta = 0;  // total step() invocations
  };

  explicit Driver(std::vector<NodeExec*> nodes);
  virtual ~Driver() = default;

  // Must be called (e.g. by the network) whenever new work is scheduled for
  // `dst` — a packet enqueued or a cross-layer wakeup — so the driver can
  // re-evaluate the node's readiness.
  virtual void notify_work(NodeId dst) = 0;

  // Runs until quiescence (or until `max_time` if given). Returns a report.
  virtual RunReport run(Instr max_time = kInstrInf) = 0;

  NodeExec* node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  std::size_t num_nodes() const { return nodes_.size(); }

 protected:
  // The key both drivers order nodes by: the clock when runnable, else the
  // next packet arrival (kInstrInf when idle with nothing in flight).
  static Instr effective_key(NodeExec& n) {
    return n.runnable() ? n.clock() : n.next_wake();
  }

  std::vector<NodeExec*> nodes_;
};

// Key-ordered set of the nodes that have work, shared by both drivers.
//
// A node's key is its Driver::effective_key; kInstrInf (idle, nothing in
// flight) means absent. Nodes are partitioned into shards, node i into
// shard i mod shards, each a min-queue over (key, node) — the serial
// Machine uses one shard, ParallelMachine one per worker. Entries are never
// erased: push() only enters a key below the node's present one, and
// pop_below()/top() drop an entry whose key is no longer its node's
// (superseded by a lower push, or already popped). Between a node's own
// steps its key can only fall — an arrival only lowers next_wake, and every
// arrival reaches the driver through Driver::notify_work — so a node's key
// slot holds its exact key whenever the node is not popped.
//
// Threading: a shard's queue and the key slots of the nodes it owns belong
// to whoever drives that shard; the owner map is written once, by the
// constructor.
class ReadySet {
 public:
  struct Entry {
    Instr key;
    NodeId node;
  };

  // Every node starts absent. `shards` >= 1.
  ReadySet(std::size_t nodes, std::size_t shards);

  std::size_t owner(NodeId id) const { return owner_[index(id)]; }

  // Enters `id` at `key` into its owner's shard unless it is already
  // present at or below `key` (so kInstrInf is a no-op).
  void push(NodeId id, Instr key) {
    Instr& best = key_[index(id)];
    if (key < best) {
      best = key;
      shards_[owner_[index(id)]].queue.push(Entry{key, id});
    }
  }

  // Removes the smallest entry of `shard` into *out if its key is below
  // `limit`. The node is absent until pushed again.
  bool pop_below(std::size_t shard, Instr limit, Entry* out) {
    Queue& q = shards_[shard].queue;
    while (!q.empty()) {
      const Entry e = q.top();
      if (e.key >= limit) return false;
      q.pop();
      if (!live(e)) continue;
      key_[index(e.node)] = kInstrInf;
      *out = e;
      return true;
    }
    return false;
  }

  // Smallest key present in `shard` (kInstrInf when none).
  Instr top(std::size_t shard) {
    Queue& q = shards_[shard].queue;
    while (!q.empty()) {
      const Entry& e = q.top();
      if (live(e)) return e.key;
      q.pop();
    }
    return kInstrInf;
  }

  // Makes every node absent.
  void clear();

 private:
  // Ascending (key, node) — the serial execution order.
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key != b.key ? a.key < b.key : a.node < b.node;
    }
  };
  using Queue = util::MinHeap<Entry, EntryLess>;
  // Cache-line aligned: parallel workers drain their shards concurrently.
  struct alignas(64) Shard {
    Queue queue;
  };

  static std::size_t index(NodeId id) { return static_cast<std::size_t>(id); }
  bool live(const Entry& e) const { return key_[index(e.node)] == e.key; }

  std::vector<Instr> key_;  // per node; kInstrInf = absent
  std::vector<std::size_t> owner_;
  std::vector<Shard> shards_;
};

class Machine : public Driver {
 public:
  explicit Machine(std::vector<NodeExec*> nodes);
  // Former queue-selecting constructor, kept so older callers compile; the
  // QueueKind is ignored (every time queue is a util::MinHeap).
  Machine(std::vector<NodeExec*> nodes, util::QueueKind)
      : Machine(std::move(nodes)) {}

  void notify_work(NodeId dst) override;
  RunReport run(Instr max_time = kInstrInf) override;

 private:
  void push_node(NodeId id);

  ReadySet ready_;  // one shard
};

}  // namespace abcl::sim
