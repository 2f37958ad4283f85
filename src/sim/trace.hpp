// Bounded execution tracing, one lane per node.
//
// A Tracer records timestamped per-node events, cheap enough to leave
// attached during full runs: one branch when disabled, one store when
// enabled. Each node records into its own lane, a ring bounded at
// capacity() events that grows only as its node records; once full, the
// node's oldest events are overwritten. Each event carries a payload word
// whose meaning depends on the kind (scheduling-queue length,
// pattern/handler id, class id, block-reason code) so trace consumers — the
// text timeline in `trace_demo` and the Chrome/Perfetto exporter in
// `obs/chrome_trace` — can reconstruct what the node was doing, not just
// that it did something. The World exposes attach/snapshot helpers.
//
// Lanes are the tracer's thread-safety partition: a node records only into
// its own lane, and attaching the tracer to a node (World::attach_tracer,
// NodeRuntime::set_tracer) sizes that node's lane before any run, so under
// either driver each lane is written only by the thread that runs its node. Readers merge: snapshot() orders events by (t, node, per-node
// record order). Every payload is a simulated quantity (never a host
// pointer or host time), so traces are bit-identical between the serial
// Machine and the ParallelMachine at any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sim/time.hpp"

namespace abcl::sim {

enum class TraceEv : std::uint8_t {
  kQuantum = 0,  // a scheduling quantum began      (payload: sched queue len)
  kSendRemote,   // packet handed to the network    (payload: pattern id)
  kRecvRemote,   // packet polled and dispatched    (payload: handler id)
  kBlock,        // a method blocked                (payload: block-reason code)
  kResume,       // a blocked context resumed       (payload: class id)
  kCreate,       // an object was created here      (payload: class id)
  kFaultDup,     // duplicate copy suppressed       (payload: handler id)
  kFaultRetry,   // retransmitted packet dispatched (payload: attempt index)
  kMigrateOut,   // an object was shed from here    (payload: target node)
  kMigrateIn,    // a migrated object attached here (payload: source node)
  kForward,      // a stub bounced a message        (payload: pattern id)
};

inline const char* to_string(TraceEv e) {
  switch (e) {
    case TraceEv::kQuantum: return "quantum";
    case TraceEv::kSendRemote: return "send";
    case TraceEv::kRecvRemote: return "recv";
    case TraceEv::kBlock: return "block";
    case TraceEv::kResume: return "resume";
    case TraceEv::kCreate: return "create";
    case TraceEv::kFaultDup: return "fault-dup";
    case TraceEv::kFaultRetry: return "fault-retry";
    case TraceEv::kMigrateOut: return "migrate-out";
    case TraceEv::kMigrateIn: return "migrate-in";
    case TraceEv::kForward: return "forward";
  }
  return "?";
}

class Tracer {
 public:
  struct Event {
    Instr t = 0;
    NodeId node = -1;
    TraceEv kind = TraceEv::kQuantum;
    std::uint64_t payload = 0;  // kind-specific; see TraceEv comments
  };

  // `capacity` bounds each node's lane. It is clamped to >= 1, so the
  // newest event of every node that recorded survives.
  explicit Tracer(std::size_t capacity = 1u << 16)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  virtual ~Tracer() = default;

  // Ensures a lane for every node id below `nodes`, keeping every recorded
  // event. record() grows the lanes on demand too, but growing is not
  // thread-safe: a driver that runs nodes on several threads needs them
  // sized first, which attaching the tracer to a node does.
  virtual void size_lanes(std::size_t nodes) {
    if (lanes_.size() < nodes) lanes_.resize(nodes);
  }

  // Virtual so the fuzz oracle's HashTracer can fold events instead of
  // storing them.
  virtual void record(Instr t, NodeId node, TraceEv kind,
                      std::uint64_t payload = 0) {
    const auto i = static_cast<std::size_t>(node);
    if (i >= lanes_.size()) lanes_.resize(i + 1);
    Lane& l = lanes_[i];
    if (l.ring.size() < capacity_) {
      l.ring.push_back(Event{t, node, kind, payload});
    } else {
      l.ring[l.head] = Event{t, node, kind, payload};
      if (++l.head == capacity_) l.head = 0;
    }
    ++l.total;
  }

  // Per-node bound.
  std::size_t capacity() const { return capacity_; }
  // Events held, over all lanes.
  std::size_t size() const {
    std::size_t n = 0;
    for (const Lane& l : lanes_) n += l.ring.size();
    return n;
  }
  std::uint64_t total_recorded() const {
    std::uint64_t n = 0;
    for (const Lane& l : lanes_) n += l.total;
    return n;
  }

  // Held events in (t, node, per-node record order). A node's clock never
  // runs back, so each lane is already in t order: the lanes are
  // concatenated oldest-first in node order and stable-sorted by t.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(size());
    for (const Lane& l : lanes_) {
      const auto head = l.ring.begin() + static_cast<std::ptrdiff_t>(l.head);
      out.insert(out.end(), head, l.ring.end());
      out.insert(out.end(), l.ring.begin(), head);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Event& a, const Event& b) { return a.t < b.t; });
    return out;
  }

  // Drops every event; the lanes stay sized.
  void clear() {
    for (Lane& l : lanes_) l = Lane{};
  }

 private:
  // Cache-line aligned: nodes on different host threads record into
  // neighbouring lanes.
  struct alignas(64) Lane {
    std::vector<Event> ring;  // grows to capacity_, then wraps
    std::size_t head = 0;     // oldest event once the ring is full
    std::uint64_t total = 0;
  };

  std::size_t capacity_;
  std::vector<Lane> lanes_;
};

}  // namespace abcl::sim
