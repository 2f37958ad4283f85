// Binary min-heap: the one time queue of the simulator.
//
// Both hot min-queues — the drivers' ready sets (sim::ReadySet) and the
// network's per-destination delivery queues — are a MinHeap over a
// std::vector. Pop order is the strict total order `Less` induces (its
// primary component is the simulated time key, ties broken by node or by
// (src, seq)), so the order is a function of the pushed entries alone, never
// of their insertion order — which is what keeps every simulated result
// identical across host drivers.
//
// Why not a calendar queue: one wins on a single hot queue, but a 512-node
// run keeps 512 mostly cold delivery queues, and there one short vector per
// queue measured faster end to end (DESIGN.md §4, EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace abcl::util {

// A former time-queue selector, kept only so older callers still compile:
// nothing reads it, and every queue is a MinHeap.
enum class QueueKind { kBucket, kHeap };

// Entry: element type. Less: stateless strict total order over Entry.
template <typename Entry, typename Less>
class MinHeap {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }

  // Smallest entry under Less.
  const Entry& top() const {
    ABCL_DCHECK(!v_.empty());
    return v_.front();
  }

  void push(Entry e) {
    v_.push_back(std::move(e));
    std::push_heap(v_.begin(), v_.end(), Greater{});
  }

  void pop() {
    ABCL_DCHECK(!v_.empty());
    std::pop_heap(v_.begin(), v_.end(), Greater{});
    v_.pop_back();
  }

  void clear() { v_.clear(); }

  // Visits every entry in unspecified order (checkpoint serialization
  // sorts canonically on its own).
  template <class F>
  void for_each(F&& f) const {
    for (const Entry& e : v_) f(e);
  }

 private:
  // std::push_heap builds a max-heap; invert Less so the front is the min.
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      return Less{}(b, a);
    }
  };

  std::vector<Entry> v_;
};

}  // namespace abcl::util
