// Predelivered chunk stocks (Section 5.2).
//
// Each node keeps, per (peer node, chunk size class), a stack of addresses
// of memory chunks that the peer has already allocated and formatted with
// the generic fault table. A remote creation draws the new object's mail
// address from this stock *locally*, hiding the allocation round trip; the
// Category-3 replenish message keeps the stock at its steady depth. Only
// when the stock is empty does the creator fall back to split-phase
// allocation (and hence context switching).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"

namespace abcl::ckpt {
struct WorldIo;
}

namespace abcl::remote {

class ChunkStock {
 public:
  // Pops a predelivered chunk on `peer` of the given size class, if any.
  std::optional<core::ObjectHeader*> try_pop(core::NodeId peer,
                                             std::uint16_t size_class) {
    auto it = records_.find(key(peer, size_class));
    if (it == records_.end() || it->second.chunks.empty()) {
      return std::nullopt;
    }
    core::ObjectHeader* chunk = it->second.chunks.back();
    it->second.chunks.pop_back();
    return chunk;
  }

  void push(core::NodeId peer, std::uint16_t size_class,
            core::ObjectHeader* chunk) {
    ABCL_CHECK(chunk != nullptr);
    records_[key(peer, size_class)].chunks.push_back(chunk);
  }

  std::size_t depth(core::NodeId peer, std::uint16_t size_class) const {
    const Record* r = find(peer, size_class);
    return r == nullptr ? 0 : r->chunks.size();
  }

  // Replenish-in-flight bookkeeping. A creator that requests a replenish
  // with every create packet overshoots the steady-state target as soon as
  // the stock is drained and then bursts back up; tracking requests that
  // have not yet arrived lets the creator cap depth + pending at the
  // target. replenish_arrived clamps pending at zero so a replenish that
  // predates the bookkeeping (e.g. seeded mid-flight) cannot underflow.
  void note_replenish_requested(core::NodeId peer, std::uint16_t size_class) {
    records_[key(peer, size_class)].pending += 1;
  }

  // A replenish from `peer` delivered `chunk`: one fewer in flight, one
  // more on hand.
  void replenish_arrived(core::NodeId peer, std::uint16_t size_class,
                         core::ObjectHeader* chunk) {
    ABCL_CHECK(chunk != nullptr);
    Record& r = records_[key(peer, size_class)];
    if (r.pending > 0) r.pending -= 1;
    r.chunks.push_back(chunk);
  }

  std::size_t pending_replenish(core::NodeId peer,
                                std::uint16_t size_class) const {
    const Record* r = find(peer, size_class);
    return r == nullptr ? 0 : r->pending;
  }

  // Chunks usable without further wire traffic: on hand plus in flight.
  std::size_t planned_depth(core::NodeId peer, std::uint16_t size_class) const {
    const Record* r = find(peer, size_class);
    return r == nullptr ? 0 : r->chunks.size() + r->pending;
  }

 private:
  friend struct abcl::ckpt::WorldIo;  // checkpoint serializer

  static std::uint64_t key(core::NodeId peer, std::uint16_t size_class) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 16) |
           size_class;
  }

  // Everything known about one (peer, size class): the chunks on hand and
  // the replenishes requested but not yet arrived.
  struct Record {
    std::vector<core::ObjectHeader*> chunks;
    std::size_t pending = 0;
  };

  const Record* find(core::NodeId peer, std::uint16_t size_class) const {
    auto it = records_.find(key(peer, size_class));
    return it == records_.end() ? nullptr : &it->second;
  }

  std::unordered_map<std::uint64_t, Record> records_;
};

}  // namespace abcl::remote
