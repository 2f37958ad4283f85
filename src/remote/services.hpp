// Category-4 services (Section 5.1): node-local bookkeeping for the
// miscellaneous remote services — currently the load-gossip map used by the
// least-loaded placement policy. Global GC and object migration, which the
// paper lists as further Category-4 clients, are out of scope (the paper
// itself defers them to future work).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.hpp"

namespace abcl::ckpt {
struct WorldIo;
}

namespace abcl::remote {

// Last load figure heard from each peer via the load-gossip service, with a
// freshness stamp (the receiver's quantum counter at note() time).
//
// Two historical bugs live here, both fixed by making "unknown" explicit:
//  * get() used to return 0 for never-heard-from peers, so kLeastLoaded
//    treated silent or unreachable nodes as idle and piled work onto them;
//  * entries never aged, so a peer whose gossip packets stopped (blackout,
//    drops) kept its last figure forever. Callers now pass the current
//    quantum count and a max age; anything unknown or stale reads as
//    nullopt and the placement policy degrades gracefully to known peers
//    (or self when nothing trustworthy is left).
//
// Gossip comes from topology neighbours only, so a node hears from a handful
// of peers (4 on the torus): the map is a flat vector in first-heard order,
// searched linearly, with no hashing; it allocates only when a new peer is
// first heard from.
class LoadMap {
 public:
  void note(core::NodeId peer, std::uint32_t load, std::uint64_t now_quanta) {
    for (Entry& e : loads_) {
      if (e.peer == peer) {
        e.load = load;
        e.stamp = now_quanta;
        return;
      }
    }
    loads_.push_back(Entry{peer, load, now_quanta});
  }

  // The peer's load if it has been heard from within `max_age` quanta of
  // `now_quanta` (max_age 0 = no aging), nullopt otherwise.
  std::optional<std::uint32_t> get(core::NodeId peer, std::uint64_t now_quanta,
                                   std::uint64_t max_age) const {
    for (const Entry& e : loads_) {
      if (e.peer != peer) continue;
      if (max_age != 0 && now_quanta - e.stamp > max_age) return std::nullopt;
      return e.load;
    }
    return std::nullopt;
  }

  // Peers ever heard from (stale entries included — staleness is a
  // read-side policy, the figures themselves are kept).
  std::size_t known_peers() const { return loads_.size(); }

 private:
  friend struct abcl::ckpt::WorldIo;  // checkpoint serializer

  struct Entry {
    core::NodeId peer = 0;
    std::uint32_t load = 0;
    std::uint64_t stamp = 0;  // receiver quanta_run at note() time
  };
  std::vector<Entry> loads_;
};

}  // namespace abcl::remote
