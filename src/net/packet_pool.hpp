// Recycled packet buffers with per-thread magazine caches.
//
// A pool slot is a packet's only home from its send to the end of its
// handler: the sender fills the slot in place (Network::open), the commit
// pushes a 32-byte reference ordered by (arrive_time, src, seq) into the
// destination heap, and the receiver's handler reads the slot where it
// landed before the poller releases it. Slots come from slabs owned by the
// pool and recycle through a central depot (mutex-guarded free stack)
// fronted by Magazines — small per-thread caches in the style of Bonwick's
// magazine layer — so the hot path is a bare pointer pop/push and the depot
// lock is only taken every kMagazineCap operations.
//
// Slots are uninitialized: slabs are allocated without value-initialization
// and a recycled slot keeps its previous packet's bytes. A sender therefore
// writes every header field a receiver reads (Network::open does), and only
// the first `nwords` payload words of a slot are ever meaningful. The ASan
// job's malloc fill turns a forgotten field into a failure.
//
// Threading model (matches the ParallelMachine window discipline): a
// magazine has one owner at a time. Inside a window each participant
// acquires through its shard's magazine for its nodes' sends and releases
// after its nodes' handlers. The Network's home magazine serves the serial
// driver, boot code and restores, and between windows the fault layer's
// delivery copies: the window barrier's completion step commits them on
// whichever participant arrives last, and the barrier hands the home
// magazine from one window's such participant to the next. The depot mutex
// orders slot handoff between threads, and the window barrier orders a
// sender's writes to a slot before any poll reads it.
//
// Determinism: slot addresses depend on host interleaving, but nothing
// observable does — queues order by simulated quantities only, snapshots
// write packets field by field, and none of the pool's occupancy figures
// are exported into the metrics snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/packet.hpp"

namespace abcl::net {

class PacketPool {
 public:
  // Slots per slab allocation and per-magazine cache depth.
  static constexpr int kSlabPackets = 64;
  static constexpr int kMagazineCap = 32;

  // A single-owner cache of free slots. Counters are owner-thread-local,
  // so they are only meaningful (and only deterministic) where the owner's
  // operation sequence is — e.g. the home magazine under the serial driver.
  class Magazine {
   public:
    int size() const { return n_; }
    std::uint64_t cache_hits() const { return hits_; }
    std::uint64_t depot_trips() const { return depot_trips_; }

   private:
    friend class PacketPool;
    Packet* slots_[kMagazineCap];
    int n_ = 0;
    std::uint64_t hits_ = 0;        // acquire/release served by the cache
    std::uint64_t depot_trips_ = 0; // locked refill/flush round trips
  };

  // Slots live in slabs_ and are freed wholesale with the pool.
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns a slot whose contents the caller now owns. The slot's previous
  // contents are unspecified (see the file header).
  Packet* acquire(Magazine& m);

  // Returns `p` to `m`'s cache, spilling half a full magazine to the depot.
  void release(Magazine& m, Packet* p);

  // Drains `m` into the depot. Call when the owning thread retires its
  // magazine (end of a parallel run); the magazine stays usable.
  void flush(Magazine& m);

  // Depot-side figures (host-dependent; never exported into metrics).
  std::uint64_t slabs_allocated() const;
  // Free slots held by the depot, unissued slab slots included; slots
  // cached in magazines are not counted.
  std::uint64_t free_slots() const;

 private:
  void depot_get(Magazine& m);   // locked: refill up to half capacity
  void depot_put(Magazine& m, int keep);  // locked: spill down to `keep`

  mutable std::mutex mu_;
  std::vector<Packet*> depot_;                       // free slots (LIFO)
  std::vector<std::unique_ptr<std::byte[]>> slabs_;  // slot storage
  int fresh_left_ = 0;       // unissued slots in slabs_.back()
  Packet* fresh_ = nullptr;  // cursor into slabs_.back()
};

}  // namespace abcl::net
