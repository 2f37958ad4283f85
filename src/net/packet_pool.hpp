// Recycled packet buffers with per-thread magazine caches.
//
// Every in-flight packet occupies one pooled slot; destination queues hold
// 24-byte references ordered by (arrive_time, src, seq) instead of sifting
// whole Packet payloads through a binary heap. Slots come from slabs owned
// by the pool and recycle through a central depot (mutex-guarded free
// stack) fronted by Magazines — small per-thread caches in the style of
// Bonwick's magazine layer — so the hot path is a bare pointer pop/push
// and the depot lock is only taken every kMagazineCap operations.
//
// Threading model (matches the ParallelMachine window discipline):
//   - acquire() runs only where commits run: on the coordinator thread
//     (serial driver, boot code, window-barrier outbox flushes), always
//     through the owner's "home" magazine.
//   - release() runs on whichever worker polls the destination node, each
//     through its own magazine; a full magazine flushes to the depot under
//     the lock.
// Magazines are single-owner by construction; the depot mutex orders slot
// handoff between threads, and the driver's window barrier orders writes
// to a slot's payload (commit) before any read (poll).
//
// Determinism: slot addresses depend on host interleaving, but nothing
// observable does — queues order by simulated quantities only, and none of
// the pool's occupancy figures are exported into the metrics snapshot.
#pragma once

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

  // Returns a slot whose payload the caller now owns. The slot's previous
  // contents are unspecified.
  Packet* acquire(Magazine& m);

  // Returns `p` to `m`'s cache, spilling half a full magazine to the depot.
  void release(Magazine& m, Packet* p);

  // Drains `m` into the depot. Call when the owning thread retires its
  // magazine (end of a parallel run); the magazine stays usable.
  void flush(Magazine& m);

  // Depot-side figures (host-dependent; never exported into metrics).
  std::uint64_t slabs_allocated() const;

 private:
  void depot_get(Magazine& m);   // locked: refill up to half capacity
  void depot_put(Magazine& m, int keep);  // locked: spill down to `keep`

  mutable std::mutex mu_;
  std::vector<Packet*> depot_;                    // free slots (LIFO)
  std::vector<std::unique_ptr<Packet[]>> slabs_;  // slot storage
  int fresh_left_ = 0;       // unissued slots in slabs_.back()
  Packet* fresh_ = nullptr;  // cursor into slabs_.back()
};

}  // namespace abcl::net
