// Size-classed slab allocator for a node's hot-path heap objects.
//
// Replaces the old single-pool PoolAllocator: each power-of-two size class
// owns a LIFO freelist of recycled slots plus a bump region inside its
// current slab. A freelist miss carves a whole slab (many slots) from the
// node Arena in one trip instead of one object at a time, so steady-state
// allocation is a pointer pop and steady-state free is a pointer push —
// the constant-time path the paper's cost model assumes for heap frames,
// reply boxes and chunk memory.
//
// Alignment: every slot is aligned to min(class_bytes, kMaxAlignment).
// Classes start at 32 B, so any type with alignof() <= 32 is naturally
// aligned by its own class and types up to alignof() == 64 land in classes
// whose slabs are 64-aligned. alloc_ctx_frame static_asserts against
// kMaxAlignment, which closes the old PoolAllocator bug where an
// over-aligned frame silently got max_align_t alignment.
//
// Slots never return to the general heap: they die with the arena, so
// teardown with live objects (worlds are routinely dropped mid-state) is
// leak-free without tracking them.
//
// Determinism: allocation order on a node is a function of the simulation
// only, so every Stats counter is bit-identical across host drivers and
// safe to export in the metrics snapshot.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/arena.hpp"

namespace abcl::ckpt {
struct WorldIo;
}

namespace abcl::util {

class SlabAllocator {
 public:
  static constexpr std::size_t kMinClassLog2 = 5;   // 32 B
  static constexpr std::size_t kMaxClassLog2 = 16;  // 64 KiB
  static constexpr std::size_t kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  // Strongest alignment any slot (hence any pooled type) may rely on.
  static constexpr std::size_t kMaxAlignment = 64;
  // Slab granularity: one arena trip yields kSlabBytes / class_bytes slots
  // (at least one). 16 KiB keeps small classes cheap (512 x 32 B per trip)
  // without over-reserving for the rare large classes.
  static constexpr std::size_t kSlabBytes = 16u << 10;

  // All counters are simulated-deterministic (see file comment).
  struct Stats {
    std::uint64_t allocs = 0;         // allocate() calls
    std::uint64_t frees = 0;          // deallocate() calls
    std::uint64_t freelist_hits = 0;  // allocations served by a recycled slot
    std::uint64_t slab_refills = 0;   // arena trips
    std::uint64_t slots_carved = 0;   // total slots those trips produced
    std::uint64_t backing_bytes = 0;  // bytes obtained from the arena

    void merge(const Stats& o);
    std::uint64_t live() const { return allocs - frees; }
  };

  explicit SlabAllocator(Arena& arena) : arena_(&arena) {}

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  static std::size_t size_class(std::size_t bytes);
  static std::size_t class_bytes(std::size_t cls) {
    return std::size_t{1} << (cls + kMinClassLog2);
  }
  static std::size_t class_align(std::size_t cls) {
    std::size_t b = class_bytes(cls);
    return b < kMaxAlignment ? b : kMaxAlignment;
  }

  void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes);

  const Stats& stats() const { return stats_; }
  std::uint64_t live_count() const { return stats_.live(); }
  std::uint64_t alloc_count() const { return stats_.allocs; }

 private:
  // Checkpoint serializer (src/ckpt/world_io.cpp): snapshots freelist heads
  // and bump cursors verbatim — freelist chains live inside the (reserved,
  // address-faithful) arena, so the raw pointers restore as-is.
  friend struct abcl::ckpt::WorldIo;

  struct FreeNode {
    FreeNode* next;
  };
  void refill(std::size_t cls);

  Arena* arena_;
  FreeNode* free_[kNumClasses] = {};
  std::byte* fresh_[kNumClasses] = {};        // bump cursor in current slab
  std::size_t fresh_left_[kNumClasses] = {};  // slots left at the cursor
  Stats stats_;
};

}  // namespace abcl::util
