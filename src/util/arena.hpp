// Per-node bump arena.
//
// Every simulated node owns one Arena (its "local heap"); the size-classed
// SlabAllocator (util/slab.hpp) carves objects, heap frames, reply boxes
// and chunk memory out of it in whole-slab increments.
//
// Two backing modes:
//  - Block mode (default): malloc'd blocks growing geometrically. Cheap,
//    but block addresses are wherever malloc put them.
//  - Reserved mode (checkpoint support): one fixed-base virtual reservation
//    of kSlotBytes per arena, taken from a process-wide slot registry (or
//    re-mapped at an exact recorded base on restore). Slots sit kSlotStride
//    apart, one 4-KiB page more than kSlotBytes: consecutive slots then
//    start on different 4-KiB page colors, so node i's k-th object and
//    node i+1's do not share an L2 set (at a 64-MiB stride every node's
//    heap started on the same color). A reservation spans the whole
//    stride; the heap never uses its last page. Fixed bases are what
//    make snapshots address-faithful: a restored arena occupies the same
//    virtual range, so every pointer embedded in the heap image — message
//    frame links, slab freelists, MailAddrs inside opaque user state —
//    remains valid verbatim, with no swizzling pass. The reservation is
//    MAP_NORESERVE virtual space; pages materialize on first touch, so an
//    idle node still costs nothing. Only checkpoint-enabled worlds use this
//    mode; default worlds keep the malloc path bit-for-bit unchanged.
//
// Arena memory is uninitialized in both modes: blocks are allocated without
// value-initialization, so a page materializes only when the slab that owns
// it is first written, and a node's host footprint tracks the heap it
// actually uses. Every allocation site must construct (or fully write)
// whatever it later reads; nothing may rely on fresh memory being zero.
// (Reserved slots happen to be zero-filled by mmap, but that is not part
// of the contract either.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace abcl::util {

class Arena {
 public:
  // Virtual span of one reserved slot — the hard heap cap of a
  // checkpointable node (virtual, not committed).
  static constexpr std::size_t kSlotBytes = std::size_t{64} << 20;
  // Distance between consecutive slot bases (see the file comment).
  static constexpr std::size_t kSlotStride = kSlotBytes + 4096;
  // Slots in the fixed-base window; the auto path wraps around it.
  static constexpr std::uint64_t kWindowSlots = 16384;
  // `reserved_base` sentinel: take the next free fixed-base slot from the
  // process-wide registry.
  static constexpr std::uint64_t kReserveAuto = ~std::uint64_t{0};

  // reserved_base == 0 -> block mode. kReserveAuto -> registry slot.
  // Any other value -> map the reservation at exactly that base (checkpoint
  // restore); dies with a diagnostic if the range is unavailable.
  explicit Arena(std::size_t block_bytes = 1u << 20,
                 std::uint64_t reserved_base = 0);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` of uninitialized memory aligned to `align`
  // (power of two, <= 64).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  template <class T, class... Args>
  T* make(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return new (p) T(static_cast<Args&&>(args)...);
  }

  std::size_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t bytes_reserved() const { return bytes_reserved_; }

  // Base address of window slot `slot` (< kWindowSlots).
  static std::uint64_t slot_base(std::uint64_t slot);
  // True iff `base` is the base of some slot of the window: the only bases
  // a reserved arena can have, and so the only ones restore accepts.
  static bool is_slot_base(std::uint64_t base);

  // Reserved-mode introspection (checkpoint serialization).
  bool reserved() const { return base_ != nullptr; }
  std::uint64_t base() const { return reinterpret_cast<std::uint64_t>(base_); }
  // Bytes of the reservation touched by the bump pointer so far — the
  // extent of the raw image a snapshot must carry.
  std::size_t used() const {
    return base_ == nullptr ? 0 : static_cast<std::size_t>(cur_ - base_);
  }

  // Checkpoint restore: overwrite this (freshly reserved) arena with a
  // snapshot image and its allocation counters. Reserved mode only.
  void restore_image(const void* data, std::size_t used_bytes,
                     std::size_t bytes_allocated);

 private:
  void new_block(std::size_t at_least);

  std::size_t block_bytes_;      // next block size; grows geometrically
  std::size_t max_block_bytes_ = 8u << 20;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::byte* base_ = nullptr;    // non-null in reserved mode
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace abcl::util
