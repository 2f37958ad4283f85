#include "util/arena.hpp"

#include <atomic>
#include <cstring>
#include <string>

#include <sys/mman.h>

namespace abcl::util {

namespace {

// Fixed-base slot registry for reserved arenas. The window starts far above
// any malloc/ASLR region and holds kWindowSlots slots kSlotStride apart;
// each arena claims one. A restore maps at an exact recorded base instead,
// so the auto path probes forward (wrapping around the window) past slots
// an earlier restore, or a live world, may still occupy.
//
// TSan's mmap interceptor aborts the process on fixed maps that land
// outside its application address ranges, and 0x5a00'0000'0000 is not in
// them; the classic x86_64 layout keeps [0x7e80'0000'0000, 0x8000'0000'0000)
// app-mappable, so the slot window parks there under TSan. Snapshots are
// restored by the build that wrote them, so the two windows never mix.
#if defined(__SANITIZE_THREAD__)
#define ABCL_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ABCL_TSAN_BUILD 1
#endif
#endif
#ifdef ABCL_TSAN_BUILD
constexpr std::uint64_t kFirstSlotBase = 0x7e80'0000'0000ull;
#else
constexpr std::uint64_t kFirstSlotBase = 0x5a00'0000'0000ull;
#endif
std::atomic<std::uint64_t> g_next_slot{0};

// Maps the whole stride, not just kSlotBytes: the spare page past the heap
// cap is never touched, but with it adjacent slots are contiguous mappings
// with identical flags, which the kernel can merge. With a one-page gap
// between each, World construction on `churn` (64 slots) took 0.42 ms
// instead of 0.32 ms.
void* map_reservation(std::uint64_t base) {
  void* want = reinterpret_cast<void*>(base);
  int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
#ifdef MAP_FIXED_NOREPLACE
  void* got = mmap(want, Arena::kSlotStride, PROT_READ | PROT_WRITE,
                   flags | MAP_FIXED_NOREPLACE, -1, 0);
  return got == MAP_FAILED ? nullptr : got;
#else
  // Portable fallback: a hinted map that must land exactly on the hint.
  void* got = mmap(want, Arena::kSlotStride, PROT_READ | PROT_WRITE, flags,
                   -1, 0);
  if (got == MAP_FAILED) return nullptr;
  if (got != want) {
    munmap(got, Arena::kSlotStride);
    return nullptr;
  }
  return got;
#endif
}

}  // namespace

std::uint64_t Arena::slot_base(std::uint64_t slot) {
  ABCL_DCHECK(slot < kWindowSlots);
  return kFirstSlotBase + slot * kSlotStride;
}

bool Arena::is_slot_base(std::uint64_t base) {
  if (base < kFirstSlotBase) return false;
  const std::uint64_t off = base - kFirstSlotBase;
  return off % kSlotStride == 0 && off / kSlotStride < kWindowSlots;
}

Arena::Arena(std::size_t block_bytes, std::uint64_t reserved_base)
    : block_bytes_(block_bytes) {
  ABCL_CHECK(block_bytes_ >= 4096);
  if (reserved_base == 0) return;  // block mode

  void* got = nullptr;
  if (reserved_base == kReserveAuto) {
    // Probe forward: a slot may be held by a restored arena that was mapped
    // at its recorded base without going through the counter.
    for (int attempts = 0; attempts < 4096 && got == nullptr; ++attempts) {
      std::uint64_t slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
      got = map_reservation(slot_base(slot % kWindowSlots));
    }
    ABCL_CHECK_MSG(got != nullptr,
                   "arena: could not reserve a fixed-base checkpoint slot");
  } else {
    got = map_reservation(reserved_base);
    ABCL_CHECK_MSG(
        got != nullptr,
        ("checkpoint restore: arena base " + std::to_string(reserved_base) +
         " is unavailable (is the checkpointed world still alive?)")
            .c_str());
  }
  base_ = static_cast<std::byte*>(got);
  cur_ = base_;
  end_ = base_ + kSlotBytes;
  bytes_reserved_ = kSlotBytes;
}

Arena::~Arena() {
  if (base_ != nullptr) munmap(base_, kSlotStride);
}

void Arena::new_block(std::size_t at_least) {
  ABCL_CHECK_MSG(base_ == nullptr,
                 "arena: reserved checkpoint slot exhausted (64 MiB)");
  std::size_t sz = block_bytes_;
  while (sz < at_least) sz *= 2;
  // No value-initialization: pages stay untouched until first written (see
  // the uninitialized-memory contract in arena.hpp).
  blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(sz));
  cur_ = blocks_.back().get();
  end_ = cur_ + sz;
  bytes_reserved_ += sz;
  // Grow geometrically so idle nodes stay cheap but busy ones amortize.
  if (block_bytes_ < max_block_bytes_) block_bytes_ *= 2;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  ABCL_DCHECK(align != 0 && (align & (align - 1)) == 0 && align <= 64);
  if (bytes == 0) bytes = 1;
  auto ip = reinterpret_cast<std::uintptr_t>(cur_);
  std::uintptr_t aligned = (ip + (align - 1)) & ~std::uintptr_t(align - 1);
  std::size_t need = bytes + static_cast<std::size_t>(aligned - ip);
  if (cur_ == nullptr || static_cast<std::size_t>(end_ - cur_) < need) {
    new_block(bytes + align);
    ip = reinterpret_cast<std::uintptr_t>(cur_);
    aligned = (ip + (align - 1)) & ~std::uintptr_t(align - 1);
  }
  cur_ = reinterpret_cast<std::byte*>(aligned) + bytes;
  bytes_allocated_ += bytes;
  return reinterpret_cast<void*>(aligned);
}

void Arena::restore_image(const void* data, std::size_t used_bytes,
                          std::size_t bytes_allocated) {
  ABCL_CHECK(base_ != nullptr && used_bytes <= kSlotBytes);
  std::memcpy(base_, data, used_bytes);
  cur_ = base_ + used_bytes;
  bytes_allocated_ = bytes_allocated;
}

}  // namespace abcl::util
