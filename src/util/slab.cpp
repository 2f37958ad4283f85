#include "util/slab.hpp"

namespace abcl::util {

void SlabAllocator::Stats::merge(const Stats& o) {
  // Field-coverage guard, same discipline as NodeStats/Network::Stats: a
  // new counter must be merged here (and exported in obs/metrics) or
  // totals silently drop it.
  static_assert(sizeof(Stats) == 6 * sizeof(std::uint64_t),
                "new SlabAllocator::Stats field? merge it here, export it in "
                "obs/metrics, and extend the tests");
  allocs += o.allocs;
  frees += o.frees;
  freelist_hits += o.freelist_hits;
  slab_refills += o.slab_refills;
  slots_carved += o.slots_carved;
  backing_bytes += o.backing_bytes;
}

std::size_t SlabAllocator::size_class(std::size_t bytes) {
  std::size_t cls = 0;
  std::size_t cap = std::size_t{1} << kMinClassLog2;
  while (cap < bytes) {
    cap <<= 1;
    ++cls;
  }
  ABCL_CHECK_MSG(cls < kNumClasses, "allocation exceeds slab size-class range");
  return cls;
}

void SlabAllocator::refill(std::size_t cls) {
  const std::size_t cbytes = class_bytes(cls);
  std::size_t slots = kSlabBytes / cbytes;
  if (slots == 0) slots = 1;
  const std::size_t bytes = slots * cbytes;
  // Slab bases are class-aligned; slots are consecutive multiples of a
  // power-of-two size, so every slot inherits the base alignment.
  fresh_[cls] = static_cast<std::byte*>(arena_->allocate(bytes, class_align(cls)));
  fresh_left_[cls] = slots;
  stats_.slab_refills += 1;
  stats_.slots_carved += slots;
  stats_.backing_bytes += bytes;
}

void* SlabAllocator::allocate(std::size_t bytes) {
  const std::size_t cls = size_class(bytes);
  ++stats_.allocs;
  if (FreeNode* n = free_[cls]) {
    free_[cls] = n->next;
    ++stats_.freelist_hits;
    return n;
  }
  if (fresh_left_[cls] == 0) refill(cls);
  void* p = fresh_[cls];
  fresh_[cls] += class_bytes(cls);
  --fresh_left_[cls];
  return p;
}

void SlabAllocator::deallocate(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  const std::size_t cls = size_class(bytes);
  ++stats_.frees;
  auto* n = static_cast<FreeNode*>(p);
  n->next = free_[cls];
  free_[cls] = n;
}

}  // namespace abcl::util
