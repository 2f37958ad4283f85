// Unit tests for the utility substrate: arena, slab allocator, intrusive
// FIFO, time-queue heap, RNG, statistics, table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "util/arena.hpp"
#include "util/intrusive_list.hpp"
#include "util/min_heap.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"
#include "util/spec_parser.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace abcl::util;
namespace util = abcl::util;

// ---------------------------------------------------------------- Arena ----

TEST(Arena, BasicAllocation) {
  Arena a;
  void* p1 = a.allocate(16);
  void* p2 = a.allocate(16);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(a.bytes_allocated(), 32u);
}

TEST(Arena, Alignment) {
  Arena a;
  a.allocate(1);  // misalign the cursor
  for (std::size_t align : {2u, 4u, 8u, 16u, 32u, 64u}) {
    void* p = a.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align=" << align;
  }
}

TEST(Arena, LargeAllocationSpansBlocks) {
  Arena a(4096);
  void* p = a.allocate(1 << 20);  // much bigger than the block size
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 1 << 20);  // must be fully usable
  EXPECT_GE(a.bytes_reserved(), std::size_t{1} << 20);
}

TEST(Arena, ManySmallAllocationsAllDistinct) {
  Arena a(4096);
  std::set<void*> seen;
  for (int i = 0; i < 10000; ++i) {
    void* p = a.allocate(24);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate pointer";
  }
}

TEST(Arena, MakeConstructsObject) {
  Arena a;
  struct Pt {
    int x, y;
    Pt(int xx, int yy) : x(xx), y(yy) {}
  };
  Pt* p = a.make<Pt>(3, 4);
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
}

TEST(Arena, ZeroByteAllocationIsValid) {
  Arena a;
  void* p = a.allocate(0);
  EXPECT_NE(p, nullptr);
}

TEST(Arena, AutoSlotsStartOnDistinctPageColors) {
  // Checkpoint slots sit one 4-KiB page more than 64 MiB apart, so 32
  // consecutive slots start on 32 distinct page colors modulo 128 KiB: node
  // i's k-th object and node i+1's no longer share an L2 set.
  std::vector<std::unique_ptr<Arena>> slots;
  std::set<std::uint64_t> colors;
  for (int i = 0; i < 32; ++i) {
    slots.push_back(std::make_unique<Arena>(4096, Arena::kReserveAuto));
    const std::uint64_t base = slots.back()->base();
    EXPECT_TRUE(Arena::is_slot_base(base));
    EXPECT_EQ(base % 4096, 0u);
    colors.insert(base % (std::uint64_t{128} << 10));
  }
  EXPECT_EQ(colors.size(), 32u);
  EXPECT_FALSE(Arena::is_slot_base(Arena::kReserveAuto));
  EXPECT_FALSE(Arena::is_slot_base(slots[0]->base() + 64));
  EXPECT_FALSE(Arena::is_slot_base(0));
}

// ----------------------------------------------------------- Slab ----------

TEST(Slab, SizeClassRounding) {
  EXPECT_EQ(SlabAllocator::size_class(1), 0u);
  EXPECT_EQ(SlabAllocator::size_class(32), 0u);
  EXPECT_EQ(SlabAllocator::size_class(33), 1u);
  EXPECT_EQ(SlabAllocator::size_class(64), 1u);
  EXPECT_EQ(SlabAllocator::class_bytes(0), 32u);
  EXPECT_EQ(SlabAllocator::class_bytes(1), 64u);
  EXPECT_EQ(SlabAllocator::class_bytes(SlabAllocator::kNumClasses - 1),
            std::size_t{64} << 10);
}

TEST(Slab, RecyclesExactClass) {
  Arena a;
  SlabAllocator pool(a);
  void* p1 = pool.allocate(40);  // class 1 (64 B)
  pool.deallocate(p1, 40);
  void* p2 = pool.allocate(50);  // same class: must reuse p1
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(pool.stats().freelist_hits, 1u);
  void* p3 = pool.allocate(20);  // different class: must not reuse
  EXPECT_NE(p1, p3);
  EXPECT_EQ(pool.stats().freelist_hits, 1u);
}

TEST(Slab, LiveCountTracksAllocFree) {
  Arena a;
  SlabAllocator pool(a);
  std::vector<void*> ps;
  for (int i = 0; i < 100; ++i) ps.push_back(pool.allocate(64));
  EXPECT_EQ(pool.live_count(), 100u);
  for (void* p : ps) pool.deallocate(p, 64);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(Slab, FreelistIsLifo) {
  Arena a;
  SlabAllocator pool(a);
  void* p1 = pool.allocate(32);
  void* p2 = pool.allocate(32);
  pool.deallocate(p1, 32);
  pool.deallocate(p2, 32);
  EXPECT_EQ(pool.allocate(32), p2);
  EXPECT_EQ(pool.allocate(32), p1);
}

TEST(Slab, OneRefillServesManySmallAllocations) {
  Arena a;
  SlabAllocator pool(a);
  const std::size_t slots = SlabAllocator::kSlabBytes / 32;
  std::set<void*> seen;
  for (std::size_t i = 0; i < slots; ++i) {
    EXPECT_TRUE(seen.insert(pool.allocate(32)).second);
  }
  EXPECT_EQ(pool.stats().slab_refills, 1u);
  EXPECT_EQ(pool.stats().slots_carved, slots);
  EXPECT_EQ(pool.stats().freelist_hits, 0u);
}

TEST(Slab, RefillAtChunkBoundary) {
  // Exhausting a slab exactly at its last slot must carve a second slab on
  // the next allocation — and only then.
  Arena a;
  SlabAllocator pool(a);
  const std::size_t slots = SlabAllocator::kSlabBytes / 32;
  std::set<void*> seen;
  for (std::size_t i = 0; i < slots; ++i) seen.insert(pool.allocate(24));
  ASSERT_EQ(pool.stats().slab_refills, 1u);
  void* over = pool.allocate(24);  // slot slots+1: boundary crossing
  EXPECT_EQ(pool.stats().slab_refills, 2u);
  EXPECT_TRUE(seen.insert(over).second) << "boundary slot not distinct";
  EXPECT_EQ(pool.stats().slots_carved, 2 * slots);
}

TEST(Slab, LargestClassRefillsOneSlotAtATime) {
  // 64 KiB class is bigger than a slab: each refill is exactly one slot.
  Arena a;
  SlabAllocator pool(a);
  void* p1 = pool.allocate(64u << 10);
  void* p2 = pool.allocate(64u << 10);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(pool.stats().slab_refills, 2u);
  EXPECT_EQ(pool.stats().slots_carved, 2u);
}

TEST(Slab, EveryClassIsNaturallyAligned) {
  Arena a;
  a.allocate(1);  // misalign the arena cursor first
  SlabAllocator pool(a);
  for (std::size_t cls = 0; cls < SlabAllocator::kNumClasses; ++cls) {
    const std::size_t bytes = SlabAllocator::class_bytes(cls);
    const std::size_t want = SlabAllocator::class_align(cls);
    void* fresh = pool.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(fresh) % want, 0u)
        << "fresh slot, class " << cls;
    pool.deallocate(fresh, bytes);
    void* reused = pool.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reused) % want, 0u)
        << "recycled slot, class " << cls;
    pool.deallocate(reused, bytes);
  }
}

TEST(Slab, StatsMergeCoversEveryField) {
  Arena a;
  SlabAllocator pool(a);
  void* p = pool.allocate(32);
  pool.deallocate(p, 32);
  pool.allocate(32);  // freelist hit
  SlabAllocator::Stats total;
  total.merge(pool.stats());
  total.merge(pool.stats());
  EXPECT_EQ(total.allocs, 2 * pool.stats().allocs);
  EXPECT_EQ(total.frees, 2 * pool.stats().frees);
  EXPECT_EQ(total.freelist_hits, 2 * pool.stats().freelist_hits);
  EXPECT_EQ(total.slab_refills, 2 * pool.stats().slab_refills);
  EXPECT_EQ(total.slots_carved, 2 * pool.stats().slots_carved);
  EXPECT_EQ(total.backing_bytes, 2 * pool.stats().backing_bytes);
}

// ------------------------------------------------------ IntrusiveFifo ------

struct Node {
  int v = 0;
  Node* next = nullptr;
};
using Fifo = IntrusiveFifo<Node, &Node::next>;

TEST(IntrusiveFifo, FifoOrder) {
  Fifo q;
  Node n[5];
  for (int i = 0; i < 5; ++i) {
    n[i].v = i;
    q.push_back(&n[i]);
  }
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    Node* p = q.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->v, i);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop_front(), nullptr);
}

TEST(IntrusiveFifo, RemoveFirstIfHead) {
  Fifo q;
  Node n[3];
  for (int i = 0; i < 3; ++i) {
    n[i].v = i;
    q.push_back(&n[i]);
  }
  Node* r = q.remove_first_if([](const Node& x) { return x.v == 0; });
  EXPECT_EQ(r, &n[0]);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop_front(), &n[1]);
}

TEST(IntrusiveFifo, RemoveFirstIfMiddleAndTail) {
  Fifo q;
  Node n[4];
  for (int i = 0; i < 4; ++i) {
    n[i].v = i;
    q.push_back(&n[i]);
  }
  EXPECT_EQ(q.remove_first_if([](const Node& x) { return x.v == 2; }), &n[2]);
  EXPECT_EQ(q.remove_first_if([](const Node& x) { return x.v == 3; }), &n[3]);
  // Tail must be fixed up: pushing appends after n[1].
  Node extra;
  extra.v = 9;
  q.push_back(&extra);
  EXPECT_EQ(q.pop_front(), &n[0]);
  EXPECT_EQ(q.pop_front(), &n[1]);
  EXPECT_EQ(q.pop_front(), &extra);
}

TEST(IntrusiveFifo, RemoveFirstIfNoMatch) {
  Fifo q;
  Node a;
  q.push_back(&a);
  EXPECT_EQ(q.remove_first_if([](const Node&) { return false; }), nullptr);
  EXPECT_EQ(q.size(), 1u);
}

TEST(IntrusiveFifo, ReuseAfterPop) {
  Fifo q;
  Node a;
  q.push_back(&a);
  q.pop_front();
  q.push_back(&a);  // node must be re-linkable
  EXPECT_EQ(q.pop_front(), &a);
}

TEST(IntrusiveFifo, RemoveOnlyElementResetsBothEnds) {
  Fifo q;
  Node a;
  a.v = 1;
  q.push_back(&a);
  EXPECT_EQ(q.remove_first_if([](const Node& x) { return x.v == 1; }), &a);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.front(), nullptr);
  // Head AND tail must both be reset, or this push corrupts the list.
  Node b;
  b.v = 2;
  q.push_back(&b);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_front(), &b);
  EXPECT_EQ(q.pop_front(), nullptr);
}

TEST(IntrusiveFifo, SpliceByDrainingPreservesOrderAcrossQueues) {
  // The runtime's "splice" idiom: selective reception drains one object's
  // queue into the scheduler queue by pop/push. Relative order must be
  // preserved and the source queue left reusable.
  Fifo src, dst;
  Node n[6];
  for (int i = 0; i < 6; ++i) {
    n[i].v = i;
    (i < 4 ? src : dst).push_back(&n[i]);
  }
  while (Node* p = src.pop_front()) dst.push_back(p);
  EXPECT_TRUE(src.empty());
  ASSERT_EQ(dst.size(), 6u);
  int expect[] = {4, 5, 0, 1, 2, 3};
  for (int e : expect) EXPECT_EQ(dst.pop_front()->v, e);
  src.push_back(&n[0]);  // drained source must still be linkable
  EXPECT_EQ(src.size(), 1u);
}

TEST(IntrusiveFifo, EraseDuringIterationViaRepeatedRemoveFirstIf) {
  // Erasing while scanning: the supported idiom is remove_first_if per
  // match (the pattern scan of Section 2.4's selective reception). Remove
  // every even element from a 6-node queue, then check the survivors'
  // links — including the tail — are intact.
  Fifo q;
  Node n[6];
  for (int i = 0; i < 6; ++i) {
    n[i].v = i;
    q.push_back(&n[i]);
  }
  auto even = [](const Node& x) { return x.v % 2 == 0; };
  EXPECT_EQ(q.remove_first_if(even), &n[0]);  // head
  EXPECT_EQ(q.remove_first_if(even), &n[2]);  // interior
  EXPECT_EQ(q.remove_first_if(even), &n[4]);  // interior adjacent to tail
  EXPECT_EQ(q.remove_first_if(even), nullptr);
  EXPECT_EQ(q.size(), 3u);
  int seen[3] = {0, 0, 0};
  int i = 0;
  q.for_each([&](const Node& x) { seen[i++] = x.v; });
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 3);
  EXPECT_EQ(seen[2], 5);
  // n[5] is still the tail: appending must land after it.
  Node extra;
  extra.v = 7;
  q.push_back(&extra);
  EXPECT_EQ(q.pop_front(), &n[1]);
  EXPECT_EQ(q.pop_front(), &n[3]);
  EXPECT_EQ(q.pop_front(), &n[5]);
  EXPECT_EQ(q.pop_front(), &extra);
  EXPECT_TRUE(q.empty());
}

TEST(IntrusiveFifo, RemoveTailThenPushRepairsTailPointer) {
  Fifo q;
  Node a, b;
  a.v = 1;
  b.v = 2;
  q.push_back(&a);
  q.push_back(&b);
  EXPECT_EQ(q.remove_first_if([](const Node& x) { return x.v == 2; }), &b);
  // Tail now points at a; push must chain after a, not after stale b.
  Node c;
  c.v = 3;
  q.push_back(&c);
  EXPECT_EQ(q.pop_front(), &a);
  EXPECT_EQ(q.pop_front(), &c);
  EXPECT_TRUE(q.empty());
}

// ----------------------------------------------------------------- RNG -----

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 r1(42), r2(42), r3(43);
  bool all_same = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    auto a = r1(), b = r2(), c = r3();
    all_same = all_same && (a == b);
    any_diff = any_diff || (a != c);
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowInRange) {
  Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Xoshiro256 r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// --------------------------------------------------------------- Stats -----

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (std::uint64_t x : {2, 4, 4, 4, 5, 5, 7, 9}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 32.0 / 7.0);
  EXPECT_EQ(s.min(), 2u);
  EXPECT_EQ(s.max(), 9u);
  EXPECT_EQ(s.sum(), 40u);
}

TEST(RunningStat, EmptyAndSingleSample) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  s.add(7);
  EXPECT_EQ(s.mean(), 7.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 7u);
  EXPECT_EQ(s.max(), 7u);
}

// The state is a function of the sample multiset alone, so two orders of
// the same samples leave bitwise-equal state. A Welford update rounds these
// two orders differently (variance 36610.00000000001 against
// 36609.99999999999).
TEST(RunningStat, StateIsIndependentOfSampleOrder) {
  RunningStat ab, ba;
  for (std::uint64_t x : {22, 25, 23, 406}) ab.add(x);
  for (std::uint64_t x : {23, 406, 22, 25}) ba.add(x);
  EXPECT_EQ(std::memcmp(&ab, &ba, sizeof ab), 0);
  EXPECT_EQ(ab.mean(), 119.0);
  EXPECT_EQ(ab.variance(), 36610.0);
}

// Squares of samples above 2^32 overflow one 64-bit word; the sum of
// squares carries into its second word.
TEST(RunningStat, SumOfSquaresCarriesPast64Bits) {
  RunningStat s;
  const std::uint64_t a = std::uint64_t{1} << 40;
  s.add(a);
  s.add(a + 2);
  EXPECT_EQ(s.mean(), static_cast<double>(a + 1));
  EXPECT_EQ(s.variance(), 2.0);
}

TEST(Log2Histogram, BucketsAndPercentile) {
  Log2Histogram h;
  for (int i = 0; i < 100; ++i) h.add(1);    // bucket for value 1
  for (int i = 0; i < 100; ++i) h.add(1000);  // larger bucket
  EXPECT_EQ(h.count(), 200u);
  EXPECT_LE(h.percentile(0.25), 1u);
  EXPECT_GE(h.percentile(0.9), 512u);
}

// Regression: percentile() used to cast p * count straight to uint64_t, so
// a negative p (or NaN) was undefined behaviour and p > 1 silently
// saturated. Out-of-range p now clamps to the distribution's endpoints.
TEST(Log2Histogram, PercentileClampsOutOfRangeP) {
  Log2Histogram h;
  h.add(1);
  h.add(1000);
  std::uint64_t lo = h.percentile(0.0);
  std::uint64_t hi = h.percentile(1.0);
  EXPECT_EQ(h.percentile(-0.5), lo);
  EXPECT_EQ(h.percentile(2.0), hi);
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), lo);
  EXPECT_GE(hi, 512u);
}

TEST(Log2Histogram, PercentileOnEmptyIsZero) {
  Log2Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(-1.0), 0u);
}

// Values >= 2^63 are absorbed into the top bucket rather than indexing past
// the array. The percentile estimate for that bucket is its nominal upper
// bound 2^63 - 1, which understates absorbed values — documented behaviour.
TEST(Log2Histogram, TopBucketAbsorbsHugeValues) {
  Log2Histogram h;
  h.add(~0ull);
  h.add(1ull << 63);
  EXPECT_EQ(h.bucket(Log2Histogram::kBuckets - 1), 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(1.0), (1ull << 63) - 1);
}

TEST(Log2Histogram, MergeAddsCounts) {
  Log2Histogram a, b;
  a.add(5);
  b.add(5);
  b.add(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
}

// --------------------------------------------------------------- Table -----

TEST(Table, FormatsAlignedColumns) {
  Table t({"op", "us"});
  t.add_row({"send", "2.30"});
  t.add_row({"create", "2.10"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("| op "), std::string::npos);
  EXPECT_NE(s.find("2.30"), std::string::npos);
  // Every line has the same width.
  std::size_t w = s.find('\n');
  for (std::size_t pos = 0; pos < s.size();) {
    std::size_t e = s.find('\n', pos);
    EXPECT_EQ(e - pos, w);
    pos = e + 1;
  }
}

TEST(Table, NumGroupsThousands) {
  EXPECT_EQ(Table::num(std::uint64_t{9349765}), "9,349,765");
  EXPECT_EQ(Table::num(std::uint64_t{92}), "92");
  EXPECT_EQ(Table::num(std::uint64_t{1000}), "1,000");
  EXPECT_EQ(Table::num(2.345, 2), "2.35");
}

// ------------------------------------------------------------- MinHeap ----

constexpr std::uint64_t kInf = ~std::uint64_t{0};

struct HeapEntry {
  std::uint64_t key;
  std::int32_t id;
  bool operator==(const HeapEntry&) const = default;
};
struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  }
};
using Heap = MinHeap<HeapEntry, HeapLess>;

// Reference min-queue: std::priority_queue pops the max, so invert.
struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return HeapLess{}(b, a);
  }
};
using RefQueue =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater>;

TEST(MinHeap, PopsInKeyThenIdOrder) {
  Heap q;
  q.push({30, 1});
  q.push({10, 2});
  q.push({20, 3});
  q.push({10, 1});
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.top(), (HeapEntry{10, 1}));
  q.pop();
  EXPECT_EQ(q.top(), (HeapEntry{10, 2}));
  q.pop();
  EXPECT_EQ(q.top(), (HeapEntry{20, 3}));
  q.pop();
  EXPECT_EQ(q.top(), (HeapEntry{30, 1}));
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(MinHeap, TieBreakIsDeterministicAcrossInsertionOrders) {
  // All-equal keys must drain in id order regardless of push order.
  std::vector<std::int32_t> order = {7, 2, 9, 0, 5, 3, 8, 1, 6, 4};
  for (int rotation = 0; rotation < 10; ++rotation) {
    std::rotate(order.begin(), order.begin() + 1, order.end());
    Heap q;
    for (std::int32_t id : order) q.push({42, id});
    for (std::int32_t want = 0; want < 10; ++want) {
      EXPECT_EQ(q.top(), (HeapEntry{42, want}));
      q.pop();
    }
  }
}

// Interleaved random pushes/pops against std::priority_queue, across a key
// distribution with monotone drift, far-future jumps and late pushes below
// the drifting front — the shapes the drivers and the network produce.
TEST(MinHeap, RandomizedEquivalenceVsPriorityQueue) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Xoshiro256 rng(seed);
    Heap q;
    RefQueue ref;
    std::uint64_t front = 0;  // drifting time front
    std::int32_t next_id = 0;
    for (int step = 0; step < 20000; ++step) {
      const bool can_pop = !ref.empty();
      if (!can_pop || rng.below(100) < 55) {
        std::uint64_t k;
        switch (rng.below(10)) {
          case 0: k = front + rng.below(1u << 20);  break;  // far jump
          case 1: k = front - std::min(front, rng.below(16)); break;  // late
          default: k = front + rng.below(64); break;  // monotone-ish
        }
        HeapEntry e{k, next_id++};
        q.push(e);
        ref.push(e);
      } else {
        ASSERT_EQ(q.top(), ref.top()) << "seed " << seed << " step " << step;
        if (q.top().key > front) front = q.top().key;
        q.pop();
        ref.pop();
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) {
      ASSERT_EQ(q.top(), ref.top());
      q.pop();
      ref.pop();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(MinHeap, InfinityKeys) {
  // kInstrInf-magnitude keys next to key 0 order like any other key.
  Heap q;
  q.push({kInf, 1});
  q.push({0, 2});
  q.push({kInf - 1, 3});
  q.push({kInf, 0});
  q.push({1u << 31, 4});
  EXPECT_EQ(q.top(), (HeapEntry{0, 2}));
  q.pop();
  EXPECT_EQ(q.top(), (HeapEntry{std::uint64_t{1} << 31, 4}));
  q.pop();
  EXPECT_EQ(q.top(), (HeapEntry{kInf - 1, 3}));
  q.pop();
  EXPECT_EQ(q.top(), (HeapEntry{kInf, 0}));
  q.pop();
  EXPECT_EQ(q.top(), (HeapEntry{kInf, 1}));
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(MinHeap, ClearAndReuse) {
  Heap q;
  for (std::uint64_t k = 0; k < 100; ++k) q.push({k * 1000, 0});
  q.pop();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push({7, 1});
  EXPECT_EQ(q.top(), (HeapEntry{7, 1}));
  q.pop();
  EXPECT_TRUE(q.empty());
}


// ---------------------------------------------------------------------------
// SpecParser: the shared strict key=value grammar behind every spec knob
// (ABCLSIM_FAULTS / _MIGRATION / _CHECKPOINT); see util/spec_parser.hpp.
// ---------------------------------------------------------------------------

TEST(SpecParser, TrimStripsSurroundingBlanksOnly) {
  using util::SpecParser;
  EXPECT_EQ(SpecParser::trim("  a b  "), "a b");
  EXPECT_EQ(SpecParser::trim("\ta\t"), "a");
  EXPECT_EQ(SpecParser::trim(""), "");
  EXPECT_EQ(SpecParser::trim("   "), "");
}

TEST(SpecParser, ParseU64IsStrictAndOverflowChecked) {
  using util::SpecParser;
  EXPECT_EQ(SpecParser::parse_u64("0"), 0u);
  EXPECT_EQ(SpecParser::parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(SpecParser::parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(SpecParser::parse_u64("").has_value());
  EXPECT_FALSE(SpecParser::parse_u64("-1").has_value());
  EXPECT_FALSE(SpecParser::parse_u64("1x").has_value());
  EXPECT_FALSE(SpecParser::parse_u64("0x10").has_value());
}

TEST(SpecParser, ParseProbPpmIsStrict) {
  using util::SpecParser;
  EXPECT_EQ(SpecParser::parse_prob_ppm("0"), 0u);
  EXPECT_EQ(SpecParser::parse_prob_ppm("1"), 1'000'000u);
  EXPECT_EQ(SpecParser::parse_prob_ppm("0.05"), 50'000u);
  EXPECT_EQ(SpecParser::parse_prob_ppm(".25"), 250'000u);
  EXPECT_EQ(SpecParser::parse_prob_ppm("0.000001"), 1u);
  EXPECT_FALSE(SpecParser::parse_prob_ppm("1.5").has_value());
  EXPECT_FALSE(SpecParser::parse_prob_ppm("0.0000001").has_value());  // 7 dp
  EXPECT_FALSE(SpecParser::parse_prob_ppm("5%").has_value());
  EXPECT_FALSE(SpecParser::parse_prob_ppm("").has_value());
}

TEST(SpecParser, RunParsesTypedFieldsAndBlanks) {
  std::uint32_t ppm = 0, small = 0;
  std::uint64_t big = 0;
  std::string name;
  util::SpecParser p;
  p.prob_ppm("drop", &ppm).u64("at", &big).u32("n", &small).str("path", &name);
  std::string why;
  ASSERT_TRUE(p.run(" drop = 0.5 , at = 99 , n = 7 , path = /tmp/x ", &why))
      << why;
  EXPECT_EQ(ppm, 500'000u);
  EXPECT_EQ(big, 99u);
  EXPECT_EQ(small, 7u);
  EXPECT_EQ(name, "/tmp/x");
}

TEST(SpecParser, RunRejectsEveryDeviationWithAReason) {
  auto fails = [](const std::string& raw) {
    std::uint64_t at = 0;
    util::SpecParser p;
    p.u64("at", &at);
    std::string why;
    bool ok = p.run(raw, &why);
    EXPECT_TRUE(ok || !why.empty()) << raw;
    return !ok;
  };
  EXPECT_TRUE(fails("bogus=1"));     // unknown key
  EXPECT_TRUE(fails("at=1,at=2"));   // repeated key
  EXPECT_TRUE(fails("at=zap"));      // malformed number
  EXPECT_TRUE(fails("at"));          // missing '='
  EXPECT_TRUE(fails("at="));         // empty value
  EXPECT_TRUE(fails("at=1,"));       // empty trailing entry
  EXPECT_FALSE(fails("at=1"));
}

TEST(SpecParser, SpecOffAndDiagnosticShapes) {
  EXPECT_TRUE(util::spec_off(nullptr));
  EXPECT_TRUE(util::spec_off(""));
  EXPECT_TRUE(util::spec_off("off"));
  EXPECT_FALSE(util::spec_off("on"));
  EXPECT_FALSE(util::spec_off("at=1"));

  const std::string e =
      util::spec_error("fault spec", "drop=lots", "bad value", "expected X");
  EXPECT_NE(e.find("fault spec"), std::string::npos);
  EXPECT_NE(e.find("drop=lots"), std::string::npos);
  EXPECT_NE(e.find("bad value"), std::string::npos);
  EXPECT_NE(e.find("expected X"), std::string::npos);
}

}  // namespace
