#include "net/packet_pool.hpp"

#include <type_traits>

namespace abcl::net {

// Slabs are raw bytes: Packet is an implicit-lifetime aggregate, so a slot
// begins its life when the sender first writes it, and nothing here runs
// Packet's member initializers over memory the sender overwrites anyway.
static_assert(std::is_aggregate_v<Packet> &&
                  std::is_trivially_destructible_v<Packet> &&
                  std::is_trivially_copyable_v<Packet>,
              "pool slots are uninitialized storage for Packets");
static_assert(alignof(Packet) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

void PacketPool::depot_get(Magazine& m) {
  std::lock_guard<std::mutex> lock(mu_);
  const int want = kMagazineCap / 2;
  while (m.n_ < want) {
    if (!depot_.empty()) {
      m.slots_[m.n_++] = depot_.back();
      depot_.pop_back();
      continue;
    }
    if (fresh_left_ == 0) {
      slabs_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          kSlabPackets * sizeof(Packet)));
      fresh_ = reinterpret_cast<Packet*>(slabs_.back().get());
      fresh_left_ = kSlabPackets;
    }
    m.slots_[m.n_++] = fresh_++;
    --fresh_left_;
  }
}

void PacketPool::depot_put(Magazine& m, int keep) {
  std::lock_guard<std::mutex> lock(mu_);
  while (m.n_ > keep) depot_.push_back(m.slots_[--m.n_]);
}

Packet* PacketPool::acquire(Magazine& m) {
  if (m.n_ == 0) {
    ++m.depot_trips_;
    depot_get(m);
  } else {
    ++m.hits_;
  }
  return m.slots_[--m.n_];
}

void PacketPool::release(Magazine& m, Packet* p) {
  if (m.n_ == kMagazineCap) {
    ++m.depot_trips_;
    depot_put(m, kMagazineCap / 2);
  } else {
    ++m.hits_;
  }
  m.slots_[m.n_++] = p;
}

void PacketPool::flush(Magazine& m) {
  if (m.n_ == 0) return;
  ++m.depot_trips_;
  depot_put(m, 0);
}

std::uint64_t PacketPool::slabs_allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slabs_.size();
}

std::uint64_t PacketPool::free_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depot_.size() + static_cast<std::uint64_t>(fresh_left_);
}

}  // namespace abcl::net
