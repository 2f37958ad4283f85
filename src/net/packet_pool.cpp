#include "net/packet_pool.hpp"

namespace abcl::net {

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
      slabs_.push_back(std::make_unique<Packet[]>(kSlabPackets));
      fresh_ = slabs_.back().get();
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

}  // namespace abcl::net
