#include "net/topology.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>

#include "util/assert.hpp"

namespace abcl::net {

Topology::Topology(TopologyKind kind, std::int32_t n) : kind_(kind), n_(n) {
  ABCL_CHECK(n >= 1);
  if (kind_ == TopologyKind::kFullyConnected || kind_ == TopologyKind::kRing) {
    x_ = n;
    y_ = 1;
  } else if (kind_ == TopologyKind::kHypercube) {
    ABCL_CHECK_MSG((n & (n - 1)) == 0, "hypercube needs a power-of-two size");
    x_ = n;
    y_ = 1;
  } else {
    // Pick the factorization X * Y = n with X >= Y and X - Y minimal.
    std::int32_t best_y = 1;
    for (std::int32_t y = 1; y * y <= n; ++y) {
      if (n % y == 0) best_y = y;
    }
    y_ = best_y;
    x_ = n / best_y;
  }
  nbr_begin_.reserve(static_cast<std::size_t>(n) + 1);
  nbr_begin_.push_back(0);
  for (NodeId id = 0; id < n; ++id) {
    append_neighbors(id);
    nbr_begin_.push_back(static_cast<std::uint32_t>(nbr_.size()));
  }
}

std::int32_t Topology::hops(NodeId src, NodeId dst) const {
  if (src == dst) return 0;
  switch (kind_) {
    case TopologyKind::kFullyConnected:
      return 1;
    case TopologyKind::kRing: {
      std::int32_t d = std::abs(src - dst);
      return d < n_ - d ? d : n_ - d;
    }
    case TopologyKind::kHypercube:
      return std::popcount(static_cast<std::uint32_t>(src) ^
                           static_cast<std::uint32_t>(dst));
    case TopologyKind::kMesh2D: {
      std::int32_t dx = std::abs(coord_x(src) - coord_x(dst));
      std::int32_t dy = std::abs(coord_y(src) - coord_y(dst));
      return dx + dy;
    }
    case TopologyKind::kTorus2D: {
      std::int32_t dx = std::abs(coord_x(src) - coord_x(dst));
      std::int32_t dy = std::abs(coord_y(src) - coord_y(dst));
      if (x_ - dx < dx) dx = x_ - dx;
      if (y_ - dy < dy) dy = y_ - dy;
      return dx + dy;
    }
  }
  ABCL_UNREACHABLE();
}

void Topology::append_neighbors(NodeId id) {
  std::vector<NodeId>& out = nbr_;
  const std::size_t first = out.size();
  if (kind_ == TopologyKind::kFullyConnected) {
    for (std::int32_t i = 0; i < n_ && out.size() - first < 8; ++i) {
      if (i != id) out.push_back(i);
    }
    return;
  }
  if (kind_ == TopologyKind::kRing) {
    if (n_ > 1) out.push_back((id + 1) % n_);
    if (n_ > 2) out.push_back((id + n_ - 1) % n_);
    return;
  }
  if (kind_ == TopologyKind::kHypercube) {
    for (std::int32_t bit = 1; bit < n_; bit <<= 1) out.push_back(id ^ bit);
    return;
  }
  std::int32_t cx = coord_x(id);
  std::int32_t cy = coord_y(id);
  auto add = [&](std::int32_t nx, std::int32_t ny) {
    if (kind_ == TopologyKind::kTorus2D) {
      nx = (nx + x_) % x_;
      ny = (ny + y_) % y_;
    } else if (nx < 0 || nx >= x_ || ny < 0 || ny >= y_) {
      return;
    }
    NodeId nid = ny * x_ + nx;
    if (nid == id) return;  // wrap-around on a dimension of size 1
    for (std::size_t i = first; i < out.size(); ++i) {
      if (out[i] == nid) return;
    }
    out.push_back(nid);
  };
  add(cx - 1, cy);
  add(cx + 1, cy);
  add(cx, cy - 1);
  add(cx, cy + 1);
}

std::int32_t Topology::diameter() const {
  switch (kind_) {
    case TopologyKind::kFullyConnected:
      return n_ > 1 ? 1 : 0;
    case TopologyKind::kMesh2D:
      return (x_ - 1) + (y_ - 1);
    case TopologyKind::kTorus2D:
      return x_ / 2 + y_ / 2;
    case TopologyKind::kRing:
      return n_ / 2;
    case TopologyKind::kHypercube: {
      std::int32_t d = 0;
      for (std::int32_t v = n_ - 1; v != 0; v >>= 1) ++d;
      return d;
    }
  }
  ABCL_UNREACHABLE();
}

}  // namespace abcl::net
