// Interconnect topologies for the simulated multicomputer.
//
// The AP1000 is a 2-D torus (T-net, 25 MB/s); the network model only needs
// the hop count between two nodes to price a packet, so a topology is a hop
// function plus a neighbour enumeration (used by the neighbour placement
// policy, the load-gossip service and the shed check). The neighbour lists
// are computed once, at construction, into one flat table, so the gossip
// and shed paths read a span instead of building a vector every call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/machine.hpp"

namespace abcl::net {

using sim::NodeId;

enum class TopologyKind : std::uint8_t {
  kTorus2D,        // AP1000-style wrap-around mesh
  kMesh2D,         // no wrap-around
  kFullyConnected, // 1 hop between any two distinct nodes
  kRing,           // 1-D wrap-around (pipeline machines)
  kHypercube,      // hops = popcount(a ^ b); n rounded meanings: see ctor
};

// Upper bound on any node's neighbour count: 4 on a torus or mesh, 2 on a
// ring, at most 8 when fully connected and log2(n) <= 30 on a hypercube.
// Callers size stack arrays of per-neighbour samples with it.
inline constexpr std::size_t kMaxNeighbors = 32;

class Topology {
 public:
  // Builds a topology over `n` nodes. For the 2-D kinds, the grid is chosen
  // as close to square as possible (X * Y == n, X >= Y).
  Topology(TopologyKind kind, std::int32_t n);

  TopologyKind kind() const { return kind_; }
  std::int32_t num_nodes() const { return n_; }
  std::int32_t dim_x() const { return x_; }
  std::int32_t dim_y() const { return y_; }

  // Minimal routing distance in hops; 0 iff src == dst.
  std::int32_t hops(NodeId src, NodeId dst) const;

  // Direct neighbours (4 for torus/mesh interior; all others for
  // fully-connected, capped at 8 for gossip fan-out sanity), in a fixed
  // order; at most kMaxNeighbors of them. The span stays valid for the
  // topology's lifetime.
  std::span<const NodeId> neighbors(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return {nbr_.data() + nbr_begin_[i], nbr_.data() + nbr_begin_[i + 1]};
  }

  std::int32_t diameter() const;

 private:
  std::int32_t coord_x(NodeId id) const { return static_cast<std::int32_t>(id) % x_; }
  std::int32_t coord_y(NodeId id) const { return static_cast<std::int32_t>(id) / x_; }
  // Appends id's neighbours to nbr_ (the table builder).
  void append_neighbors(NodeId id);

  TopologyKind kind_;
  std::int32_t n_;
  std::int32_t x_ = 1;
  std::int32_t y_ = 1;
  // Every node's neighbours back to back; node i's are
  // nbr_[nbr_begin_[i], nbr_begin_[i + 1]).
  std::vector<NodeId> nbr_;
  std::vector<std::uint32_t> nbr_begin_;
};

}  // namespace abcl::net
