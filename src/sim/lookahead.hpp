// Distance-aware lookahead for the host-parallel PDES driver.
//
// The flat window lets every node run quanta with key < min_key + wire_min,
// where wire_min = Network::min_packet_latency(). That discards the torus
// structure the cost model prices: a packet from j to i costs at least
// wire_min + per_hop * hops(j, i), so node i is causally shielded from j for
// per_hop * hops(j, i) extra instructions. The per-node horizon
//
//   H_i = wire_min + min_j (key_j + per_hop * hops(j, i))
//
// is therefore still conservative — any packet that could affect a quantum
// of node i with key < H_i was sent by some j at key >= key_j and arrives at
// >= key_j + wire_min + per_hop * hops(j, i) >= H_i — while letting nodes far
// from the global minimum run far ahead. The min includes the self term
// j == i at hops = 0: the runtime does send packets to its own node (a
// remote create whose placement picks the caller's node ships a real packet
// through Network::send), so a node's own key caps its horizon at key_i +
// wire_min, as under the flat bound. An isolated busy node therefore still
// re-barriers every wire_min instructions; the gain is that nodes farther
// from the busy ones run further ahead.
//
// HorizonMap computes the exclude-self hop term B_i = min_{j != i} (key_j +
// per_hop * hops(j, i)) for all i in O(N) per call (O(N log N) for the
// hypercube), and the driver folds key_i back in (ParallelMachine::
// compute_horizons). The transforms:
//   - ring: linear prefix/suffix sweeps plus two wrap terms, all excluding i;
//   - torus/mesh: separable — an exclude-self pass along rows combined with
//     an exclude-self pass down columns of the include-self row transform;
//   - fully connected: min / second-min with argmin;
//   - hypercube: log2(N) include-self dimension passes, then one neighbour
//     relaxation w + min over neighbours — exact for every j != i and only
//     over-conservative in the self echo key_i + 2 * per_hop, which is still
//     a valid (smaller) bound.
// All arithmetic saturates at sim::kInstrInf (the "idle forever" key).
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace abcl::sim {

// Horizon policy of the parallel driver: the flat global window (default)
// or per-node distance-aware windows. Results are byte-identical either
// way; only the number of barriers changes.
enum class HorizonKind : std::uint8_t { kGlobal, kDistance };

// Stable spelling (matches the ABCLSIM_HORIZON grammar) for logs/JSON.
inline const char* to_string(HorizonKind k) {
  return k == HorizonKind::kDistance ? "distance" : "global";
}

// a + b clamped to kInstrInf; treats kInstrInf as absorbing.
inline Instr sat_add(Instr a, Instr b) {
  return a >= kInstrInf - b ? kInstrInf : a + b;
}

class HorizonMap {
 public:
  // `topo` must outlive the map. `per_hop` is the cost model's per-hop wire
  // charge (0 degrades gracefully: B_i = min over the other nodes' keys).
  HorizonMap(const net::Topology* topo, Instr per_hop);

  // keys[i] = node i's current effective key (kInstrInf = idle, nothing in
  // flight). Writes out[i] = min_{j != i} sat(keys[j] + per_hop *
  // hops(j, i)); kInstrInf when every other node is idle (or N == 1). The
  // caller adds wire_min on top — and must also fold in its own key at
  // hops = 0 (self-sends are legal: a remote-create whose placement picks
  // the caller's node ships a real packet). `out` is resized to keys.size().
  void relax(const std::vector<Instr>& keys, std::vector<Instr>* out);

  // O(N^2) reference of the exact exclude-self bound, for tests and for the
  // hypercube tightness check. Ignores the neighbour-relaxation slack.
  static Instr brute_force(const net::Topology& topo, Instr per_hop,
                           const std::vector<Instr>& keys, NodeId i);

 private:
  void relax_ring(const std::vector<Instr>& keys, std::vector<Instr>* out);
  void relax_grid(const std::vector<Instr>& keys, std::vector<Instr>* out,
                  bool wrap);
  void relax_full(const std::vector<Instr>& keys, std::vector<Instr>* out);
  void relax_cube(const std::vector<Instr>& keys, std::vector<Instr>* out);

  const net::Topology* topo_;
  Instr per_hop_;
  // Scratch reused across calls (the driver calls relax every window).
  std::vector<Instr> row_full_;
  std::vector<Instr> col_in_;
  std::vector<Instr> col_out_;
  std::vector<Instr> cube_a_;
};

// Exclude-self min-plus transform on a line: out[i] = min over j != i of
// a[j] + w * |i - j|, saturating. Exposed for the 2-D separable passes and
// unit tests. When `wrap`, distances are ring distances min(d, L - d). The
// include-self variant is min(out[i], a[i]).
void line_min_plus_excl(const Instr* a, std::size_t n, Instr w, bool wrap,
                        Instr* out);

}  // namespace abcl::sim
