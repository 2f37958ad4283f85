#include "sim/lookahead.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace abcl::sim {

namespace {

inline Instr mul_sat(Instr w, Instr k) {
  if (w == 0 || k == 0) return 0;
  return k > kInstrInf / w ? kInstrInf : w * k;
}

}  // namespace

void line_min_plus_excl(const Instr* a, std::size_t n, Instr w, bool wrap,
                        Instr* out) {
  if (n == 0) return;
  // Forward sweep: out[i] = min over j < i of a[j] + w * (i - j). After
  // visiting i, f carries the best candidate for position i + 1, so the
  // element itself is never folded into its own slot.
  Instr f = kInstrInf;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = f;
    f = sat_add(std::min(f, a[i]), w);
  }
  // Backward sweep: j > i at distance j - i.
  f = kInstrInf;
  for (std::size_t i = n; i-- > 0;) {
    out[i] = std::min(out[i], f);
    f = sat_add(std::min(f, a[i]), w);
  }
  if (!wrap || n < 2) return;
  // Ring wrap terms. For j > i the wrap distance is n - (j - i), i.e.
  // a[j] + w * (n - j) + w * i — a suffix minimum of a[j] + w * (n - j)
  // plus a per-position w * i; symmetrically for j < i. Both sweeps keep
  // the running extremum strictly on the far side of i, so the element
  // never reaches its own slot via the "distance n" lap.
  Instr suf = kInstrInf;
  for (std::size_t i = n; i-- > 0;) {
    out[i] = std::min(out[i], sat_add(suf, mul_sat(w, i)));
    suf = std::min(suf, sat_add(a[i], mul_sat(w, n - i)));
  }
  Instr pre = kInstrInf;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::min(out[i], sat_add(pre, mul_sat(w, n - i)));
    pre = std::min(pre, sat_add(a[i], mul_sat(w, i)));
  }
}

HorizonMap::HorizonMap(const net::Topology* topo, Instr per_hop)
    : topo_(topo), per_hop_(per_hop) {
  ABCL_CHECK(topo_ != nullptr);
}

Instr HorizonMap::brute_force(const net::Topology& topo, Instr per_hop,
                              const std::vector<Instr>& keys, NodeId i) {
  Instr best = kInstrInf;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    if (static_cast<NodeId>(j) == i) continue;
    Instr hops = static_cast<Instr>(topo.hops(static_cast<NodeId>(j), i));
    best = std::min(best, sat_add(keys[j], mul_sat(per_hop, hops)));
  }
  return best;
}

void HorizonMap::relax(const std::vector<Instr>& keys,
                       std::vector<Instr>* out) {
  ABCL_CHECK(static_cast<std::int32_t>(keys.size()) == topo_->num_nodes());
  out->resize(keys.size());
  switch (topo_->kind()) {
    case net::TopologyKind::kRing:
      relax_ring(keys, out);
      return;
    case net::TopologyKind::kTorus2D:
      relax_grid(keys, out, /*wrap=*/true);
      return;
    case net::TopologyKind::kMesh2D:
      relax_grid(keys, out, /*wrap=*/false);
      return;
    case net::TopologyKind::kFullyConnected:
      relax_full(keys, out);
      return;
    case net::TopologyKind::kHypercube:
      relax_cube(keys, out);
      return;
  }
  ABCL_UNREACHABLE();
}

void HorizonMap::relax_ring(const std::vector<Instr>& keys,
                            std::vector<Instr>* out) {
  if (keys.size() < 2) {
    std::fill(out->begin(), out->end(), kInstrInf);
    return;
  }
  line_min_plus_excl(keys.data(), keys.size(), per_hop_, /*wrap=*/true,
                     out->data());
}

// Separable 2-D pass over the X x Y grid (id = y * X + x). Hop distance is
// |dx| + |dy| (ring distances per axis when wrapping), so
//   min_{j != i} = min( min over same-row j != i,
//                       min over rows y' != y of the row-inclusive best )
// — the column pass runs the exclude-self transform over the include-self
// row results, which covers every (x', y') with y' != y including x' == x,
// while the row pass covers y' == y, x' != x. The union is exactly j != i.
void HorizonMap::relax_grid(const std::vector<Instr>& keys,
                            std::vector<Instr>* out, bool wrap) {
  const std::size_t x = static_cast<std::size_t>(topo_->dim_x());
  const std::size_t y = static_cast<std::size_t>(topo_->dim_y());
  if (keys.size() < 2) {
    std::fill(out->begin(), out->end(), kInstrInf);
    return;
  }
  row_full_.resize(keys.size());
  for (std::size_t r = 0; r < y; ++r) {
    const Instr* a = keys.data() + r * x;
    Instr* excl = out->data() + r * x;
    line_min_plus_excl(a, x, per_hop_, wrap, excl);
    for (std::size_t c = 0; c < x; ++c) {
      row_full_[r * x + c] = std::min(excl[c], a[c]);
    }
  }
  col_in_.resize(y);
  col_out_.resize(y);
  for (std::size_t c = 0; c < x; ++c) {
    for (std::size_t r = 0; r < y; ++r) col_in_[r] = row_full_[r * x + c];
    line_min_plus_excl(col_in_.data(), y, per_hop_, wrap, col_out_.data());
    for (std::size_t r = 0; r < y; ++r) {
      Instr& o = (*out)[r * x + c];
      o = std::min(o, col_out_[r]);
    }
  }
}

void HorizonMap::relax_full(const std::vector<Instr>& keys,
                            std::vector<Instr>* out) {
  const std::size_t n = keys.size();
  if (n < 2) {
    std::fill(out->begin(), out->end(), kInstrInf);
    return;
  }
  // Every other node is one hop away: the bound is min over j != i of
  // keys[j] + w, i.e. the global min for everyone except the (first)
  // argmin, which sees the second minimum.
  std::size_t i1 = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (keys[i] < keys[i1]) i1 = i;
  }
  Instr m2 = kInstrInf;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != i1) m2 = std::min(m2, keys[i]);
  }
  const Instr m1w = sat_add(keys[i1], per_hop_);
  const Instr m2w = sat_add(m2, per_hop_);
  for (std::size_t i = 0; i < n; ++i) (*out)[i] = i == i1 ? m2w : m1w;
}

// Hypercube: log2(N) include-self dimension passes compute
// D[i] = min_j keys[j] + w * popcount(i ^ j); the neighbour relaxation
// w + min over one-bit flips of D is then exact for every j != i (any j != i
// differs in some bit b, and D[i ^ b] holds keys[j] + w * (hops - 1)) and
// adds only the self echo keys[i] + 2w — a smaller, still-conservative
// candidate. Exact self exclusion does not separate across dimensions; the
// echo never binds, because the driver folds keys[i] itself back in.
void HorizonMap::relax_cube(const std::vector<Instr>& keys,
                            std::vector<Instr>* out) {
  const std::size_t n = keys.size();
  if (n < 2) {
    std::fill(out->begin(), out->end(), kInstrInf);
    return;
  }
  cube_a_ = keys;
  for (std::size_t b = 1; b < n; b <<= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i & b) continue;
      const std::size_t j = i | b;
      const Instr ai = cube_a_[i];
      const Instr aj = cube_a_[j];
      cube_a_[i] = std::min(ai, sat_add(aj, per_hop_));
      cube_a_[j] = std::min(aj, sat_add(ai, per_hop_));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    Instr best = kInstrInf;
    for (std::size_t b = 1; b < n; b <<= 1) {
      best = std::min(best, cube_a_[i ^ b]);
    }
    (*out)[i] = sat_add(best, per_hop_);
  }
}

}  // namespace abcl::sim
