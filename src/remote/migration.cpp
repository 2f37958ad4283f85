#include "remote/migration.hpp"

#include <algorithm>

#include "net/topology.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/spec_parser.hpp"

namespace abcl::remote {

bool validate_migration_config(const MigrationConfig& cfg, std::string* err) {
  auto fail = [&](const char* msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  if (!cfg.enabled) return true;
  if (cfg.interval < 1) {
    return fail("migration config: interval must be >= 1 quantum");
  }
  if (cfg.max_batch < 1) {
    return fail("migration config: max_batch must be >= 1");
  }
  if (cfg.min_queue < 1) {
    return fail("migration config: min_queue must be >= 1");
  }
  return true;
}

// Thin wrapper over util::SpecParser — see parse_fault_spec for the shape.
std::optional<MigrationConfig> parse_migration_spec(const char* text,
                                                    std::string* err) {
  MigrationConfig cfg;
  if (util::spec_off(text)) return cfg;  // unset or "off": migration off
  const std::string raw = text;
  auto fail = [&](const std::string& why) -> std::optional<MigrationConfig> {
    if (err != nullptr) {
      *err = util::spec_error("migration spec", raw, why,
                              "expected comma-separated "
                              "interval/hysteresis/max_batch/min_queue/seed=N");
    }
    return std::nullopt;
  };
  cfg.enabled = true;

  util::SpecParser p;
  p.u32("interval", &cfg.interval)
      .u32("hysteresis", &cfg.hysteresis)
      .u32("max_batch", &cfg.max_batch)
      .u32("min_queue", &cfg.min_queue)
      .u64("seed", &cfg.seed);
  std::string why;
  if (!p.run(raw, &why)) return fail(why);

  std::string verr;
  if (!validate_migration_config(cfg, &verr)) return fail(verr);
  return cfg;
}

std::string to_string(const MigrationConfig& cfg) {
  if (!cfg.enabled) return "off";
  std::string out;
  out += "interval=" + std::to_string(cfg.interval);
  out += ",hysteresis=" + std::to_string(cfg.hysteresis);
  out += ",max_batch=" + std::to_string(cfg.max_batch);
  out += ",min_queue=" + std::to_string(cfg.min_queue);
  out += ",seed=" + std::to_string(cfg.seed);
  return out;
}

std::uint64_t shed_roll(std::uint64_t seed, std::int32_t node,
                        std::uint64_t quantum) {
  // Short SplitMix chain over the decision coordinates, FaultPlan::roll
  // style: equal coordinates always produce equal rolls.
  std::uint64_t x = seed ^ 0xabc1'0b1e'c75ull;
  x = util::splitmix64(x);
  x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(node));
  x = util::splitmix64(x);
  x ^= quantum;
  return util::splitmix64(x);
}

std::optional<ShedDecision> decide_shed(
    const MigrationConfig& cfg, std::int32_t node, std::uint64_t quantum,
    std::uint32_t depth,
    std::span<const std::pair<std::int32_t, std::uint32_t>> neighbor_loads) {
  if (!cfg.enabled || depth < cfg.min_queue) return std::nullopt;
  if (neighbor_loads.empty()) return std::nullopt;
  ABCL_CHECK_MSG(neighbor_loads.size() <= net::kMaxNeighbors,
                 "decide_shed: more neighbour loads than any topology has");

  // Lower median of the fresh neighbour loads: with the torus' four
  // neighbours that is the second-smallest sample, a robust "what does my
  // neighbourhood look like" figure that one overloaded peer cannot drag
  // up past the shedder's own depth.
  std::uint32_t loads[net::kMaxNeighbors];
  const std::size_t n = neighbor_loads.size();
  for (std::size_t i = 0; i < n; ++i) loads[i] = neighbor_loads[i].second;
  std::uint32_t* const mid = loads + (n - 1) / 2;
  std::nth_element(loads, mid, loads + n);
  const std::uint32_t median = *mid;

  if (depth <= median ||
      depth - median <= cfg.hysteresis) {  // inside the hysteresis band
    return std::nullopt;
  }
  const std::uint32_t quota =
      std::min<std::uint32_t>(cfg.max_batch, (depth - median) / 2);
  if (quota == 0) return std::nullopt;

  // Target: the least-loaded neighbour that is strictly below our depth.
  // Ties broken by the seeded roll so a symmetric neighbourhood does not
  // always dump on the lowest node id (which would re-create the hot spot
  // one hop over).
  std::uint32_t best = ~std::uint32_t{0};
  std::size_t ties = 0;
  for (const auto& [peer, load] : neighbor_loads) {
    if (load >= depth || load > best) continue;
    if (load < best) {
      best = load;
      ties = 0;
    }
    ++ties;
  }
  if (ties == 0) return std::nullopt;
  // The roll picks the pick-th tied neighbour, counted in neighbour order.
  const std::uint64_t r = shed_roll(cfg.seed, node, quantum);
  std::size_t pick = static_cast<std::size_t>(r % ties);
  ShedDecision d;
  for (const auto& [peer, load] : neighbor_loads) {
    if (load == best && pick-- == 0) {
      d.target = peer;
      break;
    }
  }
  d.quota = quota;
  return d;
}

}  // namespace abcl::remote
