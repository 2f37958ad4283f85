// Live object migration: configuration + the deterministic work-shedding
// policy.
//
// The paper fixes an object's home node at creation time (Section 6's
// placement schemes); an unlucky burst then leaves a hot node stuck with
// its load forever. Migration closes that gap: a node that finds itself
// far above its neighbourhood's load median detaches objects from its run
// queue and ships them (state + a forwarding contract for the pending
// inbox) to the least-loaded fresh neighbour. The old home keeps a
// forwarding stub so in-flight mail still arrives exactly once and in
// per-sender order; kUpdateAddr notifications compress forwarding chains
// back to length <= 1 (see DESIGN.md "Object migration").
//
// Everything in this header is *policy*: pure functions of simulated
// quantities (queue depth, gossip loads, quantum index, config seed). The
// mechanism — stubs, fragment reassembly, flush markers — lives in
// core::NodeRuntime. Keeping the policy pure is what makes the shed
// schedule bit-identical across the serial Machine and any-thread-count
// ParallelMachine: like net::FaultPlan, every decision is a counter-based
// hash of (seed, node, quantum) plus state that is itself a deterministic
// function of the run.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

namespace abcl::remote {

// Knobs behind WorldConfig.migration / ABCLSIM_MIGRATION / the fuzz spec's
// optional "migration" block. All integers, so configs serialize exactly
// (same reasoning as net::FaultConfig's ppm fields).
struct MigrationConfig {
  bool enabled = false;
  // Shed checks run every `interval` quanta (at quantum q when
  // q % interval == 0). Doubles as the auto-enabled gossip interval when
  // the app did not configure gossip itself (shedding needs load info).
  std::uint32_t interval = 64;
  // Hysteresis band: a node sheds only when its run-queue depth exceeds
  // the neighbourhood load median by MORE than this, so two nodes near
  // parity do not ping-pong objects.
  std::uint32_t hysteresis = 4;
  // At most this many objects leave per shed event.
  std::uint32_t max_batch = 4;
  // A node with fewer than this many queued objects never sheds, no matter
  // what its neighbours look like (migration has a fixed protocol cost).
  std::uint32_t min_queue = 8;
  // Tie-break decision-stream seed (independent of the workload seed, like
  // FaultConfig::seed).
  std::uint64_t seed = 1;

  bool operator==(const MigrationConfig&) const = default;
};

// kMigrateStart flag bits (word 2, low half; the epoch rides in the high
// half) — which optional sections the state blob carries.
inline constexpr std::uint32_t kMigNeedsInit = 1u << 0;    // state not constructed
inline constexpr std::uint32_t kMigPendingInit = 1u << 1;  // saved ctor frame
inline constexpr std::uint32_t kMigWaiting = 1u << 2;      // blocked ctx frame

// Cap on the prior-stub trail a migrating object carries (2 packet words
// per entry; 8 keeps kMigrateStart within net::kMaxPacketWords). Stubs that
// age out of the trail stop receiving kUpdateStub notifications, so their
// chains can grow by one hop per missed migration instead of staying <= 1 —
// bounded by the object's migration count and compressed back per-sender by
// kUpdateAddr (see DESIGN.md).
inline constexpr std::size_t kMaxPriorStubs = 8;

// Structural validation shared by parse_migration_spec, WorldConfig and the
// fuzz Spec loader. Returns false with a human-readable reason; a disabled
// config is always valid.
bool validate_migration_config(const MigrationConfig& cfg, std::string* err);

// Strict parser behind ABCLSIM_MIGRATION and fuzz_repro --migration.
// nullptr or empty -> disabled config; "off" -> disabled. Otherwise a
// comma-separated key=value list over
//   interval=N hysteresis=N max_batch=N min_queue=N seed=N
// Unknown keys, repeated keys or malformed numbers return nullopt with a
// diagnostic in *err — garbage never falls back silently to "no
// migration".
std::optional<MigrationConfig> parse_migration_spec(const char* text,
                                                    std::string* err);

// One-line canonical rendering ("interval=64,hysteresis=4,..."; "off" when
// disabled) — parse_migration_spec(to_string(cfg)) round-trips exactly.
std::string to_string(const MigrationConfig& cfg);

// Tie-break roll for a shed event, keyed on (seed, node, quantum) exactly
// like FaultPlan::roll is keyed on its decision coordinates. Pure.
std::uint64_t shed_roll(std::uint64_t seed, std::int32_t node,
                        std::uint64_t quantum);

// Outcome of one shed check: ship up to `quota` objects to `target`.
struct ShedDecision {
  std::int32_t target = -1;
  std::uint32_t quota = 0;
};

// The per-quantum shed check. `depth` is the node's run-queue depth at the
// check; `neighbor_loads` holds (node, load) for every *fresh* gossip
// sample, in the topology's fixed neighbour order (staleness filtering is
// the caller's job — see LoadMap::get), at most net::kMaxNeighbors of them.
// Sheds when depth exceeds the lower median of the neighbour loads by more
// than the hysteresis band; the target is the least-loaded
// strictly-less-loaded neighbour, ties broken by shed_roll. Returns nullopt
// when the node should keep its work. Allocates nothing.
//
// Every input is a simulated quantity, so serial and host-parallel drivers
// reach identical decisions at identical quanta.
std::optional<ShedDecision> decide_shed(
    const MigrationConfig& cfg, std::int32_t node, std::uint64_t quantum,
    std::uint32_t depth,
    std::span<const std::pair<std::int32_t, std::uint32_t>> neighbor_loads);

}  // namespace abcl::remote
