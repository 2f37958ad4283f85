// Deterministic network fault injection + the delivery-hardening protocol.
//
// The paper assumes the multicomputer's network is perfect — no drops, no
// duplicates, no pathological delays — and so did this runtime, which made
// whole bug classes (stale gossip steering placement, replenish protocols
// wedged on a lost create packet) unreachable by the fuzzer. A FaultPlan
// makes unreliable delivery a first-class simulated scenario: drop,
// duplicate, reorder-delay and per-link blackout faults, each decided by a
// counter-based SplitMix hash of (seed, src, dst, link_seq, attempt).
//
// Determinism argument: every hash input is a simulated quantity fixed by
// one source's own send order (link_seq increments per (src,dst) channel
// exactly when Network::commit runs, and every driver commits each
// source's sends in program order, however it interleaves sources), so
// serial and host-parallel runs make bit-identical fault decisions. The
// accounting is sums and histograms, which no commit order changes. No
// host randomness, clocks or thread interleavings are ever consulted.
//
// Reliability is resolved *analytically at commit time*: instead of
// simulating live ack packets and timer events, commit plays out the whole
// stop-and-wait retry protocol for the packet at once — attempt k
// transmits at send_time + sum of backoffs, is lost to a drop or blackout
// hash, or else enqueues a real delivery copy (plus a duplicate copy when
// the dup hash fires); a lost virtual ack makes the sender retransmit
// spuriously. Every copy after the first is marked Packet::dup at commit,
// and the receiver discards marked copies. The resulting delivery schedule
// is exactly what a message-level simulation of the protocol would
// produce, at none of the event cost, and every copy still arrives >=
// send_time + Network::min_packet_latency(), so the PDES lookahead stays
// valid.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace abcl::net {

// Fault probabilities are integer parts-per-million (0..1'000'000) so that
// configs serialize exactly (no float formatting drift in specs, metrics or
// baselines). parse_fault_spec accepts human decimals ("drop=0.05") and
// converts; 1.0 drop/blackout is rejected outright — with every attempt
// lost the retry protocol is a guaranteed livelock.
struct FaultConfig {
  bool enabled = false;
  std::uint32_t drop_ppm = 0;      // per-attempt data-packet loss (also acks)
  std::uint32_t dup_ppm = 0;       // duplicate-delivery probability per copy
  std::uint32_t delay_ppm = 0;     // extra reorder-delay probability per copy
  sim::Instr delay_max = 256;      // max extra delay drawn (instr, >= 1)
  std::uint32_t blackout_ppm = 0;  // per-(link,window) total-outage probability
  sim::Instr blackout_window = 4096;  // blackout granularity (instr, >= 1)
  sim::Instr rto = 0;              // retransmit timeout; 0 = auto (4x min wire)
  sim::Instr rto_max = 1u << 20;   // exponential-backoff cap (instr)
  std::uint64_t seed = 1;          // fault-decision stream seed

  bool operator==(const FaultConfig&) const = default;
};

inline constexpr std::uint32_t kPpmOne = 1'000'000;

// Structural validation shared by parse_fault_spec, WorldConfig and the
// fuzz Spec loader. Returns false with a human-readable reason; a disabled
// config is always valid.
bool validate_fault_config(const FaultConfig& cfg, std::string* err);

// Strict parser behind ABCLSIM_FAULTS and fuzz_repro --faults. nullptr or
// empty -> disabled config. Otherwise a comma-separated key=value list:
//   drop=P dup=P delay=P blackout=P      probabilities in [0,1], <= 6
//                                        fractional digits (ppm precision)
//   delay_max=N blackout_window=N        positive instr counts
//   rto=N rto_max=N                      instr counts (rto=0 -> auto)
//   seed=N                               decision-stream seed
// Anything else — unknown keys, repeated keys, malformed numbers, drop or
// blackout probability >= 1 — returns nullopt with a diagnostic in *err.
// Garbage never falls back silently to "no faults".
std::optional<FaultConfig> parse_fault_spec(const char* text,
                                            std::string* err);

// One-line canonical rendering ("drop=0.05,dup=0.01,seed=7"; "off" when
// disabled) — parse_fault_spec(to_string(cfg)) round-trips exactly.
std::string to_string(const FaultConfig& cfg);

// The pure decision functions. A FaultPlan holds no mutable state: every
// query is a hash of its arguments, so callers may evaluate decisions in
// any order (or re-evaluate them) and get the same answers — the property
// the cross-driver determinism proof leans on.
class FaultPlan {
 public:
  // Attempt ceiling for the analytic retry loop: the final attempt is
  // force-delivered so a deterministically unlucky hash streak cannot
  // livelock a run (counted in FaultStats::forced_deliveries; with drop
  // probability p the chance of reaching it is p^63 per packet).
  static constexpr std::uint32_t kMaxAttempts = 64;

  // `min_latency` = Network::min_packet_latency(); it anchors the auto rto.
  FaultPlan(const FaultConfig& cfg, sim::Instr min_latency);

  const FaultConfig& config() const { return cfg_; }
  // Resolved retransmit timeout (cfg.rto, or 4x min latency when auto).
  sim::Instr rto() const { return rto_; }

  // Data-packet attempt `attempt` of channel-sequence `seq` on (src,dst)
  // is lost in transit.
  bool drop(std::int32_t src, std::int32_t dst, std::uint64_t seq,
            std::uint32_t attempt) const {
    return bernoulli(roll(kTagDrop, src, dst, seq, attempt), cfg_.drop_ppm);
  }

  // The (virtual) ack for a delivered attempt is lost on the way back, so
  // the sender retransmits spuriously. Acks share the data drop rate.
  bool ack_lost(std::int32_t src, std::int32_t dst, std::uint64_t seq,
                std::uint32_t attempt) const {
    return bernoulli(roll(kTagAck, src, dst, seq, attempt), cfg_.drop_ppm);
  }

  // The network duplicates this delivered copy.
  bool duplicate(std::int32_t src, std::int32_t dst, std::uint64_t seq,
                 std::uint32_t attempt) const {
    return bernoulli(roll(kTagDup, src, dst, seq, attempt), cfg_.dup_ppm);
  }

  // Extra reorder delay for this copy: 0, or 1..delay_max instrs.
  sim::Instr extra_delay(std::int32_t src, std::int32_t dst, std::uint64_t seq,
                         std::uint32_t attempt) const {
    std::uint64_t r = roll(kTagDelay, src, dst, seq, attempt);
    if (!bernoulli(r, cfg_.delay_ppm)) return 0;
    return 1 + static_cast<sim::Instr>(remix(r) %
                                       static_cast<std::uint64_t>(cfg_.delay_max));
  }

  // The (src,dst) link is dark for the whole blackout window `window`
  // (= transmit_time / cfg.blackout_window). Window-granular so an outage
  // kills consecutive attempts, which is what exercises real backoff.
  bool blackout(std::int32_t src, std::int32_t dst,
                std::uint64_t window) const {
    return bernoulli(roll(kTagBlackout, src, dst, window, 0),
                     cfg_.blackout_ppm);
  }

  // Retransmit backoff after attempt `attempt` (0-based): rto << attempt,
  // saturating at rto_max.
  sim::Instr backoff(std::uint32_t attempt) const {
    if (attempt >= 63 || (rto_ >> (63 - attempt)) != 0) return cfg_.rto_max;
    sim::Instr b = rto_ << attempt;
    return b > cfg_.rto_max ? cfg_.rto_max : b;
  }

 private:
  enum : std::uint64_t {
    kTagDrop = 1,
    kTagAck = 2,
    kTagDup = 3,
    kTagDelay = 4,
    kTagBlackout = 5,
  };

  static std::uint64_t remix(std::uint64_t x);
  std::uint64_t roll(std::uint64_t tag, std::int32_t src, std::int32_t dst,
                     std::uint64_t seq, std::uint32_t attempt) const;
  static bool bernoulli(std::uint64_t r, std::uint32_t ppm) {
    return ppm != 0 && r % kPpmOne < ppm;
  }

  FaultConfig cfg_;
  sim::Instr rto_;
};

// Fault-layer accounting. Commit-side counters are updated on the (single
// threaded) commit path; the receiver-side pair (delivered/dup_suppressed)
// is aggregated by Network::fault_stats() from per-destination counters
// owned by each destination's polling worker — nothing here is written
// concurrently. Deliberately separate from Network::Stats so the faults-off
// metrics snapshot stays byte-identical to the committed baselines.
struct FaultStats {
  std::uint64_t attempts = 0;             // physical transmissions, retries incl.
  std::uint64_t drops = 0;                // attempts lost to the drop hash
  std::uint64_t blackout_drops = 0;       // attempts lost to link blackouts
  std::uint64_t duplicates = 0;           // network-duplicated copies enqueued
  std::uint64_t delays = 0;               // copies given extra reorder delay
  std::uint64_t spurious_retransmits = 0; // resends caused by lost acks
  std::uint64_t forced_deliveries = 0;    // packets that hit kMaxAttempts
  std::uint64_t copies_enqueued = 0;      // delivery copies placed in dst queues
  std::uint64_t delivered = 0;            // first copies dispatched (recv side)
  std::uint64_t dup_suppressed = 0;       // later copies discarded (recv side)
  // Delivery lateness vs the fault-free arrival instant (bucket 0 = on
  // time); the retry/backoff overhead distribution in EXPERIMENTS.md.
  util::Log2Histogram retry_delay_instr;
};

}  // namespace abcl::net
