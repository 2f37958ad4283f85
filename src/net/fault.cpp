#include "net/fault.hpp"

#include <cstdio>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/spec_parser.hpp"

namespace abcl::net {

// ----------------------------------------------------------------------------
// FaultPlan
// ----------------------------------------------------------------------------

FaultPlan::FaultPlan(const FaultConfig& cfg, sim::Instr min_latency)
    : cfg_(cfg) {
  std::string err;
  ABCL_CHECK_MSG(validate_fault_config(cfg_, &err), err.c_str());
  ABCL_CHECK(min_latency > 0);
  rto_ = cfg_.rto != 0 ? cfg_.rto : 4 * min_latency;
  if (rto_ > cfg_.rto_max) rto_ = cfg_.rto_max;
}

std::uint64_t FaultPlan::remix(std::uint64_t x) {
  return util::splitmix64(x);  // advances x; we want the output only
}

std::uint64_t FaultPlan::roll(std::uint64_t tag, std::int32_t src,
                              std::int32_t dst, std::uint64_t seq,
                              std::uint32_t attempt) const {
  // A short SplitMix chain over the decision coordinates. Every input is a
  // simulated quantity; equal coordinates always produce equal rolls, which
  // is what makes serial and parallel runs agree decision-for-decision.
  std::uint64_t x = cfg_.seed;
  x = remix(x ^ (tag * 0x9e3779b97f4a7c15ull));
  x = remix(x ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                  << 32) |
                 static_cast<std::uint32_t>(dst)));
  x = remix(x ^ seq);
  x = remix(x ^ attempt);
  return x;
}

// ----------------------------------------------------------------------------
// Config validation / parsing
// ----------------------------------------------------------------------------

namespace {

bool cfg_fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

}  // namespace

bool validate_fault_config(const FaultConfig& cfg, std::string* err) {
  if (!cfg.enabled) return true;
  if (cfg.drop_ppm >= kPpmOne) {
    return cfg_fail(err,
                    "fault config: drop probability 1.0 loses every attempt "
                    "on every link — a guaranteed livelock; use < 1.0");
  }
  if (cfg.blackout_ppm >= kPpmOne) {
    return cfg_fail(err,
                    "fault config: blackout probability 1.0 keeps every link "
                    "permanently dark — a guaranteed livelock; use < 1.0");
  }
  if (cfg.dup_ppm > kPpmOne) {
    return cfg_fail(err, "fault config: dup probability > 1.0");
  }
  if (cfg.delay_ppm > kPpmOne) {
    return cfg_fail(err, "fault config: delay probability > 1.0");
  }
  if (cfg.delay_max < 1) {
    return cfg_fail(err, "fault config: delay_max must be >= 1 instr");
  }
  if (cfg.blackout_window < 1) {
    return cfg_fail(err, "fault config: blackout_window must be >= 1 instr");
  }
  if (cfg.rto_max < 1) {
    return cfg_fail(err, "fault config: rto_max must be >= 1 instr");
  }
  if (cfg.rto > cfg.rto_max) {
    return cfg_fail(err, "fault config: rto exceeds rto_max");
  }
  return true;
}

// Thin wrapper over util::SpecParser (the shared key=value grammar): the
// field set and every diagnostic below are this knob's contract; the split /
// trim / duplicate-key machinery is the shared core.
std::optional<FaultConfig> parse_fault_spec(const char* text,
                                            std::string* err) {
  FaultConfig cfg;
  if (util::spec_off(text)) return cfg;  // unset or "off": faults off
  const std::string raw = text;
  auto fail = [&](const std::string& why) -> std::optional<FaultConfig> {
    if (err != nullptr) {
      *err = util::spec_error(
          "fault spec", raw, why,
          "expected comma-separated drop/dup/delay/blackout=PROB, "
          "delay_max/blackout_window/rto/rto_max/seed=N");
    }
    return std::nullopt;
  };
  cfg.enabled = true;

  util::SpecParser p;
  p.prob_ppm("drop", &cfg.drop_ppm)
      .prob_ppm("dup", &cfg.dup_ppm)
      .prob_ppm("delay", &cfg.delay_ppm)
      .prob_ppm("blackout", &cfg.blackout_ppm)
      .u64("delay_max", &cfg.delay_max)
      .u64("blackout_window", &cfg.blackout_window)
      .u64("rto", &cfg.rto)
      .u64("rto_max", &cfg.rto_max)
      .u64("seed", &cfg.seed);
  std::string why;
  if (!p.run(raw, &why)) return fail(why);

  std::string verr;
  if (!validate_fault_config(cfg, &verr)) return fail(verr);
  return cfg;
}

std::string to_string(const FaultConfig& cfg) {
  if (!cfg.enabled) return "off";
  auto prob = [](std::uint32_t ppm) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u.%06u", ppm / kPpmOne, ppm % kPpmOne);
    std::string s = buf;
    while (s.size() > 1 && s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
    return s;
  };
  std::string out;
  out += "drop=" + prob(cfg.drop_ppm);
  out += ",dup=" + prob(cfg.dup_ppm);
  out += ",delay=" + prob(cfg.delay_ppm);
  out += ",delay_max=" + std::to_string(cfg.delay_max);
  out += ",blackout=" + prob(cfg.blackout_ppm);
  out += ",blackout_window=" + std::to_string(cfg.blackout_window);
  out += ",rto=" + std::to_string(cfg.rto);
  out += ",rto_max=" + std::to_string(cfg.rto_max);
  out += ",seed=" + std::to_string(cfg.seed);
  return out;
}

}  // namespace abcl::net
