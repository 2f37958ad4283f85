// One strict key=value spec grammar for every tuning knob.
//
// Several parsers grew independently — ABCLSIM_FAULTS and ABCLSIM_MIGRATION
// — each re-implementing the same trim / split / duplicate-key /
// overflow-checked-number machinery with slightly different bugs waiting to
// diverge. SpecParser is the shared core: a comma-separated key=value list
// with typed fields, where *any* deviation (unknown key, repeated key,
// malformed number) is a hard error carrying a human-readable reason.
// Garbage never falls back silently to a default.
//
// The existing entry points (net::parse_fault_spec,
// remote::parse_migration_spec) stay as thin wrappers so their diagnostics
// and round-trip guarantees are unchanged; new knobs (ABCLSIM_CHECKPOINT)
// route through here directly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace abcl::util {

class SpecParser {
 public:
  // Field registration. `out` must outlive run(). Field kind decides both
  // the accepted syntax and the failure wording:
  //   prob_ppm  "0.05" / "1" / ".25" -> parts-per-million, <= 6 decimals
  //   u64       non-negative decimal integer (overflow-checked)
  //   u32       non-negative decimal integer fitting 32 bits
  //   str       any non-empty value (no commas — they split entries)
  SpecParser& prob_ppm(const char* key, std::uint32_t* out);
  SpecParser& u64(const char* key, std::uint64_t* out);
  SpecParser& u32(const char* key, std::uint32_t* out);
  SpecParser& str(const char* key, std::string* out);

  // Parses `raw` against the registered fields. On failure returns false
  // and stores the bare reason ("unknown key \"x\"") in *why; callers wrap
  // it with their knob context via spec_error().
  bool run(const std::string& raw, std::string* why);

  // The shared building blocks, exposed for spec-adjacent strict parsers.
  static std::string trim(const std::string& s);
  // Overflow-checked "123" -> u64; nullopt on anything non-decimal.
  static std::optional<std::uint64_t> parse_u64(const std::string& s);
  // "0.05" / "1" / ".25" -> ppm. Strict: decimal digits only, at most six
  // fractional digits (the ppm resolution), value <= 1.
  static std::optional<std::uint32_t> parse_prob_ppm(const std::string& s);

 private:
  struct Field {
    std::string key;
    std::function<std::optional<std::string>(const std::string& val)> apply;
    bool seen = false;
  };
  std::vector<Field> fields_;
};

// True when the spec text means "knob off": nullptr, empty, or "off".
bool spec_off(const char* text);

// The one diagnostic shape every spec knob reports:
//   <context> "<raw>": <why> (<hint>)
// e.g. context "fault spec", hint "expected comma-separated drop=PROB, ...".
std::string spec_error(const std::string& context, const std::string& raw,
                       const std::string& why, const std::string& hint);

}  // namespace abcl::util
