#include "util/spec_parser.hpp"

namespace abcl::util {

std::string SpecParser::trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::optional<std::uint64_t> SpecParser::parse_u64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    if (v > (~std::uint64_t{0} - static_cast<std::uint64_t>(c - '0')) / 10) {
      return std::nullopt;
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::optional<std::uint32_t> SpecParser::parse_prob_ppm(const std::string& s) {
  constexpr std::uint64_t kPpm = 1'000'000;
  if (s.empty()) return std::nullopt;
  std::size_t dot = s.find('.');
  std::string ip = dot == std::string::npos ? s : s.substr(0, dot);
  std::string fp = dot == std::string::npos ? "" : s.substr(dot + 1);
  if (ip.empty() && fp.empty()) return std::nullopt;
  if (fp.size() > 6) return std::nullopt;  // sub-ppm precision unsupported
  std::uint64_t whole = 0;
  for (char c : ip) {
    if (c < '0' || c > '9') return std::nullopt;
    whole = whole * 10 + static_cast<std::uint64_t>(c - '0');
    if (whole > 1) return std::nullopt;
  }
  std::uint64_t frac = 0;
  for (char c : fp) {
    if (c < '0' || c > '9') return std::nullopt;
    frac = frac * 10 + static_cast<std::uint64_t>(c - '0');
  }
  for (std::size_t i = fp.size(); i < 6; ++i) frac *= 10;
  std::uint64_t ppm = whole * kPpm + frac;
  if (ppm > kPpm) return std::nullopt;
  return static_cast<std::uint32_t>(ppm);
}

SpecParser& SpecParser::prob_ppm(const char* key, std::uint32_t* out) {
  std::string k = key;
  fields_.push_back(Field{
      k,
      [k, out](const std::string& val) -> std::optional<std::string> {
        std::optional<std::uint32_t> p = parse_prob_ppm(val);
        if (!p.has_value()) {
          return k + "=\"" + val +
                 "\" is not a probability in [0, 1] with <= 6 decimals";
        }
        *out = *p;
        return std::nullopt;
      },
      false});
  return *this;
}

SpecParser& SpecParser::u64(const char* key, std::uint64_t* out) {
  std::string k = key;
  fields_.push_back(Field{
      k,
      [k, out](const std::string& val) -> std::optional<std::string> {
        std::optional<std::uint64_t> v = parse_u64(val);
        if (!v.has_value()) {
          return k + "=\"" + val + "\" is not a non-negative integer";
        }
        *out = *v;
        return std::nullopt;
      },
      false});
  return *this;
}

SpecParser& SpecParser::u32(const char* key, std::uint32_t* out) {
  std::string k = key;
  fields_.push_back(Field{
      k,
      [k, out](const std::string& val) -> std::optional<std::string> {
        std::optional<std::uint64_t> v = parse_u64(val);
        if (!v.has_value() || *v > 0xFFFFFFFFull) {
          return k + "=\"" + val + "\" is not a non-negative 32-bit integer";
        }
        *out = static_cast<std::uint32_t>(*v);
        return std::nullopt;
      },
      false});
  return *this;
}

SpecParser& SpecParser::str(const char* key, std::string* out) {
  std::string k = key;
  fields_.push_back(Field{
      k,
      [k, out](const std::string& val) -> std::optional<std::string> {
        if (val.empty()) return k + "=\"\" must not be empty";
        *out = val;
        return std::nullopt;
      },
      false});
  return *this;
}

bool SpecParser::run(const std::string& raw, std::string* why) {
  auto fail = [&](const std::string& w) {
    if (why != nullptr) *why = w;
    return false;
  };
  std::size_t pos = 0;
  while (pos <= raw.size()) {
    std::size_t comma = raw.find(',', pos);
    if (comma == std::string::npos) comma = raw.size();
    const std::string item = trim(raw.substr(pos, comma - pos));
    pos = comma + 1;
    if (item.empty()) return fail("empty list entry");
    std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return fail("entry \"" + item + "\" has no '='");
    }
    const std::string key = trim(item.substr(0, eq));
    const std::string val = trim(item.substr(eq + 1));

    Field* f = nullptr;
    for (Field& cand : fields_) {
      if (cand.key == key) {
        f = &cand;
        break;
      }
    }
    if (f == nullptr) return fail("unknown key \"" + key + "\"");
    if (f->seen) return fail("duplicate key \"" + key + "\"");
    f->seen = true;
    if (std::optional<std::string> w = f->apply(val)) return fail(*w);
    if (pos > raw.size()) break;
  }
  return true;
}

bool spec_off(const char* text) {
  if (text == nullptr || *text == '\0') return true;
  return SpecParser::trim(text) == "off";
}

std::string spec_error(const std::string& context, const std::string& raw,
                       const std::string& why, const std::string& hint) {
  return context + " \"" + raw + "\": " + why + " (" + hint + ")";
}

}  // namespace abcl::util
