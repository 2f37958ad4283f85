#include "obs/regression.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace abcl::obs {

// Host-dependent keys: wall time, wall-time ratios, the recorded core
// count, and the flag derived from it — never simulated quantities. This is
// the single shared list every trajectory/metrics comparison draws from
// (bench_regression_check, tests, compare_json defaults); benches must name
// host-dependent fields with these keys rather than growing per-call-site
// exclusions. "faults" is the whole fault-injection block: it only exists
// in fault-enabled runs, and ignoring it both ways lets a fault-run
// candidate compare against the committed faults-off baselines (and vice
// versa) without structural drift. "migration" follows the same pattern for
// the live-migration block.
const std::vector<std::string> kDefaultIgnoredKeys = {
    "wall_ms", "speedup",  "host_cores",
    "faults",  "migration", "parallel_meaningful"};

namespace {

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

std::string fmt_number(const JsonValue& v) {
  char buf[40];
  if (v.is_integer) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v.integer));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v.number);
  }
  return buf;
}

struct Walker {
  double tol_pct;
  const std::vector<std::string>* ignored;
  CompareResult* out;

  bool is_ignored(const std::string& key) const {
    return std::find(ignored->begin(), ignored->end(), key) != ignored->end();
  }

  void drift(const std::string& path, std::string detail) {
    out->drifts.push_back({path, std::move(detail)});
  }

  void walk(const std::string& path, const JsonValue& b, const JsonValue& c) {
    if (b.kind != c.kind) {
      drift(path, std::string("type changed: ") + kind_name(b.kind) + " -> " +
                      kind_name(c.kind));
      return;
    }
    switch (b.kind) {
      case JsonValue::Kind::kNull:
        return;
      case JsonValue::Kind::kBool:
        if (b.boolean != c.boolean) {
          drift(path, std::string("baseline ") + (b.boolean ? "true" : "false") +
                          ", candidate " + (c.boolean ? "true" : "false"));
        }
        return;
      case JsonValue::Kind::kString:
        if (b.string != c.string) {
          drift(path, "baseline \"" + b.string + "\", candidate \"" + c.string +
                          "\"");
        }
        return;
      case JsonValue::Kind::kNumber: {
        // Relative drift against the baseline magnitude; the max(|b|, 1)
        // floor keeps near-zero baselines from exploding the percentage
        // while still flagging absolute changes of tolerance size.
        double diff = std::fabs(c.number - b.number);
        double denom = std::max(std::fabs(b.number), 1.0);
        double pct = diff / denom * 100.0;
        if (pct > tol_pct) {
          char d[64];
          std::snprintf(d, sizeof d, " (%+.2f%%, tol %.2f%%)",
                        (c.number - b.number) / denom * 100.0, tol_pct);
          drift(path,
                "baseline " + fmt_number(b) + ", candidate " + fmt_number(c) + d);
        }
        return;
      }
      case JsonValue::Kind::kArray: {
        if (b.array.size() != c.array.size()) {
          drift(path, "array length " + std::to_string(b.array.size()) + " -> " +
                          std::to_string(c.array.size()));
          return;
        }
        for (std::size_t i = 0; i < b.array.size(); ++i) {
          walk(path + "[" + std::to_string(i) + "]", b.array[i], c.array[i]);
        }
        return;
      }
      case JsonValue::Kind::kObject: {
        for (const auto& [key, bv] : b.object) {
          if (is_ignored(key)) continue;
          std::string sub = path.empty() ? key : path + "." + key;
          const JsonValue* cv = c.find(key);
          if (cv == nullptr) {
            drift(sub, "missing from candidate");
            continue;
          }
          walk(sub, bv, *cv);
        }
        for (const auto& [key, cv] : c.object) {
          (void)cv;
          if (is_ignored(key)) continue;
          if (b.find(key) == nullptr) {
            drift(path.empty() ? key : path + "." + key,
                  "not present in baseline");
          }
        }
        return;
      }
    }
  }
};

}  // namespace

std::string CompareResult::to_string() const {
  std::string out;
  for (const Drift& d : drifts) {
    out += d.path + ": " + d.detail + "\n";
  }
  return out;
}

CompareResult compare_json(const JsonValue& baseline, const JsonValue& candidate,
                           double tol_pct,
                           const std::vector<std::string>& ignored_keys) {
  CompareResult res;
  Walker{tol_pct, &ignored_keys, &res}.walk("", baseline, candidate);
  return res;
}

CompareResult compare_json_files(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 double tol_pct,
                                 const std::vector<std::string>& ignored_keys) {
  CompareResult res;
  auto btext = read_file(baseline_path);
  if (!btext) {
    res.drifts.push_back({baseline_path, "cannot read baseline"});
    return res;
  }
  auto ctext = read_file(candidate_path);
  if (!ctext) {
    res.drifts.push_back({candidate_path, "cannot read candidate"});
    return res;
  }
  std::string err;
  auto b = parse_json(*btext, &err);
  if (!b) {
    res.drifts.push_back({baseline_path, "parse error: " + err});
    return res;
  }
  err.clear();
  auto c = parse_json(*ctext, &err);
  if (!c) {
    res.drifts.push_back({candidate_path, "parse error: " + err});
    return res;
  }
  return compare_json(*b, *c, tol_pct, ignored_keys);
}

}  // namespace abcl::obs
