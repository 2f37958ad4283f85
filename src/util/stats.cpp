#include "util/stats.hpp"

#include <cstdio>

namespace abcl::util {

std::uint64_t Log2Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  // Clamp p into [0,1] before the uint64_t cast: a negative product (or
  // NaN) cast to uint64_t is undefined behaviour, and p > 1 would silently
  // saturate to the max. The !(p > 0.0) form also catches NaN.
  if (!(p > 0.0)) p = 0.0;
  if (p > 1.0) p = 1.0;
  std::uint64_t target =
      static_cast<std::uint64_t>(p * static_cast<double>(count_));
  if (target >= count_) target = count_ - 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > target) return i == 0 ? 0 : (1ull << i) - 1;
  }
  return ~0ull;
}

std::string Log2Histogram::to_string(int max_rows) const {
  std::string out;
  char line[128];
  int printed = 0;
  for (int i = 0; i < kBuckets && printed < max_rows; ++i) {
    if (buckets_[i] == 0) continue;
    std::uint64_t lo = i == 0 ? 0 : (1ull << (i - 1));
    std::uint64_t hi = (1ull << i) - 1;
    std::snprintf(line, sizeof line, "  [%12llu, %12llu] %10llu\n",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(buckets_[i]));
    out += line;
    ++printed;
  }
  return out;
}

}  // namespace abcl::util
