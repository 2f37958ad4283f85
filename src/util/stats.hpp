// Lightweight counters, exact running moments, and log2 histograms used by
// the runtime's per-node statistics blocks and by the benchmark harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace abcl::util {

// Exact moments of a stream of integer samples: count, sum, min, max and
// the sum of squares, all in integers. The state is a function of the
// sample multiset alone, never of the order the samples arrived in, so
// drivers that commit the same samples in different orders end with
// bitwise-equal state. mean() and variance() are derived when read.
//
// The sum of squares is 128 bits wide, kept as two plain words so the
// class adds no 16-byte alignment (and no padding) to the raw-serialized
// blocks that hold it.
class RunningStat {
 public:
  void add(std::uint64_t x) {
    if (n_ == 0 || x < min_) min_ = x;
    if (n_ == 0 || x > max_) max_ = x;
    ++n_;
    sum_ += x;
    const unsigned __int128 sq =
        static_cast<unsigned __int128>(x) * x + sum_sq();
    sq_lo_ = static_cast<std::uint64_t>(sq);
    sq_hi_ = static_cast<std::uint64_t>(sq >> 64);
  }

  std::uint64_t count() const { return n_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return n_ ? static_cast<double>(sum_) / static_cast<double>(n_) : 0.0;
  }
  // Sample variance. n * sum(x^2) - sum(x)^2 is n^2 times the population
  // variance: exact in wrapping 128-bit arithmetic while that value fits,
  // so the only roundings are the final conversions and the division.
  double variance() const {
    if (n_ < 2) return 0.0;
    const unsigned __int128 s = sum_;
    const unsigned __int128 d = n_ * sum_sq() - s * s;
    return static_cast<double>(d) /
           (static_cast<double>(n_) * static_cast<double>(n_ - 1));
  }

 private:
  unsigned __int128 sum_sq() const {
    return static_cast<unsigned __int128>(sq_hi_) << 64 | sq_lo_;
  }

  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t sq_lo_ = 0;  // sum of squares, low and high words
  std::uint64_t sq_hi_ = 0;
};

// Power-of-two bucketed histogram for latency-style distributions.
//
// Bucket i holds values in [2^(i-1), 2^i - 1] (bucket 0 holds {0}); the
// add() clamp means bucket 63 additionally absorbs all values >= 2^63, so
// its nominal upper bound (2^63 - 1) under-reports such outliers.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::uint64_t v) {
    int b = v == 0 ? 0 : 64 - countl_zero(v);
    if (b >= kBuckets) b = kBuckets - 1;
    ++buckets_[b];
    ++count_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t bucket(int i) const { return buckets_[i]; }
  // Approximate percentile (the containing bucket's upper bound). `p` is
  // clamped into [0,1]; see the class comment for the bucket-63 caveat.
  std::uint64_t percentile(double p) const;
  std::string to_string(int max_rows = 12) const;

  void merge(const Log2Histogram& o) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

 private:
  static int countl_zero(std::uint64_t v) {
    return v == 0 ? 64 : __builtin_clzll(v);
  }
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
};

}  // namespace abcl::util
