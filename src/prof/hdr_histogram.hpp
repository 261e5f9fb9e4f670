// HDR-style log-linear histogram over virtual cycles.
//
// Latency in this codebase spans six orders of magnitude — a thread-cache
// hit costs kAllocFast = 15 cycles while a contended commit can stall for
// millions — so fixed-width buckets either blur the fast path or truncate
// the tail. The classic HdrHistogram answer is log-linear buckets: octaves
// (power-of-two ranges) split into 2^kSubBits linear sub-buckets, giving a
// bounded relative error of 1/2^kSubBits (~3% here) at every magnitude with
// a few KB of counters. Values are integer cycles; recording is one shift,
// one subtract and an array increment — no floating point, no allocation —
// so the profiler's zero-perturbation contract holds trivially.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace tmx::prof {

class HdrHistogram {
 public:
  // 32 linear sub-buckets per octave => <= 3.125% relative bucket width.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;
  // Values above ~2^40 cycles (> 10^12) clamp into the last bucket; the
  // exact maximum is tracked separately so max() never loses precision.
  static constexpr unsigned kMaxOctave = 40 - kSubBits;  // 35 octaves above
  static constexpr std::size_t kNumBuckets = (kMaxOctave + 1) * kSubCount;

  void record(std::uint64_t v) {
    counts_[index_of(v)]++;
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }

  // Bucket index of `v` (clamped into the final bucket). Values below
  // kSubCount map identity — one bucket per cycle — then each octave
  // [2^k, 2^(k+1)) is split into kSubCount equal sub-buckets.
  static std::size_t index_of(std::uint64_t v) {
    if (v < kSubCount) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned octave = std::min(msb - kSubBits + 1, kMaxOctave);
    const unsigned shift = octave - 1;
    const std::uint64_t sub = (v >> shift) - kSubCount;  // 0..kSubCount-1
    const std::size_t idx = octave * kSubCount +
                            static_cast<std::size_t>(
                                sub < kSubCount ? sub : kSubCount - 1);
    return idx;
  }

  // Smallest value mapping into bucket `idx` (exact power-of-two edges).
  static std::uint64_t lower_bound(std::size_t idx) {
    const std::size_t octave = idx / kSubCount;
    const std::uint64_t rem = idx % kSubCount;
    if (octave == 0) return rem;
    return (kSubCount + rem) << (octave - 1);
  }

  // Value at percentile p (0..100): the lower bound of the bucket holding
  // the closest-rank order statistic — integer cycles, so exports built on
  // it are byte-stable across identical runs. The recorded maximum is
  // returned exactly for p >= 100.
  std::uint64_t percentile(double p) const {
    if (count_ == 0) return 0;
    if (p >= 100.0) return max_;
    if (p < 0.0) p = 0.0;
    const auto rank =
        static_cast<std::uint64_t>(p / 100.0 *
                                   static_cast<double>(count_ - 1));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      cum += counts_[i];
      if (cum > rank) return lower_bound(i);
    }
    return max_;
  }

  // Adds another histogram's counts (per-worker histograms merged after a
  // parallel region). Identical bucket geometry makes this an array add.
  bool operator==(const HdrHistogram&) const = default;

  void merge(const HdrHistogram& o) {
    for (std::size_t i = 0; i < kNumBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
  }

  void reset() {
    std::fill(counts_, counts_ + kNumBuckets, 0ull);
    count_ = sum_ = max_ = 0;
  }

 private:
  std::uint64_t counts_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace tmx::prof
