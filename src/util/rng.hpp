// Deterministic, fast random number generation for simulations.
//
// All stochastic components of the library (workload generators, randomized
// batch schedulers, sparse-cover ball carving) take an explicit Rng so that
// every experiment is reproducible from a single seed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace dtm {

/// xoshiro256** seeded via splitmix64. Not cryptographic; chosen for speed
/// and statistical quality in Monte-Carlo style simulation.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialize the full state from a 64-bit seed.
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : state_) s = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() { return next(); }

  /// Equal states produce equal streams from here on.
  [[nodiscard]] bool operator==(const Rng&) const = default;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    DTM_REQUIRE(lo <= hi, "uniform_int range [" << lo << "," << hi << "]");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // full range
    return lo + static_cast<std::int64_t>(bounded(span));
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// Geometric inter-arrival gap (>= 1) for a Bernoulli(p) process.
  std::int64_t geometric_gap(double p) {
    DTM_REQUIRE(p > 0.0 && p <= 1.0, "geometric p=" << p);
    std::int64_t g = 1;
    while (!bernoulli(p)) ++g;
    return g;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(bounded(static_cast<std::uint64_t>(i)));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// k distinct values sampled uniformly from {0, ..., n-1}.
  /// Uses Floyd's algorithm; O(k) expected when k << n.
  std::vector<std::int32_t> sample_distinct(std::int32_t n, std::int32_t k);

 private:
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Unbiased bounded draw in [0, bound) via Lemire rejection.
  std::uint64_t bounded(std::uint64_t bound) {
    DTM_REQUIRE(bound > 0);
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  static std::uint64_t rotl(std::uint64_t v, int s) {
    return (v << s) | (v >> (64 - s));
  }

  std::uint64_t state_[4] = {};
};

/// Zipf(s) sampler over {0, ..., n-1}: rank r drawn with probability
/// proportional to 1/(r+1)^s. Precomputes the CDF once, with a guide table
/// that narrows each draw's search to one of K equal-width slices of [0, 1).
/// Models hotspot object popularity in workloads.
class ZipfSampler {
 public:
  ZipfSampler(std::int32_t n, double s);

  [[nodiscard]] std::int32_t draw(Rng& rng) const {
    return rank_of(rng.uniform01());
  }
  /// The rank a uniform value u in [0, 1) maps to: exactly
  /// std::lower_bound(cdf, u), clamped to n - 1.
  [[nodiscard]] std::int32_t rank_of(double u) const;
  [[nodiscard]] std::int32_t size() const {
    return static_cast<std::int32_t>(cdf_.size());
  }
  [[nodiscard]] const std::vector<double>& cdf() const { return cdf_; }
  /// Number of guide slices K (a power of two).
  [[nodiscard]] std::size_t slices() const { return guide_.size() - 1; }

 private:
  std::vector<double> cdf_;
  /// guide_[k] = lower_bound(cdf_, k / K) for k = 0..K. K is a power of two,
  /// so k / K and u * K are exact and u in [k/K, (k+1)/K) bounds
  /// lower_bound(cdf_, u) to [guide_[k], guide_[k + 1]].
  std::vector<std::int32_t> guide_;
};

}  // namespace dtm
