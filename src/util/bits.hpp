// Small integer/bit helpers shared across the scheduling layers.
//
// ceil_log2_i64 used to live as a private copy in both bucket schedulers;
// the hash mixers back the bucket fast path's problem fingerprints and its
// derived per-(probe, trial) RNG streams (see batch/bucket_insertion.hpp):
// every randomized draw is seeded from a pure function of the problem
// content, so a reference that rebuilds the problem draws the same
// stream.
#pragma once

#include <cstdint>

namespace dtm {

/// Smallest l with 2^l >= x (0 for x <= 1).
[[nodiscard]] constexpr std::int32_t ceil_log2_i64(std::int64_t x) {
  std::int32_t l = 0;
  std::int64_t p = 1;
  while (p < x) {
    p <<= 1;
    ++l;
  }
  return l;
}

/// splitmix64 finalizer: a cheap, well-distributed 64-bit permutation.
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Order-dependent combine: chain values into a running hash.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t h,
                                                   std::uint64_t v) {
  return hash_mix(h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2)));
}

/// Seed for an independent RNG stream identified by (base seed, salt,
/// content key, index). Pure: the same identity always yields the same
/// stream.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base,
                                                  std::uint64_t salt,
                                                  std::uint64_t key,
                                                  std::uint64_t index = 0) {
  std::uint64_t h = hash_mix(base ^ salt);
  h = hash_combine(h, key);
  h = hash_combine(h, index);
  return h;
}

}  // namespace dtm
