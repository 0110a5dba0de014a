#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

namespace dtm {

std::vector<std::int32_t> Rng::sample_distinct(std::int32_t n,
                                               std::int32_t k) {
  DTM_REQUIRE(k >= 0 && k <= n, "sample_distinct k=" << k << " n=" << n);
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(k));
  // Floyd's algorithm: for j = n-k .. n-1, draw t in [0, j]; insert t unless
  // already chosen, in which case insert j. Guarantees uniform k-subsets.
  std::unordered_set<std::int32_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k) * 2);
  for (std::int32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::int32_t>(uniform_int(0, j));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

ZipfSampler::ZipfSampler(std::int32_t n, double s) {
  DTM_REQUIRE(n > 0, "ZipfSampler n=" << n);
  DTM_REQUIRE(s >= 0.0, "ZipfSampler s=" << s);
  const auto size = static_cast<std::size_t>(n);
  cdf_.resize(size);
  double acc = 0.0;
  for (std::size_t r = 0; r < size; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
    cdf_[r] = acc;
  }
  // Normalize and fill the guide in the same linear pass: slice k starts at
  // the first rank whose normalized cdf reaches k / K.
  const std::size_t slices = std::bit_ceil(size);
  const auto scale = static_cast<double>(slices);
  guide_.resize(slices + 1);
  std::size_t k = 0;
  for (std::size_t r = 0; r < size; ++r) {
    cdf_[r] /= acc;
    // k / K <= c exactly when k <= c * K: scaling by a power of two is
    // exact.
    for (; k <= slices && static_cast<double>(k) <= cdf_[r] * scale; ++k)
      guide_[k] = static_cast<std::int32_t>(r);
  }
  for (; k <= slices; ++k) guide_[k] = n;  // thresholds above the last cdf
}

std::int32_t ZipfSampler::rank_of(double u) const {
  DTM_REQUIRE(u >= 0.0 && u < 1.0, "ZipfSampler u=" << u);
  const auto k = static_cast<std::size_t>(u * static_cast<double>(slices()));
  const auto first = cdf_.begin() + guide_[k];
  const auto last = cdf_.begin() + guide_[k + 1];
  const auto idx = static_cast<std::int32_t>(
      std::lower_bound(first, last, u) - cdf_.begin());
  return std::min(idx, static_cast<std::int32_t>(cdf_.size()) - 1);
}

}  // namespace dtm
