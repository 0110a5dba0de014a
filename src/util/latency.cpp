#include "util/latency.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace dtm {

LatencyRecorder::LatencyRecorder(std::int32_t sub_bits)
    : sub_bits_(sub_bits) {
  DTM_REQUIRE(sub_bits >= 1 && sub_bits <= 16,
              "latency recorder sub_bits " << sub_bits);
}

std::size_t LatencyRecorder::index_for(std::int64_t v) const {
  const std::int64_t base = std::int64_t{1} << sub_bits_;
  if (v < 2 * base) return static_cast<std::size_t>(v);  // exact octaves
  // v in [2^e, 2^(e+1)) with e > sub_bits: sub-bucket of width 2^(e-sub).
  const int e = 63 - std::countl_zero(static_cast<std::uint64_t>(v));
  const std::int64_t sub = (v >> (e - sub_bits_)) - base;
  return static_cast<std::size_t>(
      (static_cast<std::int64_t>(e) - sub_bits_ + 1) * base + sub);
}

std::int64_t LatencyRecorder::value_for(std::size_t idx) const {
  const std::int64_t base = std::int64_t{1} << sub_bits_;
  const auto i = static_cast<std::int64_t>(idx);
  if (i < 2 * base) return i;
  const std::int64_t octave = i / base;  // >= 2
  const std::int64_t sub = i % base;
  const std::int64_t width = std::int64_t{1} << (octave - 1);
  const std::int64_t lower = (base + sub) << (octave - 1);
  return lower + (width - 1) / 2;  // bucket midpoint (exact when width 1)
}

void LatencyRecorder::record(std::int64_t v) {
  v = std::max<std::int64_t>(v, 0);
  const std::size_t idx = index_for(v);
  if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
  ++counts_[idx];
  if (n_ == 0 || v < min_) min_ = v;
  if (n_ == 0 || v > max_) max_ = v;
  sum_ += v;
  ++n_;
}

std::int64_t LatencyRecorder::quantile(double q) const {
  if (n_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the ceil(q*n)-th smallest sample (1-based), min rank 1.
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(n_) - 1e-9)));
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) return value_for(i);
  }
  return max_;  // unreachable unless counts_ and n_ diverge
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  DTM_REQUIRE(sub_bits_ == other.sub_bits_,
              "merging recorders with different sub_bits");
  if (other.n_ == 0) return;
  if (other.counts_.size() > counts_.size())
    counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  if (n_ == 0 || other.min_ < min_) min_ = other.min_;
  if (n_ == 0 || other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  n_ += other.n_;
}

void LatencyRecorder::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  n_ = min_ = max_ = sum_ = 0;
}

Json LatencyRecorder::to_json() const {
  return Json::Object{
      {"count", n_}, {"mean", mean()}, {"min", min()},
      {"p50", quantile(0.50)}, {"p95", quantile(0.95)},
      {"p99", quantile(0.99)}, {"p999", quantile(0.999)}, {"max", max()}};
}

}  // namespace dtm
