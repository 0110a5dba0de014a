// LatencyRecorder — incremental log-bucketed latency histogram (the run
// driver's latency accumulator; docs/ARCHITECTURE.md §13).
//
// A run that sorted its samples at the end would hold every sample; a
// long-lived service or a stream cannot. This recorder buckets values
// HdrHistogram-style: the first two octaves are exact, every later octave
// is split into 2^sub_bits sub-buckets, so a recorded value lands in a
// bucket whose width is at most value / 2^sub_bits — quantiles are off by
// at most that relative error (plus one step of quantization), at O(1) per
// record and a few hundred int64 counters of state regardless of run
// length. Windowed reporting (serve) keeps one recorder per window plus
// the cumulative one and merges/resets at window boundaries.
#pragma once

#include <cstdint>
#include <vector>

#include "util/json.hpp"

namespace dtm {

class LatencyRecorder {
 public:
  /// `sub_bits` trades memory for resolution: 2^sub_bits sub-buckets per
  /// octave bounds the relative quantile error by 2^-sub_bits. The default
  /// (5 → ~3%) distinguishes p99 from p999 on any realistic latency scale.
  explicit LatencyRecorder(std::int32_t sub_bits = 5);

  /// Records one sample (negative values clamp to 0). O(1).
  void record(std::int64_t v);

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] std::int64_t min() const { return n_ > 0 ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return n_ > 0 ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return n_ > 0 ? static_cast<double>(sum_) / static_cast<double>(n_) : 0.0;
  }

  /// Nearest-rank quantile (q in [0, 1]), reported as the representative
  /// value of the bucket holding that rank. Exact for values below
  /// 2^(sub_bits+1); within relative error 2^-sub_bits above. 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;

  /// Merges another recorder (same sub_bits) into this one.
  void merge(const LatencyRecorder& other);

  /// Clears all counts (window rollover).
  void reset();

  /// {count, mean, min, p50, p95, p99, p999, max} — the serve snapshot
  /// shape.
  [[nodiscard]] Json to_json() const;

 private:
  [[nodiscard]] std::size_t index_for(std::int64_t v) const;
  [[nodiscard]] std::int64_t value_for(std::size_t idx) const;

  std::int32_t sub_bits_;
  std::vector<std::int64_t> counts_;  ///< grown lazily as large values land
  std::int64_t n_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::int64_t sum_ = 0;
};

}  // namespace dtm
