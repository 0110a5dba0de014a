#include "sim/ratio_tracker.hpp"

#include <algorithm>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace dtm {

StreamingRatioTracker::StreamingRatioTracker(const DistanceOracle& oracle,
                                             std::int64_t latency_factor,
                                             Time window,
                                             std::int64_t ratio_every)
    : oracle_(oracle),
      latency_factor_(latency_factor),
      window_(window),
      ratio_every_(std::max<std::int64_t>(ratio_every, 1)) {}

void StreamingRatioTracker::maybe_open(const SyncEngine& engine, Time now) {
  if (window_ <= 0) return;
  while (now >= next_window_ * window_) {
    const std::int64_t idx = next_window_++;
    // Any earlier window is now closed; ones whose arrivals all committed
    // can finalize immediately (including empty ones from idle skips).
    for (auto it = open_.begin(); it != open_.end();) {
      if (it->first >= idx) break;
      it->second.closed = true;
      if (it->second.outstanding == 0) {
        finalize(it->second);
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
    if (idx % ratio_every_ != 0) continue;  // sampled out
    Win w;
    // Snapshot object positions at the window's start. In-transit objects
    // are attributed to their destination — by the window's end they will
    // be at or past it; a coarser position only weakens (never
    // invalidates) the lower bound's certificate role.
    const auto& origins = engine.origins();
    w.snapshot.reserve(origins.size());
    for (const auto& o : origins) {
      const ObjectState& s = engine.object(o.id);
      w.snapshot.push_back({o.id, s.in_transit() ? s.dest() : s.at(), 0});
    }
    open_.emplace(idx, std::move(w));
    peak_open_ =
        std::max(peak_open_, static_cast<std::int64_t>(open_.size()));
  }
}

void StreamingRatioTracker::on_arrival(const Transaction& txn, Time now) {
  if (window_ <= 0) return;
  const std::int64_t idx = now / window_;
  const auto it = open_.find(idx);
  if (it == open_.end()) return;  // sampled out
  Transaction t = txn;
  t.gen_time = now - idx * window_;  // window-relative, like the snapshot
  it->second.txns.push_back(std::move(t));
  ++it->second.outstanding;
  peak_txns_ = std::max(
      peak_txns_, static_cast<std::int64_t>(it->second.txns.size()));
}

void StreamingRatioTracker::on_commit(Time gen, Time exec) {
  if (window_ <= 0) return;
  const std::int64_t idx = gen / window_;
  const auto it = open_.find(idx);
  if (it == open_.end()) return;
  Win& w = it->second;
  DTM_CHECK(w.outstanding > 0, "stream window " << idx << " over-committed");
  w.worst_latency = std::max(w.worst_latency, exec - gen);
  if (--w.outstanding == 0 && w.closed) {
    finalize(w);
    open_.erase(it);
  }
}

void StreamingRatioTracker::finish() {
  for (auto& [idx, w] : open_) {
    DTM_CHECK(w.outstanding == 0, "stream window "
                                      << idx << " finished with "
                                      << w.outstanding
                                      << " uncommitted arrivals");
    finalize(w);
  }
  open_.clear();
}

void StreamingRatioTracker::finalize(const Win& w) {
  if (w.txns.empty()) return;  // idle window: nothing to rate
  const auto lb =
      makespan_lower_bound(w.txns, w.snapshot, oracle_, latency_factor_);
  const double ratio = static_cast<double>(w.worst_latency) /
                       static_cast<double>(std::max<Time>(lb.best(), 1));
  ratio_max_ = std::max(ratio_max_, ratio);
  ratios_.add(ratio);
  ++finalized_;
}

}  // namespace dtm
