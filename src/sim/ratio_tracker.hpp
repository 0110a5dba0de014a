// StreamingRatioTracker — the Definition-1 windowed competitive-ratio
// proxy, computed incrementally (the run driver's ratio accumulator;
// docs/ARCHITECTURE.md §13).
//
// Each tracked window snapshots object positions at its start, buffers
// only its own arrivals (window-relative gen_times), folds commits into a
// worst-latency watermark, and is finalized — one makespan_lower_bound
// call, two OnlineStats adds — and FREED as soon as it is closed and its
// last arrival has committed. Peak resident state is a handful of windows
// (the commit latency tail), independent of run length; `ratio_every`
// samples windows when even that transient is too large at extreme rates.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/lower_bound.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "net/graph.hpp"
#include "util/stats.hpp"

namespace dtm {

class SyncEngine;

class StreamingRatioTracker {
 public:
  /// `window` <= 0 disables tracking entirely (every call is a no-op).
  /// `ratio_every` tracks every ratio_every-th window (1 = all).
  StreamingRatioTracker(const DistanceOracle& oracle,
                        std::int64_t latency_factor, Time window,
                        std::int64_t ratio_every = 1);

  /// Call at the top of every processed step, before arrivals: opens (and
  /// snapshots) any window whose boundary now falls at or before `now`.
  void maybe_open(const SyncEngine& engine, Time now);

  /// Records an arrival admitted at `now` into its window's buffer (no-op
  /// for untracked windows).
  void on_arrival(const Transaction& txn, Time now);

  /// Records a commit; when this completes a closed window, the window is
  /// finalized (lower bound + ratio) and discarded.
  void on_commit(Time gen, Time exec);

  /// Closes and finalizes every still-open window (end of run; all tracked
  /// arrivals must have committed).
  void finish();

  // ---- Results / bounded-memory evidence ----

  [[nodiscard]] std::int64_t windows_finalized() const { return finalized_; }
  [[nodiscard]] double ratio_max() const { return ratio_max_; }
  [[nodiscard]] const OnlineStats& ratio_stats() const { return ratios_; }
  /// High-water mark of simultaneously resident tracked windows.
  [[nodiscard]] std::int64_t peak_open_windows() const { return peak_open_; }
  /// Largest arrival buffer any tracked window held.
  [[nodiscard]] std::int64_t peak_window_txns() const { return peak_txns_; }

 private:
  struct Win {
    std::vector<Transaction> txns;        ///< window-relative gen_times
    std::vector<ObjectOrigin> snapshot;   ///< positions at window start
    Time worst_latency = 0;
    std::int64_t outstanding = 0;  ///< arrivals not yet committed
    bool closed = false;           ///< a later window has opened
  };

  void finalize(const Win& w);

  const DistanceOracle& oracle_;
  std::int64_t latency_factor_;
  Time window_;
  std::int64_t ratio_every_;

  std::map<std::int64_t, Win> open_;  ///< tracked windows by index
  std::int64_t next_window_ = 0;      ///< first window index not yet opened

  std::int64_t finalized_ = 0;
  double ratio_max_ = 0.0;
  OnlineStats ratios_;
  std::int64_t peak_open_ = 0;
  std::int64_t peak_txns_ = 0;
};

}  // namespace dtm
