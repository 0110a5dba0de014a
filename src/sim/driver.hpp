// Driver — the one run loop (docs/ARCHITECTURE.md §13). run_experiment,
// DtmServer and StreamRunner are configurations of it. Each step it takes
// the step's transactions from its ArrivalSource, runs begin_step ->
// scheduler on_step -> apply -> finish_step, folds every commit into one
// set of accumulators (RunTotals, the ratio tracker), tracks the peaks and
// drains the committed log on its cadence, then fast-forwards to the next
// step where anything can happen. The ArrivalSource is its only seam.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/ratio_tracker.hpp"
#include "util/latency.hpp"

namespace dtm {

/// Where a driven run's transactions come from.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Appends the transactions entering the engine at step `now` to `out`
  /// (fresh ids, gen_time == now). `engine` has not registered them yet.
  virtual void arrivals(const SyncEngine& engine, Time now,
                        std::vector<Transaction>& out) = 0;

  /// Reports a commit; returns the step its latency and the commit hash
  /// are measured from (the offer step for serve, the gen step otherwise).
  virtual Time on_commit(const SyncEngine::Commit& c) = 0;

  /// Earliest step at or after `now` at which the source has work, kNoTime
  /// if none.
  [[nodiscard]] virtual Time next_arrival(Time now) const = 0;

  /// True once the source will deliver nothing more: the run is done when
  /// the engine has no live transaction either.
  [[nodiscard]] virtual bool exhausted() const = 0;
};

struct DriverOptions {
  /// Hard cap on executed steps: a run that never finishes is a bug.
  Time max_steps = Time{1} << 40;
  /// Drains the committed log every this many steps (0 = keeps it).
  Time drain_every = 0;
  /// Definition-1 ratio windows of this many steps (0 = none), every
  /// ratio_every-th one tracked.
  Time ratio_window = 0;
  std::int64_t ratio_every = 1;

  /// The serve and stream configs' drain knob as a drain_every value:
  /// every `drain_every` steps, 0 = every `window`, negative = never.
  [[nodiscard]] static Time window_cadence(Time drain_every, Time window) {
    return drain_every < 0 ? 0 : drain_every > 0 ? drain_every : window;
  }
};

/// What the driver accumulates, commit by commit.
struct RunTotals {
  std::int64_t commits = 0;
  Time makespan = 0;              ///< latest commit step
  std::int64_t active_steps = 0;  ///< steps executed (idle ones skipped)
  std::int64_t peak_live = 0;
  std::int64_t peak_committed_log = 0;
  std::int64_t drained = 0;  ///< committed-log entries drained
  /// FNV-1a over every commit's (id, node, origin, exec), where origin is
  /// the step ArrivalSource::on_commit returned.
  std::uint64_t commit_hash = 1469598103934665603ULL;
  LatencyRecorder latency;  ///< exec - origin
};

class Driver {
 public:
  /// `scheduler` and `source` must outlive the driver. Only the
  /// scheduler's event_sources() is called here; nothing else is called
  /// before the first run_until.
  Driver(std::shared_ptr<const DistanceOracle> oracle,
         std::vector<ObjectOrigin> origins, const EngineOptions& engine,
         OnlineScheduler& scheduler, ArrivalSource& source,
         const DriverOptions& opts);

  /// Steps until the run is done or its next event lies beyond `horizon`
  /// (kNoTime = no horizon), in which case the clock parks at the horizon.
  /// Returns done().
  bool run_until(Time horizon = kNoTime);

  /// Discards the retained committed log, counting it as drained.
  void drain_log();
  /// Moves the retained committed log out (not counted as drained).
  [[nodiscard]] std::vector<ScheduledTxn> take_log();

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const RunTotals& totals() const { return totals_; }
  /// Finalized once done().
  [[nodiscard]] const StreamingRatioTracker& ratio() const { return ratio_; }
  [[nodiscard]] SyncEngine& engine() { return engine_; }
  [[nodiscard]] const SyncEngine& engine() const { return engine_; }

 private:
  void step();

  SyncEngine engine_;
  OnlineScheduler& scheduler_;
  ArrivalSource& source_;
  /// The scheduler's event sources, fixed for its lifetime.
  std::vector<const EventSource*> sources_;
  DriverOptions opts_;
  StreamingRatioTracker ratio_;
  RunTotals totals_;
  Time last_drain_ = 0;
  bool done_ = false;
  std::vector<Transaction> arrivals_;  ///< reused every step
};

}  // namespace dtm
