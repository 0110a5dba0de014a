// Experiment runner: wires a network, a workload, and an online scheduler
// into the run driver (sim/driver.hpp), validates the resulting schedule,
// and reports metrics (makespan, latency, certified lower bound, and the
// competitive-ratio proxy makespan / LB).
#pragma once

#include <string>

#include "core/lower_bound.hpp"
#include "core/scheduler.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "util/latency.hpp"

namespace dtm {

struct RunOptions {
  SyncEngine::Options engine;
  /// Hard step cap: a scheduler that never finishes the workload is a bug.
  Time max_steps = Time{1} << 40;
  /// Post-hoc chain validation of the full committed schedule (the engine
  /// already verifies object presence at every commit; this re-checks the
  /// schedule independently).
  bool validate = true;
  /// Window length for the paper's Definition-1 competitive ratio proxy:
  /// arrivals are grouped into windows of this many steps; each window's
  /// worst latency is divided by a lower bound computed against the actual
  /// object positions at the window's start (StreamingRatioTracker).
  /// 0 disables windowed accounting.
  Time ratio_window = 0;
  /// Populate RunResult::committed / ::origins (moved out of the engine,
  /// never copied). Averaging loops that only read the headline metrics
  /// turn this off and skip the allocation entirely.
  bool collect_schedule = true;
};

struct RunResult {
  std::string scheduler;
  std::string network;
  std::int64_t num_txns = 0;
  /// Simulated steps the engine actually executed (idle stretches are
  /// fast-forwarded); the denominator for steps/sec throughput reporting.
  std::int64_t active_steps = 0;
  Time makespan = 0;          ///< last commit time
  LatencyRecorder latency;    ///< per-transaction exec - gen
  LowerBoundBreakdown lb;     ///< certified bound on the optimal makespan
  double ratio = 0.0;         ///< makespan / lb.best()  (>= true comp. ratio)

  /// Definition-1 proxy (only when RunOptions::ratio_window > 0): the worst
  /// over windows of (max latency of the window's transactions) / (lower
  /// bound for that window given object positions at its start).
  double windowed_ratio = 0.0;
  std::int64_t num_windows = 0;

  /// The full committed schedule and the object origins — input to the
  /// congestion replay and the gantt/itinerary renderers. Empty when
  /// RunOptions::collect_schedule is false.
  std::vector<ScheduledTxn> committed;
  std::vector<ObjectOrigin> origins;
};

[[nodiscard]] RunResult run_experiment(const Network& net, Workload& workload,
                                       OnlineScheduler& scheduler,
                                       const RunOptions& opts = {});

}  // namespace dtm
