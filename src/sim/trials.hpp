// Shared randomized-fixture and multi-trial helpers.
//
// One home for the machinery the bench harness and the test suite used to
// duplicate: averaged multi-seed trials, the random topology/workload draws
// behind the fuzz and equivalence suites, and the canonical set of small
// representative networks. Benches consume this through bench_common.hpp;
// tests through test_helpers.hpp.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/scheduler.hpp"
#include "net/topology.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace dtm {

/// Headline metrics averaged over independent trial seeds.
struct TrialSummary {
  double ratio = 0.0;
  double makespan = 0.0;
  double mean_latency = 0.0;
  double lb = 0.0;
  std::int64_t txns = 0;
  double windowed_ratio = 0.0;  ///< Definition-1 proxy (if window > 0)
};

struct TrialOptions {
  std::int32_t trials = 3;
  std::int64_t latency_factor = 1;
  Time ratio_window = 0;
  /// Worker threads: trials fan out across the process-wide ThreadPool and
  /// fold in trial-index order, so the summary is byte-identical at every
  /// value (1 = serial, 0 = all hardware threads). The scheduler factory
  /// must be safe to invoke concurrently — every registry/bench factory
  /// only reads shared immutable state, so this holds by construction.
  std::int32_t threads = 1;
};

/// Averages the headline metrics of independent trial runs.
[[nodiscard]] TrialSummary summarize(std::span<const RunResult> runs);

using SchedulerFactory = std::function<std::unique_ptr<OnlineScheduler>()>;

/// Runs `opts.trials` independent seeds of (network, workload options,
/// scheduler factory) and averages the headline metrics. The factory is
/// invoked per trial (schedulers are stateful); trial t perturbs the base
/// seed to wopts.seed + t * 7919. Only the summary is kept — the runs skip
/// collecting the full committed schedule entirely.
[[nodiscard]] TrialSummary run_seeded_trials(const Network& net,
                                      const SyntheticOptions& wopts,
                                      const SchedulerFactory& make_scheduler,
                                      const TrialOptions& opts = {});

/// Small representative networks used by parameterized sweeps.
[[nodiscard]] std::vector<Network> small_networks();

/// Random topology draw shared by the fuzz and equivalence suites.
[[nodiscard]] Network random_topology(Rng& rng);

/// Random workload shape matching the topology (fuzz + equivalence suites).
[[nodiscard]] SyntheticOptions random_workload(const Network& net, Rng& rng);

/// Runs with post-hoc schedule validation enabled; throws CheckError on any
/// invalidity. Not [[nodiscard]]: the validation side effect alone is a
/// legitimate use.
RunResult run_and_validate(const Network& net, Workload& wl,
                                         OnlineScheduler& sched,
                                         std::int64_t latency_factor = 1);

}  // namespace dtm
