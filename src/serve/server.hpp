// DtmServer — the long-running service (serve layer; docs/ARCHITECTURE.md
// §7), a configuration of the run driver (sim/driver.hpp) whose arrival
// source is admission control:
//
//   TxnSource --offers--> AdmissionController --admits--> Driver
//                              |  (shed/queue)               |  commits
//                              v                              v
//        MetricsRegistry <-- window stats <-- LatencyRecorder (per window
//                                             + the driver's cumulative one)
//
// Latency is measured from the *offer* step (a queued transaction pays its
// queue wait), bucketed into fixed windows with p50/p95/p99/p999 each and
// checked against an optional p99 SLO. Graceful drain = stop taking new
// offers, keep releasing the wait queue, run to quiescence, and assert
// that every admitted transaction committed. Fault plans toggle live
// (set_fault). A (RunSpec, ServeConfig) pair reproduces the same
// commit_hash run after run; wall-clock pacing, signals and the control
// socket live in tools/dtm_serve.cpp, which drives this class via pump().
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/scheduler.hpp"
#include "net/topology.hpp"
#include "serve/admission.hpp"
#include "serve/config.hpp"
#include "serve/metrics.hpp"
#include "serve/source.hpp"
#include "sim/driver.hpp"
#include "sim/registry.hpp"

namespace dtm {

/// One closed metrics window.
struct ServeWindow {
  Time start = 0;
  Time end = 0;  ///< exclusive
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  std::int64_t commits = 0;
  std::int64_t p50 = 0, p95 = 0, p99 = 0, p999 = 0, max = 0;
  double shed_rate = 0.0;   ///< shed / offered (0 when nothing offered)
  double throughput = 0.0;  ///< commits per step
  bool slo_violated = false;

  [[nodiscard]] Json to_json() const;
};

/// Final report: the serve-mode analogue of RunResult.
struct ServeReport {
  Time end_time = 0;             ///< quiescence step
  std::int64_t active_steps = 0; ///< engine steps actually executed
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  std::int64_t commits = 0;
  std::int64_t drained = 0;            ///< commits drained out of the log
  std::int64_t peak_committed_log = 0; ///< bounded-RSS evidence
  std::int64_t windows = 0;
  std::int64_t slo_violations = 0;
  std::int64_t fault_toggles = 0;
  /// FNV-1a over every commit's (id, node, offered, exec) — the serve-mode
  /// golden-pin / determinism handle.
  std::uint64_t commit_hash = 1469598103934665603ULL;
  LatencyRecorder latency;    ///< cumulative
  AdmissionStats admission;

  [[nodiscard]] Json to_json() const;
};

/// Admission control is the driver's arrival source.
class DtmServer final : private ArrivalSource {
 public:
  struct Hooks {
    /// Fired when a window closes (bench accumulation, live printing).
    std::function<void(const ServeWindow&)> on_window;
  };

  /// `net` must outlive the server (schedulers hold references into it).
  DtmServer(const Network& net, std::unique_ptr<TxnSource> source,
            std::unique_ptr<OnlineScheduler> scheduler, ServeConfig cfg,
            EngineOptions engine_opts, Hooks hooks = {});

  /// Processes every event up to simulated step `until` (kNoTime = no
  /// limit). Returns false once the service is fully drained — no further
  /// pump calls will do anything. The unit of incrementality dtm_serve's
  /// wall-clock pacing and control polling interleave with.
  bool pump(Time until);

  /// Drives to completion (duration + drain to quiescence) and returns the
  /// final report. The convenience entry for benches and tests.
  ServeReport run();

  /// Stops taking new offers; queued transactions still admit, live ones
  /// run to quiescence. Idempotent.
  void request_drain() { admitting_ = false; }

  /// Live fault-plan toggle (resilience drills). Transport stall knobs
  /// always apply; bus-level knobs apply when the scheduler is a
  /// DistributedBucketScheduler constructed in resilient mode, and are a
  /// hard error when it is a non-resilient dist-bucket (arming the chaos
  /// bus mid-run would swap it under in-flight messages). Other schedulers
  /// exchange no messages, so bus knobs are ignored for them.
  void set_fault(const FaultPlan& plan);

  [[nodiscard]] bool finished() const {
    return exhausted() && driver_->engine().all_done();
  }
  [[nodiscard]] bool admitting() const { return admitting_; }
  [[nodiscard]] Time now() const { return driver_->engine().now(); }
  [[nodiscard]] std::int64_t inflight() const {
    return static_cast<std::int64_t>(offered_time_.size());
  }
  [[nodiscard]] std::int64_t commits() const {
    return driver_->totals().commits;
  }

  /// Live metrics snapshot (MetricsRegistry pull).
  [[nodiscard]] Json snapshot() const { return metrics_.snapshot(); }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Closed windows retained so far (oldest dropped beyond a cap on
  /// unbounded runs; ServeReport::windows counts all of them).
  [[nodiscard]] const std::deque<ServeWindow>& windows() const {
    return windows_;
  }

  /// The final report; valid once finished() (run() returns it directly).
  [[nodiscard]] ServeReport report() const;

 private:
  void arrivals(const SyncEngine& engine, Time now,
                std::vector<Transaction>& out) override;
  Time on_commit(const SyncEngine::Commit& c) override;
  [[nodiscard]] Time next_arrival(Time now) const override;
  [[nodiscard]] bool exhausted() const override {
    return !admitting_ && admission_.queue_empty();
  }

  void register_metrics();
  /// Stamps an engine-facing copy: fresh id, gen_time = admission step;
  /// remembers the offer step for latency accounting.
  [[nodiscard]] Transaction admit_stamp(const Transaction& t, Time offered,
                                        Time now);
  void close_windows_through(Time now);
  void emit_window(Time start, Time end);
  /// Trailing window, zero-loss checks and the final drain, once the
  /// driver is done.
  void finish();

  const Network& net_;
  ServeConfig cfg_;
  Hooks hooks_;
  std::unique_ptr<TxnSource> source_;
  std::unique_ptr<OnlineScheduler> scheduler_;
  AdmissionController admission_;
  MetricsRegistry metrics_;

  bool admitting_ = true;
  TxnId next_engine_id_ = 0;
  std::map<TxnId, Time> offered_time_;  ///< admitted, not yet committed

  LatencyRecorder window_latency_;
  std::deque<ServeWindow> windows_;
  std::int64_t windows_closed_ = 0;
  std::int64_t slo_violations_ = 0;
  Time window_end_;
  // Totals at the last window close, for per-window deltas.
  std::int64_t last_offered_ = 0, last_admitted_ = 0, last_shed_ = 0,
               last_commits_ = 0;
  std::int64_t fault_toggles_ = 0;

  std::optional<Driver> driver_;  ///< engaged once the arguments check out
};

/// Builds the full service from a RunSpec whose `serve` spec names the
/// service shape: topology/scheduler/fault through the usual registry
/// factories, engine options from RunSpec::engine_options, source +
/// admission from Registry::make_serve_config. `net` must be the
/// spec's topology (Registry::make_network(spec.topology)) and outlive the
/// server.
[[nodiscard]] std::unique_ptr<DtmServer> make_server(
    const Network& net, const RunSpec& spec, DtmServer::Hooks hooks = {});

}  // namespace dtm
