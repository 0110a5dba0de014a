// StreamRunner — the streaming run (streaming subsystem;
// docs/ARCHITECTURE.md §10), a configuration of the run driver
// (sim/driver.hpp) whose arrival source is the stream's offers.
//
// Drives a StreamSource to a committed-transaction target (or a duration)
// with every piece of per-transaction state bounded: the driver drains the
// committed log on a cadence and frees each ratio window once its arrivals
// commit, the execution calendar is the ring wheel whose occupancy the
// report pins, and an optional max_live watermark sheds offers while the
// live set is saturated. The report's FNV-1a hash over (txn, node, gen,
// exec) makes determinism checkable across thread counts without retaining
// a single committed entry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/scheduler.hpp"
#include "net/topology.hpp"
#include "sim/driver.hpp"
#include "sim/registry.hpp"
#include "stream/config.hpp"
#include "stream/stream_source.hpp"
#include "util/json.hpp"

namespace dtm {

struct StreamReport {
  std::string scheduler;
  std::string network;
  std::string profile;
  Time end_time = 0;
  std::int64_t active_steps = 0;

  std::int64_t offered = 0;   ///< transactions the source generated
  std::int64_t shed = 0;      ///< dropped at the max_live watermark
  std::int64_t accepted = 0;  ///< entered the engine
  std::int64_t commits = 0;
  std::int64_t drained = 0;   ///< commits drained during the run
  std::int64_t residual = 0;  ///< commits still in the log at the end

  // -- bounded-memory evidence --
  std::int64_t peak_committed_log = 0;
  std::int64_t peak_calendar = 0;      ///< EventClock::calendar_peak()
  std::int64_t final_calendar_overflow = 0;
  std::int64_t peak_live = 0;
  std::int64_t peak_open_windows = 0;  ///< ratio tracker residency
  std::int64_t peak_window_txns = 0;

  // -- windowed competitive-ratio estimates --
  std::int64_t ratio_windows = 0;
  double windowed_ratio_max = 0.0;
  double windowed_ratio_mean = 0.0;

  std::uint64_t commit_hash = 0;
  LatencyRecorder latency;

  [[nodiscard]] Json to_json() const;
};

/// The stream offers (target, duration, max_live shedding) are the
/// driver's arrival source.
class StreamRunner final : private ArrivalSource {
 public:
  /// `net` must outlive the runner.
  StreamRunner(const Network& net, std::unique_ptr<StreamSource> source,
               std::unique_ptr<OnlineScheduler> scheduler, StreamConfig cfg,
               EngineOptions engine_opts);

  /// Runs to quiescence: offers until the target/duration is reached, then
  /// drains every live transaction. Single use.
  [[nodiscard]] StreamReport run();

 private:
  void arrivals(const SyncEngine& engine, Time now,
                std::vector<Transaction>& out) override;
  Time on_commit(const SyncEngine::Commit& c) override { return c.gen; }
  [[nodiscard]] Time next_arrival(Time now) const override;
  [[nodiscard]] bool exhausted() const override { return !offering_; }

  const Network& net_;
  StreamConfig cfg_;
  std::unique_ptr<StreamSource> source_;
  std::unique_ptr<OnlineScheduler> scheduler_;

  bool offering_ = true;
  TxnId next_engine_id_ = 0;
  std::int64_t offered_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t accepted_ = 0;

  std::optional<Driver> driver_;  ///< engaged once the arguments check out
};

/// Builds the full streaming run from a RunSpec whose `stream` spec names
/// the run shape (Registry::make_stream_config); topology/scheduler/fault
/// through the usual registry factories, engine options from
/// RunSpec::engine_options. `net` must be the spec's topology and outlive
/// the runner.
[[nodiscard]] std::unique_ptr<StreamRunner> make_stream_runner(
    const Network& net, const RunSpec& spec);

}  // namespace dtm
