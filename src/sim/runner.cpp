#include "sim/runner.hpp"

#include <algorithm>

#include "sim/driver.hpp"

namespace dtm {

namespace {

/// The closed-loop Workload as the driver's arrival source.
class WorkloadSource final : public ArrivalSource {
 public:
  explicit WorkloadSource(Workload& workload) : workload_(workload) {}

  void arrivals(const SyncEngine& /*engine*/, Time now,
                std::vector<Transaction>& out) override {
    out = workload_.arrivals_at(now);
  }
  Time on_commit(const SyncEngine::Commit& c) override {
    workload_.on_commit(c.txn, c.exec);
    return c.gen;
  }
  [[nodiscard]] Time next_arrival(Time /*now*/) const override {
    return workload_.next_arrival_time();
  }
  [[nodiscard]] bool exhausted() const override {
    return workload_.finished();
  }

 private:
  Workload& workload_;
};

}  // namespace

RunResult run_experiment(const Network& net, Workload& workload,
                         OnlineScheduler& scheduler, const RunOptions& opts) {
  if (opts.drain_every > 0) {
    // Draining discards the log; everything that replays it must be off.
    DTM_REQUIRE(!opts.validate,
                "drain_every requires validate=false (validation replays "
                "the full committed schedule)");
    DTM_REQUIRE(opts.ratio_window == 0,
                "drain_every requires ratio_window=0");
    DTM_REQUIRE(!opts.collect_schedule,
                "drain_every requires collect_schedule=false");
  }
  WorkloadSource source(workload);
  DriverOptions d;
  d.max_steps = opts.max_steps;
  d.drain_every = opts.drain_every;
  d.ratio_window = opts.ratio_window;
  Driver driver(net.oracle, workload.objects(), opts.engine, scheduler,
                source, d);
  (void)driver.run_until();
  if (opts.drain_every > 0) driver.drain_log();  // whatever the cadence left

  const RunTotals& t = driver.totals();
  const SyncEngine& engine = driver.engine();
  RunResult r;
  r.scheduler = scheduler.name();
  r.network = net.name;
  r.num_txns = t.commits;
  r.active_steps = t.active_steps;
  r.makespan = t.makespan;
  r.latency = t.latency;
  r.drained = t.drained;
  r.peak_committed_log = t.peak_committed_log;
  if (opts.drain_every > 0)
    DTM_CHECK(r.drained == r.num_txns,
              "drain lost commits: " << r.drained << " != " << r.num_txns);
  if (opts.validate) {
    const auto err =
        validate_schedule(engine.committed(), engine.origins(), *net.oracle,
                          opts.engine.latency_factor);
    DTM_CHECK(!err.has_value(), "invalid schedule: " << *err);
  }
  r.lb = makespan_lower_bound(workload.generated(), engine.origins(),
                              *net.oracle, opts.engine.latency_factor);
  r.ratio = static_cast<double>(r.makespan) /
            static_cast<double>(std::max<Time>(r.lb.best(), 1));
  r.windowed_ratio = driver.ratio().ratio_max();
  r.num_windows = driver.ratio().windows_finalized();
  if (opts.collect_schedule) {
    r.origins = engine.origins();
    r.committed = driver.take_log();  // moved, never copied
  }
  return r;
}

}  // namespace dtm
