#include "stream/stream_runner.hpp"

#include "util/check.hpp"

namespace dtm {

Json StreamReport::to_json() const {
  return Json::Object{
      {"scheduler", scheduler}, {"network", network}, {"profile", profile},
      {"end_time", end_time}, {"active_steps", active_steps},
      {"offered", offered}, {"shed", shed}, {"accepted", accepted},
      {"commits", commits}, {"drained", drained}, {"residual", residual},
      {"peak_committed_log", peak_committed_log},
      {"peak_calendar", peak_calendar},
      {"final_calendar_overflow", final_calendar_overflow},
      {"peak_live", peak_live}, {"peak_open_windows", peak_open_windows},
      {"peak_window_txns", peak_window_txns}, {"ratio_windows", ratio_windows},
      {"windowed_ratio_max", windowed_ratio_max},
      {"windowed_ratio_mean", windowed_ratio_mean},
      {"commit_hash", std::to_string(commit_hash)},
      {"latency", latency.to_json()}};
}

StreamRunner::StreamRunner(const Network& net,
                           std::unique_ptr<StreamSource> source,
                           std::unique_ptr<OnlineScheduler> scheduler,
                           StreamConfig cfg, EngineOptions engine_opts)
    : net_(net),
      cfg_(std::move(cfg)),
      source_(std::move(source)),
      scheduler_(std::move(scheduler)) {
  cfg_.validate();
  DTM_REQUIRE(source_ != nullptr, "stream: null source");
  DTM_REQUIRE(scheduler_ != nullptr, "stream: null scheduler");
  DriverOptions d;
  d.drain_every = DriverOptions::window_cadence(cfg_.drain_every, cfg_.window);
  d.ratio_window = cfg_.window;
  d.ratio_every = cfg_.ratio_every;
  driver_.emplace(net.oracle, source_->objects(), engine_opts, *scheduler_,
                  static_cast<ArrivalSource&>(*this), d);
}

void StreamRunner::arrivals(const SyncEngine& engine, Time now,
                            std::vector<Transaction>& out) {
  if (offering_ && cfg_.duration > 0 && now >= cfg_.duration)
    offering_ = false;
  if (!offering_) return;
  for (auto& t : source_->offers_at(now)) {
    if (cfg_.target > 0 && accepted_ >= cfg_.target) {
      // Target hit mid-batch: the run accepts exactly `target`; the rest
      // of this release is never offered to the engine.
      offering_ = false;
      break;
    }
    ++offered_;
    if (cfg_.max_live > 0 &&
        engine.num_live() + static_cast<std::int64_t>(out.size()) >=
            cfg_.max_live) {
      ++shed_;
      continue;
    }
    t.id = next_engine_id_++;
    t.gen_time = now;  // the engine requires arrivals stamped with `now`
    out.push_back(std::move(t));
    ++accepted_;
  }
  if (cfg_.target > 0 && accepted_ >= cfg_.target) offering_ = false;
}

Time StreamRunner::next_arrival(Time /*now*/) const {
  if (!offering_) return kNoTime;
  return EventClock::merge(source_->next_offer_time(),
                           cfg_.duration > 0 ? cfg_.duration : kNoTime);
}

StreamReport StreamRunner::run() {
  DTM_REQUIRE(!driver_->done(), "stream runner is single-use");
  (void)driver_->run_until();

  const RunTotals& t = driver_->totals();
  const SyncEngine& engine = driver_->engine();
  const StreamingRatioTracker& ratio = driver_->ratio();
  StreamReport r;
  r.scheduler = scheduler_->name();
  r.network = net_.name;
  r.profile = cfg_.profile;
  r.end_time = engine.now();
  r.active_steps = t.active_steps;
  r.offered = offered_;
  r.shed = shed_;
  r.accepted = accepted_;
  r.commits = t.commits;
  // The residual is whatever the cadence never drained; together with the
  // drained count it must account for every commit (zero-loss invariant).
  r.residual = static_cast<std::int64_t>(engine.committed().size());
  r.drained = t.drained;
  DTM_CHECK(r.drained + r.residual == r.commits,
            "stream drain lost commits: " << r.drained << " + " << r.residual
                                          << " != " << r.commits);
  DTM_CHECK(accepted_ == r.commits, "stream quiescence: accepted "
                                        << accepted_ << " != commits "
                                        << r.commits);
  if (cfg_.target > 0 && cfg_.duration == 0)
    DTM_CHECK(r.commits == cfg_.target, "stream target missed: "
                                            << r.commits << " != "
                                            << cfg_.target);
  r.peak_committed_log = t.peak_committed_log;
  r.peak_calendar = engine.clock().calendar_peak();
  r.final_calendar_overflow = engine.clock().calendar_overflow();
  r.peak_live = t.peak_live;
  r.peak_open_windows = ratio.peak_open_windows();
  r.peak_window_txns = ratio.peak_window_txns();
  r.ratio_windows = ratio.windows_finalized();
  r.windowed_ratio_max = ratio.ratio_max();
  r.windowed_ratio_mean = ratio.ratio_stats().mean();
  r.commit_hash = t.commit_hash;
  r.latency = t.latency;
  return r;
}

std::unique_ptr<StreamRunner> make_stream_runner(const Network& net,
                                                 const RunSpec& spec) {
  StreamConfig cfg = Registry::make_stream_config(spec.stream, spec.seed);
  const FaultPlan fault = Registry::make_fault_plan(spec.fault, spec.seed);
  auto scheduler =
      Registry::make_scheduler(spec.scheduler, net, &fault, spec.threads);

  auto source = make_stream_source(net, cfg);
  return std::make_unique<StreamRunner>(net, std::move(source),
                                        std::move(scheduler), std::move(cfg),
                                        spec.engine_options(fault));
}

}  // namespace dtm
