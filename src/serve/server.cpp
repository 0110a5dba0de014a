#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "core/bucket_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "net/routing.hpp"
#include "sim/io.hpp"
#include "util/alloc.hpp"
#include "util/check.hpp"

namespace dtm {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

/// Windows retained for inspection on unbounded runs; older ones are
/// dropped (totals keep counting — ServeReport::windows is exact).
constexpr std::size_t kMaxRetainedWindows = 65536;

Json fastpath_json(const FastPathStats& s) {
  Json::Object o;
  o.emplace("inserts", Json(s.inserts));
  o.emplace("probes", Json(s.probes));
  o.emplace("memo_hits", Json(s.memo_hits));
  o.emplace("estimates", Json(s.estimates));
  o.emplace("levels_skipped", Json(s.levels_skipped));
  o.emplace("rebuilds", Json(s.rebuilds));
  o.emplace("refreshes", Json(s.refreshes));
  o.emplace("appends", Json(s.appends));
  o.emplace("activations", Json(s.activations));
  return Json(std::move(o));
}

Json dist_json(const DistStats& s) {
  Json::Object o;
  o.emplace("probes", Json(s.probes));
  o.emplace("probe_hops", Json(s.probe_hops));
  o.emplace("reports", Json(s.reports));
  o.emplace("notifications", Json(s.notifications));
  o.emplace("message_distance", Json(s.message_distance));
  o.emplace("max_discovery_delay", Json(s.max_discovery_delay));
  o.emplace("probe_timeouts", Json(s.probe_timeouts));
  o.emplace("reprobes", Json(s.reprobes));
  o.emplace("report_retries", Json(s.report_retries));
  o.emplace("dup_replies", Json(s.dup_replies));
  o.emplace("dup_reports", Json(s.dup_reports));
  return Json(std::move(o));
}

Json fault_bus_json(const FaultBusStats* s) {
  Json::Object o;
  o.emplace("armed", Json(s != nullptr));
  if (s != nullptr) {
    o.emplace("offered", Json(s->offered));
    o.emplace("dropped", Json(s->dropped));
    o.emplace("duplicated", Json(s->duplicated));
    o.emplace("degraded", Json(s->degraded));
    o.emplace("jitter_total", Json(s->jitter_total));
    o.emplace("pause_deferred", Json(s->pause_deferred));
    o.emplace("bytes_duplicated", Json(s->bytes_duplicated));
  }
  return Json(std::move(o));
}

}  // namespace

void ServeConfig::validate() const {
  DTM_REQUIRE(source == "synthetic" || source == "trace",
              "serve source '" << source << "' (synthetic | trace)");
  DTM_REQUIRE(rate > 0.0, "serve rate " << rate);
  DTM_REQUIRE(duration >= 0, "serve duration " << duration);
  DTM_REQUIRE(window >= 1, "serve window " << window);
  if (source == "trace")
    DTM_REQUIRE(!trace_file.empty(), "trace source needs trace=PATH");
  DTM_REQUIRE(trace_loop >= 0, "serve trace_loop " << trace_loop);
  DTM_REQUIRE(k >= 1, "serve k=" << k);
  DTM_REQUIRE(zipf >= 0.0, "serve zipf " << zipf);
  DTM_REQUIRE(write_frac >= 0.0 && write_frac <= 1.0,
              "serve write_frac " << write_frac);
  DTM_REQUIRE(burst_every >= 0 && burst_len >= 0 && burst_mult > 0.0,
              "serve burst knobs");
  DTM_REQUIRE(slo_p99 >= 0, "serve slo_p99 " << slo_p99);
  admission.validate();
}

Json ServeWindow::to_json() const {
  Json::Object o;
  o.emplace("start", Json(start));
  o.emplace("end", Json(end));
  o.emplace("offered", Json(offered));
  o.emplace("admitted", Json(admitted));
  o.emplace("shed", Json(shed));
  o.emplace("commits", Json(commits));
  o.emplace("p50", Json(p50));
  o.emplace("p95", Json(p95));
  o.emplace("p99", Json(p99));
  o.emplace("p999", Json(p999));
  o.emplace("max", Json(max));
  o.emplace("shed_rate", Json(shed_rate));
  o.emplace("throughput", Json(throughput));
  o.emplace("slo_violated", Json(slo_violated));
  return Json(std::move(o));
}

Json ServeReport::to_json() const {
  Json::Object o;
  o.emplace("end_time", Json(end_time));
  o.emplace("active_steps", Json(active_steps));
  o.emplace("offered", Json(offered));
  o.emplace("admitted", Json(admitted));
  o.emplace("shed", Json(shed));
  o.emplace("commits", Json(commits));
  o.emplace("drained", Json(drained));
  o.emplace("peak_committed_log", Json(peak_committed_log));
  o.emplace("windows", Json(windows));
  o.emplace("slo_violations", Json(slo_violations));
  o.emplace("fault_toggles", Json(fault_toggles));
  o.emplace("commit_hash", Json(std::to_string(commit_hash)));
  o.emplace("latency", latency.to_json());
  o.emplace("admission", admission.to_json());
  return Json(std::move(o));
}

DtmServer::DtmServer(const Network& net, std::unique_ptr<TxnSource> source,
                     std::unique_ptr<OnlineScheduler> scheduler,
                     ServeConfig cfg, EngineOptions engine_opts, Hooks hooks)
    : net_(net),
      cfg_(std::move(cfg)),
      hooks_(std::move(hooks)),
      source_(std::move(source)),
      scheduler_(std::move(scheduler)),
      admission_(cfg_.admission),
      window_end_(cfg_.window) {
  cfg_.validate();
  DTM_REQUIRE(source_ != nullptr, "serve: null source");
  DTM_REQUIRE(scheduler_ != nullptr, "serve: null scheduler");
  engine_ = std::make_unique<SyncEngine>(net_.oracle, source_->objects(),
                                         engine_opts);
  register_metrics();
}

void DtmServer::register_metrics() {
  metrics_.add("server", [this] {
    Json::Object o;
    o.emplace("now", Json(engine_->now()));
    o.emplace("admitting", Json(admitting_));
    o.emplace("finished", Json(done_));
    o.emplace("scheduler", Json(scheduler_->name()));
    o.emplace("source", Json(source_->name()));
    o.emplace("inflight", Json(inflight()));
    o.emplace("queue_depth", Json(admission_.queue_depth()));
    o.emplace("active_steps", Json(active_steps_));
    o.emplace("commits", Json(commits_total_));
    o.emplace("drained", Json(drained_));
    o.emplace("peak_committed_log", Json(peak_committed_log_));
    o.emplace("windows", Json(windows_closed_));
    o.emplace("slo_violations", Json(slo_violations_));
    o.emplace("fault_toggles", Json(fault_toggles_));
    return Json(std::move(o));
  });
  metrics_.add("admission", [this] { return admission_.stats().to_json(); });
  metrics_.add("latency", [this] {
    Json::Object o;
    o.emplace("total", total_latency_.to_json());
    o.emplace("window", window_latency_.to_json());
    return Json(std::move(o));
  });
  metrics_.add("engine", [this] {
    Json::Object o;
    o.emplace("live", Json(engine_->num_live()));
    o.emplace("committed_log",
              Json(static_cast<std::int64_t>(engine_->committed().size())));
    return Json(std::move(o));
  });
  // Heap-allocation counters (process-wide). All zeros unless the build
  // was configured with -DDTM_ALLOC_TRACK=ON — "tracking" says which.
  metrics_.add("alloc", [] {
    Json::Object o;
    o.emplace("tracking", Json(alloc_tracking_enabled()));
    const AllocCounters g = global_alloc_counters();
    o.emplace("allocs", Json(g.allocs));
    o.emplace("frees", Json(g.frees));
    o.emplace("bytes", Json(g.bytes));
    return Json(std::move(o));
  });
  // Routing: exact oracles have no live counters; landmark oracles expose
  // the cluster-query mix and the intra-cluster cache's hit rate — so
  // `dtm_serve stats` shows what the hierarchical routing layer is actually
  // doing under load.
  if (const auto* lm =
          dynamic_cast<const LandmarkOracle*>(net_.oracle.get())) {
    metrics_.add("routing", [lm] {
      Json::Object o;
      o.emplace("mode", Json(std::string("landmark")));
      o.emplace("landmarks",
                Json(static_cast<std::int64_t>(
                    lm->router().num_landmarks())));
      o.emplace("radius", Json(lm->router().radius()));
      o.emplace("diameter_bound", Json(lm->router().diameter_bound()));
      const LandmarkRouter::Stats qs = lm->router().stats();
      o.emplace("intra_queries", Json(qs.intra_queries));
      o.emplace("inter_queries", Json(qs.inter_queries));
      const RoutingTable::CacheStats cs = lm->router().intra_cache_stats();
      o.emplace("cache_hits", Json(cs.hits));
      o.emplace("cache_misses", Json(cs.misses));
      o.emplace("cache_evictions", Json(cs.evictions));
      o.emplace("cache_hit_rate",
                Json(cs.hits + cs.misses > 0
                         ? static_cast<double>(cs.hits) /
                               static_cast<double>(cs.hits + cs.misses)
                         : 0.0));
      o.emplace("memory_bytes",
                Json(static_cast<std::int64_t>(
                    lm->router().memory_bytes())));
      return Json(std::move(o));
    });
  } else {
    metrics_.add("routing", [] {
      Json::Object o;
      o.emplace("mode", Json(std::string("exact")));
      return Json(std::move(o));
    });
  }
  if (const auto* db =
          dynamic_cast<const DistributedBucketScheduler*>(scheduler_.get())) {
    metrics_.add("dist", [db] { return dist_json(db->stats()); });
    metrics_.add("fault_bus",
                 [db] { return fault_bus_json(db->fault_bus_stats()); });
    metrics_.add("fastpath",
                 [db] { return fastpath_json(db->fastpath_stats()); });
  } else if (const auto* b =
                 dynamic_cast<const BucketScheduler*>(scheduler_.get())) {
    metrics_.add("fastpath",
                 [b] { return fastpath_json(b->fastpath_stats()); });
  }
}

Transaction DtmServer::admit_stamp(const Transaction& t, Time offered,
                                   Time now) {
  Transaction s = t;
  s.id = next_engine_id_++;
  s.gen_time = now;  // the engine requires arrivals stamped with `now`
  offered_time_.emplace(s.id, offered);
  return s;
}

void DtmServer::close_windows_through(Time now) {
  while (now >= window_end_) {
    emit_window(window_end_ - cfg_.window, window_end_);
    window_end_ += cfg_.window;
  }
}

void DtmServer::emit_window(Time start, Time end) {
  const AdmissionStats& as = admission_.stats();
  ServeWindow w;
  w.start = start;
  w.end = end;
  w.offered = as.offered - last_offered_;
  w.admitted = as.admitted - last_admitted_;
  w.shed = as.shed - last_shed_;
  w.commits = commits_total_ - last_commits_;
  w.p50 = window_latency_.quantile(0.50);
  w.p95 = window_latency_.quantile(0.95);
  w.p99 = window_latency_.quantile(0.99);
  w.p999 = window_latency_.quantile(0.999);
  w.max = window_latency_.max();
  if (w.offered > 0)
    w.shed_rate = static_cast<double>(w.shed) / static_cast<double>(w.offered);
  if (end > start)
    w.throughput =
        static_cast<double>(w.commits) / static_cast<double>(end - start);
  if (cfg_.slo_p99 > 0 && w.commits > 0 && w.p99 > cfg_.slo_p99) {
    w.slo_violated = true;
    ++slo_violations_;
  }
  last_offered_ = as.offered;
  last_admitted_ = as.admitted;
  last_shed_ = as.shed;
  last_commits_ = commits_total_;
  window_latency_.reset();
  ++windows_closed_;
  windows_.push_back(w);
  if (windows_.size() > kMaxRetainedWindows) windows_.pop_front();
  if (hooks_.on_window) hooks_.on_window(windows_.back());
}

void DtmServer::maybe_drain_log(Time now) {
  if (cfg_.drain_every < 0) return;  // disabled (tests only)
  const Time cadence = cfg_.drain_every > 0 ? cfg_.drain_every : cfg_.window;
  if (now - last_drain_ < cadence) return;
  drained_ += static_cast<std::int64_t>(engine_->take_committed().size());
  last_drain_ = now;
}

void DtmServer::step_once() {
  const Time now = engine_->now();
  // Close windows first: this step's commits (exec == now) belong to the
  // window containing `now`, which is still open after this call.
  close_windows_through(now);
  if (admitting_ && cfg_.duration > 0 && now >= cfg_.duration)
    admitting_ = false;

  admission_.refill(now);
  std::vector<Transaction> admitted;
  std::vector<AdmissionController::Release> released;
  admission_.release(now, inflight(), released);
  admitted.reserve(released.size());
  for (const auto& r : released)
    admitted.push_back(admit_stamp(r.txn, r.offered, now));
  if (admitting_) {
    for (const auto& t : source_->offers_at(now)) {
      if (admission_.offer(t, now, inflight()) ==
          AdmissionController::Outcome::kAdmit)
        admitted.push_back(admit_stamp(t, now, now));
      // kQueued / kShed: the controller did the bookkeeping.
    }
    // A finite source (trace without loop) running dry is a natural drain.
    if (source_->next_offer_time() == kNoTime && admission_.queue_empty())
      admitting_ = false;
  }

  engine_->begin_step(admitted);
  const auto assignments = scheduler_->on_step(*engine_, admitted);
  engine_->apply(assignments);
  const auto commits = engine_->finish_step();
  ++active_steps_;

  for (const auto& c : commits) {
    const auto it = offered_time_.find(c.txn);
    DTM_CHECK(it != offered_time_.end(),
              "serve: commit for unknown transaction " << c.txn);
    const Time offered = it->second;
    offered_time_.erase(it);
    const Time lat = c.exec - offered;
    window_latency_.record(lat);
    total_latency_.record(lat);
    fnv(commit_hash_, static_cast<std::uint64_t>(c.txn));
    fnv(commit_hash_, static_cast<std::uint64_t>(c.node));
    fnv(commit_hash_, static_cast<std::uint64_t>(offered));
    fnv(commit_hash_, static_cast<std::uint64_t>(c.exec));
    ++commits_total_;
  }

  peak_committed_log_ =
      std::max(peak_committed_log_,
               static_cast<std::int64_t>(engine_->committed().size()));
  maybe_drain_log(engine_->now());

  if (finished()) {
    done_ = true;
    // Trailing partial window, then the zero-loss invariant: everything
    // admitted must have committed by quiescence.
    const AdmissionStats& as = admission_.stats();
    if (as.offered != last_offered_ || commits_total_ != last_commits_)
      emit_window(window_end_ - cfg_.window, engine_->now());
    DTM_CHECK(offered_time_.empty(),
              "serve drain lost " << offered_time_.size()
                                  << " admitted transactions");
    DTM_CHECK(as.admitted == commits_total_,
              "serve drain: admitted " << as.admitted << " != commits "
                                       << commits_total_);
    if (cfg_.drain_every >= 0) {
      drained_ += static_cast<std::int64_t>(engine_->take_committed().size());
      last_drain_ = engine_->now();
    }
  }
}

bool DtmServer::pump(Time until) {
  while (!done_ && (until == kNoTime || engine_->now() <= until)) {
    step_once();
    if (done_) break;

    const Time now = engine_->now();
    Time next = kNoTime;
    const auto merge = [&next](Time t) { next = EventClock::merge(next, t); };
    if (admitting_) {
      merge(source_->next_offer_time());
      if (cfg_.duration > 0) merge(cfg_.duration);
    }
    if (!admission_.queue_empty()) merge(admission_.next_token_time(now));
    merge(engine_->next_exec_due());
    merge(scheduler_->next_event_hint(now));
    const std::vector<const EventSource*> sources =
        scheduler_->event_sources();
    next = engine_->clock().next_event({next}, sources);
    DTM_CHECK(next != kNoTime,
              "serve deadlock: service not drained but no future event (now="
                  << now << ", inflight=" << inflight()
                  << ", queued=" << admission_.queue_depth() << ")");
    if (until != kNoTime && next > until) {
      // Nothing happens in (now, until]; settle the clock at the pump
      // horizon so callers pacing by sim time observe progress.
      if (until > now) {
        engine_->advance_to(until);
        close_windows_through(engine_->now());
      }
      break;
    }
    if (next > now) engine_->advance_to(next);
  }
  return !done_;
}

ServeReport DtmServer::run() {
  (void)pump(kNoTime);
  return report();
}

ServeReport DtmServer::report() const {
  DTM_REQUIRE(done_, "serve report requested before the service drained");
  const AdmissionStats& as = admission_.stats();
  ServeReport r;
  r.end_time = engine_->now();
  r.active_steps = active_steps_;
  r.offered = as.offered;
  r.admitted = as.admitted;
  r.shed = as.shed;
  r.commits = commits_total_;
  r.drained = drained_;
  r.peak_committed_log = peak_committed_log_;
  r.windows = windows_closed_;
  r.slo_violations = slo_violations_;
  r.fault_toggles = fault_toggles_;
  r.commit_hash = commit_hash_;
  r.latency = total_latency_;
  r.admission = as;
  return r;
}

void DtmServer::set_fault(const FaultPlan& plan) {
  plan.validate();
  engine_->set_fault(plan);
  if (auto* db = dynamic_cast<DistributedBucketScheduler*>(scheduler_.get())) {
    if (db->resilient())
      db->set_fault(plan);
    else
      DTM_REQUIRE(!plan.message_faults(),
                  "live bus faults require a service started with chaos "
                  "armed (a non-null fault plan with message faults)");
  }
  ++fault_toggles_;
}

std::unique_ptr<DtmServer> make_server(const Network& net, const RunSpec& spec,
                                       DtmServer::Hooks hooks) {
  ServeConfig cfg = Registry::make_serve_config(spec.serve, spec.seed);
  const FaultPlan fault = Registry::make_fault_plan(spec.fault, spec.seed);
  auto scheduler =
      Registry::make_scheduler(spec.scheduler, net, &fault, spec.threads);

  EngineOptions eopts;
  eopts.latency_factor = spec.latency_factor;
  if (spec.scheduler.kind == "dist-bucket")
    eopts.latency_factor = std::max<std::int64_t>(eopts.latency_factor, 2);
  eopts.fault = fault;
  eopts.threads = spec.threads;

  std::unique_ptr<TxnSource> source;
  if (cfg.source == "trace") {
    Instance inst = load_instance_file(cfg.trace_file);
    source = std::make_unique<TraceSource>(std::move(inst.origins),
                                           std::move(inst.txns),
                                           cfg.trace_loop);
  } else {
    SyntheticSourceOptions so;
    so.rate = cfg.rate;
    so.num_objects = cfg.objects;
    so.k = cfg.k;
    so.zipf_s = cfg.zipf;
    so.write_fraction = cfg.write_frac;
    so.burst_every = cfg.burst_every;
    so.burst_len = cfg.burst_len;
    so.burst_mult = cfg.burst_mult;
    so.seed = cfg.seed;
    source = std::make_unique<SyntheticSource>(net, so);
  }

  return std::make_unique<DtmServer>(net, std::move(source),
                                     std::move(scheduler), std::move(cfg),
                                     eopts, std::move(hooks));
}

}  // namespace dtm
